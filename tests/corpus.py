"""Seeded random corpora shared across test modules."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

from hypothesis import assume
from hypothesis import strategies as st

from egs import (
    GenError,
    GenParams,
    History,
    InfoSet,
    ReducedNormalForm,
    Structure,
    apply_coalescing,
    apply_is,
    find_coalescing,
    find_complete_icos,
    find_is,
    gen_random,
    is_non_crossing,
    make_profile,
)


def _params_for(k: int, seed: int) -> GenParams:
    rng = random.Random(f"{seed}:{k}")
    return GenParams(
        players=rng.choice((2, 2, 3)),
        max_depth=rng.choice((2, 3, 3, 4)),
        max_branching=2,
        simultaneity=rng.choice((0.15, 0.35, 0.5)),
        merge_prob=rng.choice((0.5, 0.8, 0.95)),
        continue_prob=rng.choice((0.5, 0.65)),
        seed=seed * 10_000 + k,
    )


@lru_cache(maxsize=None)
def uo_corpus(count: int, seed: int = 1) -> tuple[Structure, ...]:
    out = []
    k = 0
    while len(out) < count:
        out.append(gen_random(_params_for(k, seed), require_uo=True))
        k += 1
    return tuple(out)


@lru_cache(maxsize=None)
def vnm_corpus(count: int, seed: int = 2) -> tuple[Structure, ...]:
    out = []
    k = 0
    while len(out) < count:
        out.append(gen_random(_params_for(k, seed), require_vnm=True))
        k += 1
    return tuple(out)


@lru_cache(maxsize=None)
def ico_corpus(count: int, seed: int = 3, max_profiles: int | None = None):
    """(structure, complete ICO) pairs: every complete ICO of each corpus
    structure until `count` pairs are collected.  max_profiles bounds the
    plan-profile product so that procedures enumerating all profiles stay
    affordable."""
    out = []
    k = 0
    while len(out) < count:
        structure = gen_random(_params_for(k, seed), require_uo=True)
        k += 1
        if max_profiles is not None and profile_count(structure) > max_profiles:
            continue
        for ico in find_complete_icos(structure):
            out.append((structure, ico))
            if len(out) == count:
                break
    return tuple(out)


def profile_count(structure: Structure) -> int:
    from egs import plans

    total = 1
    for p in structure.players:
        total *= len(plans(structure, p))
    return total


@st.composite
def seeded_structures(draw) -> Structure:
    """A hypothesis strategy over seeded gen_random structures, drawn with
    and without the unambiguous-ordering requirement.  The seed picks the
    generator parameters too, so draws spread over the whole range instead
    of crowding at its small end.  Some unrestricted draws fail UO, so
    offending pairs get exercised as well."""
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    params = GenParams(
        players=rng.choice((2, 3, 4)),
        max_depth=rng.choice((3, 4, 5)),
        max_branching=2,
        simultaneity=rng.choice((0.0, 0.5)),
        merge_prob=rng.choice((0.5, 0.95)),
        continue_prob=0.65,
        seed=seed,
    )
    try:
        return gen_random(params, require_uo=draw(st.booleans()))
    except GenError:
        assume(False)


def renamed(structure: Structure, rng: random.Random, players: bool = False) -> Structure:
    """An isomorphic copy with every action, and with `players` every
    player, given a fresh name assigned in shuffled order."""
    pnames = list(structure.players)
    if players:
        fresh = [f"q{k}" for k in range(len(pnames))]
        rng.shuffle(fresh)
        pnames = fresh
    pmap = dict(zip(structure.players, pnames))
    amap = {}
    for p in structure.players:
        old = sorted(structure.actions.get(p, ()))
        fresh = [f"x{k}{pmap[p]}" for k in range(len(old))]
        rng.shuffle(fresh)
        amap[p] = dict(zip(old, fresh))

    def image(h):
        return History(tuple(
            make_profile({pmap[p]: amap[p][a] for p, a in move}) for move in h.moves
        ))

    return Structure(
        pnames,
        {pmap[p]: frozenset(amap[p].values()) for p in structure.players},
        [image(h) for h in structure.histories],
        {
            pmap[p]: tuple(InfoSet(pmap[p], tuple(image(m) for m in s.members)) for s in blocks)
            for p, blocks in structure.partitions.items()
        },
    )


def pooled_actions(structure: Structure, rng: random.Random) -> Structure:
    """The same tree with each information set's actions renamed, one to
    one, into a pool per player one name wider than her widest set, so
    that her sets share some or all of their action names (own-action
    disjointness fails) while every set stays measurable."""
    pool = {
        p: [f"y{k}" for k in range(1 + max(len(structure.feasible_at(s)) for s in blocks))]
        for p, blocks in structure.partitions.items() if blocks
    }
    names = {}
    for s in structure.info_sets:
        feas = structure.feasible_at(s)
        names[s] = dict(zip(feas, rng.sample(pool[s.owner], len(feas))))
    image = {structure.root: structure.root}
    for h in structure.histories[1:]:
        g = h.parent
        image[h] = image[g].extend(make_profile({
            p: names[structure.info_set_of(p, g)][a] for p, a in h.moves[-1]
        }))
    return Structure(
        structure.players,
        {p: frozenset(pool.get(p, ())) for p in structure.players},
        image.values(),
        {
            p: tuple(InfoSet(p, tuple(image[m] for m in s.members)) for s in blocks)
            for p, blocks in structure.partitions.items()
        },
    )


def shuffled_rnf(
    rnf: ReducedNormalForm, rng: random.Random, players: bool = False
) -> ReducedNormalForm:
    """The same reduced normal form with every plan list, the terminal
    list and, with `players`, the player order shuffled; rows stay in
    product order."""
    n = len(rnf.players)
    seats = rng.sample(range(n), n) if players else list(range(n))
    orders = [rng.sample(range(len(pl)), len(pl)) for pl in rnf.plan_lists]
    terms = rng.sample(range(len(rnf.terminals)), len(rnf.terminals))
    new_term = {old: new for new, old in enumerate(terms)}
    table = dict(rnf.table)
    rows = []
    for combo in itertools.product(*(range(len(rnf.plan_lists[i])) for i in seats)):
        old = [0] * n
        for i, k in zip(seats, combo):
            old[i] = orders[i][k]
        rows.append((combo, new_term[table[tuple(old)]]))
    return ReducedNormalForm(
        tuple(rnf.players[i] for i in seats),
        tuple(tuple(rnf.plan_lists[i][k] for k in orders[i]) for i in seats),
        tuple(rnf.terminals[k] for k in terms),
        tuple(rows),
    )


def random_chain(structure, rng, steps=3):
    """An equivalent structure: up to `steps` coalescings or non-crossing
    IS steps, each drawn from those available."""
    current = structure
    for _ in range(steps):
        opps = list(find_coalescing(current))
        opps.extend(
            o for o in find_is(current) if is_non_crossing(current, o)
        )
        if not opps:
            break
        opp = opps[rng.randrange(len(opps))]
        if hasattr(opp, "link"):
            current, _ = apply_coalescing(current, opp)
        else:
            current, _ = apply_is(current, opp)
    return current
