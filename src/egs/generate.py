"""Seeded random generation of valid perfect-recall structures.

Information sets are decided while the tree grows: a player's decision
points are grouped by the experience accumulated so far, and only
equal-experience histories may share a group, which yields perfect recall
by construction.  Every group mints its own fresh actions, so feasible
sets are measurable and disjoint across a player's sets for free.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import EgsError, History, InfoSet, ROOT, Structure
from .validate import check_uo, check_vnm, validate_structure


class GenError(EgsError):
    pass


_MAX_ATTEMPTS = 400  # gen_random's rejection-sampling budget
_PAYOFF_SPAN = 6  # random_payoffs draws numerators in [-span, span]


@dataclass(frozen=True)
class GenParams:
    players: int = 2
    max_depth: int = 3
    max_branching: int = 2
    simultaneity: float = 0.2
    merge_prob: float = 0.5
    continue_prob: float = 0.5
    seed: int = 0


def _letters(n: int) -> str:
    out = ""
    n += 1
    while n:
        n, r = divmod(n - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def gen_random(
    params: GenParams,
    require_uo: bool = False,
    require_vnm: bool = False,
) -> Structure:
    """Generate a structure; with the flags set, rejection-sample until the
    unambiguous-ordering (or equal-length) property holds."""
    for attempt in range(_MAX_ATTEMPTS):
        rng = random.Random(f"{params.seed}:{attempt}")
        structure = _generate_once(params, rng)
        if structure is None:
            continue
        if require_vnm and not check_vnm(structure)[0]:
            continue
        if require_uo and not check_uo(structure)[0]:
            continue
        return structure
    raise GenError(
        f"no admissible structure in {_MAX_ATTEMPTS} attempts; "
        "loosen the requirements, shrink the tree, or change the seed"
    )


def _generate_once(params: GenParams, rng: random.Random) -> Structure | None:
    players = [str(i + 1) for i in range(params.players)]
    mint_count = {p: 0 for p in players}
    groups: dict[tuple, dict] = {}           # group key -> {actions, members}
    group_count_by_exp: dict[tuple, int] = {}
    crossings: dict[History, dict[str, tuple]] = {ROOT: {p: () for p in players}}
    histories: list[History] = [ROOT]
    frontier: list[History] = [ROOT]

    def new_actions(p: str) -> tuple[str, ...]:
        k = rng.randint(2, max(2, params.max_branching))
        start = mint_count[p]
        mint_count[p] = start + k
        return tuple(_letters(start + j) + p for j in range(k))

    while frontier:
        h = frontier.pop(0)
        depth = h.length
        if depth >= params.max_depth:
            continue
        if depth > 0 and rng.random() > params.continue_prob:
            continue
        if len(players) > 1 and rng.random() < params.simultaneity:
            active = sorted(rng.sample(players, 2))
        else:
            active = [rng.choice(players)]
        assignment: dict[str, tuple] = {}
        for p in active:
            exp = (p, crossings[h][p])
            existing = group_count_by_exp.get(exp, 0)
            if existing and rng.random() < params.merge_prob:
                salt = rng.randrange(existing)
            else:
                salt = existing
                group_count_by_exp[exp] = existing + 1
                groups[exp + (salt,)] = {"actions": new_actions(p), "members": []}
            key = exp + (salt,)
            groups[key]["members"].append(h)
            assignment[p] = key
        pools = [
            [(p, a) for a in groups[assignment[p]]["actions"]] for p in active
        ]
        for combo in itertools.product(*pools):
            child = h.extend(tuple(sorted(combo)))
            crossings[child] = {
                p: crossings[h][p] + (((assignment[p], dict(combo)[p]),) if p in assignment else ())
                for p in players
            }
            histories.append(child)
            frontier.append(child)

    actions = {p: set() for p in players}
    partitions: dict[str, list[InfoSet]] = {p: [] for p in players}
    for (p, _exp, _salt), data in groups.items():
        actions[p].update(data["actions"])
        partitions[p].append(InfoSet(p, tuple(data["members"])))
    if any(not partitions[p] for p in players):
        return None  # an idle player; resample
    structure = Structure(
        players, {p: frozenset(a) for p, a in actions.items()},
        histories, {p: tuple(v) for p, v in partitions.items()},
    )
    report = validate_structure(structure)
    if not report.ok:
        raise GenError(f"generator produced an invalid structure: {report}")
    return structure


def random_payoffs(
    structure: Structure, rng: random.Random
) -> dict[str, dict[History, Fraction]]:
    """Exact-rational payoffs with small denominators, one draw per
    terminal and player."""
    return {
        p: {
            z: Fraction(rng.randint(-_PAYOFF_SPAN, _PAYOFF_SPAN), rng.choice((1, 2, 3)))
            for z in structure.terminals
        }
        for p in structure.players
    }
