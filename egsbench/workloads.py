"""The three workloads: inputs made from a seed, the timed operations, and
the checks on their outputs.

Inputs are drawn from fixed generator templates.  A template fixes every
generator parameter except the seed, and with ``continue_prob=1.0`` and no
simultaneous moves it fixes the tree shape too, so the seed changes who
moves where, which histories share an information set and the payoffs,
but not the size mix.  That keeps the work per run nearly the same from
seed to seed, which is what lets two sets of runs on different seeds be
compared at all.

Every timed operation (an *item*) starts from text, so no object built in
an earlier item or round is reused.  Items are grouped in blocks; a run
performs whole blocks, and every block holds the same number of items on
the fixed pairs of ``data/`` that the program is known to get wrong, so a
run's share of failed items does not depend on the seed or the run length.
"""

from __future__ import annotations

import hashlib
import random
import signal
from dataclasses import dataclass
from pathlib import Path

from egs import core, dominance, fileformat, generate, isomorph, strategy, transform, validate

from oracles import Raw, plan_choices, strictly_dominated_rows

DATA = Path(__file__).resolve().parent / "data"

# Longest an rnf-route verdict may run, in process CPU time, before it is
# interrupted and counts as failed.  The slowest seeded verdict takes about
# a tenth of this; the fixed slow pairs in data/ run for minutes.  CPU time
# rather than wall time, so that a pause of the process cannot fail a
# verdict that would have finished.
RNF_BUDGET_S = 0.1

# Every template uses the same information-set merge probability.
MERGE_PROB = 0.8


@dataclass(frozen=True)
class Template:
    name: str
    players: int
    max_depth: int
    count: int
    min_profiles: int = 1
    max_profiles: int = 10**9

    def params(self, seed: int) -> generate.GenParams:
        return generate.GenParams(
            players=self.players, max_depth=self.max_depth, max_branching=2,
            simultaneity=0.0, merge_prob=MERGE_PROB, continue_prob=1.0,
            seed=seed,
        )


# Item counts are chosen so that the median item falls inside the middle
# template and the 90th percentile inside the largest common one, rather
# than on a boundary between two templates, where it would jump with the
# seed.
REDUCE_TEMPLATES = (
    Template("binary-d4-2p", 2, 4, 60),
    Template("binary-d5-3p", 3, 5, 100),
    Template("binary-d5-2p", 2, 5, 40),
    Template("binary-d6-2p", 2, 6, 2),
)

EQUIV_TEMPLATES = (
    Template("binary-d3-2p", 2, 3, 40, max_profiles=150),
    Template("binary-d3-3p", 3, 3, 20, max_profiles=150),
)
EQUIV_BLOCKS = 3

# Games with more plan profiles have a long cost tail (a 24-profile game
# can take six times the median), and which of them a seed draws moved
# item_p90_ms by about a tenth from seed to seed; 10 to 18 profiles keeps
# it steady.
DOMINANCE_TEMPLATES = (
    Template("binary-d3-2p", 2, 3, 200, min_profiles=10, max_profiles=18),
    Template("binary-d3-3p", 3, 3, 100, min_profiles=10, max_profiles=18),
)

# Blocks replayed, untraced and then traced, by a traced run.
TRACE_BLOCKS = {"reduce": 40, "equiv": 1, "dominance": 40}


@dataclass
class Item:
    kind: str                      # reduce | rnf | minimal | game
    texts: tuple[str, ...]
    expect: object = None          # verdict, or payoffs by raw terminal
    order_seed: int = 0            # reduce: seed of the random reduction order
    known_fault: bool = False      # a fixed pair of data/ this route gets wrong


@dataclass
class Inputs:
    blocks: list[list[Item]]

    def digest(self) -> str:
        h = hashlib.sha256()
        for block in self.blocks:
            for item in block:
                h.update(item.kind.encode())
                for text in item.texts:
                    h.update(text.encode())
                h.update(repr(item.expect).encode())
                h.update(str(item.order_seed).encode())
        return h.hexdigest()[:16]


class BudgetExceeded(Exception):
    pass


# -- input generation ---------------------------------------------------


def _profile_count(structure) -> int:
    raw = Raw.of(structure)
    total = 1
    for p in raw.players:
        total *= raw.plan_count(p)
    return total


def _draw(template: Template, rng: random.Random):
    """Structures of one template whose plan-profile count is in range."""
    while True:
        g = generate.gen_random(template.params(rng.getrandbits(48)), require_uo=True)
        if template.min_profiles <= _profile_count(g) <= template.max_profiles:
            return g


def _relabel(structure, rng: random.Random):
    """The same structure with every action renamed, in shuffled order, so
    an isomorphism search cannot start from the identity."""
    rename = {}
    for p in structure.players:
        old = sorted(structure.actions[p])
        new = [f"r{i}p{p}" for i in range(len(old))]
        rng.shuffle(new)
        rename[p] = dict(zip(old, new))

    def image(h):
        return core.History(tuple(
            tuple(sorted((p, rename[p][a]) for p, a in profile)) for profile in h.moves
        ))

    return core.Structure(
        structure.players,
        {p: frozenset(rename[p].values()) for p in structure.players},
        [image(h) for h in structure.histories],
        {
            p: tuple(core.InfoSet(p, tuple(image(m) for m in s.members)) for s in blocks)
            for p, blocks in structure.partitions.items()
        },
    )


def _walk(structure, rng: random.Random, steps: int):
    """Apply up to `steps` random coalescings or non-crossing ISs."""
    current = structure
    for _ in range(steps):
        opps = list(transform.find_coalescing(current))
        opps.extend(o for o in transform.find_is(current) if transform.is_non_crossing(current, o))
        if not opps:
            break
        opp = opps[rng.randrange(len(opps))]
        if isinstance(opp, transform.CoalescingOpp):
            current, _ = transform.apply_coalescing(current, opp)
        else:
            current, _ = transform.apply_is(current, opp)
    return current


def _interleave(groups: list[list[Item]]) -> list[Item]:
    """Merge the templates' items so that every stretch of the list holds
    them in the same proportions as the whole.  A run that stops part way
    through a pass then still measures the intended mix."""
    keyed = [
        ((j + 0.5) / len(group), g, item)
        for g, group in enumerate(groups) for j, item in enumerate(group)
    ]
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in keyed]


def build_reduce(seed: int) -> Inputs:
    rng = random.Random(f"reduce:{seed}")
    groups = []
    for template in REDUCE_TEMPLATES:
        group = []
        for _ in range(template.count):
            g = _draw(template, rng)
            group.append(Item("reduce", (fileformat.serialize(g),), order_seed=rng.getrandbits(32)))
        groups.append(group)
    return Inputs([[item] for item in _interleave(groups)])


def _pair_items(a: str, b: str, expect: bool, known_fault: str = "") -> list[Item]:
    """One verdict per route; `known_fault` names the route, if any, that
    the program is known to get wrong on this fixed pair."""
    return [
        Item(route, (a, b), expect, known_fault=route == known_fault)
        for route in ("rnf", "minimal")
    ]


def data_pairs(kind: str) -> list[tuple[str, str]]:
    """The fixed equivalent pairs of data/ named `kind`-*, as texts."""
    return [
        (first.read_text(), first.with_name(first.name[:-len("a.egs")] + "b.egs").read_text())
        for first in sorted(DATA.glob(f"{kind}-*-a.egs"))
    ]


def build_equiv(seed: int) -> Inputs:
    rng = random.Random(f"equiv:{seed}")
    rnf_slow, minimal_wrong = data_pairs("rnf-slow"), data_pairs("minimal-wrong")
    blocks = []
    for index in range(EQUIV_BLOCKS):
        block: list[Item] = []
        for template in EQUIV_TEMPLATES:
            for _ in range(template.count):
                g = _draw(template, rng)
                other = _relabel(_walk(g, rng, rng.randint(1, 4)), rng)
                # The minimal route answers False on about one such pair in
                # 130, depending on the seed (README, Faults seen), so
                # seeded positive pairs get the rnf verdict only.
                texts = (fileformat.serialize(g), fileformat.serialize(other))
                block.append(Item("rnf", texts, True))
            kept = 0
            while kept < template.count:
                g, h = _draw(template, rng), _draw(template, rng)
                if Raw.of(g).invariants() == Raw.of(h).invariants():
                    continue
                block += _pair_items(
                    fileformat.serialize(g), fileformat.serialize(_relabel(h, rng)), False
                )
                kept += 1
        for route, pairs in (("rnf", rnf_slow), ("minimal", minimal_wrong)):
            a, b = pairs[index % len(pairs)]
            block += _pair_items(a, b, True, known_fault=route)
        rng.shuffle(block)
        blocks.append(block)
    return Inputs(blocks)


def build_dominance(seed: int) -> Inputs:
    rng = random.Random(f"dominance:{seed}")
    groups = []
    for template in DOMINANCE_TEMPLATES:
        group = []
        for _ in range(template.count):
            g = _draw(template, rng)
            payoffs = generate.random_payoffs(g, rng)
            text = fileformat.serialize(dominance.Game(g, payoffs))
            by_terminal = {
                z.moves: {p: payoffs[p][z] for p in g.players} for z in g.terminals
            }
            group.append(Item("game", (text,), by_terminal))
        groups.append(group)
    return Inputs([[item] for item in _interleave(groups)])


MAKE_INPUTS = {"reduce": build_reduce, "equiv": build_equiv, "dominance": build_dominance}


# -- timed operations -------------------------------------------------------


def _on_budget(signum, frame):
    raise BudgetExceeded()


def run_item(item: Item):
    """The library calls of one item; the caller times this."""
    if item.kind == "reduce":
        g = fileformat.parse(item.texts[0])
        report = validate.validate_structure(g)
        uo, _ = validate.check_uo(g)
        m1 = transform.minimize_uo(g)
        m2 = transform.minimize_uo(g, rng=random.Random(item.order_seed))
        iso = isomorph.structure_isomorphic(m1, m2)
        compact, _ = transform.backward_compactify(g)
        text = fileformat.serialize(m1)
        return g, report, uo, m1, m2, iso, compact, text
    if item.kind == "minimal":
        a, b = (fileformat.parse(t) for t in item.texts)
        return a, b, strategy.behaviorally_equivalent(a, b, route="minimal")[0]
    if item.kind == "rnf":
        previous = signal.signal(signal.SIGPROF, _on_budget)
        signal.setitimer(signal.ITIMER_PROF, RNF_BUDGET_S)
        try:
            a, b = (fileformat.parse(t) for t in item.texts)
            return a, b, strategy.behaviorally_equivalent(a, b, route="rnf")[0]
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
    if item.kind == "game":
        game = fileformat.parse(item.texts[0])
        trace = dominance.bd(game)
        icos = transform.find_complete_icos(game.structure)
        reports = [dominance.check_monotonic(game, ico) for ico in icos]
        return game, trace, icos, reports
    raise ValueError(f"unknown item kind {item.kind}")


# -- checks -------------------------------------------------------------------


def _is_minimal(structure) -> bool:
    if transform.find_coalescing(structure):
        return False
    return not any(
        transform.is_non_crossing(structure, o) for o in transform.find_is(structure)
    )


def _check_reduce(item: Item, result) -> list[str]:
    g, report, uo, m1, m2, iso, compact, text = result
    problems = []
    if not (report.ok and uo):
        problems.append("input is not a valid UO structure")
    again = fileformat.serialize(g)
    if again != item.texts[0] or fileformat.parse(again) != g:
        problems.append("input text does not round-trip")
    parsed = fileformat.parse(text)
    if parsed != m1 or fileformat.serialize(parsed) != text:
        problems.append("minimal form text does not round-trip")
    for name, m in (("default-order", m1), ("random-order", m2)):
        if not validate.validate_structure(m).ok or not validate.check_uo(m)[0]:
            problems.append(f"{name} minimal form is not a valid UO structure")
        if not _is_minimal(m):
            problems.append(f"{name} minimal form still has a reduction")
    if iso is None:
        problems.append("the two minimal forms are not isomorphic")
    expected = Raw.of(g).invariants()
    for name, s in (("default-order", m1), ("random-order", m2), ("compacted", compact)):
        got = Raw.of(s).invariants()
        if got != expected:
            problems.append(f"{name} form has invariants {got}, input {expected}")
    return problems


def _check_verdict(item: Item, result) -> list[str]:
    a, b, flag = result
    problems = []
    if flag != item.expect:
        problems.append(f"{item.kind} route says {flag}, expected {item.expect}")
    same = Raw.of(a).invariants() == Raw.of(b).invariants()
    if item.expect and not same:
        problems.append("a positive pair differs on an invariant")
    if not item.expect and same:
        problems.append("a negative pair has no differing invariant")
    return problems


def _check_game(item: Item, result, fm_cache: dict) -> list[str]:
    game, trace, icos, reports = result
    structure = game.structure
    problems = []
    for p in structure.players:
        if not trace.survivors[p]:
            problems.append(f"player {p} keeps no plan")
    for ico, report in zip(icos, reports):
        if not report.ok:
            problems.append(f"monotonicity violated by {ico}")
    raw = Raw.of(structure)
    payoffs = item.expect
    final = trace.rounds[-1]
    for s, problem in final.items():
        if core.ROOT not in s.member_set:
            continue
        owner = s.owner
        others = [p for p in structure.players if p != owner]
        own_choices = [plan_choices(raw, plan) for plan in problem.own]
        rest_choices = [
            {p: plan_choices(raw, plan) for p, plan in zip(others, rest)}
            for rest in problem.others
        ]
        matrix = []
        for mine in own_choices:
            row = []
            for rest in rest_choices:
                z = raw.play({owner: mine, **rest})
                row.append(payoffs[z][owner])
            matrix.append(row)
        key = tuple(tuple(r) for r in matrix)
        if key not in fm_cache:
            fm_cache[key] = strictly_dominated_rows(matrix) if problem.others else []
        if fm_cache[key]:
            problems.append(f"surviving plans {fm_cache[key]} of {owner} are dominated at {s}")
    return problems


def fingerprint(item: Item, result):
    """A cheap summary of an item's output, compared on every repeat of the
    item after the first, fully checked, one."""
    if item.kind == "reduce":
        g, report, uo, m1, m2, iso, compact, text = result
        return text, fileformat.serialize(m2), fileformat.serialize(compact), iso is not None
    if item.kind in ("rnf", "minimal"):
        return result[2]
    game, trace, icos, reports = result
    return (
        tuple((p, tuple(plan.label() for plan in plans)) for p, plans in trace.survivors.items()),
        tuple(report.ok for report in reports),
    )


def failed(item: Item, result) -> bool:
    """An item fails when it ran past its budget (no result) or gave the
    wrong verdict."""
    return result is None or (item.kind in ("rnf", "minimal") and result[2] != item.expect)


def check_item(item: Item, result, fm_cache: dict) -> list[str]:
    if item.kind == "reduce":
        return _check_reduce(item, result)
    if item.kind in ("rnf", "minimal"):
        return _check_verdict(item, result)
    return _check_game(item, result, fm_cache)
