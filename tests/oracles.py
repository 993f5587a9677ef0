"""Independent decision procedures used to cross-check the library."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction

from egs import (
    ROOT,
    BdTrace,
    CoalescingOpp,
    CompleteControl,
    DecisionProblem,
    DominanceError,
    EgsError,
    History,
    Ico,
    InfoSet,
    IsOpp,
    Plan,
    ReducedNormalForm,
    RelationSet,
    Structure,
    TransformError,
    apply_coalescing,
    apply_is,
    apply_tau,
    behaviorally_equivalent,
    check_uo,
    controls,
    dictates,
    find_coalescing,
    find_is,
    is_non_crossing,
    make_profile,
    plans,
    play,
    relation,
    sim_classes,
)
from egs.core import history_key, profile_label, strictly_precedes
from egs.fileformat import (
    _ACTION_SYNTAX,
    _ID_SYNTAX,
    _TOKEN,
    FormatError,
    _name,
    _once,
    _parse_fraction,
    _unquote,
)
from egs.dominance import Game, MonotonicityReport, MonotonicityViolation
from egs.lp import LpError


def fm_feasible_strict(rows):
    """Fourier-Motzkin oracle: is there a full-simplex mixture of the rows
    that is strictly positive in every column?

    Variables are the first n-1 weights (the last is 1 minus their sum).
    Constraints are (coeffs, const, strict) meaning sum(c*x) + const >= 0
    (or > 0).  Eliminating a variable pairs each lower bound with each
    upper bound; feasibility survives iff no constant constraint fails.
    """
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    if n == 0:
        return False
    constraints = []
    for c in range(ncols):
        coeffs = [rows[k][c] - rows[n - 1][c] for k in range(n - 1)]
        constraints.append((coeffs, rows[n - 1][c], True))
    for k in range(n - 1):
        unit = [Fraction(0)] * (n - 1)
        unit[k] = Fraction(1)
        constraints.append((unit, Fraction(0), False))
    constraints.append(([Fraction(-1)] * (n - 1), Fraction(1), False))

    for var in range(n - 2, -1, -1):
        lowers, uppers, rest = [], [], []
        for coeffs, const, strict in constraints:
            a = coeffs[var]
            reduced = coeffs[:var] + coeffs[var + 1:]
            if a > 0:
                lowers.append(([x / a for x in reduced], const / a, strict))
            elif a < 0:
                uppers.append(([x / -a for x in reduced], const / -a, strict))
            else:
                rest.append((reduced, const, strict))
        combined = rest
        for lc, lk, ls in lowers:
            for uc, uk, us in uppers:
                combined.append((
                    [u + l for u, l in zip(uc, lc)], uk + lk, ls or us
                ))
        deduped = {(tuple(c), k, s) for c, k, s in combined}
        constraints = [(list(c), k, s) for c, k, s in deduped]
    for _, const, strict in constraints:
        if strict and const <= 0:
            return False
        if not strict and const < 0:
            return False
    return True


def oracle_dominated(matrix):
    """Row indices strictly dominated by a mixture over all rows.  Entries
    are taken as exact rationals, so integer matrices divide exactly too."""
    matrix = [[Fraction(x) for x in row] for row in matrix]
    n = len(matrix)
    out = []
    for r in range(n):
        diff = [
            [matrix[k][c] - matrix[r][c] for c in range(len(matrix[0]))]
            for k in range(n)
        ]
        if fm_feasible_strict(diff):
            out.append(r)
    return tuple(out)


# -- pairwise reference definitions of the order and control queries --------
#
# These are the all-pairs scans the library used before it answered the same
# questions from a per-structure index; the property tests hold the index to
# them, list order included.


def relation_pairwise(structure, a, b):
    return RelationSet(
        before=any(strictly_precedes(x, y) for x in a.members for y in b.members),
        simultaneous=bool(a.member_set & b.member_set),
        after=any(strictly_precedes(y, x) for x in a.members for y in b.members),
    )


def check_uo_pairwise(structure):
    sets = structure.info_sets
    for i, a in enumerate(sets):
        for b in sets[i:]:
            r = relation_pairwise(structure, a, b)
            if r.before and r.after:
                return False, (a, b)
    return True, None


def controls_pairwise(structure, base, mover):
    if base == mover:
        return None
    target = structure.terminals_below_set(mover.members)
    for action in structure.feasible_at(base):
        if structure.terminals_after_action(base, action) == target:
            return action
    return None


def _infoset_key(s):
    return (s.owner, tuple(m.moves for m in s.members))


def find_coalescing_pairwise(structure):
    out = []
    for p in structure.players:
        blocks = structure.partitions.get(p, ())
        for base in blocks:
            for mover in blocks:
                link = controls_pairwise(structure, base, mover)
                if link is not None:
                    out.append(CoalescingOpp(p, base, mover, link))
    out.sort(key=lambda o: (o.owner, _infoset_key(o.base), o.link))
    return out


def find_is_pairwise(structure):
    out = []
    for h in structure.nonterminals:
        active = set(structure.active(h))
        for p in structure.players:
            if p in active:
                continue
            for block in structure.partitions.get(p, ()):
                d = tuple(m for m in block.members if strictly_precedes(h, m))
                if d and dictates(structure, h, d, p):
                    out.append(IsOpp(p, h, d, block))
    out.sort(key=lambda o: (o.anchor.moves, o.owner, _infoset_key(o.mover)))
    return out


def anchored_members_reference(structure):
    """Each (set, anchor) with the anchor strictly before a member of the
    set and the set's owner inactive there, mapped to the members below the
    anchor in history order: the order walk as it carried the current path
    and scanned it at every member, with members the walk cannot reach read
    prefix by prefix."""
    sets_at = {}
    for s in structure.info_sets:
        for m in s.members:
            sets_at.setdefault(m, []).append(s)
    below = {}
    path = []
    stack = [ROOT] if structure.has_history(ROOT) else []
    while stack:
        h = stack.pop()
        del path[h.length:]
        for s in sets_at.pop(h, ()):
            for g in path:
                if s.owner not in structure.active(g):
                    below.setdefault((s, g), []).append(h)
        path.append(h)
        stack.extend(reversed(structure.children(h)))
    for h, here in sets_at.items():
        for n in range(h.length):
            g = h.prefix(n)
            if structure.has_history(g) and not structure.is_terminal(g):
                for s in here:
                    if s.owner not in structure.active(g):
                        below.setdefault((s, g), []).append(h)
    return {k: tuple(v) for k, v in below.items()}


def find_is_reference(structure):
    """IS opportunities as the anchored members that dictate."""
    out = [
        IsOpp(s.owner, anchor, d, s)
        for (s, anchor), d in anchored_members_reference(structure).items()
        if dictates(structure, anchor, d, s.owner)
    ]
    out.sort(key=lambda o: (o.anchor.moves, o.owner, _infoset_key(o.mover)))
    return out


def is_non_crossing_reference(structure, opp):
    """The crossing test as a scan of every other set's members against the
    anchor, the sub-mover and the mover's other members."""
    leftover = [x for x in opp.mover.members if x not in opp.submover_set]
    for s in structure.info_sets:
        if s == opp.mover:
            continue
        lifted_over = any(
            strictly_precedes(opp.anchor, g)
            and any(g.is_prefix_of(m) for m in opp.submover)
            for g in s.members
        )
        foothold = any(
            strictly_precedes(m, opp.anchor)
            or any(strictly_precedes(m, x) for x in leftover)
            for m in s.members
        )
        if lifted_over and foothold:
            return False
    return True


# -- the two operators as separate rewrites ----------------------------------
#
# Coalescing and IS as the library wrote them before both became one lift:
# each builds its own forward map, partitions and structure, and records
# the step the way plan transport reads it.  The property tests require the
# shared lift to give equal structures and maps.


@dataclass(frozen=True)
class StepReference:
    """One coalescing or IS step: the history and information-set maps,
    and what the step rule of `transport_plan_reference` reads."""

    kind: str
    owner: str
    forward: dict
    infoset_map: dict
    base: InfoSet | None = None
    mover: InfoSet | None = None
    link: str | None = None


def _descendants(structure, h):
    out = []
    stack = list(structure.children(h))
    while stack:
        g = stack.pop()
        out.append(g)
        stack.extend(structure.children(g))
    return out


def _with_component(profile, player, action):
    entries = dict(profile)
    entries[player] = action
    return make_profile(entries)


def _without_component(profile, player):
    entries = {p: a for p, a in profile if p != player}
    return make_profile(entries) if entries else None


def apply_coalescing_reference(structure, opp):
    if not structure.has_info_set(opp.base) or not structure.has_info_set(opp.mover):
        raise TransformError(f"stale coalescing opportunity {opp!r}")
    if controls(structure, opp.base, opp.mover) != opp.link:
        raise TransformError(f"stale coalescing opportunity {opp!r}")
    i = opp.owner
    mover_actions = structure.feasible_at(opp.mover)

    base_prefix = {}
    for b in opp.base.members:
        for kid in structure.children(b):
            if dict(kid.moves[-1]).get(i) == opp.link:
                base_prefix[kid] = b
                for g in _descendants(structure, kid):
                    base_prefix[g] = b
    mover_prefix = {}
    for m in opp.mover.members:
        for g in _descendants(structure, m):
            mover_prefix[g] = m

    forward = {}
    for g in structure.histories:
        b = base_prefix.get(g)
        if b is None:
            forward[g] = (g,)
            continue
        first = g.move_at(b.length)
        mid = g.moves[b.length + 1:]
        m = mover_prefix.get(g)
        if m is None:
            forward[g] = tuple(sorted(
                (History(b.moves + (_with_component(first, i, c),) + mid)
                 for c in mover_actions),
                key=history_key,
            ))
        else:
            taken = dict(g.move_at(m.length))[i]
            stripped = _without_component(g.move_at(m.length), i)
            tail = g.moves[b.length + 1:m.length] \
                + ((stripped,) if stripped else ()) \
                + g.moves[m.length + 1:]
            forward[g] = (History(b.moves + (_with_component(first, i, taken),) + tail),)

    new_histories = sorted({h for imgs in forward.values() for h in imgs}, key=history_key)
    infoset_map = {}
    partitions = {p: [] for p in structure.players}
    for p in structure.players:
        for block in structure.partitions.get(p, ()):
            if block == opp.mover:
                infoset_map[block] = opp.base
                continue
            if block == opp.base:
                new_block = block
            else:
                new_block = InfoSet(p, tuple(
                    h for m in block.members for h in forward[m]
                ))
            partitions[p].append(new_block)
            infoset_map[block] = new_block
    new_structure = Structure(
        structure.players, structure.actions, new_histories,
        {p: tuple(blocks) for p, blocks in partitions.items()},
    )
    return new_structure, StepReference(
        "coalescing", i, forward, infoset_map, opp.base, opp.mover, opp.link
    )


def unrelated_to_submover_reference(structure, opp):
    """The histories strictly below the anchor that are neither strictly
    below a sub-mover member nor a prefix of one, in history order: the
    scan that finds a broken dictation."""
    region = set(_descendants(structure, opp.anchor))
    below = {g for m in opp.submover for g in _descendants(structure, m)}
    return [
        g for g in structure.histories
        if g in region and g not in below
        and not any(g.is_prefix_of(d) for d in opp.submover)
    ]


def apply_is_reference(structure, opp):
    i = opp.owner
    if not structure.has_history(opp.anchor) or not structure.has_info_set(opp.mover):
        raise TransformError(f"stale IS opportunity {opp!r}")
    if not opp.submover_set <= opp.mover.member_set:
        raise TransformError("sub-mover is not part of the mover")
    if not dictates(structure, opp.anchor, opp.submover, i):
        raise TransformError(f"stale IS opportunity {opp!r}")
    unrelated = unrelated_to_submover_reference(structure, opp)
    if unrelated:
        raise TransformError(
            f"{unrelated[0].label()!r} is unrelated to the sub-mover; dictation is broken"
        )
    mover_actions = structure.feasible_at(opp.mover)
    anchor = opp.anchor

    sub_prefix = {}
    for m in opp.submover:
        for g in _descendants(structure, m):
            sub_prefix[g] = m
    region = set(_descendants(structure, anchor))

    forward = {}
    for g in structure.histories:
        if g not in region:
            forward[g] = (g,)
            continue
        first = g.move_at(anchor.length)
        m = sub_prefix.get(g)
        if m is None:
            forward[g] = tuple(sorted(
                (History(anchor.moves
                         + (_with_component(first, i, c),)
                         + g.moves[anchor.length + 1:])
                 for c in mover_actions),
                key=history_key,
            ))
        else:
            taken = dict(g.move_at(m.length))[i]
            stripped = _without_component(g.move_at(m.length), i)
            tail = g.moves[anchor.length + 1:m.length] \
                + ((stripped,) if stripped else ()) \
                + g.moves[m.length + 1:]
            forward[g] = (History(
                anchor.moves + (_with_component(first, i, taken),) + tail
            ),)

    new_histories = sorted({h for imgs in forward.values() for h in imgs}, key=history_key)
    infoset_map = {}
    partitions = {p: [] for p in structure.players}
    for p in structure.players:
        for block in structure.partitions.get(p, ()):
            if block == opp.mover:
                kept = [m for m in block.members if m not in opp.submover_set]
                new_block = InfoSet(p, (anchor,) + tuple(
                    h for m in kept for h in forward[m]
                ))
            else:
                new_block = InfoSet(p, tuple(
                    h for m in block.members for h in forward[m]
                ))
            partitions[p].append(new_block)
            infoset_map[block] = new_block
    new_structure = Structure(
        structure.players, structure.actions, new_histories,
        {p: tuple(blocks) for p, blocks in partitions.items()},
    )
    return new_structure, StepReference("is", i, forward, infoset_map)


def transport_plan_reference(plan, step):
    """Carry a plan across one step.  An IS step, or a step of another
    player, only re-keys information sets.  A coalescing merges the
    mover's choice into the base: a plan that chose the link there now
    chooses its mover action instead."""
    if step.kind == "is" or plan.owner != step.owner:
        return Plan(plan.owner, tuple((step.infoset_map[s], a) for s, a in plan.choices))
    mover_choice = plan.get(step.mover)
    out = []
    for s, a in plan.choices:
        if s == step.mover:
            continue
        if s == step.base and a == step.link:
            if mover_choice is None:
                raise TransformError(f"{plan!r} chose the link but not at the mover")
            out.append((step.infoset_map[s], mover_choice))
        else:
            out.append((step.infoset_map[s], a))
    return Plan(plan.owner, tuple(out))


def tau_reference(structure, ico):
    """τ replayed on the reference operators, step by step: each IS part at
    every image of its anchor, then each coalescing, every piece re-found
    through the maps so far.  Returns the result, its forward and
    infoset maps from `structure`, and the steps taken."""
    current, steps = structure, []
    forward = {h: (h,) for h in structure.histories}
    infosets = {s: s for s in structure.info_sets}
    for part in ico.is_parts:
        for a in forward[part.anchor]:
            mover_now = infosets[part.mover]
            piece = tuple(m for m in mover_now.members if strictly_precedes(a, m))
            current, step = apply_is_reference(current, IsOpp(part.owner, a, piece, mover_now))
            forward, infosets = composite_extend_reference(forward, infosets, step)
            steps.append(step)
    for part in ico.coalescings:
        base_now, mover_now = infosets[part.base], infosets[part.mover]
        link = controls(current, base_now, mover_now)
        current, step = apply_coalescing_reference(
            current, CoalescingOpp(part.owner, base_now, mover_now, link)
        )
        forward, infosets = composite_extend_reference(forward, infosets, step)
        steps.append(step)
    return current, forward, infosets, steps


def plan_map_reference(structure, steps):
    """Every player's plans, each carried through the steps in turn."""
    out = {}
    for p in structure.players:
        out[p] = {}
        for plan in plans(structure, p):
            image = plan
            for step in steps:
                image = transport_plan_reference(image, step)
            out[p][plan] = image
    return out


# -- behavioral equivalence --------------------------------------------------


def counted_invariants(structure, allow_player_permutation=False):
    """The terminal count, the players and each player's plan count, the
    plans enumerated by `plans`; with players permutable, only the terminal
    count and the sorted plan counts."""
    counts = tuple(len(plans(structure, p)) for p in structure.players)
    if allow_player_permutation:
        return len(structure.terminals), tuple(sorted(counts))
    return len(structure.terminals), tuple(structure.players), counts


def equivalent_by_both_routes(g1, g2, allow_player_permutation=False):
    """Both routes' verdict on a pair, which must agree, and their
    certificates merged, the rnf route's reason kept.  A pair whose counted
    invariants differ must be refused by both routes for one reason."""
    (flag, cert), (flag_min, cert_min) = (
        behaviorally_equivalent(
            g1, g2, route=route, allow_player_permutation=allow_player_permutation
        )
        for route in ("rnf", "minimal")
    )
    assert flag == flag_min, f"routes disagree: rnf={flag} minimal={flag_min}"
    counted = [counted_invariants(g, allow_player_permutation) for g in (g1, g2)]
    if counted[0] != counted[1]:
        assert not flag, f"equivalent, but the counted invariants differ: {counted}"
        assert cert["reason"] == cert_min["reason"], (cert["reason"], cert_min["reason"])
    return flag, {**cert_min, **cert}


# -- isomorphism references -------------------------------------------------


def structure_certificate_ok(g1, g2, iso) -> bool:
    """Does the certificate map g1 exactly onto g2?  The player map and each
    player's action map must be bijections onto the image player's
    occurring actions, the history map a bijection sending the root to the
    root and every child to its image parent extended by the image of its
    last move, and every information set onto one of the image player's."""
    pmap = dict(iso.player_map)
    if sorted(pmap) != sorted(g1.players) or sorted(pmap.values()) != sorted(g2.players):
        return False
    amaps = {p: dict(m) for p, m in iso.action_maps}
    used1, used2 = _occurring_actions(g1), _occurring_actions(g2)
    for p in g1.players:
        amap = amaps.get(p, {})
        images = set(amap.values())
        if set(amap) != used1[p] or images != used2[pmap[p]] or len(images) != len(amap):
            return False
    hmap = dict(iso.history_map)
    if set(hmap) != set(g1.histories) or set(hmap.values()) != set(g2.histories):
        return False
    if len(g1.histories) != len(g2.histories) or hmap[ROOT] != ROOT:
        return False
    for h in g1.histories[1:]:
        move = make_profile({pmap[p]: amaps[p][a] for p, a in h.moves[-1]})
        if hmap[h] != hmap[h.parent].extend(move):
            return False
    for p in g1.players:
        blocks = {frozenset(hmap[m] for m in s.members) for s in g1.partitions.get(p, ())}
        if blocks != {s.member_set for s in g2.partitions.get(pmap[p], ())}:
            return False
    return True


def _occurring_actions(g):
    out = {p: set() for p in g.players}
    for h in g.histories[1:]:
        for p, a in h.moves[-1]:
            out[p].add(a)
    return out


def rnf_certificate_ok(r1, r2, iso) -> bool:
    """Are the certificate's player, plan and terminal maps bijections
    under which every cell of r1's table lands on the cell of r2 with the
    image terminal?"""
    pmap = dict(iso.player_map)
    if sorted(pmap) != sorted(r1.players) or sorted(pmap.values()) != sorted(r2.players):
        return False
    perm = [r2.players.index(pmap[p]) for p in r1.players]
    if len(iso.plan_maps) != len(perm):
        return False
    for i, j in enumerate(perm):
        if sorted(iso.plan_maps[i]) != list(range(len(r2.plan_lists[j]))):
            return False
    if sorted(iso.terminal_map) != list(range(len(r2.terminals))):
        return False
    table2 = dict(r2.table)
    for combo, term in r1.table:
        target = [0] * len(perm)
        for i, j in enumerate(perm):
            target[j] = iso.plan_maps[i][combo[i]]
        if table2.get(tuple(target)) != iso.terminal_map[term]:
            return False
    return len(r1.table) == len(r2.table)


def rnf_isomorphic_brute(r1, r2, allow_player_permutation=False) -> bool:
    """Try every player permutation (identity unless allowed) and every
    family of plan permutations; one is an isomorphism when the terminal
    correspondence it induces through the tables is injective."""
    n = len(r1.players)
    if n != len(r2.players) or len(r1.terminals) != len(r2.terminals):
        return False
    if allow_player_permutation:
        perms = itertools.permutations(range(n))
    else:
        perms = [tuple(range(n))] if r1.players == r2.players else []
    table2 = dict(r2.table)
    for perm in perms:
        if any(len(r1.plan_lists[i]) != len(r2.plan_lists[j]) for i, j in enumerate(perm)):
            continue
        for maps in itertools.product(
            *(itertools.permutations(range(len(pl))) for pl in r1.plan_lists)
        ):
            tmap = {}
            for combo, term in r1.table:
                target = [0] * n
                for i, j in enumerate(perm):
                    target[j] = maps[i][combo[i]]
                image = table2[tuple(target)]
                if tmap.setdefault(term, image) != image:
                    break
            else:
                if len(set(tmap.values())) == len(tmap):
                    return True
    return False


# -- per-profile references for games ----------------------------------------
#
# Games, decision problems, dominance, backward dominance and reduced normal
# forms as the library computed them before it read a per-structure plan
# space: every plan profile is played out from the root, plans are dict keys,
# and every open row goes to the LP.  The property tests require the library
# to give equal values, list orders included.


class GameReference:
    """A game whose outcome table holds `play` of every plan profile."""

    def __init__(self, structure, payoffs):
        self.structure = structure
        self.payoffs = {
            p: {z: Fraction(v) for z, v in payoffs[p].items()} for p in structure.players
        }
        self.plan_lists = {p: plans(structure, p) for p in structure.players}
        self.outcomes = {}
        for combo in itertools.product(*(self.plan_lists[p] for p in structure.players)):
            self.outcomes[combo] = play(structure, dict(zip(structure.players, combo)))
        self.memo = {}

    def utility(self, player, combo):
        return self.payoffs[player][self.outcomes[combo]]


def _rest_axes(structure, owner):
    return [k for k, p in enumerate(structure.players) if p != owner]


def reaching_reference(game, infoset):
    """Projections of the profiles whose play crosses the set, in order of
    first appearance over the profiles in product order."""
    structure = game.structure
    structure.require_info_set(infoset)
    target = structure.terminals_below_set(infoset.members)
    owner_axis = structure.players.index(infoset.owner)
    rest_axes = _rest_axes(structure, infoset.owner)
    own, others = [], []
    for combo, z in game.outcomes.items():
        if z in target:
            mine = combo[owner_axis]
            rest = tuple(combo[k] for k in rest_axes)
            if mine not in own:
                own.append(mine)
            if rest not in others:
                others.append(rest)
    return DecisionProblem(infoset, tuple(own), tuple(others))


@dataclass(frozen=True)
class ReferenceLpResult:
    status: str                 # "optimal" | "unbounded"
    value: Fraction | None
    solution: tuple[Fraction, ...] | None


def _pivot(tableau, basis, row, col):
    pivot = tableau[row][col]
    if pivot != 1:
        tableau[row] = [x / pivot for x in tableau[row]]
    prow = tableau[row]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            tableau[r] = [a - factor * b if b else a for a, b in zip(line, prow)]
    basis[row] = col


def _run_simplex(tableau, basis, ncols):
    """Maximize the objective held in the last tableau row (stored negated,
    standard form).  Bland's rule: smallest eligible column, then smallest
    basis index among minimizing ratios."""
    while True:
        obj = tableau[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best_row = None
        best_ratio = None
        for r in range(len(tableau) - 1):
            coef = tableau[r][col]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[best_row])):
                    best_ratio = ratio
                    best_row = r
        if best_row is None:
            return "unbounded"
        _pivot(tableau, basis, best_row, col)


def _crash_basis(rows, width, n):
    """A column per row that is positive in it and zero in every other
    row, or None.  Slack columns are tried before structural ones, so a
    `<=` row keeps its own slack."""
    basis = [None] * len(rows)
    for j in [*range(n, width), *range(n)]:
        hits = [r for r, (row, _) in enumerate(rows) if row[j] != 0]
        if len(hits) == 1 and basis[hits[0]] is None and rows[hits[0]][0][j] > 0:
            basis[hits[0]] = j
    return basis


def maximize_reference(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> ReferenceLpResult:
    """A general exact-rational LP: max c.x subject to a_ub.x <= b_ub,
    a_eq.x == b_eq, x >= 0, by a dense one-phase simplex in Fractions from
    a crash basis (each row a column positive in it and zero in every
    other row), with Bland's rule.

    Raises LpError when some right-hand side is negative or some row has
    no crash column."""
    c = [Fraction(x) for x in c]
    a_ub = [[Fraction(x) for x in row] for row in (a_ub or [])]
    b_ub = [Fraction(x) for x in (b_ub or [])]
    a_eq = [[Fraction(x) for x in row] for row in (a_eq or [])]
    b_eq = [Fraction(x) for x in (b_eq or [])]
    n = len(c)
    n_slack = len(a_ub)
    rows = []
    for idx, (row, rhs) in enumerate(zip(a_ub, b_ub)):
        slack = [Fraction(0)] * n_slack
        slack[idx] = Fraction(1)
        rows.append((row + slack, rhs))
    rows += [(row + [Fraction(0)] * n_slack, rhs) for row, rhs in zip(a_eq, b_eq)]
    if any(rhs < 0 for _, rhs in rows):
        raise LpError("a right-hand side is negative; no crash basis is feasible")
    width = n + n_slack
    basis = _crash_basis(rows, width, n)
    if None in basis:
        raise LpError(f"row {basis.index(None)} has no crash column")
    tableau = [row + [rhs] for row, rhs in rows]
    for r, b in enumerate(basis):
        _pivot(tableau, basis, r, b)  # scales the row to a unit column
    obj = [-x for x in c] + [Fraction(0)] * (n_slack + 1)
    for r, b in enumerate(basis):
        if obj[b] != 0:
            factor = obj[b]
            obj = [a - factor * x for a, x in zip(obj, tableau[r])]
    tableau.append(obj)
    if _run_simplex(tableau, basis, width) == "unbounded":
        return ReferenceLpResult("unbounded", None, None)
    solution = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            solution[b] = tableau[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, solution))
    return ReferenceLpResult("optimal", value, tuple(solution))


def dominated_rows_lp(matrix):
    """Rows strictly dominated by a mixture: pure domination, else one LP
    maximizing the worst-column slack of a mixture over the simplex."""
    n = len(matrix)
    if n <= 1 or not matrix[0]:
        return ()
    ncols = len(matrix[0])
    out = []
    for r in range(n):
        if any(
            all(matrix[k][c] > matrix[r][c] for c in range(ncols))
            for k in range(n) if k != r
        ):
            out.append(r)
            continue
        a_ub = [
            [-(matrix[k][c] - matrix[r][c]) for k in range(n)] + [1] for c in range(ncols)
        ]
        result = maximize_reference([0] * n + [1], a_ub, [0] * ncols, [[1] * n + [0]], [1])
        if result.status == "unbounded" or (result.status == "optimal" and result.value > 0):
            out.append(r)
    return tuple(out)


def strictly_dominated_reference(problem, game):
    if not problem.others or len(problem.own) <= 1:
        return ()
    structure = game.structure
    owner = problem.at.owner
    owner_axis = structure.players.index(owner)
    rest_axes = _rest_axes(structure, owner)
    matrix = []
    for mine in problem.own:
        row = []
        for rest in problem.others:
            combo = [None] * len(structure.players)
            combo[owner_axis] = mine
            for k, plan in zip(rest_axes, rest):
                combo[k] = plan
            row.append(game.utility(owner, tuple(combo)))
        matrix.append(tuple(row))
    key = tuple(matrix)
    if key not in game.memo:
        game.memo[key] = dominated_rows_lp(key)
    return tuple(problem.own[r] for r in game.memo[key])


def bd_reference(game):
    """Backward dominance over Plan-keyed decision problems, round by round
    until two rounds coincide."""
    structure = game.structure
    ok, witness = check_uo(structure)
    if not ok:
        raise DominanceError(f"no unambiguous ordering: {witness}")
    sets = structure.info_sets
    followers = {
        s: [t for t in sets if relation(structure, s, t).weakly_follows] for s in sets
    }
    problems = {s: reaching_reference(game, s) for s in sets}
    rounds = [dict(problems)]
    eliminated_round = {}
    root_sets = [s for s in sets if ROOT in s.member_set]
    n = 0
    while True:
        n += 1
        sd = {s: set(strictly_dominated_reference(problems[s], game)) for s in problems}
        new_problems = {}
        for s, prob in problems.items():
            bad = {}
            for t in followers[s]:
                bad.setdefault(t.owner, set()).update(sd[t])
            axes = [q for q in structure.players if q != s.owner]
            own = tuple(p for p in prob.own if p not in bad.get(s.owner, ()))
            others = tuple(
                rest for rest in prob.others
                if not any(plan in bad.get(q, ()) for plan, q in zip(rest, axes))
            )
            new_problems[s] = DecisionProblem(s, own, others)
        for s in root_sets:
            axes = [q for q in structure.players if q != s.owner]
            for plan in set(rounds[-1][s].own) - set(new_problems[s].own):
                eliminated_round.setdefault((s.owner, plan), n)
            before = {(q, p) for rest in rounds[-1][s].others for q, p in zip(axes, rest)}
            after = {(q, p) for rest in new_problems[s].others for q, p in zip(axes, rest)}
            for key in before - after:
                eliminated_round.setdefault(key, n)
        rounds.append(new_problems)
        if new_problems == problems:
            break
        problems = new_problems
    survivors = {}
    for player in structure.players:
        per_root = set()
        for s in root_sets:
            prob = rounds[-1][s]
            if s.owner == player:
                present = set(prob.own)
            else:
                axis = [q for q in structure.players if q != s.owner].index(player)
                present = {rest[axis] for rest in prob.others}
            per_root.add(tuple(p for p in game.plan_lists[player] if p in present))
        assert len(per_root) == 1, "root-containing sets disagree"
        survivors[player] = per_root.pop()
    return BdTrace(tuple(rounds), survivors, eliminated_round)


def check_monotonic_reference(game, ico):
    """BD before and after the complete ICO, on fresh reference games, with
    τ and the plans replayed step by step."""
    new_structure, forward, _, steps = tau_reference(game.structure, ico)
    bijection = {
        z: next(h for h in forward[z] if new_structure.is_terminal(h))
        for z in game.structure.terminals
    }
    other = GameReference(new_structure, {
        p: {bijection[z]: v for z, v in table.items()} for p, table in game.payoffs.items()
    })
    before, after = bd_reference(game), bd_reference(other)
    plan_map = plan_map_reference(game.structure, steps)
    violations = []
    for player in game.structure.players:
        for plan in game.plan_lists[player]:
            if plan in before.survivors[player]:
                continue
            if plan_map[player][plan] in after.survivors[player]:
                violations.append(MonotonicityViolation(
                    player, plan, before.eliminated_round.get((player, plan), -1)
                ))
    return MonotonicityReport(tuple(violations), before, after)


def reduced_normal_form_reference(structure):
    """rn_Z(G) with `play` run on every plan profile."""
    plan_lists = tuple(plans(structure, p) for p in structure.players)
    terminals = tuple(sorted(structure.terminals, key=history_key))
    term_index = {z: i for i, z in enumerate(terminals)}
    rows = []
    for combo in itertools.product(*(range(len(pl)) for pl in plan_lists)):
        profile = {p: plan_lists[i][combo[i]] for i, p in enumerate(structure.players)}
        rows.append((combo, term_index[play(structure, profile)]))
    return ReducedNormalForm(tuple(structure.players), plan_lists, terminals, tuple(rows))


# -- derivations as the library made them before each was made once ---------
#
# The index derivation re-sorted every child list and rebuilt a child's last
# move as a dict once per player; `plans` recursed once per choice; comments
# were stripped character by character; perfect recall compared experiences
# on every set, singletons included; own-action disjointness compared every
# pair of a player's sets.  The tests hold the library to these,
# order included.


def indices_reference(structure):
    """Child lists, terminals, nonterminals, active players and feasible
    actions of the structure's histories."""
    children = {h: [] for h in structure.histories}
    for h in structure.histories:
        if h.length and h.parent in children:
            children[h.parent].append(h)
    children = {h: tuple(sorted(c, key=history_key)) for h, c in children.items()}
    active, feasible = {}, {}
    for h in structure.histories:
        kids = children[h]
        if not kids:
            continue
        keys = tuple(sorted({p for kid in kids for p, _ in kid.moves[-1]}))
        active[h] = keys
        for p in keys:
            feasible[(h, p)] = tuple(sorted(
                {dict(kid.moves[-1])[p] for kid in kids if p in dict(kid.moves[-1])}
            ))
    return {
        "children": children,
        "terminals": tuple(h for h in structure.histories if not children[h]),
        "nonterminals": tuple(h for h in structure.histories if children[h]),
        "active": active,
        "feasible": feasible,
    }


def own_predecessor_reference(structure, s):
    """The last (own set, action) pair of the owner's experience at the
    set's first member."""
    from egs.validate import experience

    return experience(structure, s.owner, s.members[0]).last


def _block_key(s):
    return tuple(m.moves for m in s.members)


def plans_reference(structure, player):
    """The recursive enumeration, lexicographic by set and then action."""
    blocks = structure.partitions.get(player, ())
    successors = {}
    for s in blocks:
        pred = own_predecessor_reference(structure, s)
        if pred is not None:
            successors.setdefault(pred, []).append(s)
    for v in successors.values():
        v.sort(key=_block_key)

    def expand(frontier):
        if not frontier:
            yield ()
            return
        head, rest = frontier[0], frontier[1:]
        for action in structure.feasible_at(head):
            grown = tuple(sorted(
                rest + tuple(successors.get((head, action), ())), key=_block_key
            ))
            for tail in expand(grown):
                yield ((head, action),) + tail

    start = tuple(sorted(
        (s for s in blocks if own_predecessor_reference(structure, s) is None),
        key=_block_key,
    ))
    return tuple(Plan(player, choices) for choices in expand(start))


def strip_comment_reference(line):
    """The line up to its first '#' outside double quotes."""
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def parse_reference(text):
    """`parse` as it read each line before the one-pass reading: every line's
    comment stripped by the character loop, every name checked and every
    repeat searched for one by one, each child's profile sorted, infoset
    labels found by an uncompiled scan.  It refuses, as `parse` does, stray
    text between an infoset line's quoted histories and a payoff line for a
    history with a node line."""
    players: list[str] = []
    actions: dict[str, set[str]] = {}
    nodes: dict[str, tuple[int, list[tuple[str, list[str]]]]] = {}
    infoset_lines: list[tuple[int, str, list[str]]] = []
    payoff_lines: list[tuple[int, str, dict[str, Fraction]]] = []
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment_reference(raw).strip()
        if not line:
            continue
        tokens = _TOKEN.findall(line)
        if not header_seen:
            if tokens[:2] != ["egs", "1"]:
                raise FormatError(lineno, "expected header 'egs 1'")
            header_seen = True
            continue
        kind = tokens[0]
        if kind == "player":
            if len(tokens) != 4 or tokens[2] != "actions":
                raise FormatError(lineno, "expected: player <id> actions a,b,...")
            pid = _name("player id", tokens[1], _ID_SYNTAX, lineno)
            if pid in actions:
                raise FormatError(lineno, f"player {pid} declared twice")
            players.append(pid)
            actions[pid] = set(_once([
                _name("action", a, _ACTION_SYNTAX, lineno) for a in tokens[3].split(",")
            ], "action", lineno))
        elif kind == "node":
            if len(tokens) < 3:
                raise FormatError(lineno, "expected: node \"<history>\" pid:a|b ...")
            label = _unquote(tokens[1], lineno)
            specs = []
            for tok in tokens[2:]:
                if ":" not in tok:
                    raise FormatError(lineno, f"expected pid:a|b|..., got {tok}")
                pid, acts = tok.split(":", 1)
                if any(q == pid for q, _ in specs):
                    raise FormatError(lineno, f"node {label!r} names player {pid} twice")
                specs.append((pid, _once([
                    _name("action", a, _ACTION_SYNTAX, lineno) for a in acts.split("|")
                ], "action", lineno)))
            if label in nodes:
                raise FormatError(lineno, f"node {label!r} declared twice")
            nodes[label] = (lineno, specs)
        elif kind == "infoset":
            if len(tokens) < 3:
                raise FormatError(lineno, "expected: infoset <pid> {\"h\",...}")
            body = line.split(None, 2)[2].strip()
            if not (body.startswith("{") and body.endswith("}")):
                raise FormatError(lineno, "infoset members must be {...}")
            # the text between the quoted histories holds only commas and spaces
            pieces = re.split(r'("(?:[^"\\]|\\.)*")', body[1:-1])
            for between in pieces[::2]:
                stray = re.search(r'[^\s,"]+|"', between)
                if stray:
                    raise FormatError(lineno, f"expected quoted histories, got {stray.group()!r}")
            labels = _once([_unquote(t, lineno) for t in pieces[1::2]], "history", lineno)
            infoset_lines.append((lineno, tokens[1], labels))
        elif kind == "payoff":
            if len(tokens) < 3:
                raise FormatError(lineno, "expected: payoff \"<terminal>\" pid=p/q ...")
            label = _unquote(tokens[1], lineno)
            values: dict[str, Fraction] = {}
            for tok in tokens[2:]:
                if "=" not in tok:
                    raise FormatError(lineno, f"expected pid=p/q, got {tok}")
                pid, num = tok.split("=", 1)
                if pid in values:
                    raise FormatError(lineno, f"payoff {label!r} names player {pid} twice")
                values[pid] = _parse_fraction(num, lineno)
            payoff_lines.append((lineno, label, values))
        else:
            raise FormatError(lineno, f"unknown directive {kind!r}")
    if not header_seen:
        raise FormatError(1, "empty input; expected header 'egs 1'")

    histories: dict[str, History] = {}
    used_nodes: set[str] = set()
    if "" in nodes:
        # Each history carries its label down the walk: its parent's, a '/'
        # and its last move's part, as `History.label` writes them.
        stack = [(ROOT, "")]
        histories[""] = ROOT
        while stack:
            h, label = stack.pop()
            spec = nodes.get(label)
            if spec is None:
                continue
            used_nodes.add(label)
            pools = [[(pid, a) for a in acts] for pid, acts in spec[1]]
            for combo in itertools.product(*pools):
                profile = tuple(sorted(combo))
                part = profile_label(profile)
                child = h.extend(profile)
                child_label = f"{label}/{part}" if label else part
                histories[child_label] = child
                stack.append((child, child_label))
    unreachable = sorted(set(nodes) - used_nodes)
    if unreachable:
        lineno = nodes[unreachable[0]][0]
        raise FormatError(lineno, f"node {unreachable[0]!r} is not reachable from the root")

    declared: dict[str, list[InfoSet]] = {p: [] for p in players}
    declared_members: dict[str, set[History]] = {p: set() for p in players}
    for lineno, pid, labels in infoset_lines:
        if pid not in actions:
            raise FormatError(lineno, f"infoset for undeclared player {pid}")
        members = []
        for lbl in labels:
            if lbl not in histories:
                raise FormatError(lineno, f"unknown history {lbl!r} in infoset")
            members.append(histories[lbl])
        if not members:
            raise FormatError(lineno, "empty infoset")
        declared[pid].append(InfoSet(pid, tuple(members)))
        declared_members[pid].update(members)

    # A node line names the players active at its history; each such
    # history no infoset line covers gets a singleton set.
    partitions = {p: list(declared[p]) for p in players}
    for label, (_, entries) in nodes.items():
        h = histories[label]
        for pid in {pid for pid, _ in entries}:
            if pid in partitions and h not in declared_members[pid]:
                partitions[pid].append(InfoSet(pid, (h,)))
    structure = Structure(
        players, {p: frozenset(a) for p, a in actions.items()},
        histories.values(), {p: tuple(v) for p, v in partitions.items()},
    )

    if not payoff_lines:
        return structure
    payoffs: dict[str, dict[History, Fraction]] = {p: {} for p in players}
    paid: set[History] = set()
    for lineno, label, values in payoff_lines:
        if label not in histories:
            raise FormatError(lineno, f"unknown terminal {label!r}")
        if label in nodes:
            raise FormatError(lineno, f"payoff for non-terminal {label!r}")
        z = histories[label]
        if z in paid:
            raise FormatError(lineno, f"payoff for {label!r} given twice")
        paid.add(z)
        for pid, v in values.items():
            if pid not in actions:
                raise FormatError(lineno, f"payoff for undeclared player {pid}")
            payoffs[pid][z] = v
    return Game(structure, payoffs)


def recall_violations_reference(structure):
    """The perfect-recall witnesses with every set's experiences compared."""
    from egs.validate import Violation, experience

    out = []
    for p in structure.players:
        for block in structure.partitions[p]:
            base = experience(structure, p, block.members[0]).pair_set
            for m in block.members[1:]:
                if experience(structure, p, m).pair_set != base:
                    label = m.label() or "''"
                    first = block.members[0].label() or "''"
                    out.append(Violation(
                        "perfect-recall",
                        f"{p}'s experiences at {first} and {label} differ",
                    ))
                    break
    return tuple(out)


def own_disjoint_reference(structure):
    """The own-action disjointness witnesses with every pair of a player's
    sets compared."""
    from egs.validate import Violation

    out = []
    for p in structure.players:
        blocks = structure.partitions[p]
        for i, a in enumerate(blocks):
            fa = set(structure.feasible_at(a))
            for b in blocks[i + 1:]:
                shared = fa.intersection(structure.feasible_at(b))
                if shared:
                    out.append(Violation(
                        "own-disjoint", f"{a!r} and {b!r} share actions {sorted(shared)}"
                    ))
    return tuple(out)


def empty_profile_reference(structure):
    """The empty-profile witness of `validate_structure`, every move of
    every history read: the first history in order with an empty profile
    anywhere, as a tuple of at most one violation."""
    from egs.validate import Violation

    for h in structure.histories:
        if any(not p for p in h.moves):
            return (Violation("profile", f"{h.label() or repr('')} contains an empty profile"),)
    return ()


def terminals_reference(structure):
    """Z(h) of every history, by recursion over the children, and Z(h_i a_i)
    of every feasible action at every set whose members are all histories,
    as frozensets of terminals."""

    def below(h):
        kids = structure.children(h)
        if not kids:
            return frozenset((h,))
        return frozenset().union(*(below(k) for k in kids))

    z = {h: below(h) for h in structure.histories}
    after = {}
    for s in structure.info_sets:
        if not all(structure.has_history(m) for m in s.members):
            continue
        for a in structure.feasible_at(s):
            after[(s, a)] = frozenset().union(*(
                z[k] for m in s.members for k in structure.children(m)
                if (s.owner, a) in k.moves[-1]
            ))
    return z, after


# -- the lift as a rebuild -----------------------------------------------------
#
# `transform._lift` as the library wrote it before a lift edited its
# predecessor: every history is rewritten, every block is made anew, and the
# successor is a fresh `Structure` of the new history set, so images that
# equal kept histories merge as the set merges them.  `HistoryMap.extend`
# as it was before single images were reused.  The tests require the edit to
# give equal structures, indices and maps.


def lift_rebuild(structure, owner, top, below, mover, mover_block):
    """The successor, forward and infoset_map of one lift, built afresh."""
    mover_actions = structure.feasible_at(mover)
    forward = {}
    for g in structure.histories:
        t = top.get(g)
        if t is None:
            forward[g] = (g,)
            continue
        first = dict(g.move_at(t.length))
        m = below.get(g)
        if m is None:
            forward[g] = tuple(sorted(
                (History(t.moves
                         + (make_profile({**first, owner: c}),)
                         + g.moves[t.length + 1:])
                 for c in mover_actions),
                key=history_key,
            ))
        else:
            rest = dict(g.move_at(m.length))
            taken = rest.pop(owner)
            tail = g.moves[t.length + 1:m.length] \
                + ((make_profile(rest),) if rest else ()) \
                + g.moves[m.length + 1:]
            forward[g] = (History(t.moves + (make_profile({**first, owner: taken}),) + tail),)
    new_histories = {h for imgs in forward.values() for h in imgs}
    infoset_map = {}
    partitions = {p: [] for p in structure.players}
    for p in structure.players:
        for block in structure.partitions.get(p, ()):
            members = block.members
            if block == mover:
                if mover_block is None:
                    continue
                members = mover_block
            new_block = InfoSet(p, tuple(h for m in members for h in forward[m]))
            partitions[p].append(new_block)
            infoset_map[block] = new_block
    if mover_block is None:
        infoset_map[mover] = infoset_map[structure.info_set_of(owner, top[mover.members[0]])]
    new_structure = Structure(
        structure.players, structure.actions, new_histories,
        {p: tuple(blocks) for p, blocks in partitions.items()},
    )
    return new_structure, forward, infoset_map


def minimize_uo_reference(structure, rng=None):
    """The minimization loop before the default order skipped IS discovery
    while a coalescing was left: every step lists all coalescings and all
    non-crossing ISs, and takes the first or, with an rng, a random one."""
    ok, witness = check_uo(structure)
    if not ok:
        raise EgsError(f"minimization requires UO; offending pair {witness}")
    current = structure
    while True:
        opps = list(find_coalescing(current))
        opps.extend(o for o in find_is(current) if is_non_crossing(current, o))
        if not opps:
            return current
        opp = opps[0] if rng is None else opps[rng.randrange(len(opps))]
        if isinstance(opp, CoalescingOpp):
            current, _ = apply_coalescing(current, opp)
        else:
            current, _ = apply_is(current, opp)


def composite_extend_reference(forward, infosets, step):
    """The forward and infoset maps of (forward, infosets) followed by step."""
    out = {
        h: tuple(sorted(
            {img for mid in mids for img in step.forward[mid]}, key=history_key
        ))
        for h, mids in forward.items()
    }
    return out, {s: step.infoset_map[cur] for s, cur in infosets.items()}


def transitively_simultaneous_reference(structure, a, b):
    """The union-find over non-terminal histories, run afresh on every call."""
    parent = {h: h for h in structure.nonterminals}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for s in structure.info_sets:
        first = s.members[0]
        if first not in parent:
            continue
        for m in s.members[1:]:
            if m in parent:
                parent[find(m)] = find(first)
    if a == b:
        return True
    classes_a = {find(m) for m in a.members if m in parent}
    return any(find(m) in classes_a for m in b.members if m in parent)


def weak_follow_pairwise(structure):
    """For each set s, every set t with s before t or s ~ t, in `info_sets`
    order, each pair of sets compared member by member."""
    sets = structure.info_sets
    out = {}
    for s in sets:
        follows = []
        for t in sets:
            r = relation_pairwise(structure, s, t)
            if r.before or r.simultaneous:
                follows.append(t)
        out[s] = tuple(follows)
    return out


def complete_controls_reference(structure, mover, opps):
    """Every subset of the mover's IS opportunities, smallest first, whose
    anchors have equal length and are pairwise incomparable and whose
    pieces are pairwise disjoint and cover the mover, each condition tested
    on its own."""
    out = []
    for r in range(1, len(opps) + 1):
        for chosen in itertools.combinations(opps, r):
            anchors = [o.anchor for o in chosen]
            pieces = [set(o.submover) for o in chosen]
            if (
                len({a.length for a in anchors}) == 1
                and not any(
                    a.is_prefix_of(b) or b.is_prefix_of(a)
                    for a, b in itertools.combinations(anchors, 2)
                )
                and not any(p & q for p, q in itertools.combinations(pieces, 2))
                and set().union(*pieces) == set(mover.members)
            ):
                out.append(CompleteControl(
                    mover.owner, mover, tuple(anchors), tuple(o.submover for o in chosen)
                ))
    return out


def _eager_class_atoms(structure):
    """Every class's immediate atoms, found from `find_coalescing` and
    `find_is` over the whole structure and filed by the class of the mover."""
    from egs.transform import is_immediate_coalescing, is_immediate_is

    classes = sim_classes(structure)
    class_of = {s: idx for idx, group in enumerate(classes) for s in group}
    atoms = {idx: [] for idx in range(len(classes))}
    for opp in find_coalescing(structure):
        if is_immediate_coalescing(structure, opp):
            atoms[class_of[opp.mover]].append(opp)
    for opp in find_is(structure):
        if is_immediate_is(structure, opp):
            atoms[class_of[opp.mover]].append(opp)
    return classes, atoms


def _is_complete_reference(chosen, class_sets):
    """Each part named once, every set of the class moving, and each overlap
    of two of its sets the intersection of a part inside one and a part
    inside the other."""
    parts = [
        (a.owner, set(a.mover.members if isinstance(a, CoalescingOpp) else a.submover))
        for a in chosen
    ]
    if any(p == q for p, q in itertools.combinations(parts, 2)):
        return False
    if {a.mover for a in chosen} != set(class_sets):
        return False
    for f, e in itertools.combinations(class_sets, 2):
        overlap = set(f.members) & set(e.members)
        if overlap and not any(
            b & c == overlap
            for owner_b, b in parts if owner_b == f.owner and b <= set(f.members)
            for owner_c, c in parts if owner_c == e.owner and c <= set(e.members)
        ):
            return False
    return True


def complete_in_class_reference(class_sets, atoms, limit=None):
    """The complete ICOs of a class's atoms: every non-empty subset tested
    in turn, smallest first and each size in combinations order.

    With a limit, a subset counts as tested when some complete ICO begins
    with it (its atoms up to the subset's last are the subset), as in a
    walk that cuts each branch no complete ICO extends; past limit tested
    subsets the search is refused."""
    subsets = [
        chosen for r in range(1, len(atoms) + 1)
        for chosen in itertools.combinations(range(len(atoms)), r)
    ]
    complete = [
        set(chosen) for chosen in subsets
        if _is_complete_reference([atoms[j] for j in chosen], class_sets)
    ]
    tested = 0
    for chosen in subsets:
        if limit is not None and any(
            {j for j in c if j <= chosen[-1]} == set(chosen) for c in complete
        ):
            tested += 1
            if tested > limit:
                raise TransformError(f"more than {limit} subsets to test; instance too large")
        if set(chosen) in complete:
            yield Ico(
                tuple(atoms[j] for j in chosen if isinstance(atoms[j], CoalescingOpp)),
                tuple(atoms[j] for j in chosen if isinstance(atoms[j], IsOpp)),
            )


def find_complete_icos_reference(structure, limit=None):
    """Every complete ICO, class by class, from atoms found up front."""
    classes, atoms = _eager_class_atoms(structure)
    return [
        ico for idx, group in enumerate(classes)
        for ico in complete_in_class_reference(group, atoms[idx], limit)
    ]


def backward_compactify_reference(structure, limit=None):
    """Complete ICOs applied deepest class first, with every class's atoms
    found up front at each step."""
    current, schedule = structure, []
    while True:
        classes, atoms = _eager_class_atoms(current)
        order = sorted(
            range(len(classes)),
            key=lambda idx: -max(m.length for s in classes[idx] for m in s.members),
        )
        for idx in order:
            ico = next(complete_in_class_reference(classes[idx], atoms[idx], limit), None)
            if ico is not None:
                current, _ = apply_tau(current, ico)
                schedule.append(ico)
                break
        else:
            return current, schedule
