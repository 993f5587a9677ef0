"""Independent decision procedures used to cross-check the library."""

from __future__ import annotations

import itertools
from fractions import Fraction

from egs import (
    ROOT,
    CoalescingOpp,
    History,
    HistoryMap,
    InfoSet,
    IsOpp,
    RelationSet,
    Structure,
    TransformError,
    controls,
    dictates,
    make_profile,
)
from egs.core import history_key, strictly_precedes


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
    """Row indices strictly dominated by a mixture over all rows."""
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


# -- the two operators as separate rewrites ----------------------------------
#
# Coalescing and IS as the library wrote them before both became one lift:
# each builds its own forward map, partitions and structure.  The property
# tests require the shared lift to give equal structures and maps.


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
    mover_lift = {m: (base_prefix[m],) for m in opp.mover.members}
    return new_structure, HistoryMap(
        kind="coalescing", owner=i, forward=forward, infoset_map=infoset_map,
        mover_lift=mover_lift, base=opp.base, mover=opp.mover, link=opp.link,
    )


def apply_is_reference(structure, opp):
    i = opp.owner
    if not structure.has_history(opp.anchor) or not structure.has_info_set(opp.mover):
        raise TransformError(f"stale IS opportunity {opp!r}")
    if not opp.submover_set <= opp.mover.member_set:
        raise TransformError("sub-mover is not part of the mover")
    if not dictates(structure, opp.anchor, opp.submover, i):
        raise TransformError(f"stale IS opportunity {opp!r}")
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
            if not any(g.is_prefix_of(d) for d in opp.submover):
                raise TransformError(
                    f"{g.label()!r} is unrelated to the sub-mover; dictation is broken"
                )
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
    mover_lift = {m: (anchor,) for m in opp.submover}
    return new_structure, HistoryMap(
        kind="is", owner=i, forward=forward, infoset_map=infoset_map,
        mover_lift=mover_lift, mover=opp.mover, anchor=anchor,
        submover=opp.submover,
    )


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
