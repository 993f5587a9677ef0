"""Independent decision procedures used to cross-check the library."""

from __future__ import annotations

from fractions import Fraction

from egs import CoalescingOpp, IsOpp, RelationSet, dictates
from egs.core import strictly_precedes


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
