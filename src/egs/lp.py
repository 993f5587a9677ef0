"""The dominance LP, solved in integers.

`dominance.dominated_rows` asks whether row r of an integer matrix m is
strictly dominated by a mixture mu of its n rows: max eps over mu >= 0,
sum(mu) == 1, eps >= 0 with sum_k (m[r][c] - m[k][c]) mu_k + eps <= 0 in
every column c.  `maximize` solves that LP alone and refuses any other
with LpError.  Its identity basis, each column row's slack and for the
simplex row the first mu_k zero in every column row (mu_r is one), is
feasible, and eps <= max_k (m[k][c] - m[r][c]) bounds it: one phase.

Pivoting is fraction-free (Edmonds 1967; Bareiss 1968): the tableau holds
each entry times the last pivot, the basis determinant, by which every
update divides exactly.  Bland's rule, comparing ratios by
cross-multiplication, prevents cycling; only the reported optimum and
solution are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import EgsError


class LpError(EgsError):
    pass


@dataclass(frozen=True)
class LpResult:
    value: Fraction
    solution: tuple[Fraction, ...]


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """max c.x subject to a_ub.x <= b_ub, a_eq.x == b_eq, x >= 0, where
    c = [0]*n + [1], each a_ub row is n integers then 1 over a zero
    right-hand side, and a_eq.x == b_eq is [1]*n + [0] == 1.  Raises
    LpError on any other LP."""
    n = len(c) - 1
    if (
        n < 1 or list(c) != [0] * n + [1]
        or not a_ub or list(b_ub or ()) != [0] * len(a_ub)
        or any(len(row) != n + 1 or row[n] != 1 or any(type(x) is not int for x in row)
               for row in a_ub)
        or [list(row) for row in a_eq or ()] != [[1] * n + [0]] or list(b_eq or ()) != [1]
    ):
        raise LpError("not the dominance LP over n >= 1 integer rows")
    start = next((k for k in range(n) if not any(row[k] for row in a_ub)), None)
    if start is None:
        raise LpError("no mixture weight is zero in every column row")
    m = len(a_ub)
    width = n + 1 + m
    tableau = [[*row, *(int(i == j) for j in range(m)), 0] for i, row in enumerate(a_ub)]
    tableau.append([1] * n + [0] * (m + 1) + [1])
    tableau.append([0] * n + [-1] + [0] * (m + 1))  # the objective, negated
    basis = [*range(n + 1, width), start]
    det = 1
    while True:
        obj = tableau[-1]
        col = next((j for j in range(width) if obj[j] < 0), None)
        if col is None:
            break
        # the least ratio rhs/coef over positive coefs, then the least
        # basic column; some coef is positive, as the LP is bounded
        best = None
        for r, line in enumerate(tableau[:-1]):
            coef = line[col]
            if coef > 0 and (best is None or (
                line[-1] * tableau[best][col] - tableau[best][-1] * coef
                or basis[r] - basis[best]
            ) < 0):
                best = r
        pivot_row = tableau[best]
        pivot = pivot_row[col]
        for r, line in enumerate(tableau):
            if r != best:
                f = line[col]
                tableau[r] = [(pivot * a - f * b) // det for a, b in zip(line, pivot_row)]
        basis[best] = col
        det = pivot
    solution = [Fraction(0)] * (n + 1)
    for line, b in zip(tableau, basis):
        if b <= n:
            solution[b] = Fraction(line[-1], det)
    return LpResult(solution[n], tuple(solution))
