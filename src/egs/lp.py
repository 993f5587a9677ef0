"""Exact-rational linear programming via a dense one-phase simplex that
starts from a crash basis.

Each constraint row needs a column that is positive in that row and zero
in every other row: the row's own slack for a `<=` row, or a structural
column that no other row uses.  With every right-hand side non-negative,
such columns form a feasible starting basis, and the solve is phase 2
alone.  An LP with a row left without one, or with a negative right-hand
side, has no such start and is refused with LpError.

All arithmetic is fractions.Fraction; pivoting follows Bland's rule, so
the method terminates without cycling.  The tableau is dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import EgsError


class LpError(EgsError):
    pass


@dataclass(frozen=True)
class LpResult:
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


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """max c.x subject to a_ub.x <= b_ub, a_eq.x == b_eq, x >= 0.

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
        return LpResult("unbounded", None, None)
    solution = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            solution[b] = tableau[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, solution))
    return LpResult("optimal", value, tuple(solution))
