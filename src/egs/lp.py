"""Exact-rational linear programming via a dense simplex that starts from a
crash basis.

Each constraint row gets, where it has one, a column that is positive in
that row and zero in every other row: the row's own slack for a `<=` row
with a non-negative right-hand side, or a structural column that no other
row uses.  Such columns form a feasible starting basis.  Artificial
columns, and a phase 1 that drives them out, are added only for the rows
left without one; when every row has one the solve is phase 2 alone.

All arithmetic is fractions.Fraction; pivoting follows Bland's rule, so
the method terminates without cycling.  Problems here are tiny (dominance
tests over a handful of strategies), so a dense tableau is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class LpError(Exception):
    pass


@dataclass(frozen=True)
class LpResult:
    status: str                 # "optimal" | "unbounded" | "infeasible"
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
    `<=` row with a non-negative right-hand side keeps its own slack."""
    basis = [None] * len(rows)
    for j in [*range(n, width), *range(n)]:
        hits = [r for r, (row, _) in enumerate(rows) if row[j] != 0]
        if len(hits) == 1 and basis[hits[0]] is None and rows[hits[0]][0][j] > 0:
            basis[hits[0]] = j
    return basis


def maximize(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None) -> LpResult:
    """max c.x subject to a_ub.x <= b_ub, a_eq.x == b_eq, x >= 0."""
    c = [Fraction(x) for x in c]
    a_ub = [[Fraction(x) for x in row] for row in (a_ub or [])]
    b_ub = [Fraction(x) for x in (b_ub or [])]
    a_eq = [[Fraction(x) for x in row] for row in (a_eq or [])]
    b_eq = [Fraction(x) for x in (b_eq or [])]
    n = len(c)
    rows = []
    # slack variables for inequalities
    n_slack = len(a_ub)
    for idx, (row, rhs) in enumerate(zip(a_ub, b_ub)):
        slack = [Fraction(0)] * n_slack
        slack[idx] = Fraction(1)
        rows.append((row + slack, rhs))
    for row, rhs in zip(a_eq, b_eq):
        rows.append((row + [Fraction(0)] * n_slack, rhs))
    # normalize to nonnegative rhs
    rows = [
        ([-x for x in row], -rhs) if rhs < 0 else (row, rhs) for row, rhs in rows
    ]
    width = n + n_slack
    basis = _crash_basis(rows, width, n)
    # artificials only for the rows the crash basis left uncovered
    uncovered = [r for r, b in enumerate(basis) if b is None]
    n_art = len(uncovered)
    total = width + n_art
    tableau = [row + [Fraction(0)] * n_art + [rhs] for row, rhs in rows]
    for k, r in enumerate(uncovered):
        tableau[r][width + k] = Fraction(1)
        basis[r] = width + k
    for r, b in enumerate(basis):
        if b < width:
            _pivot(tableau, basis, r, b)  # scales the row to a unit column
    if n_art:
        # phase 1: maximize minus the artificial sum; seed the objective
        # with the artificial columns, then reduce against their rows
        phase1 = [Fraction(0)] * width + [Fraction(1)] * n_art + [Fraction(0)]
        for r in uncovered:
            phase1 = [a - b for a, b in zip(phase1, tableau[r])]
        tableau.append(phase1)
        status = _run_simplex(tableau, basis, total)
        if status != "optimal" or tableau[-1][-1] != 0:
            return LpResult("infeasible", None, None)
        tableau.pop()
        # drive artificials out of the basis where possible
        for r in range(len(rows)):
            if basis[r] >= width:
                col = next(
                    (j for j in range(width) if tableau[r][j] != 0), None
                )
                if col is not None:
                    _pivot(tableau, basis, r, col)
        # drop artificial columns
        tableau = [line[:width] + [line[-1]] for line in tableau]
    # phase 2 objective
    obj = [-x for x in c] + [Fraction(0)] * n_slack + [Fraction(0)]
    for r in range(len(rows)):
        if basis[r] < width and obj[basis[r]] != 0:
            factor = obj[basis[r]]
            obj = [a - factor * b for a, b in zip(obj, tableau[r])]
    tableau.append(obj)
    status = _run_simplex(tableau, basis, width)
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    solution = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            solution[b] = tableau[r][-1]
    value = sum(ci * xi for ci, xi in zip(c, solution))
    return LpResult("optimal", value, tuple(solution))
