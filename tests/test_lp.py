import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egs.dominance
from egs import EgsError, dominated_rows
from egs.dominance import best_responses
from egs.lp import LpError, maximize

from oracles import maximize_reference, oracle_dominated


def _count_reference_runs(monkeypatch):
    import oracles

    runs = []
    original = oracles._run_simplex

    def counting(tableau, basis, ncols):
        runs.append(ncols)
        return original(tableau, basis, ncols)

    monkeypatch.setattr(oracles, "_run_simplex", counting)
    return runs


def test_simplex_basic():
    # general LPs: the reference solves them, maximize refuses them
    # max x + y st x + y <= 1
    lp = ([1, 1], [[1, 1]], [1])
    res = maximize_reference(*lp)
    assert res.status == "optimal" and res.value == 1
    # equality constraint
    eq = ([1, 0], [[1, 0]], [2], [[1, 1]], [1])
    res = maximize_reference(*eq)
    assert res.status == "optimal" and res.value == 1
    # a negative right-hand side: no crash basis is feasible
    negative = ([1], [[1], [-1]], [1, -3])
    with pytest.raises(LpError):
        maximize_reference(*negative)
    # unbounded
    unbounded = ([1], [[-1]], [0])
    res = maximize_reference(*unbounded)
    assert res.status == "unbounded"
    for general in (lp, eq, negative, unbounded):
        with pytest.raises(LpError):
            maximize(*general)


def test_simplex_exact_fractions():
    lp = (
        [Fraction(1, 3), Fraction(1, 7)],
        [[1, 1], [Fraction(1, 2), 2]],
        [Fraction(5, 2), 3],
    )
    res = maximize_reference(*lp)
    assert res.status == "optimal"
    assert res.value == Fraction(1, 3) * Fraction(5, 2)
    with pytest.raises(LpError):
        maximize(*lp)


def test_structural_crash_column_skips_phase_one(monkeypatch):
    runs = _count_reference_runs(monkeypatch)
    # max x st x + 2z == 4, x <= 3: z appears only in the equality row
    lp = ([1, 0], [[1, 0]], [3], [[1, 2]], [4])
    res = maximize_reference(*lp)
    assert res.status == "optimal"
    assert res.value == 3 and res.solution == (3, Fraction(1, 2))
    assert len(runs) == 1
    with pytest.raises(LpError):
        maximize(*lp)


def test_maximize_refuses_every_other_lp():
    # the dominance LP of rows (3, 0), (0, 3), (1, 1) at row 2, and
    # variants each breaking one part of its shape
    lp = ([0, 0, 0, 1], [[-2, 1, 0, 1], [1, -2, 0, 1]], [0, 0], [[1, 1, 1, 0]], [1])
    assert maximize(*lp).value == maximize_reference(*lp).value == Fraction(1, 2)
    c, a_ub, b_ub, a_eq, b_eq = lp
    shapes = [
        ([0, 1, 0, 1], a_ub, b_ub, a_eq, b_eq),   # another objective
        ([1], [[1]], [0], [[0]], [1]),            # no mixture weight
        (c, [], [], a_eq, b_eq),                  # no column row
        (c, a_ub, [0, 1], a_eq, b_eq),            # a nonzero right-hand side
        (c, [[-2, 1, 0, 2], a_ub[1]], b_ub, a_eq, b_eq),  # eps times 2
        (c, [[-2, 1, 0], a_ub[1]], b_ub, a_eq, b_eq),     # a short row
        (c, [[Fraction(-3, 2), 1, 0, 1], a_ub[1]], b_ub, a_eq, b_eq),  # a fraction
        (c, a_ub, b_ub, None, None),              # no simplex row
        (c, a_ub, b_ub, [[1, 1, 0, 0]], b_eq),    # a partial simplex row
        (c, a_ub, b_ub, a_eq, [2]),               # weights summing to 2
        (c, a_ub, b_ub, a_eq * 2, b_eq * 2),      # two equality rows
        (c, [[-2, 1, 1, 1], a_ub[1]], b_ub, a_eq, b_eq),  # no zero weight
    ]
    for lp in shapes:
        with pytest.raises(LpError):
            maximize(*lp)


def test_pure_domination():
    rows = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)]]
    assert dominated_rows(rows) == (1,)


def test_mixed_domination_classic():
    rows = [
        [Fraction(3), Fraction(0)],
        [Fraction(0), Fraction(3)],
        [Fraction(1), Fraction(1)],
    ]
    assert dominated_rows(rows) == (2,)


def test_single_row_never_dominated():
    assert dominated_rows([[Fraction(5)]]) == ()


def test_boundary_not_strict():
    # the half/half mix ties, so no strict domination
    rows = [
        [Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(2)],
        [Fraction(1), Fraction(1)],
    ]
    assert dominated_rows(rows) == ()


def test_dominated_rows_match_fm_oracle_randomized():
    rng = random.Random(99)
    for trial in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(m)]
            for _ in range(n)
        ]
        assert dominated_rows(rows) == oracle_dominated(rows), rows


def test_row_without_a_crash_column_is_refused():
    # x + y == 2 shares both columns with the bounds, so it has no crash
    # column (x <= 0 and y <= 1 also contradict it)
    lp = ([1, 1], [[1, 0], [0, 1]], [0, 1], [[1, 1]], [2])
    for solve in (maximize, maximize_reference):
        with pytest.raises(LpError):
            solve(*lp)
    assert issubclass(LpError, EgsError)  # the CLI exits 2 on it


def test_equality_without_a_crash_column_is_refused():
    # max x + 2y st x + y == 3, x - y <= 1, y <= 2 has the optimum x=1,
    # y=2, but the equality row shares both columns with the bounds; then
    # the same row with a negated right-hand side
    for lp in (
        ([1, 2], [[1, -1], [0, 1]], [1, 2], [[1, 1]], [3]),
        ([1, 2], [[1, -1], [0, 1]], [1, 2], [[-1, -1]], [-3]),
    ):
        for solve in (maximize, maximize_reference):
            with pytest.raises(LpError):
                solve(*lp)


def _posed_lps(monkeypatch):
    """Record every LP `dominated_rows` poses."""
    posed = []
    monkeypatch.setattr(
        egs.dominance, "maximize", lambda *a: posed.append(a) or maximize(*a)
    )
    return posed


def _assert_solved_as_the_reference(lp):
    got, want = maximize(*lp), maximize_reference(*lp)
    assert want.status == "optimal"
    assert (got.value, got.solution) == (want.value, want.solution), lp


def test_dominated_rows_lps_skip_phase_one(monkeypatch):
    posed = _posed_lps(monkeypatch)
    rows = [
        [Fraction(3), Fraction(0)],
        [Fraction(0), Fraction(3)],
        [Fraction(1), Fraction(1)],
    ]
    assert dominated_rows(rows) == oracle_dominated(rows) == (2,)
    # rows 0 and 1 are best responses to a column; row 2 is a best
    # response to no column nor to the uniform belief, and no row beats it
    # purely, so it alone gets an LP (the half/half mixture dominates it),
    # posed in integers and solved from the identity basis as the general
    # simplex solves it from its crash basis
    assert posed == [([0, 0, 0, 1], [[-2, 1, 0, 1], [1, -2, 0, 1]], [0, 0], [[1, 1, 1, 0]], [1])]
    _assert_solved_as_the_reference(posed[0])
    assert maximize(*posed[0]).solution == (Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2))


def test_every_lp_of_bd_and_the_monotonicity_check_is_one_simplex_run(
    capsys, monkeypatch
):
    # `egs gen --seed 30 --players 2 --depth 5 --merge 0.8 --continue-prob
    # 1.0 --simultaneity 0 --uo --payoffs` (5,040 plan profiles) with its
    # ICO 0, then seeded corpus games with random payoffs
    from egs import Game, bd, check_monotonic, find_complete_icos, parse, random_payoffs
    from egs.cli import main

    from corpus import ico_corpus

    assert main([
        "gen", "--seed", "30", "--players", "2", "--depth", "5", "--merge", "0.8",
        "--continue-prob", "1.0", "--simultaneity", "0", "--uo", "--payoffs",
    ]) == 0
    game = parse(capsys.readouterr().out)
    cases = [(game, find_complete_icos(game.structure)[0])]
    rng = random.Random(2024)
    cases += [
        (Game(structure, random_payoffs(structure, rng)), ico)
        for structure, ico in ico_corpus(12, seed=8)
    ]
    posed = _posed_lps(monkeypatch)
    for game, ico in cases:
        bd(game)
        check_monotonic(game, ico)
    # each LP is one phase from the identity basis, with the general
    # simplex's optimum and solution
    assert posed
    for lp in posed:
        _assert_solved_as_the_reference(lp)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=1, max_size=5
        )
    )
)
def test_every_lp_posed_is_solved_as_the_reference(rows):
    with pytest.MonkeyPatch.context() as m:
        posed = _posed_lps(m)
        dominated_rows(rows)
    for lp in posed:
        _assert_solved_as_the_reference(lp)


_entry = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3))
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(_entry, min_size=m, max_size=m), min_size=1, max_size=4
        )
    )
)
def test_dominated_rows_match_fm_oracle_property(rows):
    assert dominated_rows(rows) == oracle_dominated(rows)


_tied_rows = st.integers(1, 5).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=2, max_size=5
    )
)


@settings(max_examples=300, deadline=None)
@given(_tied_rows)
def test_rows_kept_without_an_lp_are_best_responses(entries):
    rows = [[Fraction(x) for x in row] for row in entries]
    n, ncols = len(rows), len(rows[0])
    kept = best_responses(rows)
    for r, belief in kept.items():
        assert len(belief) == ncols and min(belief) >= 0 and sum(belief) > 0
        weights = [Fraction(w, sum(belief)) for w in belief]
        value = [sum(w * x for w, x in zip(weights, row)) for row in rows]
        assert value[r] == max(value)
    purely = {
        r for r in range(n)
        if any(all(a > b for a, b in zip(rows[k], rows[r])) for k in range(n) if k != r)
    }
    with pytest.MonkeyPatch.context() as m:
        posed = _posed_lps(m)
        bad = dominated_rows(rows)
    assert bad == oracle_dominated(rows)
    # only the rows neither kept as best responses nor purely dominated
    # reach the LP
    assert len(posed) == n - len(kept) - len(purely - set(kept))
