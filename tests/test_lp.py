import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egs.dominance
from egs import EgsError, dominated_rows
from egs.dominance import best_responses
from egs.lp import LpError, maximize

from oracles import oracle_dominated


def test_simplex_basic():
    # max x + y st x + y <= 1
    res = maximize([1, 1], [[1, 1]], [1])
    assert res.status == "optimal"
    assert res.value == 1
    # equality constraint
    res = maximize([1, 0], [[1, 0]], [2], [[1, 1]], [1])
    assert res.status == "optimal" and res.value == 1
    # a negative right-hand side: no crash basis is feasible
    with pytest.raises(LpError):
        maximize([1], [[1], [-1]], [1, -3])
    # unbounded
    res = maximize([1], [[-1]], [0])
    assert res.status == "unbounded"


def test_simplex_exact_fractions():
    res = maximize(
        [Fraction(1, 3), Fraction(1, 7)],
        [[1, 1], [Fraction(1, 2), 2]],
        [Fraction(5, 2), 3],
    )
    assert res.status == "optimal"
    assert res.value == Fraction(1, 3) * Fraction(5, 2)


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


def _count_simplex_runs(monkeypatch):
    import egs.lp

    runs = []
    original = egs.lp._run_simplex

    def counting(tableau, basis, ncols):
        runs.append(ncols)
        return original(tableau, basis, ncols)

    monkeypatch.setattr(egs.lp, "_run_simplex", counting)
    return runs


def test_row_without_a_crash_column_is_refused(monkeypatch):
    runs = _count_simplex_runs(monkeypatch)
    # x + y == 2 shares both columns with the bounds, so it has no crash
    # column (x <= 0 and y <= 1 also contradict it)
    with pytest.raises(LpError, match="row 2 has no crash column"):
        maximize([1, 1], [[1, 0], [0, 1]], [0, 1], [[1, 1]], [2])
    assert not runs
    assert issubclass(LpError, EgsError)  # the CLI exits 2 on it


def test_equality_without_a_crash_column_is_refused(monkeypatch):
    runs = _count_simplex_runs(monkeypatch)
    # max x + 2y st x + y == 3, x - y <= 1, y <= 2 has the optimum x=1,
    # y=2, but the equality row shares both columns with the bounds
    with pytest.raises(LpError, match="no crash column"):
        maximize([1, 2], [[1, -1], [0, 1]], [1, 2], [[1, 1]], [3])
    # the same row with a negated right-hand side
    with pytest.raises(LpError, match="negative"):
        maximize([1, 2], [[1, -1], [0, 1]], [1, 2], [[-1, -1]], [-3])
    assert not runs


def test_structural_crash_column_skips_phase_one(monkeypatch):
    runs = _count_simplex_runs(monkeypatch)
    # max x st x + 2z == 4, x <= 3: z appears only in the equality row
    res = maximize([1, 0], [[1, 0]], [3], [[1, 2]], [4])
    assert res.status == "optimal"
    assert res.value == 3 and res.solution == (3, Fraction(1, 2))
    assert len(runs) == 1


def test_dominated_rows_lps_skip_phase_one(monkeypatch):
    runs = _count_simplex_runs(monkeypatch)
    rows = [
        [Fraction(3), Fraction(0)],
        [Fraction(0), Fraction(3)],
        [Fraction(1), Fraction(1)],
    ]
    assert dominated_rows(rows) == oracle_dominated(rows) == (2,)
    # rows 0 and 1 are best responses to a column; row 2 is a best
    # response to no column nor to the uniform belief, and no row beats it
    # purely, so it alone gets an LP (the half/half mixture dominates it),
    # solved by one phase-2 run over the mixture weights, eps and a slack
    # per column
    assert runs == [len(rows) + 1 + len(rows[0])]


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
    runs = _count_simplex_runs(monkeypatch)
    posed = []
    monkeypatch.setattr(
        egs.dominance, "maximize", lambda *a: posed.append(a) or maximize(*a)
    )
    for game, ico in cases:
        bd(game)
        check_monotonic(game, ico)
    # each LP starts from a crash basis: phase 2 alone, one run per call
    assert posed and len(runs) == len(posed)


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
    posed = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(egs.dominance, "maximize", lambda *a: posed.append(a) or maximize(*a))
        bad = dominated_rows(rows)
    assert bad == oracle_dominated(rows)
    # only the rows neither kept as best responses nor purely dominated
    # reach the LP
    assert len(posed) == n - len(kept) - len(purely - set(kept))
