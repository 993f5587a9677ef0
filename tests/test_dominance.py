import inspect
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from egs import (
    ROOT,
    DominanceError,
    EgsError,
    Game,
    GenError,
    GenParams,
    IsOpp,
    Structure,
    apply_is,
    bd,
    behaviorally_equivalent,
    check_monotonic,
    check_uo,
    compare_bd,
    find_coalescing,
    find_complete_icos,
    find_is,
    format_trace,
    gen_random,
    is_non_crossing,
    plans,
    random_payoffs,
    reaching,
    reduced_normal_form,
    relation,
    strictly_dominated,
    transitively_simultaneous,
    transport_game,
)
import egs.dominance
from egs.dominance import _weak_follow_matrix
from egs.strategy import plan_space

import fixtures
from corpus import ico_corpus, profile_count, seeded_structures, uo_corpus
from fixtures import (
    data_pair,
    g_absent_minded,
    g_kms,
    g_nul,
    g_red1,
    game_nul,
    malformed_red1,
    nul_payoffs,
    path,
    red1_infosets,
)
from oracles import (
    GameReference,
    apply_coalescing_reference,
    apply_is_reference,
    bd_reference,
    check_monotonic_reference,
    plan_map_reference,
    reaching_reference,
    reduced_normal_form_reference,
    strictly_dominated_reference,
    tau_reference,
    weak_follow_pairwise,
)


def _label_set(plan_list):
    return {p.label() for p in plan_list}


def test_reaching_root_is_everything():
    game = game_nul()
    root_set = game.structure.info_set_of("1", game.structure.root)
    prob = reaching(game, root_set)
    assert len(prob.own) == 2
    assert len(prob.others) == 6


def test_reaching_red1_h22():
    g = g_red1()
    payoffs = {
        p: {z: Fraction(0) for z in g.terminals} for p in g.players
    }
    game = Game(g, payoffs)
    h11, h12, h21, h22 = red1_infosets(g)
    prob = reaching(game, h22)
    assert len(prob.own) == 4          # all of player 2's plans
    assert _label_set(p for (p,) in prob.others) == {"O", "B"}
    # an off-path set is still reached by someone
    prob12 = reaching(game, h12)
    assert prob12.own and prob12.others


def test_reaching_foreign_set():
    game = game_nul()
    red = g_red1()
    foreign = red1_infosets(red)[3]  # {O, B}: histories absent from g_nul
    with pytest.raises(Exception):
        reaching(game, foreign)


def test_strictly_dominated_on_decision_problem():
    game = game_nul()
    h2 = game.structure.info_set_of("2", path({"1": "A"}))
    prob = reaching(game, h2)
    bad = strictly_dominated(prob, game)
    assert _label_set(bad) == {"E"}


def test_bd_requires_uo():
    g = g_kms()
    payoffs = {p: {z: Fraction(0) for z in g.terminals} for p in g.players}
    with pytest.raises(DominanceError) as err:
        bd(Game(g, payoffs))
    assert "before" in str(err.value)


def test_bd_nul_narrative():
    game = game_nul()
    trace = bd(game)
    assert _label_set(trace.survivors["1"]) == {"A"}
    assert _label_set(trace.survivors["2"]) == {"C", "D"}
    assert _label_set(trace.survivors["3"]) == {"G"}
    # round-by-round: B and E leave in round 1, F in round 2
    elim = {
        (p, plan.label()): n for (p, plan), n in trace.eliminated_round.items()
    }
    assert elim[("1", "B")] == 1
    assert elim[("2", "E")] == 1
    assert elim[("3", "F")] == 2
    # fixpoint: the last two rounds coincide
    assert trace.rounds[-1] == trace.rounds[-2]
    # product form every round: own times others, all profiles present
    for problems in trace.rounds:
        for s, prob in problems.items():
            assert len({p for p in prob.own}) == len(prob.own)
            assert len({r for r in prob.others}) == len(prob.others)


def test_bd_nul_after_sigma_f_survives():
    game = game_nul()
    g = game.structure
    opp = [o for o in find_is(g) if o.owner == "2"][0]
    new, hmap = apply_is(g, opp)
    moved = transport_game(game, new, hmap)
    plan_map = plan_map_reference(g, [apply_is_reference(g, opp)[1]])
    report = compare_bd(game, moved, plan_map)
    assert not report.ok
    assert {(v.player, v.plan.label()) for v in report.violations} == {("3", "F")}
    assert report.violations[0].eliminated_in_round == 2
    assert _label_set(report.after.survivors["3"]) == {"F", "G"}


def test_nul_complete_ico_is_monotonic():
    game = game_nul()
    icos = find_complete_icos(game.structure)
    both = [
        ico for ico in icos
        if len(ico.is_parts) == 2 and {p.owner for p in ico.is_parts} == {"2", "3"}
    ]
    report = check_monotonic(game, both[0])
    assert report.ok
    assert _label_set(report.after.survivors["3"]) == {"G"}


def _monotonic_plan_map(game, ico):
    """The plan map `check_monotonic` hands to `compare_bd`, BD not run."""
    seen = []
    with mock.patch.object(
        egs.dominance, "compare_bd", lambda before, after, plan_map: seen.append(plan_map)
    ):
        check_monotonic(game, ico)
    return seen[0]


def _step_rule_plan_map(structure, ico):
    return plan_map_reference(structure, tau_reference(structure, ico)[3])


@st.composite
def uo_games(draw):
    """A seeded UO game of 2 or 3 players, simultaneous moves likely, with
    random exact payoffs."""
    seed = draw(st.integers(0, 2**32))
    rng = random.Random(seed)
    params = GenParams(
        players=rng.choice((2, 3)),
        max_depth=rng.choice((2, 3, 4)),
        max_branching=2,
        simultaneity=rng.choice((0.35, 0.5)),
        merge_prob=rng.choice((0.5, 0.8, 0.95)),
        continue_prob=rng.choice((0.5, 0.65)),
        seed=seed,
    )
    try:
        structure = gen_random(params, require_uo=True)
    except GenError:
        assume(False)
    return Game(structure, random_payoffs(structure, rng))


@settings(max_examples=200, deadline=None)
@given(uo_games())
def test_monotonic_plan_map_is_the_step_rule(game):
    # the plan consistent with the images of a plan's terminals is the
    # plan the coalescing and IS steps of τ carry it to
    for ico in find_complete_icos(game.structure):
        assert _monotonic_plan_map(game, ico) == _step_rule_plan_map(game.structure, ico)


def test_monotonic_plan_map_is_the_step_rule_on_the_corpus():
    rng = random.Random(21)
    games, three_players, simultaneous = {}, 0, 0
    pairs = ico_corpus(1000, seed=8, max_profiles=20000)
    for structure, ico in pairs:
        game = games.get(structure)
        if game is None:
            game = games[structure] = Game(structure, random_payoffs(structure, rng))
        assert _monotonic_plan_map(game, ico) == _step_rule_plan_map(structure, ico)
        three_players += len(structure.players) == 3
        simultaneous += any(len(h.moves[-1]) > 1 for h in structure.histories[1:])
    assert len(pairs) == 1000 and three_players > 100 and simultaneous > 500


def test_monotonicity_on_random_ico_games():
    rng = random.Random(2024)
    checked = 0
    for structure, ico in ico_corpus(12, seed=8):
        game = Game(structure, random_payoffs(structure, rng))
        report = check_monotonic(game, ico)
        assert report.ok, report.violations
        checked += 1
    assert checked == 12


def test_reaching_unchanged_under_is_and_grows_under_coalescing():
    from egs import apply_coalescing, find_coalescing

    game = game_nul()
    g = game.structure
    for opp in find_is(g):
        new, hmap = apply_is(g, opp)
        moved = transport_game(game, new, hmap)
        bmap = plan_map_reference(g, [apply_is_reference(g, opp)[1]])
        for s in g.info_sets:
            before = reaching(game, s)
            after = reaching(moved, hmap.infoset_map[s])
            assert {bmap[s.owner][p] for p in before.own} == set(after.own)
            axes = [q for q in g.players if q != s.owner]
            moved_rest = {
                tuple(bmap[q][plan] for q, plan in zip(axes, rest))
                for rest in before.others
            }
            assert moved_rest == set(after.others)

    g2 = g_red1()
    payoffs = {p: {z: Fraction(0) for z in g2.terminals} for p in g2.players}
    game2 = Game(g2, payoffs)
    opp = find_coalescing(g2)[0]
    new, hmap = apply_coalescing(g2, opp)
    moved = transport_game(game2, new, hmap)
    bmap = plan_map_reference(g2, [apply_coalescing_reference(g2, opp)[1]])
    for s in g2.info_sets:
        before = reaching(game2, s)
        after = reaching(moved, hmap.infoset_map[s])
        image_own = {bmap[s.owner][p] for p in before.own}
        if s == opp.mover:
            # strictly more plans reach the mover once it merges upward
            assert image_own < set(after.own)
        else:
            assert image_own == set(after.own)


def test_format_trace_stable():
    game = game_nul()
    text1 = format_trace(bd(game))
    text2 = format_trace(bd(game))
    assert text1 == text2
    assert "survivors" in text1


def _solved_matrices(monkeypatch):
    """Record every payoff matrix the dominance code solves, by its repr.
    Each `dominated_rows` call is a memo miss; most rows are settled
    without an LP, so the LPs posed would undercount the misses."""
    import egs.dominance

    posed = []
    original = egs.dominance.dominated_rows

    def recording(matrix):
        posed.append(repr(matrix))
        return original(matrix)

    monkeypatch.setattr(egs.dominance, "dominated_rows", recording)
    return posed


def _multi_ico_games(count):
    """Corpus games with at least two complete ICOs, seeded payoffs; small
    enough for the Fourier-Motzkin oracle."""
    rng = random.Random(77)
    seen = []
    for structure, _ in ico_corpus(40, seed=8, max_profiles=30):
        if structure in seen:
            continue
        seen.append(structure)
        icos = find_complete_icos(structure)
        if len(icos) >= 2:
            yield Game(structure, random_payoffs(structure, rng)), icos
            count -= 1
            if not count:
                return


def test_check_monotonic_reuses_the_games_bd_and_lps(monkeypatch):
    posed = _solved_matrices(monkeypatch)
    for game, icos in _multi_ico_games(3):
        del posed[:]
        trace = bd(game)
        solved = set(posed)
        assert solved
        del posed[:]
        for ico in icos:
            report = check_monotonic(game, ico)
            assert report.before is trace
        assert not solved & set(posed)
        assert bd(game) is trace


def test_separately_parsed_games_share_no_memo(monkeypatch):
    from egs import parse, serialize

    posed = _solved_matrices(monkeypatch)
    text = serialize(game_nul())
    first = bd(parse(text))
    n_first = len(posed)
    assert n_first
    second = bd(parse(text))
    assert len(posed) == 2 * n_first
    assert second is not first and second.survivors == first.survivors


def test_monotonic_reports_match_fresh_oracle_bd(monkeypatch):
    import egs.dominance
    from egs import apply_tau

    from oracles import oracle_dominated

    for game, icos in _multi_ico_games(3):
        for ico in icos:
            report = check_monotonic(game, ico)
            assert report.ok, report.violations
            new_structure, comp = apply_tau(game.structure, ico)
            moved = transport_game(game, new_structure, comp)
            # fresh games, no shared memo, Fourier-Motzkin in place of the LP
            with monkeypatch.context() as m:
                m.setattr(egs.dominance, "dominated_rows", oracle_dominated)
                before = bd(Game(game.structure, game.payoffs))
                after = bd(Game(moved.structure, moved.payoffs))
            assert report.before.survivors == before.survivors
            assert report.after.survivors == after.survivors
            assert report.before.eliminated_round == before.eliminated_round


def test_bd_trace_is_frozen():
    from dataclasses import FrozenInstanceError

    trace = bd(game_nul())
    with pytest.raises(FrozenInstanceError):
        trace.survivors = {}


def _assert_derived_once(owner, facts, readers):
    """Each fact is absent until a reader needs it, and from then on every
    reader finds the same object."""
    assert not set(facts) & set(vars(owner))
    seen = {}
    for read in readers:
        read()
        for fact in set(facts) & set(vars(owner)):
            assert vars(owner)[fact] is seen.setdefault(fact, vars(owner)[fact]), fact
    assert set(seen) == set(facts)


def test_each_cached_fact_is_one_object_across_its_readers():
    structure = g_nul()
    a, b = structure.info_sets[:2]
    games = []
    _assert_derived_once(
        structure,
        ("_z", "_position", "_order", "_links", "_sim_index", "_sim_classes", "_plan_space"),
        [
            lambda: check_uo(structure),
            lambda: relation(structure, a, b),
            lambda: find_is(structure),
            lambda: [is_non_crossing(structure, opp) for opp in find_is(structure)],
            lambda: find_coalescing(structure),
            lambda: transitively_simultaneous(structure, a, b),
            lambda: find_complete_icos(structure),
            lambda: games.append(Game(structure, nul_payoffs(structure))),
            lambda: _weak_follow_matrix(structure),
            lambda: bd(games[0]),
            lambda: reduced_normal_form(structure),
            lambda: behaviorally_equivalent(structure, g_nul()),
        ],
    )
    assert games[0]._space is structure._plan_space
    # the plan space's own facts: each profile's outcome and the plan indices
    structure = g_nul()
    space = plan_space(structure)
    _assert_derived_once(
        space,
        ("outcomes", "indices"),
        [
            lambda: reduced_normal_form(structure),
            lambda: games.append(Game(structure, nul_payoffs(structure))),
            lambda: strictly_dominated(reaching(games[-1], structure.info_sets[0]), games[-1]),
            lambda: behaviorally_equivalent(structure, g_nul()),
        ],
    )
    game = game_nul()
    ico = find_complete_icos(game.structure)[0]
    _assert_derived_once(game, ("_bd_trace",), [lambda: bd(game), lambda: check_monotonic(game, ico)])


# -- the plan space against the per-profile reference -------------------------


def _tied_payoffs(structure, rng):
    """Payoffs in -2..2 with a few halves, so equal payoffs are common."""
    return {
        p: {z: Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for z in structure.terminals}
        for p in structure.players
    }


def _assert_matches_reference(structure, payoffs):
    """Reaching problems, dominated plans, BD traces, monotonicity reports
    and the reduced normal form agree with the per-profile reference."""
    try:
        ref = GameReference(structure, payoffs)
    except EgsError as err:
        with pytest.raises(type(err)):
            Game(structure, payoffs)
        with pytest.raises(type(err)):
            reduced_normal_form(structure)
        return
    game = Game(structure, payoffs)
    assert reduced_normal_form(structure) == reduced_normal_form_reference(structure)
    for s in structure.info_sets:
        problem = reaching(game, s)
        assert problem == reaching_reference(ref, s)
        assert strictly_dominated(problem, game) == strictly_dominated_reference(problem, ref)
    if not check_uo(structure)[0]:
        with pytest.raises(DominanceError):
            bd(game)
        return
    trace, expected = bd(game), bd_reference(ref)
    assert trace == expected
    assert [list(r) for r in trace.rounds] == [list(r) for r in expected.rounds]
    for ico in find_complete_icos(structure):
        assert check_monotonic(game, ico) == check_monotonic_reference(ref, ico)


def _fixture_structures():
    for name, builder in sorted(vars(fixtures).items()):
        if name.startswith("g_") and not inspect.signature(builder).parameters:
            yield builder()
    yield fixtures.g_deep_chain(6)
    for name in ("rnf-slow-1-20x20", "minimal-wrong-1", "minimal-wrong-2", "minimal-wrong-3"):
        yield from data_pair(name)


def _forgetful_owner():
    """O's set S = {a/q, b/p/u} forgets O's own move u at b/p, so the O
    plans reaching its two members differ.  P, seated before O, reaches
    b/p/u with its first plan and a/q only with later ones."""
    from fixtures import build

    a, b = path({"X": "a"}), path({"X": "b"})
    aq = path({"X": "a"}, {"P": "q"})
    bp = path({"X": "b"}, {"P": "p"})
    bpu = path({"X": "b"}, {"P": "p"}, {"O": "u"})
    return build(
        ["P", "O", "X"],
        {ROOT: {"X": ["a", "b"]}, a: {"P": ["p", "q"]}, b: {"P": ["p", "q"]},
         aq: {"O": ["c", "d"]}, bp: {"O": ["u", "v"]}, bpu: {"O": ["c", "d"]}},
        blocks=[("O", [aq, bpu])],
    )


def test_reaching_lists_plans_in_order_of_first_appearance():
    structure = _forgetful_owner()
    rng = random.Random(5)
    payoffs = _tied_payoffs(structure, rng)
    game = Game(structure, payoffs)
    s = structure.info_set_of("O", path({"X": "a"}, {"P": "q"}))
    own = [game.plan_lists["O"].index(plan) for plan in reaching(game, s).own]
    # the T=u plans come with P's first plan, the others only later
    assert own == [0, 2, 1, 3]
    for seed in range(20):
        _assert_matches_reference(structure, _tied_payoffs(structure, random.Random(seed)))


def test_plan_space_matches_the_per_profile_reference_on_fixtures():
    rng = random.Random(11)
    game = game_nul()
    _assert_matches_reference(game.structure, game.payoffs)
    for structure in _fixture_structures():
        _assert_matches_reference(structure, _tied_payoffs(structure, rng))
    # BD through the LP-only reference takes 7-55 s a side on these two
    for name in ("rnf-slow-2-18x16x11", "rnf-slow-3-63x36"):
        for structure in data_pair(name):
            assert reduced_normal_form(structure) == reduced_normal_form_reference(structure)


def test_plan_space_matches_the_per_profile_reference_on_the_corpus():
    rng = random.Random(12)
    structures = list(uo_corpus(20))
    structures += [g for g, _ in ico_corpus(20, seed=8, max_profiles=200)]
    for structure in structures:
        if profile_count(structure) <= 400:
            _assert_matches_reference(structure, _tied_payoffs(structure, rng))


@settings(max_examples=60, deadline=None)
@given(seeded_structures(), st.integers(0, 2**32))
def test_plan_space_matches_the_per_profile_reference(structure, seed):
    if profile_count(structure) > 400:
        return
    _assert_matches_reference(structure, _tied_payoffs(structure, random.Random(seed)))


def test_bd_at_scale_settles_most_rows_without_an_lp(capsys, monkeypatch):
    # `egs gen --seed 30 --players 2 --depth 5 --merge 0.8 --continue-prob 1.0
    # --simultaneity 0 --uo --payoffs`: 144 x 35 = 5,040 plan profiles.  The
    # LP-only procedure poses 1,240 LPs on it.
    import egs.dominance
    from egs import parse
    from egs.cli import main

    assert main([
        "gen", "--seed", "30", "--players", "2", "--depth", "5", "--merge", "0.8",
        "--continue-prob", "1.0", "--simultaneity", "0", "--uo", "--payoffs",
    ]) == 0
    game = parse(capsys.readouterr().out)
    assert [len(game.plan_lists[p]) for p in game.structure.players] == [144, 35]
    posed = []
    original = egs.dominance.maximize

    def counting(*args):
        posed.append(1)
        return original(*args)

    monkeypatch.setattr(egs.dominance, "maximize", counting)
    trace = bd(game)
    assert len(posed) <= 25
    assert {p: [plan.label() for plan in v] for p, v in trace.survivors.items()} == {
        "1": ["a1e1m1g1p1s1d1i1", "a1e1m1g1p1s1d1j1y1", "b1k1g1p1v1", "b1l1g1p1v1aa1"],
        "2": ["a2d2e2", "b2k2r2s2h2w2", "b2k2r2t2h2w2"],
    }


@settings(max_examples=100, deadline=None)
@given(seeded_structures())
@example(g_absent_minded())
@example(g_kms())
def test_weak_follow_matrix_matches_the_pairwise_scan(structure):
    # the same sets in the same order, read off the transposed order index
    got = _weak_follow_matrix(structure)
    assert list(got.items()) == list(weak_follow_pairwise(structure).items())


def test_weak_follow_matrix_matches_the_pairwise_scan_on_malformed_structures():
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    # a block filed twice: info_sets holds it twice, and so must each tuple
    twice = Structure(
        g.players, g.actions, g.histories, {**g.partitions, "2": (h21, h22, h21)}
    )
    for m in malformed_red1() + [twice]:
        assert list(_weak_follow_matrix(m).items()) == list(weak_follow_pairwise(m).items())
