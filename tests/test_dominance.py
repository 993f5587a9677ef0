import random
from fractions import Fraction

import pytest

from egs import (
    DominanceError,
    Game,
    IsOpp,
    apply_is,
    bd,
    check_monotonic,
    compare_bd,
    find_complete_icos,
    find_is,
    format_trace,
    plans,
    random_payoffs,
    reaching,
    strictly_dominated,
    transport_game,
    transport_plan,
)
from egs.transform import CompositeMap

from corpus import ico_corpus
from fixtures import g_kms, g_nul, g_red1, game_nul, path, red1_infosets


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
    comp = CompositeMap.identity(g).extend(hmap)
    moved = transport_game(game, new, comp)
    plan_map = {
        p: {plan: transport_plan(plan, hmap) for plan in game.plan_lists[p]}
        for p in g.players
    }
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
        comp = CompositeMap.identity(g).extend(hmap)
        moved = transport_game(game, new, comp)
        for s in g.info_sets:
            before = reaching(game, s)
            after = reaching(moved, hmap.infoset_map[s])
            bmap = {
                p: {plan: transport_plan(plan, hmap) for plan in game.plan_lists[p]}
                for p in g.players
            }
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
    comp = CompositeMap.identity(g2).extend(hmap)
    moved = transport_game(game2, new, comp)
    bmap = {
        p: {plan: transport_plan(plan, hmap) for plan in game2.plan_lists[p]}
        for p in g2.players
    }
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


def _lp_inputs(monkeypatch):
    """Record every LP the dominance code poses, by its repr."""
    import egs.dominance

    posed = []
    original = egs.dominance.maximize

    def recording(*args):
        posed.append(repr(args))
        return original(*args)

    monkeypatch.setattr(egs.dominance, "maximize", recording)
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
    posed = _lp_inputs(monkeypatch)
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

    posed = _lp_inputs(monkeypatch)
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
