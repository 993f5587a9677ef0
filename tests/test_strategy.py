import dataclasses
import inspect
import itertools
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import egs
from egs import (
    ROOT,
    EgsError,
    GenParams,
    History,
    Plan,
    PlanError,
    behaviorally_equivalent,
    check_uo,
    gen_random,
    make_profile,
    plans,
    play,
    reduced_normal_form,
    rnf_isomorphic,
)
from egs.strategy import own_predecessor, plan_counts, plan_space

from corpus import (
    profile_count,
    random_chain,
    renamed,
    seeded_structures,
    shuffled_rnf,
    uo_corpus,
    vnm_corpus,
)
import fixtures
from fixtures import (
    A,
    B,
    O,
    build,
    data_pair,
    g_absent_minded,
    g_chain,
    g_deep_chain,
    g_ladder,
    g_red1,
    g_red2,
    g_sim,
    malformed_red1,
    path,
    red1_infosets,
)
from oracles import (
    equivalent_by_both_routes,
    own_predecessor_reference,
    plans_reference,
    rnf_certificate_ok,
    rnf_isomorphic_brute,
)


def brute_force_plans(structure, player):
    """Every partial map over the player's blocks satisfying the three
    plan conditions, found by raw enumeration."""
    blocks = structure.partitions[player]
    preds = {s: own_predecessor(structure, s) for s in blocks}
    out = []
    for mask in itertools.product([False, True], repeat=len(blocks)):
        domain = [s for s, used in zip(blocks, mask) if used]
        pools = [structure.feasible_at(s) for s in domain]
        for choice in itertools.product(*pools):
            assignment = dict(zip(domain, choice))
            ok = True
            for s in blocks:
                pred = preds[s]
                if pred is None:
                    if s not in assignment:
                        ok = False
                else:
                    expected = pred[0] in assignment and assignment[pred[0]] == pred[1]
                    if (s in assignment) != expected:
                        ok = False
            if ok:
                out.append(Plan(player, tuple(assignment.items())))
    return set(out)


def test_plans_red1_counts_and_contents():
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    ones = plans(g, "1")
    twos = plans(g, "2")
    assert len(ones) == 4
    assert len(twos) == 4
    expected = {
        Plan("1", ((h11, "A"), (h12, "E"))),
        Plan("1", ((h11, "A"), (h12, "F"))),
        Plan("1", ((h11, "O"),)),
        Plan("1", ((h11, "B"),)),
    }
    assert set(ones) == expected
    # player 2's sets are both minimal, so plans are all total maps
    assert all(len(p.choices) == 2 for p in twos)


def test_plans_sim_single_choice_each():
    g = g_sim()
    assert len(plans(g, "1")) == 2
    assert len(plans(g, "2")) == 2


def test_plans_unknown_player():
    with pytest.raises(EgsError):
        plans(g_red1(), "9")


def test_plan_hash_is_computed_once_and_by_value():
    g = g_red1()
    plan = plans(g, "2")[-1]
    rebuilt = Plan(plan.owner, tuple(reversed(plan.choices)))
    assert plan == rebuilt and hash(plan) == hash(rebuilt)
    assert hash(plan) == hash((plan.owner, plan.choices))
    assert {plan: 1}[rebuilt] == 1
    # fileformat and every value comparison see only these fields
    assert [f.name for f in dataclasses.fields(Plan)] == ["owner", "choices"]


def test_pickled_plans_rehash_in_another_process():
    # string hashes are salted per process, so a cached hash must not travel
    plan = plans(g_red1(), "2")[-1]
    data = pickle.dumps(plan)
    check = (
        "import pickle, sys\n"
        "from egs import Plan\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        "assert p in {Plan(p.owner, p.choices)}\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = str(Path(egs.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", check], input=data, env=env,
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()


def test_plans_match_brute_force_on_fixtures_and_corpus():
    for structure in (g_red1(), g_chain(), g_ladder(), g_sim()):
        for p in structure.players:
            assert set(plans(structure, p)) == brute_force_plans(structure, p)
    checked = 0
    for structure in uo_corpus(15, seed=31):
        for p in structure.players:
            if len(structure.partitions[p]) > 7:
                continue  # raw enumeration is exponential in block count
            assert set(plans(structure, p)) == brute_force_plans(structure, p)
            checked += 1
    assert checked >= 15


@settings(max_examples=100, deadline=None)
@given(seeded_structures())
def test_plans_match_the_recursive_reference(structure):
    for p in structure.players:
        assert plans(structure, p) == plans_reference(structure, p)


def test_plan_spaces_list_the_plans_plans_enumerates():
    for structure in uo_corpus(40, seed=31) + vnm_corpus(20):
        space = plan_space(structure)
        want = tuple(plans(structure, p) for p in structure.players)
        assert space.plan_lists == want
        assert space.indices == tuple({plan: k for k, plan in enumerate(pl)} for pl in want)


def _fresh(structure):
    """The structure rebuilt, holding no plan space yet."""
    return egs.Structure(
        structure.players, structure.actions, structure.histories, structure.partitions
    )


def test_the_rnf_route_builds_no_plan(monkeypatch):
    # sizes, the choosing bitsets and the incidence decide the verdict
    rng = random.Random(808)
    corpus = uo_corpus(40, seed=31)
    pairs = [(_fresh(g), random_chain(g, rng)) for g in corpus]
    pairs += [(_fresh(g), _fresh(h)) for g, h in zip(corpus, corpus[1:])]

    def refuse(self):
        raise AssertionError("the rnf route built a Plan")

    monkeypatch.setattr(egs.Plan, "__post_init__", refuse)
    verdicts = [behaviorally_equivalent(g, h, route="rnf")[0] for g, h in pairs]
    monkeypatch.undo()
    assert verdicts[:40] == [True] * 40 and not all(verdicts[40:])


def _assert_own_predecessor_matches(structure):
    for s in structure.info_sets:
        try:
            want = own_predecessor_reference(structure, s)
        except EgsError as error:
            with pytest.raises(EgsError) as raised:
                own_predecessor(structure, s)
            assert str(raised.value) == str(error)
        else:
            assert own_predecessor(structure, s) == want


@settings(max_examples=100, deadline=None)
@given(seeded_structures())
@example(g_absent_minded())
def test_own_predecessor_matches_the_experience(structure):
    _assert_own_predecessor_matches(structure)


def test_own_predecessor_matches_the_experience_on_fixtures_and_malformed_structures():
    for name, builder in sorted(vars(fixtures).items()):
        if name.startswith("g_") and not inspect.signature(builder).parameters:
            _assert_own_predecessor_matches(builder())
    for m in malformed_red1():
        _assert_own_predecessor_matches(m)
    # a set whose member is no history of the structure
    with pytest.raises(EgsError, match="'Z' is not a history of this structure"):
        own_predecessor(g_red1(), egs.InfoSet("1", (fixtures.STRAY,)))


def test_plans_of_a_deep_chain_build_one_prefix_per_set(monkeypatch):
    # each set's own predecessor is read off one prefix of its first
    # member, not off the whole experience (a prefix per move)
    g = g_deep_chain(200)
    calls = []
    prefix = History.prefix

    def counting(self, n):
        calls.append(n)
        return prefix(self, n)

    monkeypatch.setattr(History, "prefix", counting)
    got = plans(g, "1")
    monkeypatch.undo()
    assert len(calls) <= len(g.partitions["1"])
    assert got == plans_reference(g, "1")


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_plans_of_a_deep_chain_need_no_recursion():
    g = g_deep_chain(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        got = plans(g, "1")
        # the limit is low enough to stop the recursive enumeration
        with pytest.raises(RecursionError):
            plans_reference(g, "1")
    finally:
        sys.setrecursionlimit(limit)
    assert got == plans_reference(g, "1")
    assert len(got) == 301


def _assert_counts_match_the_reference(structure):
    assert plan_counts(structure) == tuple(
        len(plans_reference(structure, p)) for p in structure.players
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 59), st.integers(0, 2**32))
def test_counted_plans_match_the_reference_on_the_uo_corpus_and_renamings(k, seed):
    structure = uo_corpus(60, seed=31)[k]
    _assert_counts_match_the_reference(structure)
    _assert_counts_match_the_reference(renamed(structure, random.Random(seed), players=True))


@settings(max_examples=100, deadline=None)
@given(seeded_structures())
@example(g_absent_minded())
def test_counted_plans_match_the_reference_on_seeded_structures(structure):
    _assert_counts_match_the_reference(structure)


def test_counting_the_plans_of_a_deep_chain_needs_no_recursion():
    import time

    g = g_deep_chain(1200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        start = time.process_time()
        counts = plan_counts(g)
        elapsed = time.process_time() - start
    finally:
        sys.setrecursionlimit(limit)
    assert counts == (1201,)
    assert elapsed < 0.5


def test_plan_counts_are_counted_once_per_structure(monkeypatch):
    g = g_ladder()
    calls = []
    scan = egs.strategy.own_predecessor
    monkeypatch.setattr(
        egs.strategy, "own_predecessor", lambda *args: calls.append(1) or scan(*args)
    )
    counts = plan_counts(g)
    assert len(calls) == len(g.info_sets)
    assert plan_counts(g) is counts and len(calls) == len(g.info_sets)
    assert counts == tuple(len(plans(g, p)) for p in g.players)


def test_play_red1():
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    s1 = Plan("1", ((h11, "A"), (h12, "E")))
    s2 = Plan("2", ((h21, "c"), (h22, "h")))
    assert play(g, {"1": s1, "2": s2}) == A.extend(make_profile({"1": "E", "2": "c"}))
    s1 = Plan("1", ((h11, "O"),))
    assert play(g, {"1": s1, "2": s2}) == O.extend(make_profile({"2": "h"}))


def test_play_chain_unreached_infoset():
    g = g_chain()
    l = path({"1": "L"})
    s1 = Plan("1", ((g.info_set_of("1", g.root), "R"),))
    s2 = Plan("2", ((g.info_set_of("2", l), "a"),))
    assert play(g, {"1": s1, "2": s2}) == path({"1": "R"})


def test_play_rejects_undefined_plan():
    g = g_chain()
    s1 = Plan("1", ((g.info_set_of("1", g.root), "L"),))
    s2 = Plan("2", ())
    with pytest.raises(PlanError):
        play(g, {"1": s1, "2": s2})


def test_rnf_red1_shape():
    rnf = reduced_normal_form(g_red1())
    assert rnf.shape() == (4, 4)
    assert len(rnf.terminals) == 8
    assert len(rnf.table) == 16
    # every terminal is hit
    assert {t for _, t in rnf.table} == set(range(8))


def test_rnf_chain():
    rnf = reduced_normal_form(g_chain())
    assert rnf.shape() == (2, 2)
    assert len(rnf.terminals) == 3
    r = path({"1": "R"})
    r_index = rnf.terminals.index(r)
    hits = [combo for combo, t in rnf.table if t == r_index]
    assert len(hits) == 2  # both player-2 plans against R


def test_rnf_sim_bijective():
    rnf = reduced_normal_form(g_sim())
    assert rnf.shape() == (2, 2)
    outcomes = [t for _, t in rnf.table]
    assert sorted(outcomes) == [0, 1, 2, 3]


def test_rnf_isomorphic_identity():
    rnf = reduced_normal_form(g_red1())
    iso = rnf_isomorphic(rnf, rnf)
    assert iso is not None


def test_rnf_isomorphic_after_coalescing():
    iso = rnf_isomorphic(
        reduced_normal_form(g_red1()), reduced_normal_form(g_red2())
    )
    assert iso is not None


def test_rnf_not_isomorphic_on_multiplicity_mismatch():
    # 2x2 into 3 terminals (chain) vs 2x2 onto 4 terminals (simultaneous)
    r1 = reduced_normal_form(g_chain())
    r2 = reduced_normal_form(g_sim())
    assert rnf_isomorphic(r1, r2) is None


def test_behavioral_equivalence_red_pair_both_routes():
    flag, cert = equivalent_by_both_routes(g_red1(), g_red2())
    assert flag
    assert cert["rnf"] is not None
    assert cert["minimal"] is not None


def test_behavioral_equivalence_reflexive():
    g = g_red1()
    assert equivalent_by_both_routes(g, g)[0]


def test_behavioral_equivalence_negative():
    assert not equivalent_by_both_routes(g_chain(), g_sim())[0]


def test_minimal_route_requires_uo():
    from fixtures import g_kms

    with pytest.raises(EgsError):
        behaviorally_equivalent(g_kms(), g_kms(), route="minimal")


def test_outcome_matches_play_on_every_profile():
    for g in (g_red1(), g_sim()):
        rnf = reduced_normal_form(g)
        for lists in itertools.product(*rnf.plan_lists):
            profile = dict(zip(rnf.players, lists))
            assert rnf.outcome(profile) == play(g, profile)


@st.composite
def small_rnfs(draw):
    """Reduced normal forms of random two-player structures."""
    seed = draw(st.integers(0, 2**32))
    params = GenParams(
        players=2, max_depth=draw(st.sampled_from((2, 3))), max_branching=2,
        simultaneity=draw(st.sampled_from((0.0, 0.5))), merge_prob=0.8,
        continue_prob=0.65, seed=seed,
    )
    return reduced_normal_form(gen_random(params))


@settings(max_examples=100, deadline=None)
@given(small_rnfs(), st.integers(0, 2**32), st.booleans())
def test_rnf_isomorphic_on_shuffled_rnfs_commutes_with_the_table(rnf, seed, players):
    other = shuffled_rnf(rnf, random.Random(seed), players=players)
    iso = rnf_isomorphic(rnf, other, allow_player_permutation=players)
    assert iso is not None
    assert rnf_certificate_ok(rnf, other, iso)


@settings(max_examples=100, deadline=None)
@given(small_rnfs(), st.integers(0, 2**32), st.booleans())
def test_rnf_isomorphic_agrees_with_brute_force(rnf, seed, swap):
    assume(max(rnf.shape()) <= 4)
    rng = random.Random(seed)
    other = shuffled_rnf(rnf, rng)
    if swap and len(other.table) > 1:
        rows = list(other.table)
        i, j = rng.sample(range(len(rows)), 2)
        (ci, ti), (cj, tj) = rows[i], rows[j]
        rows[i], rows[j] = (ci, tj), (cj, ti)
        other = replace(other, table=tuple(rows))
    iso = rnf_isomorphic(rnf, other)
    assert (iso is not None) == rnf_isomorphic_brute(rnf, other)
    if iso is not None:
        assert rnf_certificate_ok(rnf, other, iso)


@settings(max_examples=60, deadline=None)
@given(seeded_structures(), st.integers(0, 2**32))
def test_routes_agree_on_renamed_pairs(g, seed):
    assume(check_uo(g)[0])
    rng = random.Random(seed)
    other = renamed(random_chain(g, rng), rng)
    assert equivalent_by_both_routes(g, other)[0]


def test_rnf_isomorphic_on_the_fixed_rnf_slow_pairs():
    for name in ("rnf-slow-1-20x20", "rnf-slow-2-18x16x11", "rnf-slow-3-63x36"):
        r1, r2 = (reduced_normal_form(g) for g in data_pair(name))
        iso = rnf_isomorphic(r1, r2)
        assert iso is not None
        assert rnf_certificate_ok(r1, r2, iso)


RNF_SLOW = ("rnf-slow-1-20x20", "rnf-slow-2-18x16x11", "rnf-slow-3-63x36")


def test_rnf_route_never_tabulates(monkeypatch):
    pairs = [(g_red1(), g_red2()), (g_chain(), g_sim())]
    pairs += [data_pair(name) for name in RNF_SLOW]
    expected = [True, False, True, True, True]

    def refuse(*args, **kwargs):
        raise AssertionError("the rnf route tabulated a reduced normal form")

    monkeypatch.setattr("egs.strategy.reduced_normal_form", refuse)
    monkeypatch.setattr("egs.strategy.play", refuse)
    for (g1, g2), flag in zip(pairs, expected):
        assert behaviorally_equivalent(g1, g2, route="rnf")[0] == flag


def test_rnf_route_certificates_check_against_the_tables():
    rng = random.Random(7)
    pairs = [data_pair(name) for name in RNF_SLOW]
    pairs += [(g_red1(), g_red2()), (g_absent_minded(), renamed(g_absent_minded(), rng))]
    for g1, g2 in pairs:
        flag, cert = behaviorally_equivalent(g1, g2, route="rnf")
        assert flag
        assert rnf_certificate_ok(reduced_normal_form(g1), reduced_normal_form(g2), cert["rnf"])
    g1, g2 = g_red1(), renamed(g_red2(), rng, players=True)
    flag, cert = behaviorally_equivalent(g1, g2, allow_player_permutation=True)
    assert flag
    assert rnf_certificate_ok(reduced_normal_form(g1), reduced_normal_form(g2), cert["rnf"])


@settings(max_examples=100, deadline=None)
@given(seeded_structures(), seeded_structures(), st.integers(0, 2**32), st.booleans())
def test_rnf_route_agrees_with_the_tabulated_forms(g, h, seed, players):
    assume(profile_count(g) <= 2000 and profile_count(h) <= 2000)
    rng = random.Random(seed)
    others = [renamed(random_chain(g, rng), rng, players=players), h]
    if check_uo(h)[0]:
        others.append(random_chain(h, rng))
    for other in others:
        flag, cert = behaviorally_equivalent(
            g, other, allow_player_permutation=players
        )
        r1, r2 = reduced_normal_form(g), reduced_normal_form(other)
        expected = rnf_isomorphic(r1, r2, allow_player_permutation=players)
        assert flag == (expected is not None)
        if flag:
            assert rnf_certificate_ok(r1, r2, cert["rnf"])


def test_rnf_route_agrees_with_the_tabulated_forms_on_corpus_pairs():
    # Small two-player draws share shapes often, so many pairs get past the
    # shape and multiplicity checks to the search itself, either way.
    corpus = [
        gen_random(GenParams(
            players=2, max_depth=2 + k % 2, max_branching=2,
            simultaneity=(0.0, 0.5)[k // 2 % 2], merge_prob=0.8,
            continue_prob=0.65, seed=k,
        ))
        for k in range(60)
    ]
    forms = [reduced_normal_form(g) for g in corpus]
    searched = Counter()
    for i, j in itertools.combinations(range(len(corpus)), 2):
        for players in (False, True):
            flag, _ = behaviorally_equivalent(
                corpus[i], corpus[j], allow_player_permutation=players
            )
            expected = rnf_isomorphic(forms[i], forms[j], allow_player_permutation=players)
            assert flag == (expected is not None)
            r1, r2 = forms[i], forms[j]
            if sorted(r1.shape()) == sorted(r2.shape()) and len(r1.terminals) == len(r2.terminals):
                searched[flag] += 1
    assert searched[True] >= 50 and searched[False] >= 5


def test_rnf_route_raises_where_tabulation_does():
    # Player 2's set joins histories with different feasible actions, so
    # the plan choosing b at R leaves the tree.
    l, r = path({"1": "L"}), path({"1": "R"})
    g = build(
        ["1", "2"],
        {ROOT: {"1": ["L", "R"]}, l: {"2": ["a", "b"]}, r: {"2": ["a", "c"]}},
        blocks=[("2", [l, r])],
    )
    with pytest.raises(PlanError):
        reduced_normal_form(g)
    with pytest.raises(PlanError):
        behaviorally_equivalent(g, g, route="rnf")


def test_a_structure_past_the_profile_bound_is_refused_at_once():
    # Player 1 picks one of five histories; at each, players 2-5 choose
    # simultaneously between two actions: 86 histories, but player k in
    # 2-5 has 2^5 plans, so 5 * 32^4 = 5,242,880 plan profiles.
    import time

    from egs import Game, bd
    from egs.strategy import _MAX_PROFILES, plan_space

    players = ["1", "2", "3", "4", "5"]
    nodes = {ROOT: {"1": [f"a{k}" for k in range(5)]}}
    for k in range(5):
        nodes[path({"1": f"a{k}"})] = {p: ["x", "y"] for p in players[1:]}
    g = build(players, nodes)
    start = time.perf_counter()
    assert plan_space(g).profile_count == 5 * 32**4 > _MAX_PROFILES
    with pytest.raises(PlanError, match="5242880 plan profiles"):
        reduced_normal_form(g)
    # a game builds its payoff lists on first use
    game = Game(g, {p: {z: 0 for z in g.terminals} for p in players})
    with pytest.raises(PlanError, match="5242880 plan profiles"):
        bd(game)
    assert time.perf_counter() - start < 1
    # the rnf route tabulates nothing, so it still answers
    assert behaviorally_equivalent(g, g, route="rnf")[0]
