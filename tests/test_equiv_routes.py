"""Route agreement for behavioral equivalence on 200 random UO pairs:
equivalent pairs built by random transformation chains, inequivalent ones
by grafting a fresh decision onto a terminal (which perturbs the outcome
multiset without touching payoffs), each pair run through both routes by
`oracles.equivalent_by_both_routes`.  Negative verdicts on pairs whose
counted invariants differ, the one reason both routes state for them, and
the reasons verdicts state."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import egs.strategy
import egs.transform
from egs import (
    EgsError,
    InfoSet,
    Structure,
    behaviorally_equivalent,
    check_uo,
    make_profile,
    validate_structure,
)
from egs.strategy import plan_counts

from corpus import random_chain, renamed, seeded_structures, uo_corpus
from egs import ROOT
from fixtures import build, g_chain, g_red1, g_red2, g_sim, path
from oracles import counted_invariants, equivalent_by_both_routes


def graft_extra_decision(structure, rng):
    """Turn one terminal into a decision point of the first player with two
    fresh actions: the terminal count grows, so the outcome multiset of the
    reduced normal form changes."""
    owner = structure.players[0]
    z = structure.terminals[rng.randrange(len(structure.terminals))]
    fresh = ("zz1", "zz2")
    kids = [z.extend(make_profile({owner: a})) for a in fresh]
    actions = dict(structure.actions)
    actions[owner] = actions[owner] | set(fresh)
    partitions = {p: list(blocks) for p, blocks in structure.partitions.items()}
    partitions[owner].append(InfoSet(owner, (z,)))
    return Structure(
        structure.players, actions,
        list(structure.histories) + kids,
        {p: tuple(v) for p, v in partitions.items()},
    )


def test_routes_agree_on_200_pairs():
    rng = random.Random(606)
    corpus = uo_corpus(100, seed=61)
    pairs = []
    for structure in corpus:
        pairs.append((structure, random_chain(structure, rng), True))
    for structure in corpus:
        other = graft_extra_decision(structure, rng)
        assert validate_structure(other).ok
        assert check_uo(other)[0]
        pairs.append((structure, other, False))
    assert len(pairs) == 200
    for g1, g2, expected in pairs:
        flag, _ = equivalent_by_both_routes(g1, g2)
        assert flag == expected


@settings(max_examples=60, deadline=None)
@given(seeded_structures(), seeded_structures(), st.integers(0, 2**32), st.sampled_from(
    ["grafted", "independent", "player-permuted"]
))
def test_pairs_with_differing_counts_are_not_equivalent_by_both_routes(g, h, seed, kind):
    assume(check_uo(g)[0] and check_uo(h)[0])
    rng = random.Random(seed)
    permute = kind == "player-permuted"
    other = graft_extra_decision(g, rng) if kind == "grafted" else h
    if permute:
        other = renamed(other, rng, players=True)
    assume(counted_invariants(g, permute) != counted_invariants(other, permute))
    flag, cert = equivalent_by_both_routes(g, other, allow_player_permutation=permute)
    assert not flag and cert["rnf"] is None and cert["minimal"] is None
    assert cert["reason"].startswith(
        ("terminal counts differ", "players differ", "plan counts differ")
    )


def test_minimal_route_answers_differing_counts_without_minimising(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("minimised a pair whose counts differ")

    monkeypatch.setattr(egs.transform, "minimize_uo", refuse)
    flag, cert = behaviorally_equivalent(g_chain(), g_sim(), route="minimal")
    assert not flag and cert == {"minimal": None, "reason": "terminal counts differ: 3 vs 4"}


def _reasons(g1, g2, allow_player_permutation=False):
    """The one reason both routes state for refusing the pair, or None when
    both accept it."""
    rnf, minimal = (
        behaviorally_equivalent(
            g1, g2, route=route, allow_player_permutation=allow_player_permutation
        )
        for route in ("rnf", "minimal")
    )
    assert rnf[0] == minimal[0] and rnf[1].get("reason") == minimal[1].get("reason")
    return rnf[1].get("reason")


def test_negative_verdicts_state_the_first_failed_check():
    g = g_red1()
    n = len(g.terminals)
    grafted = graft_extra_decision(g, random.Random(1))
    assert _reasons(g, grafted) == f"terminal counts differ: {n} vs {n + 1}"
    # three terminals each; player 1 picks among three where g_chain gives two
    fan = build(["1", "2"], {ROOT: {"1": ["L", "M", "R"]}})
    assert _reasons(g_chain(), fan) == "plan counts differ for player 1: 2 vs 3"
    assert _reasons(g_chain(), fan, allow_player_permutation=True) == (
        "plan counts differ: (2, 2) vs (1, 3)"
    )
    # the same counts, but player 2 moves first and may end the game alone:
    # each route names its own search
    swapped = build(["1", "2"], {ROOT: {"2": ["a", "b"]}, path({"2": "a"}): {"1": ["L", "R"]}})
    for route, reason in (
        ("rnf", "reduced normal forms are not isomorphic"),
        ("minimal", "minimal forms are not isomorphic"),
    ):
        flag, cert = behaviorally_equivalent(g_chain(), swapped, route=route)
        assert not flag and cert["reason"] == reason
    assert _reasons(g_chain(), swapped, allow_player_permutation=True) is None
    # positive certificates carry no reason
    flag, cert = equivalent_by_both_routes(g_red1(), g_red2())
    assert flag and "reason" not in cert
    # and a route the function does not know is refused, not answered False,
    # among them the cross-check the tests make
    for route in ("minimum", "both"):
        with pytest.raises(EgsError, match=f"unknown equivalence route '{route}'"):
            behaviorally_equivalent(g_red1(), g_red2(), route=route)


def test_the_routes_cross_check_fails_on_a_miscount(monkeypatch):
    # a miscount for one side must not pass silently: the minimal route
    # refuses the pair on it while the rnf route finds the pair equivalent
    g = g_red1()
    monkeypatch.setattr(
        egs.strategy, "plan_counts",
        lambda s: (1,) * len(s.players) if s is g else plan_counts(s),
    )
    assert behaviorally_equivalent(g, g_red2(), route="minimal") == (
        False, {"minimal": None, "reason": "plan counts differ for player 1: 1 vs 4"}
    )
    with pytest.raises(AssertionError, match="routes disagree: rnf=True minimal=False"):
        equivalent_by_both_routes(g, g_red2())


@settings(max_examples=60, deadline=None)
@given(
    seeded_structures(), seeded_structures(), st.integers(0, 2**32),
    st.booleans(), st.booleans(),
)
def test_both_routes_state_one_reason_when_the_counts_differ(g, h, seed, graft, permute):
    assume(check_uo(g)[0] and check_uo(h)[0])
    rng = random.Random(seed)
    other = renamed(graft_extra_decision(g, rng) if graft else h, rng, players=True)
    assume(counted_invariants(g, permute) != counted_invariants(other, permute))
    assert _reasons(g, other, allow_player_permutation=permute) is not None
