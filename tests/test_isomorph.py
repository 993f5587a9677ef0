import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from egs import ROOT, behaviorally_equivalent, structure_isomorphic

from corpus import renamed, seeded_structures
from fixtures import build, data_pair, g_chain, g_deep_chain, g_ent, g_red1, g_sim, path
from oracles import structure_certificate_ok


def relabeled_red1():
    """g_red1 with every action renamed; isomorphic but not equal."""
    a, o, b = path({"1": "A2"}), path({"1": "O2"}), path({"1": "B2"})
    nodes = {
        ROOT: {"1": ["A2", "O2", "B2"]},
        a: {"1": ["E2", "F2"], "2": ["c2", "d2"]},
        o: {"2": ["h2", "i2"]},
        b: {"2": ["h2", "i2"]},
    }
    return build(["1", "2"], nodes, blocks=[("2", [o, b])])


def test_isomorphic_to_self():
    g = g_red1()
    assert structure_isomorphic(g, g) is not None


def test_isomorphic_relabeled():
    g1, g2 = g_red1(), relabeled_red1()
    assert g1 != g2
    iso = structure_isomorphic(g1, g2)
    assert iso is not None
    amap = dict(iso.action_maps)
    assert dict(amap["1"])["A"] == "A2"


def test_not_isomorphic_different_shapes():
    assert structure_isomorphic(g_chain(), g_sim()) is None


def test_partition_difference_detected():
    g1 = g_red1()
    # same tree, but player 2 can tell O from B
    o, b = path({"1": "O"}), path({"1": "B"})
    a = path({"1": "A"})
    nodes = {
        ROOT: {"1": ["A", "O", "B"]},
        a: {"1": ["E", "F"], "2": ["c", "d"]},
        o: {"2": ["h", "i"]},
        b: {"2": ["h", "i"]},
    }
    g2 = build(["1", "2"], nodes)  # all singletons
    assert structure_isomorphic(g1, g2) is None


def test_player_permutation_flag():
    swapped_nodes = {
        ROOT: {"2": ["L", "R"]},
        path({"2": "L"}): {"1": ["a", "b"]},
    }
    g2 = build(["1", "2"], swapped_nodes)
    g1 = g_chain()
    assert structure_isomorphic(g1, g2) is None
    assert structure_isomorphic(g1, g2, allow_player_permutation=True) is not None


@settings(max_examples=100, deadline=None)
@given(seeded_structures(), st.integers(0, 2**32), st.booleans())
@example(g_red1(), 0, False)
@example(g_ent(), 1, True)
def test_renamed_copies_are_isomorphic_with_checked_certificates(g, seed, players):
    g2 = renamed(g, random.Random(seed), players=players)
    iso = structure_isomorphic(g, g2, allow_player_permutation=players)
    assert iso is not None
    assert structure_certificate_ok(g, g2, iso)


def test_certificate_checker_rejects_a_wrong_history_map():
    g = g_red1()
    iso = structure_isomorphic(g, g)
    pairs = list(iso.history_map)
    (h1, i1), (h2, i2) = pairs[-2], pairs[-1]
    pairs[-2:] = [(h1, i2), (h2, i1)]
    forged = type(iso)(iso.player_map, iso.action_maps, tuple(pairs))
    assert not structure_certificate_ok(g, g, forged)


def test_minimal_route_on_the_fixed_minimal_wrong_pairs():
    for k in (1, 2, 3):
        g1, g2 = data_pair(f"minimal-wrong-{k}")
        flag, cert = behaviorally_equivalent(g1, g2, route="minimal")
        assert flag
        assert structure_certificate_ok(*cert["minimal_forms"], cert["minimal"])


def test_deep_chain_against_itself_needs_no_recursion():
    g = g_deep_chain(1200)
    iso = structure_isomorphic(g, g)
    assert iso is not None
    assert structure_certificate_ok(g, g, iso)
