import inspect
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egs import (
    EgsError,
    History,
    InfoSet,
    ROOT,
    Structure,
    check_uo,
    check_vnm,
    experience,
    make_profile,
    validate_structure,
)

import egs.validate
import fixtures
from corpus import pooled_actions, seeded_structures, uo_corpus
from fixtures import (
    A,
    O,
    g_absent_minded,
    g_chain,
    g_deep_chain,
    g_ent,
    g_kms,
    g_red1,
    g_sim,
    g_uneven,
    path,
    red1_infosets,
)
from oracles import empty_profile_reference, own_disjoint_reference, recall_violations_reference
from test_core import CANNOT_CARRY


def test_experience_red1():
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    assert experience(g, "1", A).pairs == ((h11, "A"),)
    assert experience(g, "2", O).pairs == ()
    ace = A.extend(make_profile({"1": "E", "2": "c"}))
    assert experience(g, "1", ace).pair_set == {(h11, "A"), (h12, "E")}
    assert experience(g, "2", ace).pair_set == {(h21, "c")}


def test_experience_chain_single_crossing():
    g = g_chain()
    la = path({"1": "L"}, {"2": "a"})
    h2 = g.info_set_of("2", path({"1": "L"}))
    assert experience(g, "2", la).pairs == ((h2, "a"),)


def test_experience_unknown_history():
    with pytest.raises(EgsError):
        experience(g_red1(), "1", path({"1": "Z"}))


def test_validate_fixtures_ok():
    for build in (g_red1, g_chain, g_sim, g_ent, g_kms, g_uneven):
        report = validate_structure(build())
        assert report.ok, f"{build.__name__}: {report}"


def test_validate_broken_product():
    g = g_red1()
    ace = A.extend(make_profile({"1": "E", "2": "c"}))
    histories = [h for h in g.histories if h != ace]
    broken = Structure(g.players, g.actions, histories, g.partitions)
    report = validate_structure(broken)
    assert "product-closure" in report.axioms()


def test_validate_missing_root():
    g = g_sim()
    histories = [h for h in g.histories if h != ROOT]
    broken = Structure(g.players, g.actions, histories, {"1": (), "2": ()})
    report = validate_structure(broken)
    assert "root" in report.axioms()


def test_validate_min_choice():
    # a lone action for player 2 at L
    l = path({"1": "L"})
    histories = [ROOT, l, path({"1": "R"}), l.extend(make_profile({"2": "a"}))]
    broken = Structure(
        ("1", "2"),
        {"1": frozenset({"L", "R"}), "2": frozenset({"a"})},
        histories,
        {"1": (InfoSet("1", (ROOT,)),), "2": (InfoSet("2", (l,)),)},
    )
    report = validate_structure(broken)
    assert "min-choice" in report.axioms()


def test_validate_duplicate_partition_member():
    g = g_red1()
    parts = dict(g.partitions)
    h11, h12, h21, h22 = red1_infosets(g)
    parts["2"] = (h21, h22, InfoSet("2", (O,)))
    broken = Structure(g.players, g.actions, g.histories, parts)
    report = validate_structure(broken)
    assert "partition" in report.axioms()


def test_validate_absent_minded_recall():
    report = validate_structure(g_absent_minded())
    assert report.axioms() == ("perfect-recall",)


def test_check_uo():
    ok, witness = check_uo(g_red1())
    assert ok and witness is None
    ok, witness = check_uo(g_ent())
    assert not ok
    assert {witness[0].owner, witness[1].owner} == {"2", "3"}
    ok, witness = check_uo(g_kms())
    assert not ok


def test_check_vnm():
    assert check_vnm(g_chain()) == (True, None)
    assert check_vnm(g_red1())[0] is True
    ok, witness = check_vnm(g_uneven())
    assert not ok
    assert witness.owner == "2"
    assert sorted(m.length for m in witness.members) == [1, 2]


def test_vnm_implies_uo_on_corpus():
    for structure in uo_corpus(30, seed=21):
        if check_vnm(structure)[0]:
            assert check_uo(structure)[0]


def test_recall_gives_own_partial_order():
    from egs import relation

    for structure in uo_corpus(20, seed=22):
        for p in structure.players:
            blocks = structure.partitions[p]
            for i, a in enumerate(blocks):
                for b in blocks[i + 1:]:
                    r = relation(structure, a, b)
                    assert not (r.before and r.after)
                    assert not r.simultaneous  # blocks are disjoint


def test_recall_no_double_crossing():
    for structure in uo_corpus(20, seed=23):
        for p in structure.players:
            for z in structure.terminals:
                pairs = experience(structure, p, z).pairs
                crossed = [s for s, _ in pairs]
                assert len(crossed) == len(set(crossed))


def test_perfect_recall_reads_no_experience_of_a_singleton_set(monkeypatch):
    calls = []
    real = egs.validate.experience
    monkeypatch.setattr(
        egs.validate, "experience", lambda *args: calls.append(args) or real(*args)
    )
    assert validate_structure(g_deep_chain(200)).ok
    assert calls == []
    # a set with two members still compares them
    assert validate_structure(g_absent_minded()).axioms() == ("perfect-recall",)
    assert len(calls) == 2


def _assert_recall_matches_the_reference(structure):
    report = validate_structure(structure)
    if any(v.axiom != "perfect-recall" for v in report.violations):
        return  # recall is checked only on an otherwise valid structure
    assert report.violations == recall_violations_reference(structure)


def test_recall_verdicts_match_the_reference_on_fixtures():
    for name, builder in sorted(vars(fixtures).items()):
        if name.startswith("g_") and not inspect.signature(builder).parameters:
            _assert_recall_matches_the_reference(builder())
    # O forgets its own move u: {a/q, b/r/u} has two members, two experiences
    aq = path({"X": "a"}, {"P": "q"})
    bp = path({"X": "b"}, {"P": "r"})
    bpu = bp.extend(make_profile({"O": "u"}))
    forgetful = fixtures.build(
        ["P", "O", "X"],
        {ROOT: {"X": ["a", "b"]}, path({"X": "a"}): {"P": ["p", "q"]},
         path({"X": "b"}): {"P": ["r", "s"]}, aq: {"O": ["c", "d"]},
         bp: {"O": ["u", "v"]}, bpu: {"O": ["c", "d"]}},
        blocks=[("O", [aq, bpu])],
    )
    assert validate_structure(forgetful).axioms() == ("perfect-recall",)
    _assert_recall_matches_the_reference(forgetful)


def _own_disjoint(structure):
    return tuple(v for v in validate_structure(structure).violations if v.axiom == "own-disjoint")


@settings(max_examples=80, deadline=None)
@given(seeded_structures(), st.integers(0, 2**32 - 1))
def test_own_disjointness_matches_the_pairwise_reference(structure, seed):
    assert _own_disjoint(structure) == own_disjoint_reference(structure) == ()
    pooled = pooled_actions(structure, random.Random(seed))
    report = validate_structure(pooled)
    assert set(report.axioms()) <= {"own-disjoint"}
    assert _own_disjoint(pooled) == own_disjoint_reference(pooled)


def test_own_disjointness_matches_the_pairwise_reference_on_shared_actions():
    rng = random.Random(16)
    shared, multi = 0, 0
    for g in uo_corpus(30) + (g_deep_chain(30), g_red1(), g_kms()):
        pooled = pooled_actions(g, rng)
        found = _own_disjoint(pooled)
        assert found == own_disjoint_reference(pooled)
        shared += len(found)
        multi += sum(", " in v.witness.rpartition("share actions")[2] for v in found)
    # the pools make many pairs share, some one action and some more
    assert shared > multi > 100


@st.composite
def _with_empty_profiles(draw):
    """A seeded structure with a few histories given an empty profile at
    some position, each with some of its prefixes, and a few histories
    dropped: empty profiles under present and missing parents."""
    g = draw(seeded_structures())
    kept = set(g.histories)
    for h in draw(st.lists(st.sampled_from(g.histories), max_size=3)):
        k = draw(st.integers(0, h.length))
        moves = h.moves[:k] + ((),) + h.moves[k:]
        lengths = draw(st.sets(st.integers(0, len(moves)), min_size=1))
        kept.update(History(moves[:n]) for n in lengths)
    kept.difference_update(draw(st.lists(st.sampled_from(g.histories), max_size=2)))
    return Structure(g.players, g.actions, kept, g.partitions)


def _profile_violations(structure):
    return tuple(v for v in validate_structure(structure).violations if v.axiom == "profile")


# an empty profile whose history is present, under a parent that is not
_EMPTY_UNDER_A_MISSING_PARENT = Structure(
    ["1"], {"1": {"a", "b"}},
    [ROOT, History(((("1", "a"),), (), (("1", "b"),)))],
    {"1": []},
)


@settings(max_examples=150, deadline=None)
@given(_with_empty_profiles())
@example(_EMPTY_UNDER_A_MISSING_PARENT)
def test_the_empty_profile_scan_matches_the_scan_of_every_move(structure):
    # the witness reads last moves, climbing only where a parent is missing
    assert _profile_violations(structure) == empty_profile_reference(structure)


def test_the_empty_profile_scan_matches_the_scan_of_every_move_on_lifts_the_edit_refuses():
    for _, g in CANNOT_CARRY.values():
        assert _profile_violations(g) == empty_profile_reference(g)
    assert empty_profile_reference(_EMPTY_UNDER_A_MISSING_PARENT)
