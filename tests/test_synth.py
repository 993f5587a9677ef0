import itertools
import time
from unittest import mock

import pytest

from egs import (
    EgsError,
    ROOT,
    SynthOpp,
    TransformError,
    apply_phi,
    check_vnm,
    dictates,
    find_is,
    find_synthesized,
    iter_synthesized,
    reduced_normal_form,
    rnf_isomorphic,
    shift_depth,
    transform,
    validate_structure,
)

from egs.transform import _complete_controls_for

from corpus import vnm_corpus
from fixtures import g_fan, g_ga, g_uneven, ga_infosets, path
from oracles import complete_controls_reference
from test_ico import replaced_part


def test_ga_is_vnm():
    g = g_ga()
    assert validate_structure(g).ok
    assert check_vnm(g)[0]


def test_ga_finds_exactly_two_opportunities():
    g = g_ga()
    h21, h22, h31, h32, b = ga_infosets(g)
    found = find_synthesized(g)
    assert len(found) == 2
    small = [o for o in found if not o.controls]
    big = [o for o in found if o.controls]
    assert len(small) == 1 and len(big) == 1
    lam1, lam2 = small[0], big[0]
    assert {(c.base, c.mover) for c in lam1.coalescings} == {(h21, h22), (h31, h32)}
    assert {(c.base, c.mover) for c in lam2.coalescings} == {(h21, h22), (h31, h32)}
    (k,) = lam2.controls
    assert k.mover == h31
    assert k.anchors == (b,)


def test_ga_dropping_one_coalescing_is_rejected():
    g = g_ga()
    found = find_synthesized(g)
    lam1 = [o for o in found if not o.controls][0]
    for c in lam1.coalescings:
        solo = SynthOpp((c,), ())
        assert solo not in found
        # the cross-branch equal-length set shifts unevenly
        h6 = [s for s in g.info_sets if s.owner == "6"][0]
        movers = frozenset({c.mover})
        depths = {shift_depth(g, m, movers) for m in h6.members}
        assert len(depths) == 2


def test_apply_phi_full_bundle():
    g = g_ga()
    found = find_synthesized(g)
    lam2 = [o for o in found if o.controls][0]
    new = apply_phi(g, lam2)
    assert validate_structure(new).ok
    assert check_vnm(new)[0]
    # player 3's choices all live at B now, merged into one decision
    b = path({"1": "B"})
    assert sorted(new.active(b)) == ["3", "4"]
    assert set(new.feasible(b, "3")) == {"K", "L", "M"}
    # player 2's chain merged at A
    a = path({"1": "A"})
    assert set(new.feasible(a, "2")) == {"D", "E", "F"}
    assert rnf_isomorphic(reduced_normal_form(g), reduced_normal_form(new))


def test_apply_phi_lambda1():
    g = g_ga()
    lam1 = [o for o in find_synthesized(g) if not o.controls][0]
    new = apply_phi(g, lam1)
    assert check_vnm(new)[0]
    assert rnf_isomorphic(reduced_normal_form(g), reduced_normal_form(new))


def test_find_synthesized_requires_vnm():
    with pytest.raises(EgsError):
        find_synthesized(g_uneven())
    with pytest.raises(EgsError):
        apply_phi(g_uneven(), SynthOpp((), ()))


def test_apply_phi_refuses_an_opportunity_with_no_part():
    # nothing to compose: it used to be applied and return its input
    with pytest.raises(TransformError, match="at least one part"):
        apply_phi(g_ga(), SynthOpp((), ()))


def test_phi_preserves_vnm_and_rnf_on_corpus():
    checked = 0
    for structure in vnm_corpus(25, seed=51):
        for opp in find_synthesized(structure):
            new = apply_phi(structure, opp)
            assert validate_structure(new).ok
            assert check_vnm(new)[0]
            assert rnf_isomorphic(
                reduced_normal_form(structure), reduced_normal_form(new)
            )
            checked += 1
    assert checked > 0


def test_apply_phi_refuses_a_coalescing_part_that_names_another_link():
    refused = 0
    for structure in vnm_corpus(30, seed=5):
        for opp in find_synthesized(structure):
            for k, part in enumerate(opp.coalescings):
                for other in structure.feasible_at(part.base):
                    if other != part.link:
                        stale = SynthOpp(replaced_part(opp.coalescings, k, link=other), opp.controls)
                        with pytest.raises(TransformError, match="stale coalescing"):
                            apply_phi(structure, stale)
                        refused += 1
    assert refused >= 20


def test_apply_phi_refuses_a_control_whose_anchor_does_not_dictate():
    # the replacement anchor has the length of the others, so the control
    # is refused for its dictation, not for unequal anchors
    refused = 0
    for structure in vnm_corpus(30, seed=5):
        for opp in find_synthesized(structure):
            for j, k in enumerate(opp.controls):
                for i, (anchor, piece) in enumerate(zip(k.anchors, k.pieces)):
                    for h in structure.histories:
                        if h.length != anchor.length or h in k.anchors:
                            continue
                        if k.owner in structure.active(h) or dictates(structure, h, piece, k.owner):
                            continue
                        anchors = k.anchors[:i] + (h,) + k.anchors[i + 1:]
                        stale = SynthOpp(opp.coalescings, replaced_part(opp.controls, j, anchors=anchors))
                        with pytest.raises(TransformError, match="stale control part"):
                            apply_phi(structure, stale)
                        refused += 1
    assert refused >= 5


def test_complete_controls_match_the_reference_on_the_corpus():
    # find_is gives one opportunity per anchor: anchors of equal length are
    # then incomparable and their pieces disjoint, as the reference tests
    found = 0
    for structure in vnm_corpus(250) + (g_ga(),):
        by_mover = {}
        for opp in find_is(structure):
            by_mover.setdefault(opp.mover, []).append(opp)
        for mover, opps in by_mover.items():
            got = _complete_controls_for(structure, mover, opps)
            assert got == complete_controls_reference(structure, mover, opps)
            found += len(got)
    assert found > 20


def test_complete_controls_of_twenty_equal_length_anchors_are_read_off_at_once():
    # 21 anchors would be 2^21 subsets to walk; only the two length groups
    # can cover the mover
    g = g_fan(20)
    assert check_vnm(g)[0]
    (mover,) = g.partitions["1"]
    opps = find_is(g)
    assert len(opps) == 21
    start = time.process_time()
    got = _complete_controls_for(g, mover, opps)
    assert time.process_time() - start < 0.5
    root, group = got
    assert root.anchors == (ROOT,) and set(root.pieces[0]) == mover.member_set
    assert group.anchors == tuple(o.anchor for o in opps[1:])
    assert [set(p) for p in group.pieces] == [o.submover_set for o in opps[1:]]


def test_synthesized_opportunities_past_the_subset_bound_are_refused_naming_it():
    g = g_fan(3)
    found = find_synthesized(g)
    assert len(found) == 17
    with mock.patch.object(transform, "_MAX_SYNTH_SUBSETS", 8):
        with pytest.raises(TransformError, match="more than 8 subsets to test"):
            find_synthesized(g)
        assert list(itertools.islice(iter_synthesized(g), 3)) == found[:3]
