import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egs import (
    CoalescingOpp,
    EgsError,
    TransformError,
    apply_coalescing,
    apply_is,
    check_uo,
    controls,
    dictates,
    find_coalescing,
    find_is,
    is_non_crossing,
    make_profile,
    minimize_uo,
    parse,
    relation,
    rnf_isomorphic,
    reduced_normal_form,
    structure_isomorphic,
    validate_structure,
)
from egs import plans as enumerate_plans

from corpus import random_chain, renamed, seeded_structures, uo_corpus
from fixtures import (
    A,
    B,
    O,
    g_absent_minded,
    g_chain,
    g_deep_chain,
    g_fan,
    g_kms,
    g_ladder,
    g_mud,
    g_nc,
    g_nul,
    g_red1,
    g_sim,
    g_uom,
    malformed_red1,
    path,
    red1_infosets,
)
from oracles import (
    apply_coalescing_reference,
    apply_is_reference,
    controls_pairwise,
    find_coalescing_pairwise,
    find_is_pairwise,
    find_is_reference,
    is_non_crossing_reference,
    minimize_uo_reference,
    transport_plan_reference,
)
from test_core import CANNOT_CARRY, SHARED_NAME


def test_controls_red1():
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    assert controls(g, h11, h12) == "A"
    assert controls(g, h21, h22) is None
    with pytest.raises(EgsError):
        controls(g, h11, h22)  # different owners


def test_controls_ladder():
    g = g_ladder()
    base = g.info_set_of("1", g.root)
    mover = g.info_set_of("1", path({"1": "L"}))
    assert controls(g, base, mover) == "L"


def test_dictates():
    g = g_nc()
    bc = path({"1": "B"}, {"2": "c"})
    bce = bc.extend(make_profile({"3": "E"}))
    bcf = bc.extend(make_profile({"3": "F"}))
    assert dictates(g, bc, [bce, bcf], "4")
    # a proper superset of the subtree fails
    assert not dictates(g, path({"1": "B"}), [bce, bcf], "4")
    with pytest.raises(EgsError):
        dictates(g, bc, [bce, bcf], "3")  # owner active at the anchor


def test_find_coalescing_red1():
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    opps = find_coalescing(g)
    assert len(opps) == 1
    opp = opps[0]
    assert (opp.base, opp.mover, opp.link) == (h11, h12, "A")


def test_find_coalescing_sim_empty():
    assert find_coalescing(g_sim()) == []


def test_apply_coalescing_red1():
    g = g_red1()
    opp = find_coalescing(g)[0]
    new, hmap = apply_coalescing(g, opp)
    assert validate_structure(new).ok
    # root actions gained the mover's actions in place of the link
    assert set(new.feasible(new.root, "1")) == {"O", "B", "E", "F"}
    # the history A got one replica per mover action
    assert len(hmap.forward[A]) == 2
    ace = A.extend(__import__("egs").make_profile({"1": "E", "2": "c"}))
    assert len(hmap.forward[ace]) == 1
    assert hmap.forward[ace][0].label() == "E/c"
    # behavioral equivalence is preserved
    assert rnf_isomorphic(reduced_normal_form(g), reduced_normal_form(new))


def test_apply_coalescing_ladder_splice():
    g = g_ladder()
    opp = find_coalescing(g)[0]
    new, _ = apply_coalescing(g, opp)
    assert validate_structure(new).ok
    assert set(new.feasible(new.root, "1")) == {"R", "a", "b"}
    assert rnf_isomorphic(reduced_normal_form(g), reduced_normal_form(new))


def test_apply_coalescing_stale():
    g = g_red1()
    opp = find_coalescing(g)[0]
    new, _ = apply_coalescing(g, opp)
    with pytest.raises(TransformError):
        apply_coalescing(new, opp)


def test_find_is_chain_empty():
    assert find_is(g_chain()) == []


def test_find_is_and_non_crossing_nc_fixture():
    g = g_nc()
    bc = path({"1": "B"}, {"2": "c"})
    first = [o for o in find_is(g) if o.anchor == bc and o.owner == "4"]
    assert len(first) == 1
    assert is_non_crossing(g, first[0])

    mid, hmap = apply_is(g, first[0])
    assert validate_structure(mid).ok
    assert check_uo(mid)[0]
    # the whole-B-side lift now exists but crosses player 3's set
    b = path({"1": "B"})
    second = [o for o in find_is(mid) if o.anchor == b and o.owner == "4"]
    assert len(second) == 1
    assert len(second[0].submover) == 3
    assert not is_non_crossing(mid, second[0])
    # forcing it breaks the unambiguous ordering
    broken, _ = apply_is(mid, second[0])
    assert validate_structure(broken).ok
    assert not check_uo(broken)[0]


def test_apply_is_nul_shift():
    g = g_nul()
    a, b = path({"1": "A"}), path({"1": "B"})
    h2 = g.info_set_of("2", a)
    opps = [o for o in find_is(g) if o.owner == "2"]
    assert len(opps) == 1
    opp = opps[0]
    assert opp.anchor == g.root and set(opp.submover) == {a, b}
    assert is_non_crossing(g, opp)
    new, hmap = apply_is(g, opp)
    assert validate_structure(new).ok
    assert check_uo(new)[0]
    assert sorted(new.active(new.root)) == ["1", "2"]
    assert rnf_isomorphic(reduced_normal_form(g), reduced_normal_form(new))
    # the mover now sits at the root
    assert hmap.infoset_map[h2].members == (new.root,)


def test_history_map_cardinalities_on_corpus():
    for structure in uo_corpus(40, seed=41):
        for opp in find_coalescing(structure):
            k = len(structure.feasible_at(opp.mover))
            _, hmap = apply_coalescing(structure, opp)
            between_top = {
                m for b in opp.base.members for m in structure.children(b)
                if dict(m.moves[-1]).get(opp.owner) == opp.link
            }
            for h in structure.histories:
                inside = any(t.is_prefix_of(h) for t in between_top)
                weakly_before_mover = any(
                    h.is_prefix_of(m) for m in opp.mover.members
                )
                if inside and weakly_before_mover:
                    assert len(hmap.forward[h]) == k
                else:
                    assert len(hmap.forward[h]) == 1
        for opp in find_is(structure):
            k = len(structure.feasible_at(opp.mover))
            new, hmap = apply_is(structure, opp)
            for h in structure.histories:
                inside = opp.anchor.is_prefix_of(h) and h != opp.anchor
                weakly_before = any(h.is_prefix_of(m) for m in opp.submover)
                if inside and weakly_before:
                    assert len(hmap.forward[h]) == k
                else:
                    assert len(hmap.forward[h]) == 1


def test_transform_results_validate_on_corpus():
    for structure in uo_corpus(40, seed=41):
        for opp in find_coalescing(structure):
            new, _ = apply_coalescing(structure, opp)
            assert validate_structure(new).ok
        for opp in find_is(structure):
            new, _ = apply_is(structure, opp)
            assert validate_structure(new).ok


def test_uo_preserved_by_reductions_small():
    for structure in uo_corpus(40, seed=42):
        for opp in find_coalescing(structure):
            new, _ = apply_coalescing(structure, opp)
            assert check_uo(new)[0]
        for opp in find_is(structure):
            if is_non_crossing(structure, opp):
                new, _ = apply_is(structure, opp)
                assert check_uo(new)[0]


def relation_conservation_holds(structure, new, hmap, opp) -> bool:
    """The conservation law for the step taking opp, stated exactly: an IS
    maps sets bijectively and preserves relatedness both ways; a coalescing
    preserves it for surviving pairs, while the merged base-plus-mover set
    is related to another set exactly when the base or the mover was."""
    sets = structure.info_sets
    merged = {opp.base, opp.mover} if isinstance(opp, CoalescingOpp) else set()
    for i, f in enumerate(sets):
        for e in sets[i + 1:]:
            fi, ei = hmap.infoset_map[f], hmap.infoset_map[e]
            if fi == ei:
                continue  # the base/mover pair collapses to one set
            after = relation(new, fi, ei).related
            if f in merged or e in merged:
                other, image_pair = (e, (fi, ei)) if f in merged else (f, (fi, ei))
                expected = (
                    relation(structure, opp.base, other).related
                    or relation(structure, opp.mover, other).related
                )
            else:
                expected = relation(structure, f, e).related
            if after != expected:
                return False
    return True


def test_relation_conservation_small():
    for structure in uo_corpus(25, seed=43):
        for opp in find_coalescing(structure):
            new, hmap = apply_coalescing(structure, opp)
            assert relation_conservation_holds(structure, new, hmap, opp)
        for opp in find_is(structure):
            new, hmap = apply_is(structure, opp)
            assert relation_conservation_holds(structure, new, hmap, opp)


def test_minimize_red1_and_fixpoints():
    g = g_red1()
    minimal = minimize_uo(g)
    assert find_coalescing(minimal) == []
    assert all(
        not is_non_crossing(minimal, o) for o in find_is(minimal)
    )
    sim = g_sim()
    assert minimize_uo(sim) == sim


def test_minimize_mud_fixpoint_with_crossing_opportunity():
    g = g_mud()
    assert check_uo(g)[0]
    assert minimize_uo(g) == g
    opps = find_is(g)
    assert len(opps) == 1
    assert not is_non_crossing(g, opps[0])
    forced, _ = apply_is(g, opps[0])
    assert not check_uo(forced)[0]


def test_minimize_confluence_red1():
    g = g_red1()
    endpoints = [minimize_uo(g, rng=random.Random(k)) for k in range(10)]
    for other in endpoints[1:]:
        assert structure_isomorphic(endpoints[0], other) is not None


def test_minimize_matches_the_loop_that_lists_every_reduction():
    # the default order takes the first coalescing without seeking ISs;
    # the seeded order still draws from every reduction
    for structure in uo_corpus(40, seed=44):
        assert minimize_uo(structure) == minimize_uo_reference(structure)
        assert minimize_uo(structure, rng=random.Random(7)) == minimize_uo_reference(
            structure, rng=random.Random(7)
        )


def test_minimize_requires_uo():
    from fixtures import g_kms

    with pytest.raises(EgsError):
        minimize_uo(g_kms())


def test_plan_transport_roundtrip_counts():
    # the step rule carries each player's plans one to one onto the new plans
    for structure in uo_corpus(15, seed=44):
        steps = [apply_coalescing_reference(structure, o) for o in find_coalescing(structure)]
        steps += [apply_is_reference(structure, o) for o in find_is(structure)]
        for new, step in steps:
            for p in structure.players:
                old = enumerate_plans(structure, p)
                moved = {transport_plan_reference(plan, step) for plan in old}
                assert len(moved) == len(old)
                assert moved == set(enumerate_plans(new, p))


@settings(max_examples=150, deadline=None)
@given(seeded_structures())
@example(g_ladder())
@example(g_kms())
@example(g_fan(6))
@example(g_deep_chain(30))
def test_coalescing_discovery_matches_all_pairs_controls(structure):
    assert find_coalescing(structure) == find_coalescing_pairwise(structure)
    for p in structure.players:
        blocks = structure.partitions[p]
        for base in blocks:
            for mover in blocks:
                assert controls(structure, base, mover) == controls_pairwise(
                    structure, base, mover
                )


def _listing_or_error(find, structure):
    try:
        return find(structure)
    except EgsError as error:
        return str(error)


MALFORMED = {
    **{f"malformed red1 {k}": g for k, g in enumerate(malformed_red1())},
    **{case: g for case, (_, g) in CANNOT_CARRY.items()},
    "a shared action name": SHARED_NAME,
}


@pytest.mark.parametrize("case", MALFORMED)
def test_coalescing_discovery_matches_all_pairs_controls_on_malformed_structures(case):
    g = MALFORMED[case]
    assert not validate_structure(g).ok
    assert _listing_or_error(find_coalescing, g) == _listing_or_error(
        find_coalescing_pairwise, g
    )


def test_a_base_that_is_not_the_own_predecessor_is_not_sought():
    # player 1's set {L/u/a, L/u/b, L/v} lies below both ('', L) and
    # ({L/u}, a), which breaks perfect recall; its own predecessor ({L/u},
    # a) reaches only part of its terminals, so discovery lists nothing,
    # while the all-pairs scan finds the root's L
    g = parse(
        'egs 1\nplayer 1 actions L,R,a,b,e,f\nplayer 2 actions u,v\n'
        'node "" 1:L|R\nnode "L" 2:u|v\nnode "L/u" 1:a|b\nnode "L/u/a" 1:e|f\n'
        'node "L/u/b" 1:e|f\nnode "L/v" 1:e|f\ninfoset 1 {"L/u/a","L/u/b","L/v"}\n'
    )
    assert "perfect-recall" in validate_structure(g).axioms()
    assert find_coalescing(g) == []
    assert [(o.base.members, o.link) for o in find_coalescing_pairwise(g)] == [((g.root,), "L")]


@settings(max_examples=150, deadline=None)
@given(seeded_structures())
@example(g_nc())
@example(g_uom())
@example(g_kms())
def test_is_discovery_matches_per_history_dictation(structure):
    assert find_is(structure) == find_is_pairwise(structure)


def _same_outcome(apply, reference, structure, opp):
    try:
        expected = reference(structure, opp)
    except TransformError:
        with pytest.raises(TransformError):
            apply(structure, opp)
        return
    new, hmap = apply(structure, opp)
    ref_new, ref_map = expected
    assert new == ref_new
    assert new.partitions == ref_new.partitions
    assert hmap.forward == ref_map.forward
    assert hmap.infoset_map == ref_map.infoset_map


@settings(max_examples=150, deadline=None)
@given(seeded_structures())
@example(g_ladder())
@example(g_red1())
@example(g_nc())
@example(g_nul())
@example(g_uom())
@example(g_mud())
@example(g_kms())
def test_lift_matches_the_separate_operators(structure):
    for opp in find_coalescing(structure):
        _same_outcome(apply_coalescing, apply_coalescing_reference, structure, opp)
    for opp in find_is(structure):
        _same_outcome(apply_is, apply_is_reference, structure, opp)


def _crossings_matching_the_path_scans(structure) -> int:
    """Check IS discovery and every crossing verdict against the path
    scans; the number of crossing opportunities."""
    opps = find_is(structure)
    assert opps == find_is_reference(structure)
    crossing = 0
    for opp in opps:
        verdict = is_non_crossing(structure, opp)
        assert verdict == is_non_crossing_reference(structure, opp)
        crossing += not verdict
    return crossing


@settings(max_examples=150, deadline=None)
@given(seeded_structures(), st.integers(0, 2**32))
@example(g_absent_minded(), 0)
@example(g_nc(), 0)
@example(g_mud(), 0)
@example(g_nul(), 0)
@example(g_uom(), 0)
@example(g_kms(), 0)
def test_is_discovery_and_crossing_match_the_path_scans(structure, seed):
    rng = random.Random(seed)
    for g in (structure, renamed(structure, rng), random_chain(structure, rng)):
        _crossings_matching_the_path_scans(g)


def test_is_discovery_and_crossing_match_the_path_scans_on_crossing_cases():
    nc = g_nc()
    (first,) = [o for o in find_is(nc) if o.anchor == path({"1": "B"}, {"2": "c"})]
    mid, _ = apply_is(nc, first)
    assert _crossings_matching_the_path_scans(mid) == 1
    assert _crossings_matching_the_path_scans(g_mud()) == 1
    assert sum(map(_crossings_matching_the_path_scans, uo_corpus(40, seed=43))) == 1


def test_deep_chain_needs_no_recursion():
    g = g_deep_chain(1200)
    assert len(g.histories) == 2 * 1200 + 1 and len(g.info_sets) == 1200
    assert check_uo(g) == (True, None)
    opps = find_coalescing(g)
    assert len(opps) == 1199
    assert [o.link for o in opps[:2]] == ["c0", "c1"]
    assert find_is(g) == []
