import dataclasses
import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egs import (
    EgsError,
    Ico,
    InfoSet,
    TransformError,
    apply_is,
    apply_tau,
    backward_compactify,
    check_uo,
    dictates,
    find_coalescing,
    find_complete_icos,
    find_is,
    is_immediate_coalescing,
    is_immediate_is,
    iter_complete_icos,
    make_profile,
    relation,
    sim_classes,
    transform,
    validate_structure,
)

from corpus import ico_corpus, renamed, seeded_structures
from fixtures import (
    g_fan,
    g_g76,
    g_icot,
    g_kms,
    g_nec_interpolation,
    g_nec_participant,
    g_nul,
    g_ovlp,
    g_sim,
    g_uom,
    path,
)
from oracles import (
    backward_compactify_reference,
    find_complete_icos_reference,
    tau_reference,
)


def test_icot_complete_icos():
    g = g_icot()
    icos = find_complete_icos(g)
    # exactly: the BC pair, the BC pair plus the AD part, and the root lift
    # of player 2's set
    deep = [i for i in icos if i.is_parts and i.is_parts[0].anchor.length == 2]
    assert len(deep) == 2
    assert {len(i.is_parts) for i in deep} == {2, 3}
    theta = deep[0]
    assert len(theta.is_parts) == 2
    owners = {p.owner for p in theta.is_parts}
    assert owners == {"4", "5"}
    anchors = {p.anchor.label() for p in theta.is_parts}
    assert anchors == {"B/C"}


def test_icot_incomplete_candidates_rejected():
    g = g_icot()
    icos = find_complete_icos(g)
    ad = path({"1": "A"}, {"2": "D"})
    # the AD part alone (or with only one BC part) never appears: player
    # 5's set would not participate, or the overlap would not move whole
    for ico in icos:
        parts = {(p.owner, p.anchor.label()) for p in ico.is_parts}
        if ("4", "A/D") in parts:
            assert ("4", "B/C") in parts and ("5", "B/C") in parts


def test_apply_tau_icot():
    g = g_icot()
    icos = find_complete_icos(g)
    theta = [i for i in icos if len(i.is_parts) == 2 and i.is_parts[0].anchor.length == 2][0]
    new, comp = apply_tau(g, theta)
    assert validate_structure(new).ok
    assert check_uo(new)[0]
    bc = path({"1": "B"}, {"2": "C"})
    assert sorted(new.active(bc)) == ["3", "4", "5"]
    # the BC members lifted one level; the AD members stayed at depth 3
    h4_new = comp.infoset_map[theta.is_parts[0].mover]
    assert sorted(m.length for m in h4_new.members) == [2, 3, 3]
    assert any(m == bc for m in h4_new.members)


def test_tau_pure_coalescing_composition():
    # an ICO with only coalescing parts is just iterated coalescing
    from fixtures import g_ladder
    from egs import apply_coalescing

    g = g_ladder()
    opp = find_coalescing(g)[0]
    assert is_immediate_coalescing(g, opp)
    ico = Ico((opp,), ())
    via_tau, _ = apply_tau(g, ico)
    direct, _ = apply_coalescing(g, opp)
    assert via_tau == direct


def test_uom_mid_composition_uo_break_tolerated():
    g = g_uom()
    icos = find_complete_icos(g)
    assert icos
    theta = [i for i in icos if len(i.is_parts) == 2][0]
    # applying the player-3 part alone violates UO en route
    p3 = [p for p in theta.is_parts if p.owner == "3"][0]
    mid, _ = apply_is(g, p3)
    assert not check_uo(mid)[0]
    # the composed transformation restores it
    new, _ = apply_tau(g, theta)
    assert check_uo(new)[0]
    assert validate_structure(new).ok


def test_find_complete_icos_requires_uo():
    with pytest.raises(EgsError):
        find_complete_icos(g_kms())


def test_apply_tau_rejects_incomplete():
    g = g_uom()
    theta = [i for i in find_complete_icos(g) if len(i.is_parts) == 2][0]
    partial = Ico((), (theta.is_parts[0],))
    with pytest.raises(TransformError):
        apply_tau(g, partial)


def test_apply_tau_names_why_an_ico_is_incomplete():
    g = g_uom()
    theta = [i for i in find_complete_icos(g) if len(i.is_parts) == 2][0]
    first = theta.is_parts[0]
    for ico, reason in (
        (Ico((), (first, first)), "the named parts of the ICO are not distinct"),
        (Ico((), (first,)), "some transitively simultaneous set does not participate"),
    ):
        with pytest.raises(TransformError, match=reason):
            apply_tau(g, ico)
    # the whole class of players 4 and 5 participates, but the overlap
    # A/C of their sets is no intersection of two named parts
    g = g_ovlp()
    part4 = [o for o in find_is(g) if o.owner == "4"]
    part5 = [o for o in find_is(g) if o.owner == "5" and o.anchor.length == 2]
    with pytest.raises(TransformError, match="an overlap does not move as a whole"):
        apply_tau(g, Ico((), (part4[0], part5[0])))


def test_apply_tau_refuses_an_ico_with_no_part():
    # nothing to compose: it used to be applied and return its input
    with pytest.raises(TransformError, match="at least one part"):
        apply_tau(g_uom(), Ico((), ()))


def test_nul_sigma_alone_not_complete():
    g = g_nul()
    icos = find_complete_icos(g)
    # the only complete ICO at the depth-1 class moves both players
    assert all(
        len(ico.is_parts) != 1 or ico.is_parts[0].anchor != g.root
        for ico in icos
    )
    both = [
        ico for ico in icos
        if len(ico.is_parts) == 2 and {p.owner for p in ico.is_parts} == {"2", "3"}
    ]
    assert len(both) == 1


def test_ovlp_condition_b_rejected_and_uo_breaks_when_forced():
    g = g_ovlp()
    icos = find_complete_icos(g)
    for ico in icos:
        for part in ico.is_parts:
            assert part.owner not in ("4", "5")
    # force the two lifts by hand
    opp_a = [o for o in find_is(g) if o.owner == "4"]
    opp_bc = [o for o in find_is(g) if o.owner == "5" and o.anchor.length == 2]
    assert len(opp_a) == 1 and len(opp_bc) == 1
    mid, hmap = apply_is(g, opp_a[0])
    mover5 = hmap.infoset_map[opp_bc[0].mover]
    d = tuple(m for m in mover5.members if opp_bc[0].anchor.is_prefix_of(m) and m != opp_bc[0].anchor)
    from egs import IsOpp

    forced, hmap2 = apply_is(mid, IsOpp("5", opp_bc[0].anchor, d, mover5))
    ok, witness = check_uo(forced)
    assert not ok
    h4 = hmap2.infoset_map[hmap.infoset_map[g.info_set_of("4", path({"1": "A"}, {"2": "C"}))]]
    h5 = hmap2.infoset_map[hmap.infoset_map[g.info_set_of("5", path({"1": "A"}, {"2": "C"}))]]
    r = relation(forced, h4, h5)
    assert r.before and r.after


def test_nec_participant_rejection():
    g = g_nec_participant()
    ra = path({"1": "R"}, {"4": "A"})
    atom = [o for o in find_is(g) if o.anchor == ra]
    assert len(atom) == 1 and is_immediate_is(g, atom[0])
    assert find_complete_icos(g) == []


def test_nec_interpolation_rejection():
    g = g_nec_interpolation()
    opps = find_coalescing(g)
    assert len(opps) == 1
    assert not is_immediate_coalescing(g, opps[0])
    for ico in find_complete_icos(g):
        assert ico.coalescings == ()


def test_backward_g76_takes_the_deep_lift():
    g = g_g76()
    result, schedule = backward_compactify(g)
    assert validate_structure(result).ok
    assert len(schedule) == 1
    ico = schedule[0]
    assert len(ico.is_parts) == 1
    assert ico.is_parts[0].anchor == path({"1": "B"})
    assert ico.is_parts[0].owner == "3"
    # player 3 now moves at B simultaneously with player 2's action there
    b = path({"1": "B"})
    assert sorted(result.active(b)) == ["2", "3"]
    # the root lift of player 2 is no longer a complete ICO
    assert find_complete_icos(result) == []


def test_backward_fixpoint_on_ico_free_structure():
    g = g_sim()
    result, schedule = backward_compactify(g)
    assert schedule == []
    assert result == g


def test_backward_icot_schedule_starts_with_deepest_theta():
    g = g_icot()
    first_deep = [
        i for i in find_complete_icos(g)
        if i.is_parts and i.is_parts[0].anchor.length == 2
    ][0]
    result, schedule = backward_compactify(g)
    assert schedule[0] == first_deep
    # folding apply_tau over the schedule reproduces the result
    current = g
    for ico in schedule:
        current, _ = apply_tau(current, ico)
    assert current == result
    assert check_uo(result)[0]


def test_backward_compactify_applies_each_scheduled_ico_through_apply_tau():
    applied = []
    real = transform.apply_tau

    def counting(structure, ico):
        applied.append(ico)
        return real(structure, ico)

    structures = [g_g76(), g_icot()] + [s for s, _ in ico_corpus(20, seed=7)]
    scheduled = 0
    with mock.patch.object(transform, "apply_tau", counting):
        for structure in structures:
            applied.clear()
            _, schedule = backward_compactify(structure)
            assert applied == schedule
            scheduled += len(schedule)
    assert scheduled >= len(structures)


def test_apply_tau_composes_the_identity_through_its_steps():
    # the map is composed once, along the steps themselves, and equals the
    # identity folded by the reference composition through the steps the
    # reference operators take
    folded = 0
    cases = ico_corpus(30, seed=7) + ((g_icot(), find_complete_icos(g_icot())[0]),)
    for structure, ico in cases:
        new, comp = apply_tau(structure, ico)
        ref_new, forward, infosets, steps = tau_reference(structure, ico)
        assert new == ref_new and new.partitions == ref_new.partitions
        assert (comp.forward, comp.infoset_map) == (forward, infosets)
        folded += len(steps) > 1
    assert folded > 0


@settings(max_examples=150, deadline=None)
@given(seeded_structures())
def test_apply_tau_equals_the_reference_on_every_complete_ico(structure):
    # the reference re-finds each coalescing's link on the current
    # structure; τ carries the link the part names
    assume(check_uo(structure)[0])
    try:
        icos = find_complete_icos(structure)
    except TransformError:  # too many subsets of one class's atoms to test
        assume(False)
    for ico in icos:
        new, comp = apply_tau(structure, ico)
        ref_new, forward, infosets, _ = tau_reference(structure, ico)
        assert new == ref_new and new.partitions == ref_new.partitions
        assert (comp.forward, comp.infoset_map) == (forward, infosets)


def replaced_part(parts, k, **changes):
    """The parts with the k-th one's fields changed."""
    return parts[:k] + (dataclasses.replace(parts[k], **changes),) + parts[k + 1:]


def test_apply_tau_refuses_a_coalescing_part_that_names_another_link():
    refused = 0
    for structure, ico in ico_corpus(30, seed=7):
        for k, part in enumerate(ico.coalescings):
            for other in structure.feasible_at(part.base):
                if other != part.link:
                    stale = Ico(replaced_part(ico.coalescings, k, link=other), ico.is_parts)
                    with pytest.raises(TransformError, match="stale coalescing"):
                        apply_tau(structure, stale)
                    refused += 1
    assert refused >= 20


def test_apply_tau_refuses_a_coalescing_part_whose_base_is_not_a_set_of_the_structure():
    # the base holds one history more than a set of the structure, so the
    # part is immediate; after the IS parts its step finds no such set
    refused = 0
    for structure, ico in ico_corpus(30, seed=7):
        if not ico.is_parts:
            continue
        for k, part in enumerate(ico.coalescings):
            stray = part.base.members[0].extend(make_profile({"9": "stray"}))
            base = InfoSet(part.owner, part.base.members + (stray,))
            stale = Ico(replaced_part(ico.coalescings, k, base=base), ico.is_parts)
            with pytest.raises(TransformError, match="stale coalescing"):
                apply_tau(structure, stale)
            refused += 1
    assert refused >= 2


def test_apply_tau_refuses_an_is_part_whose_anchor_does_not_dictate():
    refused = 0
    for structure, ico in ico_corpus(30, seed=7):
        for k, part in enumerate(ico.is_parts):
            for h in structure.histories:
                if part.owner not in structure.active(h) and not dictates(
                    structure, h, part.submover, part.owner
                ):
                    stale = Ico(ico.coalescings, replaced_part(ico.is_parts, k, anchor=h))
                    with pytest.raises(TransformError, match="stale IS part"):
                        apply_tau(structure, stale)
                    refused += 1
    assert refused >= 5


def test_compactification_preserves_orderings_on_corpus():
    for structure, ico in ico_corpus(30, seed=7):
        new, comp = apply_tau(structure, ico)
        assert validate_structure(new).ok
        assert check_uo(new)[0]
        sets = structure.info_sets
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                r = relation(structure, a, b)
                ai, bi = comp.infoset_map[a], comp.infoset_map[b]
                if ai == bi:
                    continue
                r2 = relation(new, ai, bi)
                # simultaneity is preserved
                if r.simultaneous:
                    assert r2.simultaneous
                # strict following never reverses
                if r.before and not r.simultaneous:
                    assert not (r2.after and not r2.before)


def _outcome(fn, structure):
    """What fn returns, or the TransformError it raises, as comparable data."""
    try:
        return fn(structure)
    except TransformError as error:
        return str(error)


@st.composite
def renamed_fans(draw, most=10):
    """A fan of at most `most` branches with its actions renamed in a
    shuffled order, so that its atoms come in another order."""
    fan = g_fan(draw(st.integers(2, most)))
    return renamed(fan, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(seeded_structures(), renamed_fans(6)),
    st.sampled_from([0, 1, 2, 3, transform._MAX_ICO_SUBSETS]),
)
def test_class_by_class_atom_search_matches_the_eager_one(structure, limit):
    # a low bound makes the too-many-subsets refusal common: it must come
    # from the same class, after the same subsets, as when every class's
    # atoms are found before the first is searched
    assume(check_uo(structure)[0])
    with mock.patch.object(transform, "_MAX_ICO_SUBSETS", limit):
        assert _outcome(find_complete_icos, structure) == _outcome(
            lambda s: find_complete_icos_reference(s, limit), structure
        )
        assert _outcome(backward_compactify, structure) == _outcome(
            lambda s: backward_compactify_reference(s, limit), structure
        )


@settings(max_examples=60, deadline=None)
@given(st.one_of(seeded_structures(), renamed_fans()))
def test_pruned_walk_yields_the_plain_walks_icos_in_order(structure):
    assume(check_uo(structure)[0])
    assert find_complete_icos(structure) == find_complete_icos_reference(structure)
    assert backward_compactify(structure) == backward_compactify_reference(structure)


def test_a_class_past_the_subset_bound_still_gives_its_first_icos():
    # every non-empty subset of the fan's one-set class of six atoms is a
    # complete ICO: listing them tests more subsets than the bound allows,
    # while the first ten and each compactification step need fewer
    g = g_fan(6)
    with mock.patch.object(transform, "_MAX_ICO_SUBSETS", 10):
        with pytest.raises(TransformError, match="more than 10 subsets to test"):
            find_complete_icos(g)
        first = list(itertools.islice(iter_complete_icos(g), 10))
        compacted = backward_compactify(g)
    assert first == find_complete_icos(g)[:10]
    assert compacted == backward_compactify_reference(g)


def test_class_by_class_atom_search_matches_the_eager_one_on_fixtures_and_corpus():
    structures = [g_g76(), g_icot(), g_nec_interpolation(), g_nec_participant(), g_ovlp()]
    for structure, _ in ico_corpus(40, seed=7):
        if all(structure is not s for s in structures):
            structures.append(structure)
    assert len(structures) >= 15
    for structure in structures:
        assert find_complete_icos(structure) == find_complete_icos_reference(structure)
        assert backward_compactify(structure) == backward_compactify_reference(structure)
