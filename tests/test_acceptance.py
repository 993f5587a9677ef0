"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Random corpora are seeded and shared; all numeric verdicts use
exact rational arithmetic."""

import random
import time
from fractions import Fraction

from egs import (
    Game,
    apply_coalescing,
    bd,
    apply_is,
    apply_phi,
    apply_tau,
    check_monotonic,
    check_uo,
    check_vnm,
    compare_bd,
    dominated_rows,
    find_coalescing,
    find_complete_icos,
    find_is,
    find_synthesized,
    is_immediate_coalescing,
    is_immediate_is,
    is_non_crossing,
    minimize_uo,
    plans,
    random_payoffs,
    relation,
    reduced_normal_form,
    rnf_isomorphic,
    structure_isomorphic,
    transport_game,
    validate_structure,
)
from egs.transform import IsOpp

from corpus import ico_corpus, uo_corpus, vnm_corpus
from fixtures import (
    g_ga,
    g_nec_interpolation,
    g_nec_participant,
    g_nul,
    g_ovlp,
    g_red1,
    game_nul,
    ga_infosets,
    path,
    red1_infosets,
)
from oracles import (
    apply_is_reference,
    equivalent_by_both_routes,
    oracle_dominated,
    plan_map_reference,
)
from test_transform import relation_conservation_holds


def criterion(number, description):
    def wrap(fn):
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"acceptance {number} ({description}): FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"acceptance {number} ({description}): PASS [{elapsed:.1f}s]")
        run.__name__ = fn.__name__
        return run
    return wrap


@criterion(1, "reduction pair: validate, plan counts, equivalence both routes")
def test_criterion_1():
    start = time.monotonic()
    g = g_red1()
    assert validate_structure(g).ok
    assert len(plans(g, "1")) == 4
    assert len(plans(g, "2")) == 4
    opp = find_coalescing(g)[0]
    h11, h12, _, _ = red1_infosets(g)
    assert (opp.base, opp.mover, opp.link) == (h11, h12, "A")
    coalesced, _ = apply_coalescing(g, opp)
    flag, cert = equivalent_by_both_routes(g, coalesced)
    assert flag and cert["rnf"] is not None and cert["minimal"] is not None
    assert time.monotonic() - start < 1.0


@criterion(2, "UO preserved by every coalescing and non-crossing IS, 300 structures")
def test_criterion_2():
    start = time.monotonic()
    count = 0
    for structure in uo_corpus(300, seed=101):
        for opp in find_coalescing(structure):
            new, _ = apply_coalescing(structure, opp)
            assert check_uo(new)[0], (structure, opp)
            assert validate_structure(new).ok
            count += 1
        for opp in find_is(structure):
            if is_non_crossing(structure, opp):
                new, _ = apply_is(structure, opp)
                assert check_uo(new)[0], (structure, opp)
                assert validate_structure(new).ok
                count += 1
    assert count > 300  # the corpus genuinely exercises transformations
    assert time.monotonic() - start < 60.0


@criterion(3, "relation conservation under every transformation, crossing included")
def test_criterion_3():
    from fixtures import g_mud, g_nc, g_uom

    crossing_rich = (g_mud(), g_nc(), g_uom(), g_ovlp())
    seen_crossing = 0
    for structure in uo_corpus(300, seed=101) + crossing_rich:
        for opp in find_coalescing(structure):
            new, hmap = apply_coalescing(structure, opp)
            assert relation_conservation_holds(structure, new, hmap, opp)
        for opp in find_is(structure):
            if not is_non_crossing(structure, opp):
                seen_crossing += 1
            new, hmap = apply_is(structure, opp)
            assert relation_conservation_holds(structure, new, hmap, opp)
    assert seen_crossing > 0


@criterion(4, "confluence: 10 random reduction orders per structure, 100 structures")
def test_criterion_4():
    start = time.monotonic()
    for k, structure in enumerate(uo_corpus(100, seed=104)):
        endpoints = [
            minimize_uo(structure, rng=random.Random(f"order:{k}:{j}"))
            for j in range(10)
        ]
        for other in endpoints[1:]:
            assert structure_isomorphic(endpoints[0], other) is not None
    assert time.monotonic() - start < 120.0


@criterion(5, "compactification keeps simultaneity and weak following, 150 pairs")
def test_criterion_5():
    for structure, ico in ico_corpus(150, seed=105):
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
                if r.simultaneous:
                    assert r2.simultaneous
                if r.before and not r.simultaneous:
                    assert not (r2.after and not r2.before)
                if r.after and not r.simultaneous:
                    assert not (r2.before and not r2.after)


@criterion(6, "monotonicity of complete ICOs on 200 payoff triples, exact")
def test_criterion_6():
    rng = random.Random(606060)
    pairs = ico_corpus(200, seed=106, max_profiles=160)
    for structure, ico in pairs:
        game = Game(structure, random_payoffs(structure, rng))
        report = check_monotonic(game, ico)
        assert report.ok, report.violations


@criterion(7, "the order-dependence narrative: survivors and the F reversal")
def test_criterion_7():
    game = game_nul()
    trace = bd(game)
    labels = {p: {q.label() for q in trace.survivors[p]} for p in "123"}
    assert labels == {"1": {"A"}, "2": {"C", "D"}, "3": {"G"}}
    g = game.structure
    opp = [o for o in find_is(g) if o.owner == "2"][0]
    assert is_non_crossing(g, opp)
    new, hmap = apply_is(g, opp)
    moved = transport_game(game, new, hmap)
    plan_map = plan_map_reference(g, [apply_is_reference(g, opp)[1]])
    report = compare_bd(game, moved, plan_map)
    assert {(v.player, v.plan.label()) for v in report.violations} == {("3", "F")}
    after = {q.label() for q in report.after.survivors["3"]}
    assert after == {"F", "G"}


@criterion(8, "necessity fixtures: participant, interpolation, overlap rejections")
def test_criterion_8():
    g = g_nec_participant()
    ra = path({"1": "R"}, {"4": "A"})
    atoms = [o for o in find_is(g) if o.anchor == ra]
    assert len(atoms) == 1 and is_immediate_is(g, atoms[0])
    assert find_complete_icos(g) == []

    g = g_nec_interpolation()
    opps = find_coalescing(g)
    assert len(opps) == 1 and not is_immediate_coalescing(g, opps[0])
    assert all(ico.coalescings == () for ico in find_complete_icos(g))

    g = g_ovlp()
    for ico in find_complete_icos(g):
        assert all(p.owner not in ("4", "5") for p in ico.is_parts)
    opp_a = [o for o in find_is(g) if o.owner == "4"][0]
    opp_bc = [o for o in find_is(g) if o.owner == "5" and o.anchor.length == 2][0]
    mid, hmap = apply_is(g, opp_a)
    mover5 = hmap.infoset_map[opp_bc.mover]
    d = tuple(
        m for m in mover5.members
        if opp_bc.anchor.is_prefix_of(m) and m != opp_bc.anchor
    )
    forced, hmap2 = apply_is(mid, IsOpp("5", opp_bc.anchor, d, mover5))
    assert not check_uo(forced)[0]
    ac = path({"1": "A"}, {"2": "C"})
    h4 = hmap2.infoset_map[hmap.infoset_map[g.info_set_of("4", ac)]]
    h5 = hmap2.infoset_map[hmap.infoset_map[g.info_set_of("5", ac)]]
    r = relation(forced, h4, h5)
    assert r.before and r.after


@criterion(9, "synthesized opportunities and EL preservation, 100 vNM structures")
def test_criterion_9():
    g = g_ga()
    h21, h22, h31, h32, b = ga_infosets(g)
    found = find_synthesized(g)
    assert len(found) == 2
    lam1 = [o for o in found if not o.controls][0]
    lam2 = [o for o in found if o.controls][0]
    assert {(c.base, c.mover) for c in lam1.coalescings} == {(h21, h22), (h31, h32)}
    assert lam2.controls[0].mover == h31 and lam2.controls[0].anchors == (b,)
    for lam in (lam1, lam2):
        new = apply_phi(g, lam)
        assert check_vnm(new)[0]
        assert rnf_isomorphic(reduced_normal_form(g), reduced_normal_form(new))
    applied = 0
    for structure in vnm_corpus(100, seed=109):
        for opp in find_synthesized(structure):
            new = apply_phi(structure, opp)
            assert validate_structure(new).ok
            assert check_vnm(new)[0]
            assert rnf_isomorphic(
                reduced_normal_form(structure), reduced_normal_form(new)
            )
            applied += 1
    assert applied > 0


@criterion(10, "exact dominance agrees with the independent oracle, 500 problems")
def test_criterion_10():
    rng = random.Random(10101)
    for trial in range(500):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4)))
             for _ in range(m)]
            for _ in range(n)
        ]
        assert dominated_rows(rows) == oracle_dominated(rows), rows
