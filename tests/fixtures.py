"""Shared fixture structures used across the test suite.

Each builder returns a fresh Structure (or Game); information sets not
listed explicitly are singletons.  The shapes mirror the worked examples
the library is specified against: a two-player reduction pair, chains,
simultaneous roots, ordering pathologies, crossing and non-crossing
interchanges, compactification bundles, and the dominance counterexample.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

from egs import (
    Game,
    History,
    InfoSet,
    ROOT,
    Structure,
    apply_coalescing,
    find_coalescing,
    make_profile,
    parse,
)

DATA = Path(__file__).resolve().parent.parent / "egsbench" / "data"


def data_pair(name: str) -> tuple[Structure, Structure]:
    """The two equivalent structures of one fixed pair in egsbench/data."""
    return tuple(parse((DATA / f"{name}-{side}.egs").read_text()) for side in "ab")


def path(*moves: dict) -> History:
    return History(tuple(make_profile(m) for m in moves))


def build(players, nodes, blocks=()) -> Structure:
    """nodes: {History: {player: [actions]}}; blocks: explicit multi-member
    information sets as (owner, [History]); active histories not covered
    get singleton sets."""
    histories = {ROOT}
    for h, spec in nodes.items():
        histories.add(h)
        pools = [[(p, a) for a in acts] for p, acts in sorted(spec.items())]
        for combo in itertools.product(*pools):
            histories.add(h.extend(tuple(sorted(combo))))
    actions: dict[str, set] = {p: set() for p in players}
    for spec in nodes.values():
        for p, acts in spec.items():
            actions[p].update(acts)
    partitions: dict[str, list[InfoSet]] = {p: [] for p in players}
    covered: dict[str, set] = {p: set() for p in players}
    for owner, members in blocks:
        partitions[owner].append(InfoSet(owner, tuple(members)))
        covered[owner].update(members)
    for h, spec in nodes.items():
        for p in spec:
            if h not in covered[p]:
                partitions[p].append(InfoSet(p, (h,)))
                covered[p].add(h)
    return Structure(
        players, {p: frozenset(a) for p, a in actions.items()},
        histories, {p: tuple(v) for p, v in partitions.items()},
    )


# -- the section-2 reduction pair ------------------------------------------

A = path({"1": "A"})
O = path({"1": "O"})
B = path({"1": "B"})


def g_red1() -> Structure:
    """Two players; player 1 moves first, an A-move opens a simultaneous
    stage, O/B lead to a second-player decision that cannot tell them
    apart."""
    nodes = {
        ROOT: {"1": ["A", "O", "B"]},
        A: {"1": ["E", "F"], "2": ["c", "d"]},
        O: {"2": ["h", "i"]},
        B: {"2": ["h", "i"]},
    }
    return build(["1", "2"], nodes, blocks=[("2", [O, B])])


def red1_infosets(structure: Structure):
    h11 = structure.info_set_of("1", ROOT)
    h12 = structure.info_set_of("1", A)
    h21 = structure.info_set_of("2", A)
    h22 = structure.info_set_of("2", O)
    return h11, h12, h21, h22


STRAY = path({"1": "Z"})


def malformed_red1() -> list[Structure]:
    """Three malformed variants of g_red1 that the constructor still
    indexes: A dropped, though its children stay; A/E added beside the
    children A/(E,c), so A's children disagree on who moves; and a block of
    player 2 whose member STRAY lies outside the tree."""
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    return [
        Structure(g.players, g.actions, [h for h in g.histories if h != A], g.partitions),
        Structure(
            g.players, g.actions, g.histories + (A.extend(make_profile({"1": "E"})),),
            g.partitions,
        ),
        Structure(
            g.players, g.actions, g.histories,
            {**g.partitions, "2": (h21, InfoSet("2", (STRAY,)))},
        ),
    ]


def g_red2() -> Structure:
    """The behaviorally equivalent coalesced variant of g_red1."""
    structure = g_red1()
    opp = find_coalescing(structure)[0]
    return apply_coalescing(structure, opp)[0]


# -- small shapes -----------------------------------------------------------


def g_chain() -> Structure:
    """Perfect information, depth 2: player 2 moves only after L."""
    L, R = path({"1": "L"}), path({"1": "R"})
    nodes = {ROOT: {"1": ["L", "R"]}, L: {"2": ["a", "b"]}}
    return build(["1", "2"], nodes)


def g_deep_chain(n: int) -> Structure:
    """One player moving n times in a row: at depth k she stops with s<k>
    or continues with c<k>.  n singleton sets, 2n+1 histories."""
    nodes = {}
    h = ROOT
    for k in range(n):
        nodes[h] = {"1": [f"c{k}", f"s{k}"]}
        h = h.extend(make_profile({"1": f"c{k}"}))
    return build(["1"], nodes)


def g_fan(n: int) -> Structure:
    """Player 2 picks one of n branches a_k at the root and then x_k or y_k;
    player 1's one set holds all 2n histories of length 2, so the root and
    each a_k dictate: anchors of two lengths, n of them of length 1."""
    actions = [f"{c}{k}" for c in "axy" for k in range(n)]
    lines = ["egs 1", "player 1 actions L,R", f"player 2 actions {','.join(actions)}"]
    lines.append('node "" 2:' + "|".join(f"a{k}" for k in range(n)))
    members = []
    for k in range(n):
        lines.append(f'node "a{k}" 2:x{k}|y{k}')
        for c in (f"x{k}", f"y{k}"):
            lines.append(f'node "a{k}/{c}" 1:L|R')
            members.append(f'"a{k}/{c}"')
    lines.append("infoset 1 {" + ",".join(members) + "}")
    return parse("\n".join(lines) + "\n")


def g_ladder() -> Structure:
    """Player 1 moves twice along L; player 2 owns the R branch.  The own
    pair ({root}, {L}) is a coalescing opportunity with link L."""
    L, R = path({"1": "L"}), path({"1": "R"})
    nodes = {
        ROOT: {"1": ["L", "R"]},
        L: {"1": ["a", "b"]},
        R: {"2": ["c", "d"]},
    }
    return build(["1", "2"], nodes)


def g_sim() -> Structure:
    """One simultaneous move at the root."""
    nodes = {ROOT: {"1": ["u", "d"], "2": ["l", "r"]}}
    return build(["1", "2"], nodes)


def g_sim3() -> Structure:
    """Chain of simultaneity: player 3's set spans both root children, so
    players 2 and 4 are transitively simultaneous without overlapping."""
    a, b = path({"1": "A"}), path({"1": "B"})
    nodes = {
        ROOT: {"1": ["A", "B"]},
        a: {"2": ["p", "q"], "3": ["x", "y"]},
        b: {"3": ["x", "y"], "4": ["m", "n"]},
    }
    return build(["1", "2", "3", "4"], nodes, blocks=[("3", [a, b])])


def g_ent() -> Structure:
    """All three relations hold between player 2's and player 3's sets:
    2 before 3 on the A branch, 3 before 2 on the B branch, simultaneous
    at C."""
    a, b, c = path({"1": "A"}), path({"1": "B"}), path({"1": "C"})
    au = a.extend(make_profile({"2": "u"}))
    bx = b.extend(make_profile({"3": "x"}))
    nodes = {
        ROOT: {"1": ["A", "B", "C"]},
        a: {"2": ["u", "v"]},
        au: {"3": ["x", "y"]},
        b: {"3": ["x", "y"]},
        bx: {"2": ["u", "v"]},
        c: {"2": ["u", "v"], "3": ["x", "y"]},
    }
    return build(
        ["1", "2", "3"], nodes,
        blocks=[("2", [a, bx, c]), ("3", [au, b, c])],
    )


def g_kms() -> Structure:
    """Mutual following without simultaneity (the classical two-sets-
    follow-each-other shape)."""
    L, R = path({"1": "L"}), path({"1": "R"})
    lp = L.extend(make_profile({"2": "p"}))
    lq = L.extend(make_profile({"2": "q"}))
    rm = R.extend(make_profile({"3": "m"}))
    rn = R.extend(make_profile({"3": "n"}))
    nodes = {
        ROOT: {"1": ["L", "R"]},
        L: {"2": ["p", "q"]},
        lp: {"3": ["m", "n"]},
        lq: {"3": ["m", "n"]},
        R: {"3": ["m", "n"]},
        rm: {"2": ["p", "q"]},
        rn: {"2": ["p", "q"]},
    }
    return build(
        ["1", "2", "3"], nodes,
        blocks=[("2", [L, rm, rn]), ("3", [R, lp, lq])],
    )


def g_uneven() -> Structure:
    """Valid and UO, but one information set mixes lengths 1 and 2."""
    L, R = path({"1": "L"}), path({"1": "R"})
    ra = R.extend(make_profile({"1": "a"}))
    nodes = {
        ROOT: {"1": ["L", "R"]},
        R: {"1": ["a", "b"]},
        L: {"2": ["x", "y"]},
        ra: {"2": ["x", "y"]},
    }
    return build(["1", "2"], nodes, blocks=[("2", [L, ra])])


def g_absent_minded() -> Structure:
    """One player whose single information set contains a history and its
    extension; perfect recall fails."""
    a = path({"1": "a"})
    nodes = {ROOT: {"1": ["a", "b"]}, a: {"1": ["a", "b"]}}
    return build(["1"], nodes, blocks=[("1", [ROOT, a])])


# -- interchange/simultanizing shapes ---------------------------------------


def g_nc() -> Structure:
    """Non-crossing first stage, crossing second stage.

    Player 4's set spans a branch below player 3 (A side) and two levels
    of the B side.  Lifting {BcE, BcF} to Bc is non-crossing; afterwards
    lifting the whole B-side part to B would cross player 3's set, whose
    A-side members stay below player 4's member Ag/Ak only via A itself.
    """
    a, b = path({"1": "A"}), path({"1": "B"})
    bc = b.extend(make_profile({"2": "c"}))
    bd = b.extend(make_profile({"2": "d"}))
    bce = bc.extend(make_profile({"3": "E"}))
    bcf = bc.extend(make_profile({"3": "F"}))
    bdg = bd.extend(make_profile({"3": "g"}))
    bdk = bd.extend(make_profile({"3": "k"}))
    ag = a.extend(make_profile({"3": "g"}))
    ak = a.extend(make_profile({"3": "k"}))
    nodes = {
        ROOT: {"1": ["A", "B"]},
        a: {"3": ["g", "k"]},
        ag: {"4": ["x", "y"]},
        ak: {"4": ["x", "y"]},
        b: {"2": ["c", "d"]},
        bc: {"3": ["E", "F"]},
        bce: {"4": ["x", "y"]},
        bcf: {"4": ["x", "y"]},
        bd: {"3": ["g", "k"]},
        bdg: {"4": ["x", "y"]},
        bdk: {"4": ["x", "y"]},
    }
    return build(
        ["1", "2", "3", "4"], nodes,
        blocks=[("3", [a, bd]), ("4", [ag, ak, bce, bcf, bdg, bdk])],
    )


def g_mud() -> Structure:
    """Minimal with respect to UO although a (crossing, hence UO-breaking)
    IS opportunity (B, {Bc, Bd}) remains."""
    a, b = path({"1": "A"}), path({"1": "B"})
    am = a.extend(make_profile({"4": "m"}))
    bc = b.extend(make_profile({"2": "c"}))
    bd = b.extend(make_profile({"2": "d"}))
    nodes = {
        ROOT: {"1": ["A", "B"]},
        a: {"4": ["m", "n"]},
        am: {"3": ["e", "f"]},
        b: {"2": ["c", "d"]},
        bc: {"3": ["e", "f"], "4": ["m", "n"]},
        bd: {"3": ["e", "f"]},
    }
    return build(
        ["1", "2", "3", "4"], nodes,
        blocks=[("3", [am, bc, bd]), ("4", [a, bc])],
    )


def g_uom() -> Structure:
    """Two IS parts at one anchor forming a complete ICO; applying the
    player-3 part first breaks UO until the player-4 part restores it."""
    a, b = path({"1": "A"}), path({"1": "B"})
    ax = a.extend(make_profile({"4": "x"}))
    ay = a.extend(make_profile({"4": "y"}))
    bc = b.extend(make_profile({"2": "c"}))
    bd = b.extend(make_profile({"2": "d"}))
    nodes = {
        ROOT: {"1": ["A", "B"]},
        a: {"4": ["x", "y"]},
        ax: {"3": ["e", "f"]},
        ay: {"3": ["e", "f"]},
        b: {"2": ["c", "d"]},
        bc: {"3": ["e", "f"], "4": ["x", "y"]},
        bd: {"3": ["e", "f"], "4": ["x", "y"]},
    }
    return build(
        ["1", "2", "3", "4"], nodes,
        blocks=[("3", [ax, ay, bc, bd]), ("4", [a, bc, bd])],
    )


# -- compactification fixtures ----------------------------------------------


def g_icot() -> Structure:
    """Deepest class carries two complete ICOs: the pair of BC parts, and
    that pair extended with the AD part of player 4's set."""
    a, b = path({"1": "A"}), path({"1": "B"})
    ac = a.extend(make_profile({"2": "C"}))
    ad = a.extend(make_profile({"2": "D"}))
    bc = b.extend(make_profile({"2": "C"}))
    bcx = bc.extend(make_profile({"3": "x"}))
    bcy = bc.extend(make_profile({"3": "y"}))
    adf = ad.extend(make_profile({"3": "F"}))
    adg = ad.extend(make_profile({"3": "G"}))
    nodes = {
        ROOT: {"1": ["A", "B"]},
        a: {"2": ["C", "D"]},
        b: {"2": ["C", "D"]},
        bc: {"3": ["x", "y"]},
        ad: {"3": ["F", "G"]},
        bcx: {"4": ["p", "q"], "5": ["u", "v"]},
        bcy: {"4": ["p", "q"], "5": ["u", "v"]},
        adf: {"4": ["p", "q"]},
        adg: {"4": ["p", "q"]},
    }
    return build(
        ["1", "2", "3", "4", "5"], nodes,
        blocks=[
            ("2", [a, b]),
            ("4", [bcx, bcy, adf, adg]),
            ("5", [bcx, bcy]),
        ],
    )


def g_g76() -> Structure:
    """Order-dependent compactification: lifting player 2 to the root
    kills the deeper lift of player 3, and vice versa.  Backward
    compactification takes the deeper one."""
    a, b = path({"1": "A"}), path({"1": "B"})
    bc = b.extend(make_profile({"2": "c"}))
    bd = b.extend(make_profile({"2": "d"}))
    nodes = {
        ROOT: {"1": ["A", "B"]},
        a: {"2": ["c", "d"]},
        b: {"2": ["c", "d"]},
        bc: {"3": ["e", "f"]},
        bd: {"3": ["e", "f"]},
    }
    return build(
        ["1", "2", "3"], nodes,
        blocks=[("2", [a, b]), ("3", [bc, bd])],
    )


def g_ovlp() -> Structure:
    """Definition-of-completeness violation: players 4 and 5 overlap at AC
    and BCx, but the candidate parts cover neither overlap, so forcing the
    two lifts makes the sets precede each other both ways."""
    a, b = path({"1": "A"}), path({"1": "B"})
    ac = a.extend(make_profile({"2": "C"}))
    ad = a.extend(make_profile({"2": "D"}))
    bc = b.extend(make_profile({"2": "C"}))
    bcx = bc.extend(make_profile({"3": "x"}))
    bcy = bc.extend(make_profile({"3": "y"}))
    nodes = {
        ROOT: {"1": ["A", "B"]},
        a: {"2": ["C", "D"]},
        b: {"2": ["C", "D"]},
        bc: {"3": ["x", "y"]},
        ac: {"4": ["p", "q"], "5": ["u", "v"]},
        ad: {"4": ["p", "q"]},
        bcx: {"4": ["p", "q"], "5": ["u", "v"]},
        bcy: {"5": ["u", "v"]},
    }
    return build(
        ["1", "2", "3", "4", "5"], nodes,
        blocks=[
            ("2", [a, b]),
            ("4", [ac, ad, bcx]),
            ("5", [ac, bcx, bcy]),
        ],
    )


def g_nec_participant() -> Structure:
    """An immediate IS atom whose class-mate never participates: player
    3's set shares L with player 2's, but no atom can move player 3."""
    l, r = path({"1": "L"}), path({"1": "R"})
    ra = r.extend(make_profile({"4": "A"}))
    rac = ra.extend(make_profile({"3": "C"}))
    rad = ra.extend(make_profile({"3": "D"}))
    nodes = {
        ROOT: {"1": ["L", "R"]},
        l: {"2": ["u", "w"], "3": ["C", "D"]},
        r: {"4": ["A", "B"]},
        ra: {"3": ["C", "D"]},
        rac: {"2": ["u", "w"]},
        rad: {"2": ["u", "w"]},
    }
    return build(
        ["1", "2", "3", "4"], nodes,
        blocks=[("2", [l, rac, rad]), ("3", [l, ra])],
    )


def g_nec_interpolation() -> Structure:
    """A coalescing whose mover sits two levels below its base on one
    branch: the history between them disqualifies immediacy."""
    bd = path({"1": "B", "2": "D"})
    be = path({"1": "B", "2": "E"})
    bdu = bd.extend(make_profile({"3": "u"}))
    bdw = bd.extend(make_profile({"3": "w"}))
    nodes = {
        ROOT: {"1": ["B", "C"], "2": ["D", "E"]},
        bd: {"3": ["u", "w"]},
        bdu: {"1": ["p", "q"]},
        bdw: {"1": ["p", "q"]},
        be: {"1": ["p", "q"]},
    }
    return build(
        ["1", "2", "3"], nodes,
        blocks=[("1", [bdu, bdw, be])],
    )


# -- the dominance counterexample -------------------------------------------


def g_nul() -> Structure:
    """Player 1 moves, then players 2 and 3 move simultaneously without
    observing player 1."""
    a, b = path({"1": "A"}), path({"1": "B"})
    nodes = {
        ROOT: {"1": ["A", "B"]},
        a: {"2": ["C", "D", "E"], "3": ["F", "G"]},
        b: {"2": ["C", "D", "E"], "3": ["F", "G"]},
    }
    return build(
        ["1", "2", "3"], nodes,
        blocks=[("2", [a, b]), ("3", [a, b])],
    )


def nul_payoffs(structure: Structure) -> dict:
    """Payoffs realizing: round 1 eliminates B (by A) and E (by C);
    round 2 eliminates F (by G) once E is gone; D is protected by G-columns
    and C stays undominated through the A,G column."""
    payoffs = {p: {} for p in structure.players}
    for z in structure.terminals:
        first = dict(z.moves[0])["1"]
        second = dict(z.moves[1])
        a2, a3 = second["2"], second["3"]
        payoffs["1"][z] = Fraction(1 if first == "A" else 0)
        if a2 == "C":
            payoffs["2"][z] = Fraction(3 if (first == "A" and a3 == "G") else 2)
        elif a2 == "D":
            payoffs["2"][z] = Fraction(3 if a3 == "G" else 0)
        else:
            payoffs["2"][z] = Fraction(1)
        if a3 == "F":
            payoffs["3"][z] = Fraction(5 if a2 == "E" else 0)
        else:
            payoffs["3"][z] = Fraction(1)
    return payoffs


def game_nul() -> Game:
    structure = g_nul()
    return Game(structure, nul_payoffs(structure))


# -- the synthesized-opportunity fixture -------------------------------------


def g_ga() -> Structure:
    """A von Neumann structure with exactly two synthesized opportunities.

    Player 2's chain sits on the A branch; player 3's chain on the B
    branch below a player-4 move, with player 5 co-moving at Bs only.
    Player 6's set ties the two branches at depth 4, forcing the two
    coalescings to travel together; player 3's second set ties Br to Bs,
    forcing the B-lift to bring the coalescings along.
    """
    a, b = path({"1": "A"}), path({"1": "B"})
    ac = a.extend(make_profile({"2": "C"}))
    ace = ac.extend(make_profile({"2": "E"}))
    acex = ace.extend(make_profile({"4": "x"}))
    br = b.extend(make_profile({"4": "r"}))
    bs = b.extend(make_profile({"4": "s"}))
    brj = br.extend(make_profile({"3": "J"}))
    bsju = bs.extend(make_profile({"3": "J", "5": "u"}))
    bsjw = bs.extend(make_profile({"3": "J", "5": "w"}))
    bsjul = bsju.extend(make_profile({"3": "L"}))
    nodes = {
        ROOT: {"1": ["A", "B"]},
        a: {"2": ["C", "D"]},
        ac: {"2": ["E", "F"]},
        ace: {"4": ["x", "y"]},
        acex: {"6": ["p", "q"]},
        b: {"4": ["r", "s"]},
        br: {"3": ["J", "K"]},
        bs: {"3": ["J", "K"], "5": ["u", "w"]},
        brj: {"3": ["L", "M"]},
        bsju: {"3": ["L", "M"]},
        bsjw: {"3": ["L", "M"]},
        bsjul: {"6": ["p", "q"]},
    }
    return build(
        ["1", "2", "3", "4", "5", "6"], nodes,
        blocks=[
            ("3", [br, bs]),
            ("3", [brj, bsju, bsjw]),
            ("6", [acex, bsjul]),
        ],
    )


def ga_infosets(structure: Structure):
    a = path({"1": "A"})
    b = path({"1": "B"})
    ac = a.extend(make_profile({"2": "C"}))
    br = b.extend(make_profile({"4": "r"}))
    brj = br.extend(make_profile({"3": "J"}))
    h21 = structure.info_set_of("2", a)
    h22 = structure.info_set_of("2", ac)
    h31 = structure.info_set_of("3", br)
    h32 = structure.info_set_of("3", brj)
    return h21, h22, h31, h32, b
