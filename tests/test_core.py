import contextlib
import dataclasses
import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import egs
from egs import (
    CoalescingOpp,
    EgsError,
    History,
    InfoSet,
    ROOT,
    Structure,
    apply_coalescing,
    apply_is,
    apply_phi,
    backward_compactify,
    check_uo,
    find_synthesized,
    is_prefix,
    make_profile,
    minimize_uo,
    relation,
    sim_classes,
    transitively_simultaneous,
)

from corpus import seeded_structures, uo_corpus, vnm_corpus
from fixtures import (
    A,
    B,
    O,
    STRAY,
    g_absent_minded,
    g_chain,
    g_ent,
    g_kms,
    g_red1,
    g_sim3,
    malformed_red1,
    path,
    red1_infosets,
)
from egs import transform
from egs.transform import HistoryMap, _available_reductions
from oracles import (
    anchored_members_reference,
    check_uo_pairwise,
    composite_extend_reference,
    indices_reference,
    lift_rebuild,
    relation_pairwise,
    terminals_reference,
    transitively_simultaneous_reference,
    unrelated_to_submover_reference,
)


def test_prefix_basics():
    ace = A.extend(make_profile({"1": "E", "2": "c"}))
    assert is_prefix(ROOT, A)
    assert is_prefix(ROOT, ROOT)
    assert is_prefix(A, ace)
    assert not is_prefix(O, B)
    assert not is_prefix(ace, A)


def test_history_labels():
    ace = A.extend(make_profile({"2": "c", "1": "E"}))
    assert ROOT.label() == ""
    assert A.label() == "A"
    assert ace.label() == "A/(1=E,2=c)"


def test_history_hash_is_by_value():
    ace = A.extend(make_profile({"1": "E", "2": "c"}))
    rebuilt = History(ace.moves)
    assert ace == rebuilt and hash(ace) == hash(rebuilt)
    assert {ace: 1}[rebuilt] == 1
    assert hash(ROOT) == hash(History(()))


def test_info_set_hash_ignores_member_order():
    ace = A.extend(make_profile({"1": "E", "2": "c"}))
    one = InfoSet("2", (A, B, ace))
    other = InfoSet("2", (ace, B, A))
    assert one == other and hash(one) == hash(other)
    assert one.members == other.members == (A, ace, B)
    assert InfoSet("1", (A, B)) != InfoSet("2", (A, B))


def test_cached_hashes_add_no_dataclass_fields():
    # fileformat and every value comparison see only these fields
    assert [f.name for f in dataclasses.fields(History)] == ["moves"]
    assert [f.name for f in dataclasses.fields(InfoSet)] == ["owner", "members"]


def test_pickled_values_rehash_in_another_process():
    # string hashes are salted per process, so a cached hash must not travel
    ace = A.extend(make_profile({"1": "E", "2": "c"}))
    data = pickle.dumps((ace, InfoSet("2", (A, B))))
    check = (
        "import pickle, sys\n"
        "from egs import History, InfoSet\n"
        "h, s = pickle.loads(sys.stdin.buffer.read())\n"
        "assert h in {History(h.moves)} and s in {InfoSet(s.owner, s.members)}\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = str(Path(egs.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", check], input=data, env=env,
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()


_move_sequences = st.lists(
    st.dictionaries(st.sampled_from("123"), st.sampled_from("abc"), min_size=1), max_size=6
).map(lambda entries: tuple(make_profile(e) for e in entries))


@settings(max_examples=200, deadline=None)
@given(_move_sequences, _move_sequences, seeded_structures())
def test_a_move_sequence_is_one_history_however_built(moves, other, structure):
    h = History(moves)
    assert History(tuple(make_profile(dict(p)) for p in moves)) is h  # equal, not the same tuples
    built = ROOT
    for n, profile in enumerate(moves):
        assert h.prefix(n) is built
        built = built.extend(profile)
        assert built.parent is h.prefix(n)
    assert built is h.prefix(len(moves)) is h
    assert pickle.loads(pickle.dumps(h)) is h
    assert (History(other) is h) == (other == moves)
    # the node's length, parent and prefixes against the tuple definitions
    assert h.length == len(moves)
    if moves:
        assert h.parent is History(moves[:-1])
    else:
        with pytest.raises(EgsError):
            h.parent
    for n in range(-len(moves) - 2, len(moves) + 3):
        assert h.prefix(n) is History(moves[:n])
    g = History(other)
    assert h.is_prefix_of(g) == (other[:len(moves)] == moves)
    assert g.is_prefix_of(h) == (moves[:len(other)] == other)
    assert len({History(moves[:n]) for n in range(len(moves) + 1)}) == len(moves) + 1
    parsed = egs.parse(egs.serialize(structure))
    assert all(a is b for a, b in zip(parsed.histories, structure.histories, strict=True))


def test_a_history_only_the_intern_table_holds_is_freed():
    # a history is filed under its parent and its last move
    move = make_profile({"1": "held-by-nothing-else"})
    key = (ROOT, move)
    h = ROOT.extend(move)
    assert egs.core._interned[key]() is h
    ref = weakref.ref(h)
    del h
    gc.collect()
    assert ref() is None
    assert key not in egs.core._interned
    # a dead entry's callback may run after a new object took the key: it
    # must leave the live entry in place
    held = {move}
    stale = egs.core._Ref(held)
    stale.key = key
    del held
    h = ROOT.extend(move)
    egs.core._forget(stale)
    assert egs.core._interned[key]() is h
    assert ROOT.extend(move) is h


def test_a_chain_only_its_last_history_holds_is_freed_whole():
    # each history holds its parent, so freeing the last frees them all, a
    # chain far deeper than the recursion limit included
    before = len(egs.core._interned)
    h = ROOT
    for k in range(5 * sys.getrecursionlimit()):
        h = h.extend(make_profile({"1": f"chain-{k % 3}"}))
    assert len(egs.core._interned) == before + h.length
    ref = weakref.ref(h.prefix(1))
    del h
    gc.collect()
    assert ref() is None
    assert len(egs.core._interned) == before


_members = st.lists(_move_sequences.map(History), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(_members, st.randoms(use_true_random=False), st.sampled_from("12"))
def test_an_information_set_is_one_object_however_built(members, rnd, owner):
    s = InfoSet(owner, tuple(members))
    repeated = members + rnd.choices(members, k=3)
    rnd.shuffle(repeated)
    assert InfoSet(owner, repeated) is s
    assert InfoSet(owner, iter(repeated)) is s
    assert InfoSet(owner, frozenset(members)) is s
    assert s.members == tuple(sorted(set(members), key=lambda h: h.moves))
    assert s.member_set == frozenset(members)
    other = InfoSet("2" if owner == "1" else "1", members)
    assert other is not s and other != s
    assert pickle.loads(pickle.dumps(s)) is s


def test_an_information_set_only_the_intern_table_holds_is_freed():
    h = ROOT.extend(make_profile({"1": "set-held-by-nothing-else"}))
    key = ("1", frozenset({h}))
    s = InfoSet("1", (h,))
    assert egs.core._interned[key]() is s
    ref = weakref.ref(s)
    del s
    gc.collect()
    assert ref() is None
    assert key not in egs.core._interned


def test_threads_building_one_information_set_get_one_object():
    # each round's members are fresh histories, so its set is made, not found
    rounds, workers = 40, 8
    members = [
        [ROOT.extend(make_profile({"1": f"set-{r}-{k}"})) for k in range(4)]
        for r in range(rounds)
    ]
    barrier = threading.Barrier(workers, timeout=60)
    results = [[] for _ in range(workers)]

    def work(k):
        rnd = random.Random(k)
        for r in range(rounds):
            order = rnd.sample(members[r], len(members[r]))
            barrier.wait()
            results[k].append(InfoSet("1", order))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for r in range(rounds):
        assert all(got[r] is results[0][r] for got in results)


def test_threads_parsing_one_text_get_one_object_per_history():
    # each round names fresh actions, so its histories are made, not found
    text = egs.serialize(g_kms())
    rounds, workers = 40, 8
    barrier = threading.Barrier(workers, timeout=60)
    results = [[] for _ in range(workers)]

    def work(k):
        for r in range(rounds):
            barrier.wait()
            g = egs.parse(text.replace("L", f"L{r}").replace("R", f"R{r}"))
            tail = make_profile({"1": f"t{r}"})
            results[k].append(list(g.histories) + [h.extend(tail) for h in g.histories])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(got) == rounds for got in results)
    for r in range(rounds):
        first = results[0][r]
        assert len(first) == 2 * len(g_kms().histories)
        for got in results[1:]:
            assert len(got[r]) == len(first) and all(a is b for a, b in zip(got[r], first))


def test_relation_red1():
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    r = relation(g, h11, h12)
    assert (r.before, r.simultaneous, r.after) == (True, False, False)
    r = relation(g, h12, h21)
    assert r.simultaneous and not r.before and not r.after
    assert h12 != h21  # same members, different owners
    r = relation(g, h11, h22)
    assert r.before and not r.after


def test_relation_foreign_infoset_rejected():
    g = g_red1()
    foreign = InfoSet("1", (A,))
    other = g_chain()
    with pytest.raises(EgsError):
        relation(other, foreign, foreign)


def test_transitively_simultaneous_foreign_infoset_rejected():
    # a foreign set was simultaneous with itself and with nothing else
    foreign = InfoSet("1", (A,))
    other = g_chain()
    own = other.info_sets[0]
    for a, b in ((foreign, foreign), (foreign, own), (own, foreign)):
        with pytest.raises(EgsError):
            transitively_simultaneous(other, a, b)


def test_info_set_membership_by_value():
    g = g_red1()
    assert g.info_sets is g.info_sets
    for s in g.info_sets:
        copy = InfoSet(s.owner, tuple(reversed(s.members)))
        assert copy is s and g.has_info_set(copy)
        g.require_info_set(copy)
    h11, h12, h21, h22 = red1_infosets(g)
    # same members as a set of player 1, but owned by player 2
    assert not g.has_info_set(InfoSet(h21.owner, h11.members))
    with pytest.raises(EgsError):
        g.require_info_set(InfoSet(h21.owner, h11.members))


def test_relation_entangled_fixture():
    g = g_ent()
    h2 = g.info_set_of("2", path({"1": "A"}))
    h3 = g.info_set_of("3", path({"1": "B"}))
    r = relation(g, h2, h3)
    assert r.before and r.simultaneous and r.after


def _closure_oracle(structure):
    """Reflexive-symmetric-transitive closure of direct simultaneity via
    breadth-first search over co-membership."""
    neighbors = {h: set() for h in structure.nonterminals}
    for s in structure.info_sets:
        for m in s.members:
            neighbors[m].update(s.members)
    classes = {}
    for h in structure.nonterminals:
        if h in classes:
            continue
        group = {h}
        frontier = [h]
        while frontier:
            x = frontier.pop()
            for y in neighbors[x]:
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        for y in group:
            classes[y] = h
    return classes


def test_transitive_simultaneity_chain():
    g = g_sim3()
    a, b = path({"1": "A"}), path({"1": "B"})
    h2 = g.info_set_of("2", a)
    h3 = g.info_set_of("3", a)
    h4 = g.info_set_of("4", b)
    assert not (h2.member_set & h4.member_set)
    assert transitively_simultaneous(g, h2, h3)
    assert transitively_simultaneous(g, h2, h4)
    assert transitively_simultaneous(g, h2, h2)


def test_transitive_simultaneity_red1():
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    assert not transitively_simultaneous(g, h11, h22)
    assert transitively_simultaneous(g, h12, h21)


def test_sim_classes_red1():
    g = g_red1()
    h11, h12, h21, h22 = red1_infosets(g)
    classes = {frozenset(c) for c in sim_classes(g)}
    assert classes == {
        frozenset({h11}),
        frozenset({h12, h21}),
        frozenset({h22}),
    }


def test_sim_classes_match_oracle_on_random(request):
    from corpus import uo_corpus

    for structure in uo_corpus(25, seed=11):
        oracle = _closure_oracle(structure)
        for group in sim_classes(structure):
            reps = {oracle[s.members[0]] for s in group}
            assert len(reps) == 1
        # pairwise: sets in different classes have members in different
        # closure classes
        groups = sim_classes(structure)
        for i, ga in enumerate(groups):
            for gb in groups[i + 1:]:
                assert oracle[ga[0].members[0]] != oracle[gb[0].members[0]]


def test_root_depth_two_gives_multiple_classes():
    from corpus import uo_corpus

    for structure in uo_corpus(25, seed=11):
        depth = max(h.length for h in structure.histories)
        if depth >= 2:
            assert len(sim_classes(structure)) >= 2


def test_simultaneous_implies_transitively_simultaneous():
    from corpus import uo_corpus

    for structure in uo_corpus(15, seed=12):
        sets = structure.info_sets
        for i, a in enumerate(sets):
            for b in sets[i:]:
                if relation(structure, a, b).simultaneous:
                    assert transitively_simultaneous(structure, a, b)


def _assert_transitive_simultaneity_matches(structure):
    # the blocks, and sets that are no block: the first members of two
    # neighbouring blocks, terminals, and a history outside the tree; a
    # pair with a set that is no block is refused
    blocks = list(structure.info_sets)
    sets = blocks + [
        InfoSet(a.owner, (a.members[0], b.members[0])) for a, b in zip(blocks, blocks[1:])
    ]
    sets += [InfoSet("1", (z,)) for z in structure.terminals[:3]]
    sets.append(InfoSet("1", (STRAY,)))
    for a in sets:
        for b in sets:
            if structure.has_info_set(a) and structure.has_info_set(b):
                assert transitively_simultaneous(structure, a, b) == (
                    transitively_simultaneous_reference(structure, a, b)
                )
            else:
                with pytest.raises(EgsError):
                    transitively_simultaneous(structure, a, b)
    # the classes are found once per structure, not once per call
    index = structure._sim_index
    transitively_simultaneous(structure, blocks[0], blocks[-1])
    assert structure._sim_index is index


@settings(max_examples=100, deadline=None)
@given(seeded_structures())
@example(g_absent_minded())
@example(g_sim3())
def test_transitively_simultaneous_matches_the_per_call_union_find(structure):
    _assert_transitive_simultaneity_matches(structure)


def test_transitively_simultaneous_matches_the_union_find_on_malformed_structures():
    for m in malformed_red1():
        _assert_transitive_simultaneity_matches(m)


def test_relation_matches_descendant_set_oracle():
    from corpus import uo_corpus

    def descendants(structure, h):
        out = set()
        stack = [h]
        while stack:
            x = stack.pop()
            for kid in structure.children(x):
                out.add(kid)
                stack.append(kid)
        return out

    for structure in list(uo_corpus(15, seed=13)) + [g_ent(), g_red1()]:
        desc = {h: descendants(structure, h) for h in structure.histories}
        sets = structure.info_sets
        for a in sets:
            for b in sets:
                r = relation(structure, a, b)
                assert r.before == any(
                    y in desc[x] for x in a.members for y in b.members
                )
                assert r.after == any(
                    x in desc[y] for x in a.members for y in b.members
                )
                assert r.simultaneous == bool(set(a.members) & set(b.members))


@settings(max_examples=100, deadline=None)
@given(seeded_structures())
@example(g_ent())
@example(g_absent_minded())
def test_relation_matches_pairwise_definition(structure):
    sets = structure.info_sets
    for a in sets:
        for b in sets:
            assert relation(structure, a, b) == relation_pairwise(structure, a, b)


@settings(max_examples=150, deadline=None)
@given(seeded_structures())
@example(g_ent())
@example(g_kms())
@example(g_absent_minded())  # a set before itself: the witness pairs it with itself
def test_check_uo_matches_pairwise_scan(structure):
    # the same verdict and the same lexicographically first offending pair
    assert check_uo(structure) == check_uo_pairwise(structure)


def test_order_index_answers_for_members_outside_the_tree():
    # Dropping a history leaves members the walk from the root cannot
    # reach; relations and the UO verdict must not depend on the tree.
    for g in (g_red1(), g_ent(), g_kms()):
        for dropped in g.nonterminals[:3]:
            m = Structure(
                g.players, g.actions,
                [h for h in g.histories if h != dropped], g.partitions,
            )
            for a in m.info_sets:
                for b in m.info_sets:
                    assert relation(m, a, b) == relation_pairwise(m, a, b)
            assert check_uo(m) == check_uo_pairwise(m)


def _assert_indices_match(structure):
    ref = indices_reference(structure)
    assert structure._children == ref["children"]
    assert structure.terminals == ref["terminals"]
    assert structure.nonterminals == ref["nonterminals"]
    assert structure._active == ref["active"]
    assert structure._feasible == ref["feasible"]


@settings(max_examples=100, deadline=None)
@given(seeded_structures())
@example(g_ent())
@example(g_absent_minded())
def test_indices_match_the_reference(structure):
    _assert_indices_match(structure)


def test_indices_match_the_reference_on_malformed_structures():
    ace = A.extend(make_profile({"1": "E", "2": "c"}))
    malformed = malformed_red1()
    for m in malformed:
        _assert_indices_match(m)
        _assert_terminals_match(m)
    assert ace in malformed[0].terminals
    assert malformed[1].active(A) == ("1", "2")
    for query in (
        lambda m: m.terminals_below(STRAY),
        lambda m: m.terminals_below_set((ROOT, STRAY)),
    ):
        with pytest.raises(EgsError, match="'Z' is not a history of this structure"):
            query(malformed[2])
    with pytest.raises(EgsError, match="'A' is not a history"):
        malformed[0].terminals_below(A)


def _assert_terminals_match(structure):
    below, after = terminals_reference(structure)
    for h, z in below.items():
        assert structure.terminals_below(h) == z
    for (s, a), z in after.items():
        assert structure.terminals_after_action(s, a) == z
    for s in structure.info_sets:
        if all(structure.has_history(m) for m in s.members):
            assert structure.terminals_below_set(s.members) == frozenset().union(
                *(below[m] for m in s.members)
            )


@settings(max_examples=100, deadline=None)
@given(seeded_structures())
@example(g_ent())
@example(g_absent_minded())
# both players name an action c: a mask must follow the owner's c only
@example(egs.parse('egs 1\nplayer 1 actions c,d\nplayer 2 actions c,d\nnode "" 1:c|d 2:c|d\n'))
def test_terminal_sets_match_the_reference(structure):
    _assert_terminals_match(structure)


@settings(max_examples=40, deadline=None)
@given(seeded_structures(), st.integers(0, 2**32 - 1))
def test_terminal_sets_match_the_reference_along_a_minimisation(structure, seed):
    # every structure of the walk but the first is built by one lift
    assume(check_uo(structure)[0])
    rng = random.Random(seed)
    current = structure
    while True:
        _assert_terminals_match(current)
        opps = _available_reductions(current)
        if not opps:
            break
        opp = opps[rng.randrange(len(opps))]
        apply = apply_coalescing if isinstance(opp, CoalescingOpp) else apply_is
        current, _ = apply(current, opp)
    assert current == minimize_uo(structure, rng=random.Random(seed))


# -- the lift edits its predecessor -------------------------------------------


def _assert_same_indices(edited, rebuilt):
    assert edited == rebuilt
    assert edited.histories == rebuilt.histories
    assert edited.terminals == rebuilt.terminals
    assert edited.nonterminals == rebuilt.nonterminals
    assert edited._children == rebuilt._children
    assert edited._active == rebuilt._active
    assert edited._feasible == rebuilt._feasible
    assert edited.info_sets == rebuilt.info_sets
    assert edited._infoset_index == rebuilt._infoset_index
    for p in rebuilt.players:
        for h in rebuilt.histories:
            try:
                expected = rebuilt.info_set_of(p, h)
            except EgsError:
                with pytest.raises(EgsError):
                    edited.info_set_of(p, h)
            else:
                assert edited.info_set_of(p, h) == expected
    for h in rebuilt.histories:
        assert edited.terminals_below(h) == rebuilt.terminals_below(h)
    for s in rebuilt.info_sets:
        assert edited.terminals_below_set(s.members) == rebuilt.terminals_below_set(s.members)
        for a in rebuilt.feasible_at(s):
            assert edited.terminals_after_action(s, a) == rebuilt.terminals_after_action(s, a)


@contextlib.contextmanager
def _lifts_checked_against_the_rebuild():
    """Every lift inside the block must give what the rebuild gives, and
    every composite map what the old composition gives; yields the list of
    checked successors."""
    lift, extend = transform._lift, HistoryMap.extend
    checked = []

    def checked_lift(structure, owner, top, below, mover, mover_block):
        # the predecessor's action masks are filled first, so that the edit
        # has masks to carry
        for s in structure.info_sets:
            for a in structure.feasible_at(s):
                structure.terminals_after_action(s, a)
        new, forward, infoset_map = lift(structure, owner, top, below, mover, mover_block)
        ref, ref_forward, ref_map = lift_rebuild(structure, owner, top, below, mover, mover_block)
        assert forward == ref_forward
        assert infoset_map == ref_map
        _assert_same_indices(new, ref)
        checked.append(new)
        return new, forward, infoset_map

    def checked_extend(comp, step):
        out = extend(comp, step)
        assert (out.forward, out.infoset_map) == composite_extend_reference(
            comp.forward, comp.infoset_map, step
        )
        return out

    with mock.patch.object(transform, "_lift", checked_lift), \
            mock.patch.object(HistoryMap, "extend", checked_extend):
        yield checked


@settings(max_examples=60, deadline=None)
@given(seeded_structures(), st.integers(0, 2**32 - 1))
@example(g_red1(), 1)
@example(g_ent(), 2)
def test_each_lift_equals_the_rebuild(structure, seed):
    assume(check_uo(structure)[0])
    with _lifts_checked_against_the_rebuild():
        minimize_uo(structure)
        minimize_uo(structure, rng=random.Random(seed))
        backward_compactify(structure)


# Player 1 names an action R at the root and again one move later, so the
# coalescing of the later set into the root's replicates L under the name R:
# the replica equals the kept history R.  Actions shared by two of one
# player's sets are malformed, and the step refuses the merge a fresh build
# of the new history set would make.
SHARED_NAME = egs.parse(
    'egs 1\nplayer 1 actions L,R,X\nplayer 2 actions c,d\n'
    'node "" 1:L|R\nnode "L" 1:R|X\nnode "R" 2:c|d\n'
)


def test_a_coalescing_whose_replica_equals_a_kept_history_is_refused():
    assert egs.validate_structure(SHARED_NAME).axioms() == ("own-disjoint",)
    opp = egs.find_coalescing(SHARED_NAME)[0]
    assert opp.mover.members == (path({"1": "L"}),)
    with pytest.raises(EgsError, match="an image of the step equals a kept history"):
        apply_coalescing(SHARED_NAME, opp)


def _is_at_the_root(g):
    mover = g.partitions["1"][0]
    return apply_is, egs.IsOpp("1", ROOT, mover.members, mover)


def _first_coalescing(g):
    return apply_coalescing, egs.find_coalescing(g)[0]


def _with_history(text, label):
    g = egs.parse(text)
    extra = History(tuple(make_profile({"1": a}) for a in label.split("/")))
    return Structure(g.players, g.actions, g.histories + (extra,), g.partitions)


HEAD = "egs 1\nplayer 1 actions L,R,a,b,c,d,e\nplayer 2 actions u,v,x,y\n"

# Lifts of malformed structures, each of which the lift or one check of the
# structure edit refuses, for the reason in REFUSED_FOR.
CANNOT_CARRY = {
    # y is a terminal in 1's set: the IS gives it one image per action
    "a terminal with two images": (_is_at_the_root, egs.parse(
        HEAD + 'node "" 2:x|y\nnode "x" 1:a|b\ninfoset 1 {"x","y"}\n'
    )),
    # b is not feasible at y: the replica of y for b is a new terminal
    "a terminal with no preimage": (_is_at_the_root, egs.parse(
        HEAD + 'node "" 2:x|y\nnode "x" 1:a|b\nnode "y" 1:a\ninfoset 1 {"x","y"}\n'
    )),
    # the base {'', c} is absent-minded and the mover acts c as well: the
    # replica of L for c is the top c, whose terminal set grows
    "an image equal to a top": (_first_coalescing, egs.parse(
        HEAD + 'node "" 1:L|c\nnode "c" 1:L|c\nnode "L" 1:c|d\nnode "c/L" 1:c|d\n'
        'infoset 1 {"","c"}\ninfoset 1 {"L","c/L"}\n'
    )),
    # e is feasible at L/v only, so the image e/v of L/v/e has no parent
    "an image without a parent": (_first_coalescing, egs.parse(
        HEAD + 'node "" 1:L|R\nnode "L" 2:u|v\nnode "L/u" 1:a|b\nnode "L/v" 1:a|b|e\n'
        'infoset 1 {"L/u","L/v"}\n'
    )),
    # the history a/c lacks its parent until the replica a of L appears
    "a kept history whose parent is an image": (_first_coalescing, _with_history(
        HEAD + 'node "" 1:L|R\nnode "L" 1:a|b\n', "a/c"
    )),
    # the base {'', L} is absent-minded: its member L lies in the region of ''
    "a top in the region": (_first_coalescing, egs.parse(
        HEAD + 'node "" 1:L|R\nnode "L" 1:L|R\nnode "L/L" 1:a|b\nnode "L/R" 1:a|b\n'
        'infoset 1 {"","L"}\ninfoset 1 {"L/L","L/R"}\n'
    )),
}


REFUSED_FOR = {
    "a terminal with two images": "the terminal 'y' has no image of its own",
    "a terminal with no preimage":
        "the terminals do not map one to one onto the terminal images",
    "an image equal to a top": "an image of the step equals a kept history",
    "an image without a parent": "the lift has no image for 'L/v/e'",
    "a kept history whose parent is an image": "the predecessor of the step is not a tree",
    "a top in the region": "a top of the step lies in its region",
}


@pytest.mark.parametrize("case", CANNOT_CARRY)
def test_a_step_refuses_a_malformed_lift(case):
    opportunity, g = CANNOT_CARRY[case]
    assert not egs.validate_structure(g).ok
    apply, opp = opportunity(g)
    with pytest.raises(EgsError, match=REFUSED_FOR[case]):
        apply(g, opp)


def _scans_agreeing_with_dictation(g) -> int:
    """Check that the scan for histories unrelated to the sub-mover, the
    one `apply_is_reference` refuses a broken dictation by, finds nothing
    exactly when the sub-mover dictates, for each anchored part and the
    part less each of its members; the number of dictating parts."""
    dictating = 0
    for (s, anchor), below in anchored_members_reference(g).items():
        for d in (below, *(below[:k] + below[k + 1:] for k in range(len(below)))):
            if d:
                found = unrelated_to_submover_reference(g, egs.IsOpp(s.owner, anchor, d, s))
                assert (found == []) == egs.dictates(g, anchor, d, s.owner)
                dictating += not found
    return dictating


@settings(max_examples=150, deadline=None)
@given(seeded_structures())
@example(g_absent_minded())
@example(g_red1())
def test_a_dictating_sub_mover_leaves_no_history_unrelated_to_it(structure):
    _scans_agreeing_with_dictation(structure)


def test_a_dictating_sub_mover_leaves_no_history_unrelated_to_it_on_the_corpora():
    assert sum(map(_scans_agreeing_with_dictation, uo_corpus(40, seed=41))) >= 5
    malformed = [g for _, g in CANNOT_CARRY.values()]
    assert sum(map(_scans_agreeing_with_dictation, malformed)) >= 3


def test_each_lift_of_a_synthesized_opportunity_equals_the_rebuild():
    lifts = 0
    for structure in vnm_corpus(30, seed=5):
        with _lifts_checked_against_the_rebuild() as checked:
            for opp in find_synthesized(structure):
                apply_phi(structure, opp)
        lifts += len(checked)
    assert lifts > 0
