"""Immutable value types for extensive game structures with simultaneous moves.

A history is a sequence of action profiles; a profile maps each player who
moves at that point to the action she takes, so simultaneous moves need no
component ordering.  A structure bundles the player set, the per-player
action alphabets, a prefix-closed history set, and per-player information
partitions.  Everything derived (terminals, active players, feasible
actions, subtree terminal sets, transitive-simultaneity classes) is
computed once per structure: the indices every query needs at
construction, and each fact derived lazily as a cached property of the
structure (`cached_property`, a `functools.cached_property`), which the
first reader computes and every later reader gets as the same object.
All values are immutable and safe to share across threads; two threads
racing on a first read may each compute the fact, and they compute equal
values.

Terminal sets are int bitsets with one bit per terminal, in the order
`_bits`: a fresh build numbers the terminals in history order and fills
every history's set on first use, from the last nonterminal back (a child
sorts after its parent); the public queries decode them to frozensets.
A reduction step edits its predecessor instead (see `_build_indices`): it
keeps every history, information set and index entry outside the
rewritten subtrees, gives each terminal's image the terminal's bit, and
indexes only the images and the histories just above them, so the
terminal sets of kept histories carry over unchanged; a malformed
predecessor it cannot carry is refused with an `EgsError`.  The order
index is derived lazily by every structure: one walk from the root gives
each history the bitset, over positions in `info_sets`, of the sets with
a member strictly before it, and each set's earlier sets (those with a
member strictly before one of its members) are the union of its members'
bitsets.  Order relations, the UO check, coalescing, the non-crossing
test and IS discovery (which climbs from each member while the terminal
sets stay inside the set's) test these bits instead of scanning pairs.

Histories and information sets are interned: there is one object per
value, found in a process-wide table of weak references (which keeps no
object alive), so equality and hashing are by identity and a dict or set
lookup on either never calls into Python.  A history is a node filed under
its parent and its last move, so `extend` and `parent` take constant time
and a lookup hashes an address and one profile, never the whole move
sequence; `moves` is kept on the node for labels, keys and pickling.  An
information set is filed under its owner and its member set.  A lookup
that finds the live object takes no lock; a miss files under one, so
threads sharing values never get two objects for one value.
"""

from __future__ import annotations

import functools
import operator
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass


class EgsError(Exception):
    """Base error for this package."""


class cached_property(functools.cached_property):
    """`functools.cached_property`, storing the value as assigning the
    attribute would.  The standard one stores it through the instance's
    `__dict__`, and on CPython 3.11 and 3.12 an instance whose `__dict__`
    has been read keeps its attributes in that dict from then on, where
    every later read of them is slower: a few percent of a `dominance`
    item, spent on reads of the game, its plan space and its structures."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)
        return value


Profile = tuple[tuple[str, str], ...]  # ((player, action), ...) sorted by player


class _Ref(weakref.ref):
    """A weak reference that carries its table key, as `weakref.KeyedRef`
    does, but built without a call into Python."""

    __slots__ = ("key",)


# The intern table, shared by histories and information sets: a history is
# filed under its parent and its last move, a set under its owner and its
# members, each key to a weak reference to the one live object.  A lookup
# that finds the live object takes no lock; a miss files its new object
# under the lock, so two threads never make two objects for one value.  A
# freed object's callback removes its entry only if that entry is still
# dead (as `weakref.WeakValueDictionary` does), since a later miss may have
# put a live object under the same key; it takes no lock, so a collection
# that runs while the lock is held cannot deadlock.
_interned: dict[tuple, _Ref] = {}
_intern_lock = threading.Lock()


def _forget(ref: _Ref, table=_interned, remove=_remove_dead_weakref) -> None:
    # the defaults bind the table, so an object freed at exit still finds it
    remove(table, ref.key)


def _file(key: tuple, obj):
    """File a new object under key, unless another thread filed a live one
    since the caller's lookup; returns the one filed."""
    ref = _Ref(obj, _forget)
    ref.key = key
    with _intern_lock:
        found = _interned.setdefault(key, ref)
        if found is not ref:
            live = found()
            if live is not None:
                return live
            _interned[key] = ref  # dead, its callback not yet run
    return obj


def make_profile(entries: dict[str, str]) -> Profile:
    if not entries:
        raise EgsError("action profile must be non-empty")
    return tuple(sorted(entries.items()))


def profile_label(profile: Profile) -> str:
    """A profile as history labels show it: a one-mover profile is its bare
    action, others '(player=action,...)' sorted by player."""
    if len(profile) == 1:
        return profile[0][1]
    return "(" + ",".join(f"{p}={a}" for p, a in profile) + ")"


@dataclass(frozen=True, eq=False, init=False)
class History:
    """A finite sequence of action profiles from the root.

    Interned: a history is a node holding its parent, its length and its
    moves, and `extend` returns the one live node for its parent and last
    move, so two histories are equal exactly when they are the same object,
    and equality and hashing are the identity's, computed in C.
    `History(moves)` extends the root move by move."""

    __slots__ = ("_parent", "length", "moves", "__weakref__")
    moves: tuple[Profile, ...]

    def __new__(cls, moves: tuple[Profile, ...] = ()):
        h = ROOT
        for profile in moves:
            h = h.extend(profile)
        return h

    def __reduce__(self):
        # rebuilt through the constructor, so unpickling finds the live object
        return History, (self.moves,)

    def prefix(self, n: int) -> "History":
        """The history of `moves[:n]`, climbing the parents."""
        h = self
        for _ in range(self.length - len(range(self.length)[:n])):
            h = h._parent
        return h

    @property
    def parent(self) -> "History":
        if self._parent is None:
            raise EgsError("the root history has no predecessor")
        return self._parent

    def extend(self, profile: Profile) -> "History":
        key = (self, profile)
        ref = _interned.get(key)
        if ref is not None:
            h = ref()
            if h is not None:
                return h
        h = object.__new__(History)
        object.__setattr__(h, "_parent", self)
        object.__setattr__(h, "length", self.length + 1)
        object.__setattr__(h, "moves", self.moves + (profile,))
        return _file(key, h)

    def move_at(self, index: int) -> Profile:
        return self.moves[index]

    def is_prefix_of(self, other: "History") -> bool:
        n = self.length
        return n <= other.length and other.moves[:n] == self.moves

    def label(self) -> str:
        """Canonical display form: each profile's `profile_label`, joined
        by '/'."""
        return "/".join(map(profile_label, self.moves))

    def __repr__(self) -> str:
        return f"History({self.label()!r})"


ROOT = object.__new__(History)
object.__setattr__(ROOT, "_parent", None)
object.__setattr__(ROOT, "length", 0)
object.__setattr__(ROOT, "moves", ())


def is_prefix(x: History, y: History) -> bool:
    """Sequence-prefix order on histories; the empty history precedes all."""
    return x.is_prefix_of(y)


def strictly_precedes(x: History, y: History) -> bool:
    return x.length < y.length and x.is_prefix_of(y)


@dataclass(frozen=True, eq=False, init=False)
class InfoSet:
    """An information set: the owning player plus a block of her histories.

    Interned like a history, under the owner and the members as a set, so
    two information sets are equal exactly when they are the same object;
    equal member sets under different owners are distinct values.
    """

    __slots__ = ("owner", "members", "member_set", "_members_key", "__weakref__")
    owner: str
    members: tuple[History, ...]

    def __new__(cls, owner: str, members):
        member_set = frozenset(members)
        key = (owner, member_set)
        ref = _interned.get(key)
        if ref is not None:
            s = ref()
            if s is not None:
                return s
        if not member_set:
            raise EgsError("an information set needs at least one member")
        s = object.__new__(cls)
        ordered = tuple(sorted(member_set, key=history_key))
        object.__setattr__(s, "owner", owner)
        object.__setattr__(s, "members", ordered)
        # the members as a set, and the order of blocks in a partition
        object.__setattr__(s, "member_set", member_set)
        object.__setattr__(s, "_members_key", tuple(h.moves for h in ordered))
        return _file(key, s)

    def __reduce__(self):
        return InfoSet, (self.owner, self.members)

    def __repr__(self) -> str:
        names = ",".join(h.label() or "''" for h in self.members)
        return f"InfoSet({self.owner}:{{{names}}})"


@dataclass(frozen=True)
class RelationSet:
    """Which of the three order relations hold between two information sets."""

    before: bool
    simultaneous: bool
    after: bool

    @property
    def related(self) -> bool:
        return self.before or self.simultaneous or self.after

    @property
    def weakly_follows(self) -> bool:
        # second argument weakly follows the first: before or simultaneous
        return self.before or self.simultaneous


# a history's sort key, its moves: lexicographic, a prefix first
history_key = operator.attrgetter("moves")


def bit_indices(bits: int) -> list[int]:
    """The positions of the set bits of a bitset, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class Structure:
    """An extensive game structure: players, actions, histories, partitions.

    The constructor canonicalises its inputs and builds derived indices
    defensively, so malformed data can still be represented and then
    reported on by the validator rather than raising here.  `_edit` is
    private to `transform._lift`, which builds a successor by editing its
    predecessor, and refuses a malformed one (see `_build_indices`).
    """

    def __init__(
        self,
        players: tuple[str, ...] | list[str],
        actions: dict[str, frozenset[str]],
        histories,
        partitions: dict[str, tuple[InfoSet, ...]] | dict[str, list[InfoSet]],
        _edit=None,
    ):
        self.players: tuple[str, ...] = tuple(players)
        self.actions: dict[str, frozenset[str]] = {
            p: frozenset(a) for p, a in actions.items()
        }
        self.partitions: dict[str, tuple[InfoSet, ...]] = {
            p: tuple(sorted(blocks, key=lambda s: s._members_key))
            for p, blocks in partitions.items()
        }
        self.info_sets: tuple[InfoSet, ...] = tuple(
            s for p in self.players for s in self.partitions.get(p, ())
        )
        self._info_set_set = frozenset(
            s for p, blocks in self.partitions.items() for s in blocks if s.owner == p
        )
        self._build_indices(frozenset(histories), *(_edit or ()))

    def _build_indices(
        self, histories: frozenset, pred=None, region=None, forward=None, dropped=(), added=()
    ) -> None:
        """Index the histories and information sets: history order, child
        lists, active players, feasible actions, Z(h) masks and the set of
        each (player, member); an action's terminal mask is read, not kept.

        With no predecessor every history and set is new, and a terminal's
        bit is its position in `terminals`.  An edit (`_lift` passes its
        predecessor; the region, which maps each rewritten history, whole
        subtrees, to the kept top above it; forward; and the (player, block)
        pairs it drops and adds) keeps every entry outside the region and
        indexes only the region's images, the tops and the added blocks,
        each image terminal taking the bit of the terminal it replaces.
        It raises `EgsError` naming the condition where it could not give
        what a fresh build gives: a predecessor that is not a tree, an image
        equal to a kept history, a top in the region, an image without a
        parent, terminals not one to one with the terminal images, or
        overlapping blocks.  A fresh build refuses nothing, so the validator
        can report on a malformed structure.
        """
        if pred is None:
            new, tops, region = sorted(histories, key=history_key), (), {}
            children, active, feasible, index = {}, {}, {}, {}
            blocks = [(p, s) for p, bs in self.partitions.items() for s in bs]
        else:
            images = {h for g in region for h in forward[g]}
            tops = set(region.values())
            if not pred._regular:
                raise EgsError("the predecessor of the step is not a tree")
            if len(histories) != len(pred.histories) - len(region) + len(images):
                raise EgsError("an image of the step equals a kept history")
            if not region.keys().isdisjoint(tops):
                raise EgsError("a top of the step lies in its region")
            new = sorted(images, key=history_key)
            children, active, feasible = (
                dict(pred._children), dict(pred._active), dict(pred._feasible)
            )
            z, bits, bit_of = dict(pred._z), list(pred._bits), {}
            # A top's entries are recomputed below.  Its players all stay
            # active (the region's roots gain only the owner), so none of its
            # entries goes stale.
            for g in region:
                mask = z.pop(g)
                if children.pop(g):
                    for p in active.pop(g):
                        del feasible[(g, p)]
                    continue
                img = forward[g]
                if len(img) != 1 or img[0] in bit_of:
                    raise EgsError(f"the terminal {g.label()!r} has no image of its own")
                bit_of[img[0]] = mask
                bits[mask.bit_length() - 1] = img[0]
            index, blocks = dict(pred._infoset_index), added
            for p, s in dropped:
                for m in s.members:
                    del index[(p, m)]
        # Child lists of the new histories and the tops, found by parent.
        kids = [[] for _ in new]
        by_parent = dict(zip(new, kids))
        for t in tops:
            by_parent[t] = [c for c in children[t] if c not in region]
        regular = True
        for h in new:
            if h.length:
                siblings = by_parent.get(h._parent)
                if siblings is not None:
                    siblings.append(h)
                elif pred is None:
                    regular = False
                else:
                    raise EgsError(f"the image {h.label()!r} has no parent")
        changed = list(zip(new, map(tuple, kids)))  # appended in order: sorted
        changed.extend((t, tuple(sorted(by_parent[t], key=history_key))) for t in tops)
        # Active players at h: every player in a child's last move, with the
        # actions taken there.  The validator checks that all children agree.
        for h, c in changed:
            children[h] = c
            if not c:
                continue
            taken: dict[str, set[str]] = {}
            for kid in c:
                for p, a in kid.moves[-1]:
                    taken.setdefault(p, set()).add(a)
            active[h] = tuple(sorted(taken))
            for p, acts in taken.items():
                feasible[(h, p)] = tuple(sorted(acts))
        new_terminals = [h for h, c in changed if not c]
        if pred is None:
            order, terminals = new, new_terminals
            nonterminals = [h for h, c in changed if c]
        else:
            if bit_of.keys() != set(new_terminals):
                raise EgsError("the terminals do not map one to one onto the terminal images")
            z.update(bit_of)
            # the kept histories and the images, each in history order, merged
            order = sorted([h for h in pred.histories if h not in region] + new, key=history_key)
            terminals = [h for h in order if not children[h]]
            nonterminals = [h for h in order if children[h]]
            for h, c in reversed(changed[:len(new)]):
                if c:
                    z[h] = sum(z[k] for k in c)
        size = len(index)
        for p, s in blocks:
            size += len(s.members)
            for m in s.members:
                index[(p, m)] = s
        if size != len(index):
            if pred is not None:
                raise EgsError("the blocks of the step overlap")
            regular = False  # overlapping blocks: the last one wins
        self.histories: tuple[History, ...] = tuple(order)
        self._hist_set = histories
        self._children, self._active, self._feasible = children, active, feasible
        self.terminals: tuple[History, ...] = tuple(terminals)
        self.nonterminals: tuple[History, ...] = tuple(nonterminals)
        # the terminal of each bit: a fresh build's are in history order
        self._bits: tuple[History, ...] = self.terminals if pred is None else tuple(bits)
        if pred is not None:
            self._z = z  # carried and summed; a fresh build derives its own
        self._infoset_index: dict[tuple[str, History], InfoSet] = index
        self._regular = regular

    # -- basic queries -------------------------------------------------

    @property
    def root(self) -> History:
        return ROOT

    def has_history(self, h: History) -> bool:
        return h in self._hist_set

    def is_terminal(self, h: History) -> bool:
        return not self._children.get(h, True)

    def children(self, h: History) -> tuple[History, ...]:
        return self._children[h]

    def active(self, h: History) -> tuple[str, ...]:
        """I(h): the players who move at non-terminal h."""
        return self._active.get(h, ())

    def feasible(self, h: History, player: str) -> tuple[str, ...]:
        """F_i(h): actions feasible for an active player at h."""
        return self._feasible.get((h, player), ())

    def feasible_at(self, s: InfoSet) -> tuple[str, ...]:
        return self.feasible(s.members[0], s.owner)

    def player_histories(self, player: str) -> tuple[History, ...]:
        """H_i: non-terminal histories where the player is active."""
        return tuple(h for h in self.nonterminals if player in self._active[h])

    def info_set_of(self, player: str, h: History) -> InfoSet:
        try:
            return self._infoset_index[(player, h)]
        except KeyError:
            raise EgsError(f"player {player} has no information set at {h.label()!r}")

    def has_info_set(self, s: InfoSet) -> bool:
        return s in self._info_set_set

    def require_info_set(self, s: InfoSet) -> None:
        if not self.has_info_set(s):
            raise EgsError(f"{s!r} is not an information set of this structure")

    # -- subtree terminal sets ------------------------------------------

    @cached_property
    def _z(self) -> dict[History, int]:
        """Z(h) of every history as a bitset in the bit order `_bits`,
        filled from the last history back, a child before its parent; the
        children's subtrees are disjoint, so their sum is their union.  An
        edit sets its own instead, carried from its predecessor."""
        z = {t: 1 << i for i, t in enumerate(self.terminals)}
        for h in reversed(self.nonterminals):
            z[h] = sum(z[c] for c in self._children[h])
        return z

    def _terminal_mask_set(self, hs) -> int:
        z = self._z
        mask = 0
        for h in hs:
            if h not in z:
                raise EgsError(f"{h.label()!r} is not a history of this structure")
            mask |= z[h]
        return mask

    def _action_mask(self, s: InfoSet, action: str) -> int:
        """Z(h_i a_i) as a mask: that of the children of s's members where
        the owner takes the action."""
        choice = (s.owner, action)
        return self._terminal_mask_set(
            kid for m in s.members for kid in self._children[m] if choice in kid.moves[-1]
        )

    def _decode(self, mask: int) -> frozenset[History]:
        return frozenset(t for i, t in enumerate(self._bits) if mask >> i & 1)

    def terminals_below(self, h: History) -> frozenset[History]:
        """Z(h): terminals reachable from h."""
        return self._decode(self._terminal_mask_set((h,)))

    def terminals_below_set(self, hs) -> frozenset[History]:
        """Z(U) for a set of histories."""
        return self._decode(self._terminal_mask_set(hs))

    def terminals_after_action(self, s: InfoSet, action: str) -> frozenset[History]:
        """Z(h_i a_i): terminals reached when the owner picks `action` at s."""
        return self._decode(self._action_mask(s, action))

    # -- order index -----------------------------------------------------

    @cached_property
    def _position(self) -> dict[InfoSet, int]:
        return {s: i for i, s in enumerate(self.info_sets)}

    @cached_property
    def _order(self) -> tuple[dict[InfoSet, int], dict[History, int], dict[History, int]]:
        """The earlier masks, the before-bitsets and the sets at each member,
        all bitsets over positions in `info_sets`.  The sets at h are those
        with h as a member; one walk from the root, parents first, gives
        each history its before-bitset, the sets with a member strictly
        before it; and the earlier mask of a set is the union of its
        members' before-bitsets: the sets with a member strictly before one
        of its members."""
        position = self._position
        at: dict[History, int] = {}
        for s in self.info_sets:
            for m in s.members:
                at[m] = at.get(m, 0) | 1 << position[s]
        before = {ROOT: 0} if ROOT in self._hist_set else {}
        for h in self.histories:
            if h in before:
                seen = before[h] | at.get(h, 0)
                for c in self._children[h]:
                    before[c] = seen
        # Histories and members the walk cannot reach (a malformed tree)
        # climb their parents, so the index answers for every partition.
        for h in self._hist_set.union(at).difference(before):
            seen, g = 0, h._parent
            while g is not None:
                seen |= at.get(g, 0)
                g = g._parent
            before[h] = seen
        earlier = {}
        for s in self.info_sets:
            mask = 0
            for m in s.members:
                mask |= before[m]
            earlier[s] = mask
        return earlier, before, at

    # -- transitive simultaneity -----------------------------------------

    @cached_property
    def _sim_index(self) -> dict[History, int]:
        """Union-find over non-terminal histories: one class per transitive-
        simultaneity component (co-membership in some information set),
        numbered in history order."""
        parent = {h: h for h in self.nonterminals}

        def find(x: History) -> History:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]  # path halving
            return x

        for s in self.info_sets:
            if s.members[0] in parent:
                for m in s.members[1:]:
                    if m in parent:
                        parent[find(m)] = find(s.members[0])
        reps: dict[History, int] = {}
        return {h: reps.setdefault(find(h), len(reps)) for h in self.nonterminals}

    @cached_property
    def _sim_classes(self) -> tuple[tuple[InfoSet, ...], ...]:
        idx = self._sim_index
        by_class: dict[int, list[InfoSet]] = {}
        for s in self.info_sets:
            by_class.setdefault(idx[s.members[0]], []).append(s)
        return tuple(
            tuple(sorted(group, key=lambda s: (s.owner, s._members_key)))
            for group in sorted(
                by_class.values(), key=lambda group: min(s._members_key for s in group)
            )
        )

    @cached_property
    def _plan_counts(self) -> tuple[int, ...]:
        from .strategy import count_plans  # strategy imports this module

        return count_plans(self)

    @cached_property
    def _plan_space(self):
        from .strategy import PlanSpace  # strategy imports this module

        return PlanSpace(self)

    # -- equality -------------------------------------------------------

    def _key(self):
        return (
            self.players,
            tuple(sorted((p, tuple(sorted(a))) for p, a in self.actions.items())),
            self.histories,
            tuple(sorted(
                ((p, tuple(s.members for s in blocks)) for p, blocks in self.partitions.items())
            )),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Structure) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Structure(players={len(self.players)}, histories={len(self.histories)},"
            f" infosets={len(self.info_sets)})"
        )


# -- order relations between information sets ---------------------------


def relation(structure: Structure, a: InfoSet, b: InfoSet) -> RelationSet:
    """Compute which of <, ~, > hold between two information sets of G."""
    structure.require_info_set(a)
    structure.require_info_set(b)
    earlier, position = structure._order[0], structure._position
    return RelationSet(
        before=bool(earlier[b] >> position[a] & 1),
        simultaneous=not a.member_set.isdisjoint(b.members),
        after=bool(earlier[a] >> position[b] & 1),
    )


def transitively_simultaneous(structure: Structure, a: InfoSet, b: InfoSet) -> bool:
    """True iff the member histories of a and b are linked by a chain of
    co-memberships (the reflexive-symmetric-transitive closure of ~)."""
    structure.require_info_set(a)
    structure.require_info_set(b)
    idx = structure._sim_index
    return a == b or not {idx[m] for m in a.members if m in idx}.isdisjoint(
        idx[m] for m in b.members if m in idx
    )


def sim_classes(structure: Structure) -> tuple[tuple[InfoSet, ...], ...]:
    """Partition all information sets into transitive-simultaneity classes.

    All members of one information set land in one history class, so each
    set belongs to exactly one class.
    """
    return structure._sim_classes
