"""Immutable value types for extensive game structures with simultaneous moves.

A history is a sequence of action profiles; a profile maps each player who
moves at that point to the action she takes, so simultaneous moves need no
component ordering.  A structure bundles the player set, the per-player
action alphabets, a prefix-closed history set, and per-player information
partitions.  Everything derived (terminals, active players, feasible
actions, subtree terminal sets) is computed once and cached; all values are
immutable and safe to share across threads.

The order-and-control index is derived the same way, lazily, on first use:
one walk from the root records, for each information set, the sets with a
member strictly before one of its members, and for each anchor strictly
before a member at which the set's owner is inactive, the members below
it.  The terminal set reached by each action at each set is memoised and
filed by (owner, terminal set).  Order
relations, the unambiguous-ordering check, coalescing and
interchange/simultanizing discovery read these instead of scanning pairs.
Histories and information sets compute their hash once, at construction,
so every lookup costs O(1) rather than O(depth).
"""

from __future__ import annotations

from dataclasses import dataclass


class EgsError(Exception):
    """Base error for this package."""


Profile = tuple[tuple[str, str], ...]  # ((player, action), ...) sorted by player


def make_profile(entries: dict[str, str]) -> Profile:
    if not entries:
        raise EgsError("action profile must be non-empty")
    return tuple(sorted(entries.items()))


@dataclass(frozen=True)
class History:
    """A finite sequence of action profiles from the root."""

    moves: tuple[Profile, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.moves,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild, never copy _hash
        return History, (self.moves,)

    @property
    def length(self) -> int:
        return len(self.moves)

    def prefix(self, n: int) -> "History":
        return History(self.moves[:n])

    @property
    def parent(self) -> "History":
        if not self.moves:
            raise EgsError("the root history has no predecessor")
        return History(self.moves[:-1])

    def extend(self, profile: Profile) -> "History":
        return History(self.moves + (profile,))

    def move_at(self, index: int) -> Profile:
        return self.moves[index]

    def is_prefix_of(self, other: "History") -> bool:
        n = len(self.moves)
        return n <= len(other.moves) and other.moves[:n] == self.moves

    def label(self) -> str:
        """Canonical display form: profiles joined by '/', singleton
        profiles shown as the bare action, others parenthesised with
        entries 'player=action' sorted by player."""
        parts = []
        for profile in self.moves:
            if len(profile) == 1:
                parts.append(profile[0][1])
            else:
                parts.append("(" + ",".join(f"{p}={a}" for p, a in profile) + ")")
        return "/".join(parts)

    def __repr__(self) -> str:
        return f"History({self.label()!r})"


ROOT = History()


def is_prefix(x: History, y: History) -> bool:
    """Sequence-prefix order on histories; the empty history precedes all."""
    return x.is_prefix_of(y)


def strictly_precedes(x: History, y: History) -> bool:
    return x.length < y.length and x.is_prefix_of(y)


@dataclass(frozen=True)
class InfoSet:
    """An information set: the owning player plus a block of her histories.

    Two information sets with equal member sets but different owners are
    distinct values, which the identity of this type preserves.
    """

    owner: str
    members: tuple[History, ...]

    def __post_init__(self):
        ordered = tuple(sorted(set(self.members), key=lambda h: h.moves))
        object.__setattr__(self, "members", ordered)
        if not ordered:
            raise EgsError("an information set needs at least one member")
        object.__setattr__(self, "_hash", hash((self.owner, ordered)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return InfoSet, (self.owner, self.members)

    @property
    def member_set(self) -> frozenset[History]:
        return frozenset(self.members)

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


def history_key(h: History):
    return h.moves


class Structure:
    """An extensive game structure: players, actions, histories, partitions.

    The constructor canonicalises its inputs and builds derived indices
    defensively, so malformed data can still be represented and then
    reported on by the validator rather than raising here.
    """

    def __init__(
        self,
        players: tuple[str, ...] | list[str],
        actions: dict[str, frozenset[str]],
        histories,
        partitions: dict[str, tuple[InfoSet, ...]] | dict[str, list[InfoSet]],
    ):
        self.players: tuple[str, ...] = tuple(players)
        self.actions: dict[str, frozenset[str]] = {
            p: frozenset(a) for p, a in actions.items()
        }
        hist = sorted(set(histories), key=history_key)
        self.histories: tuple[History, ...] = tuple(hist)
        self._hist_set = frozenset(hist)
        self.partitions: dict[str, tuple[InfoSet, ...]] = {
            p: tuple(sorted(blocks, key=lambda s: tuple(history_key(m) for m in s.members)))
            for p, blocks in partitions.items()
        }
        self._build_indices()

    def _build_indices(self) -> None:
        by_moves = {h.moves: h for h in self.histories}
        children: dict[History, list[History]] = {h: [] for h in self.histories}
        for h in self.histories:
            parent = by_moves.get(h.moves[:-1]) if h.moves else None
            if parent is not None:
                children[parent].append(h)
        # appended in history order, so each child list is already sorted
        self._children = {h: tuple(c) for h, c in children.items()}
        self.terminals: tuple[History, ...] = tuple(
            h for h in self.histories if not self._children[h]
        )
        self.nonterminals: tuple[History, ...] = tuple(
            h for h in self.histories if self._children[h]
        )
        self._terminal_set = frozenset(self.terminals)
        # Active players at h: every player in a child's last move, with the
        # actions taken there.  The validator checks that all children agree.
        active: dict[History, tuple[str, ...]] = {}
        feasible: dict[tuple[History, str], tuple[str, ...]] = {}
        for h in self.nonterminals:
            taken: dict[str, set[str]] = {}
            for kid in self._children[h]:
                for p, a in kid.moves[-1]:
                    taken.setdefault(p, set()).add(a)
            active[h] = tuple(sorted(taken))
            for p, acts in taken.items():
                feasible[(h, p)] = tuple(sorted(acts))
        self._active = active
        self._feasible = feasible
        index: dict[tuple[str, History], InfoSet] = {}
        for p, blocks in self.partitions.items():
            for block in blocks:
                for m in block.members:
                    index[(p, m)] = block
        self._infoset_index = index
        self.info_sets: tuple[InfoSet, ...] = tuple(
            s for p in self.players for s in self.partitions.get(p, ())
        )
        self._info_set_set = frozenset(
            s for p, blocks in self.partitions.items() for s in blocks if s.owner == p
        )
        self._z_cache: dict[History, frozenset[History]] = {}
        self._za_cache: dict[tuple[InfoSet, str], frozenset[History]] = {}
        self._earlier: dict[InfoSet, frozenset[InfoSet]] | None = None
        self._below: dict[tuple[InfoSet, History], tuple[History, ...]] | None = None
        self._links: dict | None = None
        self._plan_space = None  # strategy.plan_space fills it on first use

    # -- basic queries -------------------------------------------------

    @property
    def root(self) -> History:
        return ROOT

    def has_history(self, h: History) -> bool:
        return h in self._hist_set

    def is_terminal(self, h: History) -> bool:
        return h in self._terminal_set

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

    def terminals_below(self, h: History) -> frozenset[History]:
        """Z(h): terminals reachable from h."""
        z = self._z_cache
        cached = z.get(h)
        if cached is not None:
            return cached
        if h not in self._hist_set:
            raise EgsError(f"{h.label()!r} is not a history of this structure")
        # Post-order over the subtree, so depth costs no recursion.
        stack = [(h, False)]
        while stack:
            g, expanded = stack.pop()
            if g in z:
                continue
            kids = self._children[g]
            if not kids:
                z[g] = frozenset((g,))
            elif expanded:
                z[g] = frozenset().union(*(z[c] for c in kids))
            else:
                stack.append((g, True))
                stack.extend((c, False) for c in kids if c not in z)
        return z[h]

    def terminals_below_set(self, hs) -> frozenset[History]:
        """Z(U) for a set of histories."""
        zs = [self.terminals_below(h) for h in hs]
        return zs[0] if len(zs) == 1 else frozenset().union(*zs)

    def terminals_after_action(self, s: InfoSet, action: str) -> frozenset[History]:
        """Z(h_i a_i): terminals reached when the owner picks `action` at s."""
        key = (s, action)
        out = self._za_cache.get(key)
        if out is None:
            kids = [
                kid for m in s.members for kid in self._children[m]
                if (s.owner, action) in kid.moves[-1]
            ]
            out = self._za_cache[key] = self.terminals_below_set(kids)
        return out

    # -- order and control index ----------------------------------------

    def _earlier_sets(self, s: InfoSet) -> frozenset[InfoSet]:
        """The information sets with a member strictly before a member of s."""
        if self._earlier is None:
            self._walk_order()
        return self._earlier[s]

    def _anchored_members(self) -> dict[tuple[InfoSet, History], tuple[History, ...]]:
        """For each (s, anchor) with the anchor strictly before a member of s
        and the owner of s inactive at it, the members of s below the anchor."""
        if self._below is None:
            self._walk_order()
        return self._below

    def _walk_order(self) -> None:
        """Fill both order indices in one iterative walk from the root that
        carries the current path; the cost is O(sum of member depths)."""
        sets_at: dict[History, list[InfoSet]] = {}
        for s in self.info_sets:
            for m in s.members:
                sets_at.setdefault(m, []).append(s)
        earlier: dict[InfoSet, set[InfoSet]] = {s: set() for s in self.info_sets}
        below: dict[tuple[InfoSet, History], list[History]] = {}
        active = self._active
        path: list[History] = []
        path_sets: list[list[InfoSet]] = []
        unreached = dict(sets_at)
        stack = [ROOT] if ROOT in self._hist_set else []
        while stack:
            h = stack.pop()
            depth = len(h.moves)
            del path[depth:], path_sets[depth:]
            here = unreached.pop(h, ())
            for s in here:
                earlier[s].update(*path_sets)
                for g in path:
                    if s.owner not in active[g]:
                        below.setdefault((s, g), []).append(h)
            path.append(h)
            path_sets.append(here)
            stack.extend(reversed(self._children[h]))
        # Members the walk cannot reach (a malformed tree) are read prefix by
        # prefix, so the index answers for every partition it is given.
        for h, here in unreached.items():
            for n in range(h.length):
                g = h.prefix(n)
                for s in here:
                    earlier[s].update(sets_at.get(g, ()))
                    if self._children.get(g) and s.owner not in active[g]:
                        below.setdefault((s, g), []).append(h)
        self._earlier = {s: frozenset(e) for s, e in earlier.items()}
        self._below = {k: tuple(v) for k, v in below.items()}

    def _controllers(
        self, owner: str, z: frozenset[History]
    ) -> tuple[tuple[InfoSet, str], ...]:
        """The (set, action) pairs of the owner, in set then action order,
        whose action reaches exactly the terminals z."""
        if self._links is None:
            links: dict[tuple[str, frozenset[History]], list[tuple[InfoSet, str]]] = {}
            for s in self.info_sets:
                for a in self.feasible_at(s):
                    links.setdefault(
                        (s.owner, self.terminals_after_action(s, a)), []
                    ).append((s, a))
            self._links = {k: tuple(v) for k, v in links.items()}
        return self._links.get((owner, z), ())

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


def build_structure(players, actions, histories, partitions) -> Structure:
    """Convenience constructor taking loose containers."""
    return Structure(
        tuple(players),
        {p: frozenset(a) for p, a in actions.items()},
        histories,
        {p: tuple(blocks) for p, blocks in partitions.items()},
    )


# -- order relations between information sets ---------------------------


def relation(structure: Structure, a: InfoSet, b: InfoSet) -> RelationSet:
    """Compute which of <, ~, > hold between two information sets of G."""
    structure.require_info_set(a)
    structure.require_info_set(b)
    return RelationSet(
        before=a in structure._earlier_sets(b),
        simultaneous=not a.member_set.isdisjoint(b.members),
        after=b in structure._earlier_sets(a),
    )


def _sim_class_index(structure: Structure) -> dict[History, int]:
    """Union-find over non-terminal histories: one class per transitive-
    simultaneity component (co-membership in some information set)."""
    parent: dict[History, History] = {}

    def find(x: History) -> History:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for h in structure.nonterminals:
        parent[h] = h
    for s in structure.info_sets:
        first = s.members[0]
        if first not in parent:
            continue
        for m in s.members[1:]:
            if m in parent:
                ra, rb = find(first), find(m)
                if ra != rb:
                    parent[rb] = ra
    reps: dict[History, int] = {}
    out: dict[History, int] = {}
    for h in structure.nonterminals:
        r = find(h)
        if r not in reps:
            reps[r] = len(reps)
        out[h] = reps[r]
    return out


def transitively_simultaneous(structure: Structure, a: InfoSet, b: InfoSet) -> bool:
    """True iff the member histories of a and b are linked by a chain of
    co-memberships (the reflexive-symmetric-transitive closure of ~)."""
    idx = _sim_class_index(structure)
    classes_a = {idx[m] for m in a.members if m in idx}
    classes_b = {idx[m] for m in b.members if m in idx}
    if a == b:
        return True
    return bool(classes_a & classes_b)


def sim_classes(structure: Structure) -> tuple[tuple[InfoSet, ...], ...]:
    """Partition all information sets into transitive-simultaneity classes.

    All members of one information set land in one history class, so each
    set belongs to exactly one class.
    """
    idx = _sim_class_index(structure)
    by_class: dict[int, list[InfoSet]] = {}
    for s in structure.info_sets:
        c = idx[s.members[0]]
        by_class.setdefault(c, []).append(s)
    ordered = []
    for c in sorted(
        by_class,
        key=lambda c: min(
            tuple(history_key(m) for m in s.members) for s in by_class[c]
        ),
    ):
        ordered.append(tuple(sorted(
            by_class[c], key=lambda s: (s.owner, tuple(history_key(m) for m in s.members))
        )))
    return tuple(ordered)


