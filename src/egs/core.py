"""Immutable value types for extensive game structures with simultaneous moves.

A history is a sequence of action profiles; a profile maps each player who
moves at that point to the action she takes, so simultaneous moves need no
component ordering.  A structure bundles the player set, the per-player
action alphabets, a prefix-closed history set, and per-player information
partitions.  Everything derived (terminals, active players, feasible
actions, subtree terminal sets, transitive-simultaneity classes) is
computed once per structure and cached; all values are immutable and safe
to share across threads.

Terminal sets are int bitsets over positions in `terminals`, filled for
every history in one pass from the last nonterminal back (a child sorts
after its parent); the public queries decode them to frozensets.  The
order-and-control index is derived lazily: one walk from the root records
each set's earlier sets (those with a member strictly before one of its
members) as a bitset over positions in `info_sets`, and for each anchor
strictly before a member at which the set's owner is inactive, the members
below it.  Each (set, action) terminal mask is filed by (owner, mask).
Order relations, the UO check, coalescing and IS discovery test these bits
instead of scanning pairs.  Histories and information sets hash once, at
construction, so every lookup costs O(1) rather than O(depth).
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
        self._position = {s: i for i, s in enumerate(self.info_sets)}
        self._z: dict[History, int] | None = None
        self._za_cache: dict[InfoSet, dict[str, int]] = {}
        self._earlier: dict[InfoSet, int] | None = None
        self._below: dict[tuple[InfoSet, History], tuple[History, ...]] | None = None
        self._links: dict[tuple[str, int], tuple[tuple[InfoSet, str], ...]] | None = None
        self._sim_classes: tuple[tuple[InfoSet, ...], ...] | None = None
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

    def _terminal_masks(self) -> dict[History, int]:
        """Z(h) of every history as a bitset over positions in `terminals`,
        filled from the last nonterminal back: a child sorts after its
        parent."""
        if self._z is None:
            z = {t: 1 << i for i, t in enumerate(self.terminals)}
            for h in reversed(self.nonterminals):
                # the children's subtrees are disjoint, so their sum is their union
                z[h] = sum(z[c] for c in self._children[h])
            self._z = z
        return self._z

    def _terminal_mask_set(self, hs) -> int:
        z = self._terminal_masks()
        mask = 0
        for h in hs:
            if h not in z:
                raise EgsError(f"{h.label()!r} is not a history of this structure")
            mask |= z[h]
        return mask

    def _action_mask(self, s: InfoSet, action: str) -> int:
        """Z(h_i a_i) as a mask; one pass over the children of s's members
        fills the masks of all its actions."""
        masks = self._za_cache.get(s)
        if masks is None:
            z = self._terminal_masks()
            masks = self._za_cache[s] = {}
            for m in s.members:
                for kid in self._children[m]:
                    for p, a in kid.moves[-1]:
                        if p == s.owner:
                            masks[a] = masks.get(a, 0) | z[kid]
        return masks.get(action, 0)

    def _decode(self, mask: int) -> frozenset[History]:
        return frozenset(t for i, t in enumerate(self.terminals) if mask >> i & 1)

    def terminals_below(self, h: History) -> frozenset[History]:
        """Z(h): terminals reachable from h."""
        return self._decode(self._terminal_mask_set((h,)))

    def terminals_below_set(self, hs) -> frozenset[History]:
        """Z(U) for a set of histories."""
        return self._decode(self._terminal_mask_set(hs))

    def terminals_after_action(self, s: InfoSet, action: str) -> frozenset[History]:
        """Z(h_i a_i): terminals reached when the owner picks `action` at s."""
        return self._decode(self._action_mask(s, action))

    # -- order and control index ----------------------------------------

    def _earlier_masks(self) -> dict[InfoSet, int]:
        """For each set s, the information sets with a member strictly
        before a member of s, as a bitset over positions in `info_sets`."""
        if self._earlier is None:
            self._walk_order()
        return self._earlier

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
        position = self._position
        earlier = dict.fromkeys(self.info_sets, 0)
        below: dict[tuple[InfoSet, History], list[History]] = {}
        active = self._active
        path: list[History] = []
        seen = [0]  # seen[d]: the sets with a member among path[:d]
        unreached = dict(sets_at)
        stack = [ROOT] if ROOT in self._hist_set else []
        while stack:
            h = stack.pop()
            depth = len(h.moves)
            del path[depth:], seen[depth + 1:]
            before = here = seen[depth]
            for s in unreached.pop(h, ()):
                earlier[s] |= before
                here |= 1 << position[s]
                for g in path:
                    if s.owner not in active[g]:
                        below.setdefault((s, g), []).append(h)
            path.append(h)
            seen.append(here)
            stack.extend(reversed(self._children[h]))
        # Members the walk cannot reach (a malformed tree) are read prefix by
        # prefix, so the index answers for every partition it is given.
        for h, here in unreached.items():
            for n in range(h.length):
                g = h.prefix(n)
                for s in here:
                    for t in sets_at.get(g, ()):
                        earlier[s] |= 1 << position[t]
                    if self._children.get(g) and s.owner not in active[g]:
                        below.setdefault((s, g), []).append(h)
        self._earlier = earlier
        self._below = {k: tuple(v) for k, v in below.items()}

    def _controllers(self, owner: str, z: int) -> tuple[tuple[InfoSet, str], ...]:
        """The (set, action) pairs of the owner, in set then action order,
        whose action reaches exactly the terminals of the mask z."""
        if self._links is None:
            links: dict[tuple[str, int], list[tuple[InfoSet, str]]] = {}
            for s in self.info_sets:
                for a in self.feasible_at(s):
                    links.setdefault((s.owner, self._action_mask(s, a)), []).append((s, a))
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
    earlier, position = structure._earlier_masks(), structure._position
    return RelationSet(
        before=bool(earlier[b] >> position[a] & 1),
        simultaneous=not a.member_set.isdisjoint(b.members),
        after=bool(earlier[a] >> position[b] & 1),
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
    set belongs to exactly one class.  Computed once per structure.
    """
    if structure._sim_classes is None:
        idx = _sim_class_index(structure)
        by_class: dict[int, list[InfoSet]] = {}
        for s in structure.info_sets:
            by_class.setdefault(idx[s.members[0]], []).append(s)

        def members_key(s: InfoSet):
            return tuple(history_key(m) for m in s.members)

        structure._sim_classes = tuple(
            tuple(sorted(group, key=lambda s: (s.owner, members_key(s))))
            for group in sorted(
                by_class.values(), key=lambda group: min(map(members_key, group))
            )
        )
    return structure._sim_classes
