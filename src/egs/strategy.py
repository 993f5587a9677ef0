"""Plans of action, the play mapping, and Z-reduced normal forms.

A plan assigns actions only to the own information sets that remain
reachable given the player's earlier own choices: it must cover every
minimal own set, and a non-minimal set is in the domain exactly when its
unique immediate own predecessor is and the choice there leads to it.
Sets and choices go in block order, the sort key each information set
keeps; a set's own predecessor is found scanning back from its first member.

Each structure keeps one plan space, a cached property of the structure
like its order index: every player's plans under integer indices, held as
their choice tuples from the enumeration `plans` shares, and per history
the bitsets of plans consistent with reaching it, from one root walk.  The
plan space's own derived facts, the `Plan` objects (`plan_lists`, built on
first read), the outcome of every profile and the index of every plan, are
cached properties of it in turn.  Reduced normal forms, the equivalence
route and games read it; the rnf route reads only plan counts, bitsets
and the incidence, so it builds no `Plan`.  `play` remains the reference
for what a single profile reaches.

Plans are counted without enumerating them (`plan_counts`, a cached fact of
the structure): one reverse pass over each player's own-predecessor
forest, the derivation `plans` reads too.

Behavioral equivalence of two structures is an isomorphism of their
reduced normal forms.  The rnf route hands both plan spaces to the
isomorphism engine as they are: their bitsets at the terminals are the
plan-terminal incidence, so no form is tabulated.  For structures with
unambiguous orderings it can also be certified by comparing unique
minimal forms.  Both routes first pass one gate, `_counted_difference`,
on the counted invariants: the terminal count, the players and each
player's plan count.  The rnf route reads the counts off its plan spaces,
the minimal route from `plan_counts`, and it minimises only when they
agree.  A negative verdict names the first check that failed, and on a
counted invariant both routes name the same one.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod

from .core import EgsError, History, InfoSet, Structure, bit_indices, cached_property
from .isomorph import _isomorphism
from .validate import check_uo


class PlanError(EgsError):
    pass


# Outcome tables and payoffs hold an entry per plan profile: past this many, refuse.
_MAX_PROFILES = 10**6


@dataclass(frozen=True)
class Plan:
    """A plan of action: a partial map from own information sets to actions."""

    owner: str
    choices: tuple[tuple[InfoSet, str], ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.choices, key=lambda c: c[0]._members_key))
        object.__setattr__(self, "choices", ordered)
        object.__setattr__(self, "_hash", hash((self.owner, ordered)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes: rebuild, never copy _hash
        return Plan, (self.owner, self.choices)

    def get(self, s: InfoSet) -> str | None:
        for k, v in self.choices:
            if k == s:
                return v
        return None

    def label(self) -> str:
        return "".join(a for _, a in self.choices) or "-"

    def __repr__(self) -> str:
        return f"Plan({self.owner}:{self.label()})"


def own_predecessor(structure: Structure, s: InfoSet) -> tuple[InfoSet, str] | None:
    """The unique immediate own predecessor of s and the action leading to
    s, or None when s is minimal.  Well-defined under perfect recall, and
    then the only pair that can control s (`transform._coalescings` shows
    why).  The scan climbs from the first member toward the root."""
    h = s.members[0]
    if not structure.has_history(h):
        raise EgsError(f"{h.label()!r} is not a history of this structure")
    while h.length:
        action, h = dict(h.moves[-1]).get(s.owner), h.parent
        if action is not None and s.owner in structure.active(h):
            return structure.info_set_of(s.owner, h), action
    return None


def _own_forest(structure: Structure, player: str):
    """The player's minimal own sets and the own sets each (set, action)
    leads to next, each list in block order: what `plans` enumerates and
    `plan_counts` counts."""
    minimal: list[InfoSet] = []
    successors: dict[tuple[InfoSet, str], list[InfoSet]] = {}
    for s in structure.partitions.get(player, ()):
        pred = own_predecessor(structure, s)
        if pred is None:
            minimal.append(s)
        else:
            successors.setdefault(pred, []).append(s)
    return tuple(minimal), successors


def count_plans(structure: Structure) -> tuple[int, ...]:
    """Each player's number of plans, in player order, without enumerating
    them; read it as `plan_counts`, which keeps it with the structure.

    A set's count is the sum over its actions of the product of the counts
    of the sets that action leads to, and a player's is the product over
    the minimal sets.  An own successor's first member extends a member of
    its predecessor, so it sorts after it in block order, and one pass over
    the partition in reverse counts every set after its successors."""
    out = []
    for player in structure.players:
        minimal, successors = _own_forest(structure, player)
        count: dict[InfoSet, int] = {}
        for s in reversed(structure.partitions.get(player, ())):
            count[s] = sum(
                prod(count[t] for t in successors.get((s, a), ()))
                for a in structure.feasible_at(s)
            )
        out.append(prod(count[s] for s in minimal))
    return tuple(out)


def plan_counts(structure: Structure) -> tuple[int, ...]:
    """Each player's number of plans, in player order, counted once per
    structure."""
    return structure._plan_counts


def _plan_choices(structure: Structure, player: str) -> tuple[tuple[tuple[InfoSet, str], ...], ...]:
    """The choices of each of the player's plans, in `plans` order: the one
    enumeration behind `plans` and the plan space."""
    # The partition is in block order, and so is every list of the forest.
    minimal, successors = _own_forest(structure, player)

    # Depth first on an explicit stack, so depth costs no recursion: each
    # entry is the sets still to choose at, in key order, and the choices
    # made so far; actions go on in reverse so they come off in order.
    out = []
    stack = [(minimal, ())]
    while stack:
        frontier, choices = stack.pop()
        if not frontier:
            out.append(choices)
            continue
        head, rest = frontier[0], frontier[1:]
        for action in reversed(structure.feasible_at(head)):
            grown = tuple(sorted(
                rest + tuple(successors.get((head, action), ())),
                key=lambda s: s._members_key,
            ))
            stack.append((grown, choices + ((head, action),)))
    return tuple(out)


def plans(structure: Structure, player: str) -> tuple[Plan, ...]:
    """Enumerate the player's plans of action, lexicographically by
    information set and then action."""
    if player not in structure.players:
        raise EgsError(f"unknown player {player}")
    return tuple(Plan(player, choices) for choices in _plan_choices(structure, player))


def play(structure: Structure, profile: dict[str, Plan]) -> History:
    """Walk from the root applying each active player's chosen action; the
    profile must contain exactly one plan per player."""
    if set(profile) != set(structure.players):
        raise PlanError("one plan per player is required")
    h = structure.root
    while not structure.is_terminal(h):
        move = {}
        for p in structure.active(h):
            s = structure.info_set_of(p, h)
            action = profile[p].get(s)
            if action is None:
                raise PlanError(f"{profile[p]!r} is undefined at {s!r}")
            move[p] = action
        h = h.extend(tuple(sorted(move.items())))
        if not structure.has_history(h):
            raise PlanError(f"play left the tree at {h.label()!r}")
    return h


def _require_root_and_movers(structure: Structure) -> None:
    """Raise PlanError unless the structure has its root history and every
    player who moves somewhere is declared: without them neither a plan
    space nor a verdict on behavioral equivalence has a meaning."""
    if not structure.has_history(structure.root):
        raise PlanError("the structure has no root history")
    for h in structure.nonterminals:
        for p in structure.active(h):
            if p not in structure.players:
                raise PlanError(f"undeclared player {p} moves at {h.label()!r}")


class PlanSpace:
    """Each player's plans under integer indices, and which of them are
    consistent with reaching each history.

    `choices[i]` holds the choices of player i's plans in `plans` order, so
    a plan's index is its position there, and a profile is a tuple of
    indices whose position in `itertools.product` order is its dot product
    with `strides`.  The `Plan`s themselves, `plan_lists`, are built on
    first read: sizes, bitsets and the incidence need none.  `reach[h][i]`
    is the bitset Cᵢ(h) of player i's plans that make i's choices along h.
    Play is deterministic and each step applies every active player's own
    choice, so the profiles reaching h are exactly the product Πᵢ Cᵢ(h).
    One walk from the root fills `reach`: it carries the bitsets and, at
    each move, keeps only the plans choosing the action taken at the
    player's information set there.  It descends only where every player
    keeps a plan, so a history no profile reaches has no entry.

    Preimages of distinct terminals are disjoint, so every profile reaches
    a terminal exactly when Σ_z Πᵢ |Cᵢ(z)| = Πᵢ |plansᵢ|; otherwise
    PlanError is raised, where `play` would raise on some profile.
    """

    def __init__(self, structure: Structure):
        _require_root_and_movers(structure)
        self.players = tuple(structure.players)
        self.choices = tuple(_plan_choices(structure, p) for p in self.players)
        sizes = self.shape()
        self.strides = tuple(prod(sizes[i + 1:]) for i in range(len(sizes)))
        self.profile_count = prod(sizes)
        choosing: dict[tuple[InfoSet, str], int] = {}
        for plan_choices in self.choices:
            for k, choices in enumerate(plan_choices):
                for choice in choices:
                    choosing[choice] = choosing.get(choice, 0) | 1 << k
        seat = {p: i for i, p in enumerate(self.players)}
        reach: dict[History, tuple[int, ...]] = {}
        stack = [(structure.root, tuple((1 << n) - 1 for n in sizes))]
        while stack:
            h, sets = stack.pop()
            reach[h] = sets
            if structure.is_terminal(h):
                continue
            active = structure.active(h)
            at = [(seat[p], structure.info_set_of(p, h)) for p in active]
            for kid in structure.children(h):
                move = dict(kid.moves[-1])
                if len(move) != len(active):
                    continue  # no profile plays a move missing an active player
                grown = list(sets)
                for p, (i, s) in zip(active, at):
                    grown[i] &= choosing.get((s, move[p]), 0)
                if all(grown):
                    stack.append((kid, tuple(grown)))
        self.reach = reach
        self.terminals = structure.terminals  # in history order
        if sum(self.multiplicities()) != self.profile_count:
            raise PlanError("some plan profile reaches no terminal")

    def shape(self) -> tuple[int, ...]:
        return tuple(map(len, self.choices))

    @cached_property
    def plan_lists(self) -> tuple[tuple[Plan, ...], ...]:
        """Each player's plans, in `plans` order."""
        return tuple(
            tuple(Plan(p, choices) for choices in plan_choices)
            for p, plan_choices in zip(self.players, self.choices)
        )

    @cached_property
    def outcomes(self) -> list[int]:
        """The index in `terminals` of the terminal each profile reaches,
        profiles in product order: each terminal fills its preimage."""
        if self.profile_count > _MAX_PROFILES:
            raise PlanError(
                f"{self.profile_count} plan profiles; instance too large to tabulate"
            )
        table = [0] * self.profile_count
        for t, z in enumerate(self.terminals):
            sets = self.reach.get(z)
            if sets is None:
                continue
            rows = [0]
            for stride, c in zip(self.strides, sets):
                rows = [r + k * stride for r in rows for k in bit_indices(c)]
            for r in rows:
                table[r] = t
        return table

    def multiplicities(self) -> list[int]:
        """The size Πᵢ |Cᵢ(z)| of each reached terminal's preimage."""
        return [
            prod(c.bit_count() for c in self.reach[z])
            for z in self.terminals if z in self.reach
        ]

    def edges(self, ends, colours: list, adj: list) -> None:
        """The plan-terminal incidence: each terminal joined to the plans
        consistent with it, for `_plan_isomorphism`."""
        for t, z in zip(ends[-1], self.terminals):
            for vs, c in zip(ends, self.reach.get(z, ())):
                for k in bit_indices(c):
                    adj[vs[k]].append(t)
                    adj[t].append(vs[k])

    @cached_property
    def indices(self) -> tuple[dict[Plan, int], ...]:
        """Plan -> index for the player in each seat."""
        return tuple({plan: k for k, plan in enumerate(pl)} for pl in self.plan_lists)


def plan_space(structure: Structure) -> PlanSpace:
    """The structure's plan space, built on first use and kept with it."""
    return structure._plan_space


@dataclass(frozen=True)
class ReducedNormalForm:
    """Players, their plan lists, the terminal set, and the outcome table
    (per-player plan indices -> terminal index), one row per plan profile
    in `itertools.product` order of the plan indices."""

    players: tuple[str, ...]
    plan_lists: tuple[tuple[Plan, ...], ...]
    terminals: tuple[History, ...]
    table: tuple[tuple[tuple[int, ...], int], ...]

    def outcome(self, profile: dict[str, Plan]) -> History:
        row = 0
        for plan_list, p in zip(self.plan_lists, self.players):
            row = row * len(plan_list) + plan_list.index(profile[p])
        return self.terminals[self.table[row][1]]

    def shape(self) -> tuple[int, ...]:
        return tuple(len(pl) for pl in self.plan_lists)


def reduced_normal_form(structure: Structure) -> ReducedNormalForm:
    """rn_Z(G): the terminal reached by every plan profile, read from the
    plan space rather than played out profile by profile."""
    space = plan_space(structure)
    combos = itertools.product(*map(range, space.shape()))
    return ReducedNormalForm(
        space.players, space.plan_lists, space.terminals,
        tuple(zip(combos, space.outcomes)),
    )


@dataclass(frozen=True)
class RnfIsomorphism:
    player_map: tuple[tuple[str, str], ...]
    plan_maps: tuple[tuple[int, ...], ...]   # per source player: index -> target index
    terminal_map: tuple[int, ...]            # source terminal index -> target index


def _plan_vertices(form, by_name: bool, colours: list, adj: list):
    """Append a vertex per player, per plan and per terminal of a reduced
    normal form (or of a plan space) to colours and adj, each
    plan joined to its player.  Returns the vertices of each player's plans
    and then of the terminals, in list order."""
    base = len(adj)
    colours += [("player", p if by_name else None) for p in form.players]
    adj += [[] for _ in form.players]
    ends = []
    for i, size in enumerate(form.shape()):
        ends.append(list(range(len(adj), len(adj) + size)))
        colours += [("plan",)] * size
        adj += [[base + i] for _ in range(size)]
        adj[base + i] += ends[i]
    ends.append(list(range(len(adj), len(adj) + len(form.terminals))))
    colours += [("terminal",)] * len(form.terminals)
    adj += [[] for _ in form.terminals]
    return ends


def _cell_edges(rnf: ReducedNormalForm, ends, colours: list, adj: list) -> None:
    """A vertex per table cell, joined to its plans and to its terminal."""
    # Cells share the plan and terminal vertices rather than each holding
    # its own.
    for combo, term in rnf.table:
        cell = len(adj)
        row = [vs[k] for vs, k in zip(ends, (*combo, term))]
        for v in row:
            adj[v].append(cell)
        adj.append(row)
    colours += [("cell",)] * len(rnf.table)


def _plan_isomorphism(f1, f2, allow_player_permutation: bool, multiplicities, edges):
    """The engine's answer for two forms with players, plan counts (`shape`)
    and terminals whose counted invariants agree (`_counted_difference`):
    the sorted outcome multiplicities must agree, and `edges` joins each
    form's plans and terminals.  Returns the certificate, which indexes
    plans and terminals by list position, and None; or None and the first
    check that failed."""
    if sorted(multiplicities(f1)) != sorted(multiplicities(f2)):
        return None, "outcome multiplicities differ"
    colours: list = []
    adj: list[list[int]] = []
    ends1 = _plan_vertices(f1, not allow_player_permutation, colours, adj)
    edges(f1, ends1, colours, adj)
    n = len(adj)
    ends2 = _plan_vertices(f2, not allow_player_permutation, colours, adj)
    edges(f2, ends2, colours, adj)
    image = _isomorphism(colours, adj, n)
    if image is None:
        return None, "reduced normal forms are not isomorphic"
    position = {v: k for vs in ends2 for k, v in enumerate(vs)}
    return RnfIsomorphism(
        player_map=tuple(
            (p, f2.players[image[i] - n]) for i, p in enumerate(f1.players)
        ),
        plan_maps=tuple(tuple(position[image[v]] for v in vs) for vs in ends1[:-1]),
        terminal_map=tuple(position[image[v]] for v in ends1[-1]),
    ), None


def _counted_difference(side1, side2, allow_player_permutation: bool):
    """The first counted invariant of behavioral equivalence on which two
    sides differ, or None.  A side is a terminal count, the players and
    each player's plan count in player order: the terminal counts are
    compared, then the players (unless they may be permuted) and each
    player's plan count (sorted when they may).  Every Coalescing and
    Interchange/Simultanizing maps terminals and each player's plans one
    to one, and so does an isomorphism."""
    (t1, players1, c1), (t2, players2, c2) = side1, side2
    if t1 != t2:
        return f"terminal counts differ: {t1} vs {t2}"
    if allow_player_permutation:
        c1, c2 = tuple(sorted(c1)), tuple(sorted(c2))
        return f"plan counts differ: {c1} vs {c2}" if c1 != c2 else None
    if players1 != players2:
        return f"players differ: {','.join(players1)} vs {','.join(players2)}"
    for p, n1, n2 in zip(players1, c1, c2):
        if n1 != n2:
            return f"plan counts differ for player {p}: {n1} vs {n2}"
    return None


def rnf_isomorphic(
    r1: ReducedNormalForm,
    r2: ReducedNormalForm,
    allow_player_permutation: bool = False,
) -> RnfIsomorphism | None:
    """Find player/plan/terminal bijections making the outcome tables
    commute.  Players map by identity unless permutation is enabled."""
    sides = [(len(r.terminals), r.players, r.shape()) for r in (r1, r2)]
    if _counted_difference(*sides, allow_player_permutation) is not None:
        return None
    return _plan_isomorphism(
        r1, r2, allow_player_permutation,
        lambda r: Counter(t for _, t in r.table).values(), _cell_edges,
    )[0]


def behaviorally_equivalent(
    g1: Structure,
    g2: Structure,
    route: str = "rnf",
    allow_player_permutation: bool = False,
):
    """Decide behavioral equivalence.

    route="rnf" decides isomorphism of the reduced normal forms without
    tabulating them; route="minimal" reduces both structures to their
    unique minimal forms (UO inputs only) and compares those for structure
    isomorphism.  Returns (flag, certificate): a dict holding the route's
    isomorphism, or None, under "rnf" or "minimal", the minimal forms under
    "minimal_forms" when they were computed, and, for a negative verdict,
    under "reason" the first check that failed.

    Coalescing and Interchange/Simultanizing map terminals one to one and
    each player's plans one to one, so the terminal count and the plan
    counts are invariants, and both routes first compare them through one
    gate (`_counted_difference`), which states the same reason for the
    same pair on either route.  The rnf route first builds both plan
    spaces, so a malformed input raises PlanError, and reads the plan
    counts off them; then it checks outcome multiplicities before its
    search.  The minimal route refuses a structure without its root or
    with an undeclared mover as the plan space does, and compares the
    counts after its UO check, reading them from `plan_counts` (counted
    without enumerating a plan), and answers False on a difference
    without minimising.  The tests run both routes on the same pairs and
    insist they agree.

    The rnf route rests on this.  Play is deterministic and each step
    applies every active player's own choice, so a profile reaches the
    terminal z exactly when every player i's plan makes i's choices along
    z: the preimage of z in the outcome table is the product Πᵢ Cᵢ(z) of
    the sets of plans consistent with z, and preimages of distinct
    terminals are disjoint.  So every profile reaches a terminal exactly
    when Σ_z Πᵢ |Cᵢ(z)| = Πᵢ |plansᵢ|; otherwise PlanError is raised, as
    `play` would raise while tabulating.  When it holds, the table is
    fixed by the sets Cᵢ(z), and each Cᵢ(z), taken empty for every i when
    it is empty for some i, is the projection of z's preimage.  Hence two reduced
    normal forms are isomorphic exactly when their plan-terminal incidence
    graphs are: plans joined to their player and to the terminals they are
    consistent with, Σᵢ |plansᵢ| + |Z| vertices in place of Πᵢ |plansᵢ|
    table cells.  This is the plan-terminal view of the sequence form
    (Koller, Megiddo & von Stengel 1994).  The certificate indexes plans
    and terminals as `reduced_normal_form` does.
    """
    from .isomorph import structure_isomorphic
    from .transform import minimize_uo

    if route == "rnf":
        s1, s2 = plan_space(g1), plan_space(g2)
        sides = [(len(s.terminals), s.players, s.shape()) for s in (s1, s2)]
        why = _counted_difference(*sides, allow_player_permutation)
        iso = None
        if why is None:
            iso, why = _plan_isomorphism(
                s1, s2, allow_player_permutation, PlanSpace.multiplicities, PlanSpace.edges
            )
        cert: dict[str, object] = {"rnf": iso}
    elif route == "minimal":
        _require_root_and_movers(g1)
        _require_root_and_movers(g2)
        (ok1, w1), (ok2, w2) = check_uo(g1), check_uo(g2)
        if not (ok1 and ok2):
            raise EgsError(f"the minimal-form route requires UO inputs (witness {w1 or w2})")
        sides = [(len(g.terminals), g.players, plan_counts(g)) for g in (g1, g2)]
        why = _counted_difference(*sides, allow_player_permutation)
        if why is not None:
            return False, {"minimal": None, "reason": why}
        m1, m2 = minimize_uo(g1), minimize_uo(g2)
        iso = structure_isomorphic(m1, m2, allow_player_permutation=allow_player_permutation)
        cert = {"minimal": iso, "minimal_forms": (m1, m2)}
        why = "minimal forms are not isomorphic"
    else:
        raise EgsError(f"unknown equivalence route {route!r}")
    if iso is None:
        cert["reason"] = why
    return iso is not None, cert
