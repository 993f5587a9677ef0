"""Plans of action, the play mapping, and Z-reduced normal forms.

A plan assigns actions only to the own information sets that remain
reachable given the player's earlier own choices: it must cover every
minimal own set, and a non-minimal set is in the domain exactly when its
unique immediate own predecessor is and the choice there leads to it.
Behavioral equivalence of two structures is an isomorphism of their
reduced normal forms; for structures with unambiguous orderings it can
also be certified by comparing unique minimal forms.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .core import EgsError, History, InfoSet, Structure, history_key
from .isomorph import _isomorphism
from .validate import check_uo, experience


class PlanError(EgsError):
    pass


@dataclass(frozen=True)
class Plan:
    """A plan of action: a partial map from own information sets to actions."""

    owner: str
    choices: tuple[tuple[InfoSet, str], ...]

    def __post_init__(self):
        ordered = tuple(sorted(
            self.choices,
            key=lambda c: tuple(history_key(m) for m in c[0].members),
        ))
        object.__setattr__(self, "choices", ordered)

    def get(self, s: InfoSet) -> str | None:
        for k, v in self.choices:
            if k == s:
                return v
        return None

    @property
    def domain(self) -> tuple[InfoSet, ...]:
        return tuple(k for k, _ in self.choices)

    def label(self) -> str:
        return "".join(a for _, a in self.choices) or "-"

    def __repr__(self) -> str:
        return f"Plan({self.owner}:{self.label()})"


def _infoset_key(s: InfoSet):
    return tuple(history_key(m) for m in s.members)


def own_predecessor(structure: Structure, s: InfoSet) -> tuple[InfoSet, str] | None:
    """The unique immediate own predecessor of s and the action leading to
    s, or None when s is minimal.  Well-defined under perfect recall."""
    return experience(structure, s.owner, s.members[0]).last


def minimal_own_sets(structure: Structure, player: str) -> tuple[InfoSet, ...]:
    return tuple(
        s for s in structure.partitions.get(player, ())
        if own_predecessor(structure, s) is None
    )


def plans(structure: Structure, player: str) -> tuple[Plan, ...]:
    """Enumerate the player's plans of action, lexicographically by
    information set and then action."""
    if player not in structure.players:
        raise EgsError(f"unknown player {player}")
    blocks = structure.partitions.get(player, ())
    successors: dict[tuple[InfoSet, str], list[InfoSet]] = {}
    for s in blocks:
        pred = own_predecessor(structure, s)
        if pred is not None:
            successors.setdefault(pred, []).append(s)
    for v in successors.values():
        v.sort(key=_infoset_key)

    def expand(frontier: tuple[InfoSet, ...]):
        if not frontier:
            yield ()
            return
        head, rest = frontier[0], frontier[1:]
        for action in structure.feasible_at(head):
            grown = tuple(sorted(
                rest + tuple(successors.get((head, action), ())), key=_infoset_key
            ))
            for tail in expand(grown):
                yield ((head, action),) + tail

    start = tuple(sorted(minimal_own_sets(structure, player), key=_infoset_key))
    return tuple(Plan(player, choices) for choices in expand(start))


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


@dataclass(frozen=True)
class ReducedNormalForm:
    """Players, their plan lists, the terminal set, and the outcome table
    (per-player plan indices -> terminal index), one row per plan profile
    in `itertools.product` order of the plan indices."""

    players: tuple[str, ...]
    plan_lists: tuple[tuple[Plan, ...], ...]
    terminals: tuple[History, ...]
    table: tuple[tuple[tuple[int, ...], int], ...]

    def plans_of(self, player: str) -> tuple[Plan, ...]:
        return self.plan_lists[self.players.index(player)]

    def outcome(self, profile: dict[str, Plan]) -> History:
        row = 0
        for plan_list, p in zip(self.plan_lists, self.players):
            row = row * len(plan_list) + plan_list.index(profile[p])
        return self.terminals[self.table[row][1]]

    def shape(self) -> tuple[int, ...]:
        return tuple(len(pl) for pl in self.plan_lists)


def reduced_normal_form(structure: Structure) -> ReducedNormalForm:
    """rn_Z(G): tabulate the terminal reached by every plan profile."""
    plan_lists = tuple(plans(structure, p) for p in structure.players)
    terminals = tuple(sorted(structure.terminals, key=history_key))
    term_index = {z: i for i, z in enumerate(terminals)}
    rows = []
    for combo in itertools.product(*(range(len(pl)) for pl in plan_lists)):
        profile = {
            p: plan_lists[i][combo[i]] for i, p in enumerate(structure.players)
        }
        rows.append((combo, term_index[play(structure, profile)]))
    return ReducedNormalForm(
        tuple(structure.players), plan_lists, terminals, tuple(rows)
    )


@dataclass(frozen=True)
class RnfIsomorphism:
    player_map: tuple[tuple[str, str], ...]
    plan_maps: tuple[tuple[int, ...], ...]   # per source player: index -> target index
    terminal_map: tuple[int, ...]            # source terminal index -> target index


def _rnf_graph(rnf: ReducedNormalForm, by_name: bool, colours: list, adj: list):
    """Append the reduced normal form as a coloured graph to colours and
    adj: a vertex per player, per plan, per terminal and per table cell.
    Each plan is joined to its player and each cell to its plans and to its
    terminal.  Returns the vertices of each player's plans and then of the
    terminals, in list order."""
    base = len(adj)
    colours += [("player", p if by_name else None) for p in rnf.players]
    adj += [[] for _ in rnf.players]
    # Cells share these vertex numbers rather than each holding its own.
    ends = []
    for i, plan_list in enumerate(rnf.plan_lists):
        ends.append(list(range(len(adj), len(adj) + len(plan_list))))
        colours += [("plan",)] * len(plan_list)
        adj += [[base + i] for _ in plan_list]
        adj[base + i] += ends[i]
    ends.append(list(range(len(adj), len(adj) + len(rnf.terminals))))
    colours += [("terminal",)] * len(rnf.terminals)
    adj += [[] for _ in rnf.terminals]
    for combo, term in rnf.table:
        cell = len(adj)
        row = [vs[k] for vs, k in zip(ends, (*combo, term))]
        for v in row:
            adj[v].append(cell)
        adj.append(row)
    colours += [("cell",)] * len(rnf.table)
    return ends


def rnf_isomorphic(
    r1: ReducedNormalForm,
    r2: ReducedNormalForm,
    allow_player_permutation: bool = False,
) -> RnfIsomorphism | None:
    """Find player/plan/terminal bijections making the outcome tables
    commute.  Players map by identity unless permutation is enabled."""
    if len(r1.terminals) != len(r2.terminals):
        return None
    if allow_player_permutation:
        if sorted(r1.shape()) != sorted(r2.shape()):
            return None
    elif r1.players != r2.players or r1.shape() != r2.shape():
        return None
    counts1, counts2 = (sorted(Counter(t for _, t in r.table).values()) for r in (r1, r2))
    if counts1 != counts2:
        return None
    colours: list = []
    adj: list[list[int]] = []
    ends1 = _rnf_graph(r1, not allow_player_permutation, colours, adj)
    n = len(adj)
    ends2 = _rnf_graph(r2, not allow_player_permutation, colours, adj)
    image = _isomorphism(colours, adj, n)
    if image is None:
        return None
    position = {v: k for vs in ends2 for k, v in enumerate(vs)}
    return RnfIsomorphism(
        player_map=tuple(
            (p, r2.players[image[i] - n]) for i, p in enumerate(r1.players)
        ),
        plan_maps=tuple(tuple(position[image[v]] for v in vs) for vs in ends1[:-1]),
        terminal_map=tuple(position[image[v]] for v in ends1[-1]),
    )


def behaviorally_equivalent(
    g1: Structure,
    g2: Structure,
    route: str = "rnf",
    allow_player_permutation: bool = False,
):
    """Decide behavioral equivalence.

    route="rnf" compares reduced normal forms directly; route="minimal"
    reduces both structures to their unique minimal forms (UO inputs only)
    and compares those for structure isomorphism; route="both" runs both
    and insists they agree.  Returns (flag, certificate).
    """
    from .isomorph import structure_isomorphic
    from .transform import minimize_uo

    cert: dict[str, object] = {}
    flag_rnf = None
    if route in ("rnf", "both"):
        iso = rnf_isomorphic(
            reduced_normal_form(g1), reduced_normal_form(g2),
            allow_player_permutation=allow_player_permutation,
        )
        flag_rnf = iso is not None
        cert["rnf"] = iso
    flag_min = None
    if route in ("minimal", "both"):
        ok1, w1 = check_uo(g1)
        ok2, w2 = check_uo(g2)
        if not (ok1 and ok2):
            raise EgsError(
                f"the minimal-form route requires UO inputs (witness {w1 or w2})"
            )
        m1 = minimize_uo(g1)
        m2 = minimize_uo(g2)
        iso = structure_isomorphic(
            m1, m2, allow_player_permutation=allow_player_permutation
        )
        flag_min = iso is not None
        cert["minimal"] = iso
        cert["minimal_forms"] = (m1, m2)
    if route == "both" and flag_rnf != flag_min:
        raise EgsError(
            f"equivalence routes disagree: rnf={flag_rnf} minimal={flag_min}"
        )
    flag = flag_rnf if flag_rnf is not None else flag_min
    return bool(flag), cert
