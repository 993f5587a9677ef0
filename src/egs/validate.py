"""Axiom checking: tree shape, action axioms, perfect recall, UO, vNM.

Checks run in a fixed order (tree shape, then action axioms, then
partitions, then recall) and later groups are skipped when an earlier
prerequisite fails, since e.g. recall is undefined on a malformed tree.
Witnesses are chosen minimal in lexicographic history order so reports are
reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    EgsError,
    History,
    InfoSet,
    ROOT,
    Structure,
    bit_indices,
    history_key,
)


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: str

    def __str__(self) -> str:
        return f"{self.axiom}: {self.witness}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms(self) -> tuple[str, ...]:
        return tuple(v.axiom for v in self.violations)

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class Experience:
    """X_i(h): the (own information set, action) pairs crossed on the way
    to h, in root-to-h order."""

    pairs: tuple[tuple[InfoSet, str], ...]

    @property
    def pair_set(self) -> frozenset[tuple[InfoSet, str]]:
        return frozenset(self.pairs)

    @property
    def last(self) -> tuple[InfoSet, str] | None:
        return self.pairs[-1] if self.pairs else None


def experience(structure: Structure, player: str, h: History) -> Experience:
    """Collect the own info sets the player crossed en route to h and the
    actions she took there, climbing from h to the root."""
    if not structure.has_history(h):
        raise EgsError(f"{h.label()!r} is not a history of this structure")
    pairs = []
    while h.length:
        move, h = dict(h.moves[-1]), h.parent
        if player in move and player in structure.active(h):
            pairs.append((structure.info_set_of(player, h), move[player]))
    return Experience(tuple(reversed(pairs)))


def _label(h: History) -> str:
    return h.label() or "''"


def validate_structure(structure: Structure) -> ValidationReport:
    """Check every structural axiom, reporting named witnesses instead of
    raising."""
    out: list[Violation] = []

    # Tree shape.
    tree_ok = True
    if not structure.has_history(ROOT):
        out.append(Violation("root", "the empty history is missing"))
        tree_ok = False
    for h in structure.histories:
        if h.length and not structure.has_history(h.parent):
            out.append(Violation(
                "prefix-closure", f"{_label(h)} present but its predecessor is not"
            ))
            tree_ok = False
            break
    # A history's earlier moves are its ancestors' last moves, so the first
    # history with an empty profile has it last, or lacks its parent.
    for h in structure.histories:
        if h.length and not all(
            h.moves[-1:] if structure.has_history(h.parent) else h.moves
        ):
            out.append(Violation("profile", f"{_label(h)} contains an empty profile"))
            tree_ok = False
            break
    if not tree_ok:
        return ValidationReport(tuple(out))

    # Action axioms.
    actions_ok = True
    for h in structure.nonterminals:
        kids = structure.children(h)
        key_sets = {tuple(sorted(p for p, _ in kid.moves[-1])) for kid in kids}
        if len(key_sets) != 1:
            out.append(Violation(
                "active-players",
                f"children of {_label(h)} disagree on who moves",
            ))
            actions_ok = False
            continue
        players = structure.active(h)
        for p in players:
            if p not in structure.actions:
                out.append(Violation("active-players", f"unknown player {p} at {_label(h)}"))
                actions_ok = False
                continue
            feas = structure.feasible(h, p)
            undeclared = [a for a in feas if a not in structure.actions[p]]
            if undeclared:
                out.append(Violation(
                    "action-declared",
                    f"{p}'s action {undeclared[0]} at {_label(h)} is not in A_{p}",
                ))
                actions_ok = False
            if len(feas) < 2:
                out.append(Violation(
                    "min-choice", f"{p} has {len(feas)} feasible action at {_label(h)}"
                ))
                actions_ok = False
        expected = {
            tuple(sorted(zip(players, combo)))
            for combo in itertools.product(*(structure.feasible(h, p) for p in players))
        }
        got = {kid.moves[-1] for kid in kids}
        if expected != got:
            out.append(Violation(
                "product-closure",
                f"children of {_label(h)} are not the full action-profile product",
            ))
            actions_ok = False

    # Partitions.
    partitions_ok = True
    for p in structure.players:
        own = set(structure.player_histories(p))
        seen: set[History] = set()
        for block in structure.partitions.get(p, ()):
            if block.owner != p:
                out.append(Violation("partition", f"block {block!r} filed under player {p}"))
                partitions_ok = False
            for m in block.members:
                if m not in own:
                    out.append(Violation(
                        "partition", f"{_label(m)} is not an active history of {p}"
                    ))
                    partitions_ok = False
                if m in seen:
                    out.append(Violation(
                        "partition", f"{_label(m)} appears in two blocks of {p}"
                    ))
                    partitions_ok = False
                seen.add(m)
        missing = sorted(own - seen, key=history_key)
        if missing:
            out.append(Violation(
                "partition", f"{p} has no block containing {_label(missing[0])}"
            ))
            partitions_ok = False
        if not own:
            out.append(Violation("idle-player", f"{p} is never active"))
            partitions_ok = False
    for p in structure.partitions:
        if p not in structure.players:
            out.append(Violation("partition", f"partition for undeclared player {p}"))
            partitions_ok = False

    if not (actions_ok and partitions_ok):
        return ValidationReport(tuple(out))

    # Measurability and own-action disjointness.
    for p in structure.players:
        blocks = structure.partitions[p]
        for block in blocks:
            feas = {structure.feasible(m, p) for m in block.members}
            if len(feas) != 1:
                out.append(Violation(
                    "measurable", f"members of {block!r} offer different actions"
                ))
        # the blocks offering each action, then each pair's shared actions
        holders: dict[str, list[int]] = {}
        for i, block in enumerate(blocks):
            for a in structure.feasible_at(block):
                holders.setdefault(a, []).append(i)
        shared: dict[tuple[int, int], list[str]] = {}
        for a, held in holders.items():
            for pair in itertools.combinations(held, 2):
                shared.setdefault(pair, []).append(a)
        for i, j in sorted(shared):
            out.append(Violation(
                "own-disjoint",
                f"{blocks[i]!r} and {blocks[j]!r} share actions {sorted(shared[i, j])}",
            ))
    if out:
        return ValidationReport(tuple(out))

    # Perfect recall: experience constant on each information set, which a
    # set with one member has by definition.
    for p in structure.players:
        for block in structure.partitions[p]:
            if len(block.members) == 1:
                continue
            base = experience(structure, p, block.members[0]).pair_set
            for m in block.members[1:]:
                if experience(structure, p, m).pair_set != base:
                    out.append(Violation(
                        "perfect-recall",
                        f"{p}'s experiences at {_label(block.members[0])} and {_label(m)} differ",
                    ))
                    break
    return ValidationReport(tuple(out))


def check_uo(structure: Structure) -> tuple[bool, tuple[InfoSet, InfoSet] | None]:
    """Unambiguous ordering: no information set both before and after
    another.  Returns the lexicographically first offending pair."""
    sets = structure.info_sets
    for s in sets:
        structure.require_info_set(s)
    earlier, position = structure._order[0], structure._position
    for a in sets:
        # Each offending b has a member before one of a's and vice versa;
        # one placed before a would have been reported with a already.  The
        # bits run in position order, so the first offender is the least.
        bit = 1 << position[a]
        for i in bit_indices(earlier[a]):
            if earlier[sets[i]] & bit:
                return False, (a, sets[i])
    return True, None


def check_vnm(structure: Structure) -> tuple[bool, InfoSet | None]:
    """Equal-length property for every information set."""
    for s in structure.info_sets:
        lengths = {m.length for m in s.members}
        if len(lengths) > 1:
            return False, s
    return True, None
