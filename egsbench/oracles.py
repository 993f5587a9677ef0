"""Independent checks that never call the code under test.

They read only the raw data of a structure: its histories as tuples of
action profiles and its information partitions as tuples of member
histories.  Everything else (terminals, feasible actions, own
predecessors, plan counts, the play of a plan profile, strict dominance)
is worked out here from that data, so a fault in the library cannot hide
itself by agreeing with its own result.
"""

from __future__ import annotations

from fractions import Fraction


class Raw:
    """Histories (tuples of profiles) and partitions (player -> tuple of
    member tuples) read off a structure object, plus the derived maps the
    checks share."""

    def __init__(self, players, histories, partitions):
        self.players = tuple(players)
        self.histories = frozenset(histories)
        self.partitions = {p: tuple(partitions[p]) for p in self.players}
        self.children: dict[tuple, list[tuple]] = {}
        for h in self.histories:
            if h:
                self.children.setdefault(h[:-1], []).append(h)
        self.block_of = {
            p: {m: idx for idx, block in enumerate(self.partitions[p]) for m in block}
            for p in self.players
        }

    @classmethod
    def of(cls, structure) -> "Raw":
        return cls(
            structure.players,
            (h.moves for h in structure.histories),
            {
                p: tuple(tuple(m.moves for m in s.members) for s in blocks)
                for p, blocks in structure.partitions.items()
            },
        )

    def terminals(self) -> list[tuple]:
        return sorted(h for h in self.histories if h not in self.children)

    def _own_predecessor(self, player: str, member: tuple):
        """(block index, action) of the player's last own move before
        `member`, or None when the block is minimal."""
        last = None
        for n, profile in enumerate(member):
            move = dict(profile)
            if player in move:
                last = (self.block_of[player][member[:n]], move[player])
        return last

    def plan_count(self, player: str) -> int:
        """Number of plans of action: own-predecessor recursion over the
        player's information sets.  A set's count sums, over its actions,
        the product of the counts of the sets that action leads to."""
        blocks = self.partitions[player]
        feasible = []
        successors: dict[tuple[int, str], list[int]] = {}
        minimal = []
        for idx, block in enumerate(blocks):
            first = block[0]
            feasible.append(sorted({dict(c[-1])[player] for c in self.children[first]}))
            pred = self._own_predecessor(player, first)
            if pred is None:
                minimal.append(idx)
            else:
                successors.setdefault(pred, []).append(idx)
        memo: dict[int, int] = {}

        def count(idx: int) -> int:
            if idx not in memo:
                total = 0
                for action in feasible[idx]:
                    ways = 1
                    for nxt in successors.get((idx, action), ()):
                        ways *= count(nxt)
                    total += ways
                memo[idx] = total
            return memo[idx]

        out = 1
        for idx in minimal:
            out *= count(idx)
        return out

    def invariants(self) -> tuple[int, tuple[int, ...]]:
        """(terminal count, per-player plan counts): both are preserved by
        behavioral equivalence with players mapped by identity."""
        return (
            len(self.terminals()),
            tuple(self.plan_count(p) for p in self.players),
        )

    def play(self, choices: dict[str, dict[int, str]]) -> tuple:
        """Terminal reached when each player follows `choices`, a map from
        her block index to the action taken there."""
        h: tuple = ()
        while h in self.children:
            active = sorted(p for p, _ in self.children[h][0][-1])
            profile = tuple(
                (p, choices[p][self.block_of[p][h]]) for p in active
            )
            h = h + (profile,)
            if h not in self.histories:
                raise ValueError("a plan profile left the tree")
        return h


def plan_choices(raw: Raw, plan) -> dict[int, str]:
    """A plan object's choices keyed by the raw block index."""
    return {
        raw.block_of[plan.owner][s.members[0].moves]: action
        for s, action in plan.choices
    }


def _normalise(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    scale = max(abs(c) for c in coeffs)
    return tuple(c / scale for c in coeffs)


def positive_combination_exists(rows: list[list[Fraction]]) -> bool:
    """Is there mu >= 0 with sum_k mu_k * rows[k][c] > 0 in every column c?

    Fourier-Motzkin elimination on the homogeneous system: each column
    gives a strict constraint, each weight a non-strict one.  Eliminating
    a weight pairs every constraint bounding it from below with every one
    bounding it from above; the pair is strict when either member is.
    The system is feasible iff no strict constraint reduces to 0 > 0.
    """
    n = len(rows)
    if n == 0:
        return False
    ncols = len(rows[0])
    constraints: set[tuple[tuple[Fraction, ...], bool]] = set()
    for c in range(ncols):
        coeffs = tuple(rows[k][c] for k in range(n))
        if any(coeffs):
            constraints.add((_normalise(coeffs), True))
        else:
            return False  # 0 > 0 in this column
    for k in range(n):
        unit = tuple(Fraction(int(j == k)) for j in range(n))
        constraints.add((unit, False))
    for var in range(n - 1, -1, -1):
        lower, upper, keep = [], [], set()
        for coeffs, strict in constraints:
            a = coeffs[var]
            rest = coeffs[:var]
            if a > 0:
                lower.append((tuple(x / a for x in rest), strict))
            elif a < 0:
                upper.append((tuple(x / -a for x in rest), strict))
            else:
                keep.add((rest, strict))
        for lc, ls in lower:
            for uc, us in upper:
                combined = tuple(x + y for x, y in zip(lc, uc))
                strict = ls or us
                if any(combined):
                    keep.add((_normalise(combined), strict))
                elif strict:
                    return False
        constraints = keep
    return not any(strict for _, strict in constraints)


def strictly_dominated_rows(matrix: list[list[Fraction]]) -> list[int]:
    """Rows r for which some mixture of the other rows is strictly better
    in every column."""
    out = []
    for r, row in enumerate(matrix):
        diffs = [
            [x - y for x, y in zip(other, row)]
            for k, other in enumerate(matrix) if k != r
        ]
        if positive_combination_exists(diffs):
            out.append(r)
    return out
