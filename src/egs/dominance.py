"""Payoff-bearing games and the backward dominance procedure.

Round zero gives every information set the decision problem of all plan
profiles reaching it.  Each later round removes, at every information set,
each player's plans that are strictly dominated (possibly by a mixture) at
that set or at any set weakly following it.  Removal is by component,
which keeps every decision problem in own-set-times-others product form;
survivors are read at the root-containing information sets, which always
agree.

The procedure runs on the structure's plan space (`strategy.plan_space`):
plans are integer indices, the profiles reaching a history are a product
of per-player bitsets, and a game holds each player's payoffs as one flat
list over the profiles.  A decision problem is a pair of index tuples;
`Plan` and `DecisionProblem` values are built only for the trace and the
public functions.

`dominated_rows` settles the rows of a payoff matrix in order of cost, all
in exact arithmetic, and each test is sound on its own:

1. a best response to a pure column is kept (one pass of column maxima);
2. a best response to the uniform belief, the largest row sum, is kept;
3. a row that another row beats in every column is dominated;
4. only the rows left open go to the LP, solved exactly in integers
   (`lp.maximize`, fraction-free pivoting).

Tests 1 and 2 are sound because a row that maximises expected payoff
under some belief cannot be strictly dominated: the dominating mixture
would earn more than that row under the belief, though under any belief
no mixture earns more than the best row (Pearce 1984).  Test 3 exhibits
the dominating mixture, and the LP decides the rest exactly.  Payoff
matrices hold the payoffs times the least common multiple of their
player's denominators, integers with the same dominated rows, which the
LP takes as they are.

A game is treated as immutable, so its BD trace is a cached property of
the game, computed on the first `bd` call and shared by every later call
and monotonicity report.
Which rows of a payoff matrix are dominated depends on the matrix alone:
each game keeps a memo of those answers, keyed by the matrix, and
`transport_game` hands it on to the game it builds, so the decision
problems a transformation leaves unchanged, and those that recur from
round to round, are solved once.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import EgsError, History, InfoSet, ROOT, Structure, bit_indices, cached_property
from .lp import maximize
from .strategy import Plan, PlanSpace, plan_space
from .transform import HistoryMap, Ico, apply_tau
from .validate import check_uo


class DominanceError(EgsError):
    pass


class Game:
    """An extensive game: a structure plus exact-rational terminal payoffs.

    Treated as immutable once built: its plan space, payoff lists, BD
    trace and dominance memo are derived on first use and kept for the
    life of the game, so building one checks only the payoffs.  Payoffs
    are held per player as one flat list over the plan profiles, in the
    product order of the structure's plan space, filled from the terminal
    each profile reaches."""

    def __init__(self, structure: Structure, payoffs: dict[str, dict[History, Fraction]]):
        self.structure = structure
        terminal_set = set(structure.terminals)
        self.payoffs: dict[str, dict[History, Fraction]] = {}
        for p in structure.players:
            if p not in payoffs:
                raise DominanceError(f"missing payoffs for player {p}")
            table = {z: Fraction(v) for z, v in payoffs[p].items()}
            if set(table) != terminal_set:
                raise DominanceError(
                    f"payoffs for {p} must cover exactly the terminal set"
                )
            self.payoffs[p] = table
        # dominated_rows answers by payoff matrix; shared by transport_game
        self._dominated_memo: dict[tuple, tuple[int, ...]] = {}

    @cached_property
    def _space(self) -> PlanSpace:
        return plan_space(self.structure)

    @cached_property
    def plan_lists(self) -> dict[str, tuple[Plan, ...]]:
        return dict(zip(self._space.players, self._space.plan_lists))

    @cached_property
    def _utility(self) -> dict[str, list[int]]:
        """Each player's payoffs over the profiles, times the least common
        multiple of the player's denominators: integers, whose matrices
        have the same dominated rows as the payoffs' and are cheap to
        compare and hash."""
        space = self._space
        utility = {}
        for p, table in self.payoffs.items():
            (pay,) = _integers([[table[z] for z in space.terminals]])
            utility[p] = [pay[t] for t in space.outcomes]
        return utility

    @cached_property
    def _bd_trace(self) -> BdTrace:
        return _run_bd(self)


@dataclass(frozen=True)
class DecisionProblem:
    """Product-form decision problem at an information set: the owner's
    candidate plans times the opponents' plan profiles."""

    at: InfoSet
    own: tuple[Plan, ...]
    others: tuple[tuple[Plan, ...], ...]


# Inside this module a decision problem is a pair of index tuples: the
# owner's plan indices, and the opponents' profiles as tuples of plan
# indices over the other seats in player order.  DecisionProblem values
# are built from them only where they leave the module.


def _reaching(space: PlanSpace, infoset: InfoSet, seat: int):
    """The index form of `reaching`.  A profile crosses the set when it
    reaches a member m, that is, lies in the product Πᵢ Cᵢ(m).  Plans and
    opponent profiles are listed in order of first appearance in the
    product order of all profiles.  An opponent profile v first appears
    in the profile (v before the seat, the least own plan compatible with
    v, v after the seat); an own plan x first appears in (the least
    opponent prefix compatible with x, x, ...), so the own plans come out
    prefix group by prefix group, in index order within a group."""
    compatible: dict[tuple[int, ...], int] = {}
    for m in infoset.members:
        sets = space.reach.get(m)
        if sets is None:
            continue
        mine = sets[seat]
        rest = [bit_indices(c) for i, c in enumerate(sets) if i != seat]
        for v in itertools.product(*rest):
            compatible[v] = compatible.get(v, 0) | mine
    others = sorted(
        compatible,
        key=lambda v: (v[:seat], (compatible[v] & -compatible[v]).bit_length(), v[seat:]),
    )
    own: list[int] = []
    seen = 0
    for _, group in itertools.groupby(others, key=lambda v: v[:seat]):
        fresh = 0
        for v in group:
            fresh |= compatible[v]
        fresh &= ~seen
        seen |= fresh
        own += bit_indices(fresh)
    return tuple(own), tuple(others)


def _decision_problem(game: Game, infoset: InfoSet, own, others) -> DecisionProblem:
    space = game._space
    seat = space.players.index(infoset.owner)
    lists = [pl for i, pl in enumerate(space.plan_lists) if i != seat]
    return DecisionProblem(
        infoset,
        tuple(space.plan_lists[seat][x] for x in own),
        tuple(tuple(pl[k] for pl, k in zip(lists, v)) for v in others),
    )


def reaching(game: Game, infoset: InfoSet) -> DecisionProblem:
    """Round-zero decision problem: projections of the profiles whose play
    crosses the information set, each plan and opponent profile in order of
    its first appearance in the product order of all profiles."""
    game.structure.require_info_set(infoset)
    seat = game._space.players.index(infoset.owner)
    return _decision_problem(game, infoset, *_reaching(game._space, infoset, seat))


def best_responses(matrix: Sequence[Sequence[Fraction]]) -> dict[int, tuple[int, ...]]:
    """The rows that are a best response to a pure column or, failing
    that, to the uniform belief, each with that belief as column weights:
    the column's unit vector, or all ones.  One pass of column maxima
    finds the first kind and one of row sums the second."""
    n = len(matrix)
    found: dict[int, tuple[int, ...]] = {}
    ncols = len(matrix[0]) if n else 0
    for c, col in enumerate(zip(*matrix)):
        best = max(col)
        hits = [r for r in range(n) if col[r] == best and r not in found]
        if hits:
            unit = (0,) * c + (1,) + (0,) * (ncols - c - 1)
            found.update((r, unit) for r in hits)
    if len(found) < n:
        sums = [sum(row) for row in matrix]
        best = max(sums)
        uniform = (1,) * ncols
        found.update(
            (r, uniform) for r in range(n) if sums[r] == best and r not in found
        )
    return found


def _integers(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    """The rows times the least common multiple of their denominators."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def dominated_rows(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, ...]:
    """Rows strictly dominated by a mixture of the rows, settled in order
    of cost and in exact arithmetic.

    A best response to some belief over the columns is not strictly
    dominated: a mixture beating it in every column would earn more than
    it under that belief, yet no mixture earns more there than the best
    row (Pearce 1984; by LP duality every undominated row is a best
    response to some belief).  So the rows `best_responses` finds are
    kept at once.  A row still open is dominated when another row beats it
    in every column, and otherwise goes to the LP: maximize the
    worst-column slack of a mixed strategy over the full simplex; dominated
    iff the optimum is positive.  The LP is posed in integers: a matrix
    holding fractions is scaled by the lcm of its denominators once, when
    its first row reaches the LP."""
    n = len(matrix)
    if n <= 1 or not matrix[0]:
        return ()
    ncols = len(matrix[0])
    kept = best_responses(matrix)
    out = []
    ints = None
    for r in range(n):
        if r in kept:
            continue
        if any(
            all(matrix[k][c] > matrix[r][c] for c in range(ncols))
            for k in range(n) if k != r
        ):
            out.append(r)
            continue
        if ints is None:
            ints = _integers(matrix)
        # variables: mu_0..mu_{n-1}, eps  (all >= 0; eps > 0 iff dominated)
        a_ub = [
            [ints[r][col] - ints[k][col] for k in range(n)] + [1]
            for col in range(ncols)
        ]
        result = maximize([0] * n + [1], a_ub, [0] * ncols, [[1] * n + [0]], [1])
        if result.value > 0:
            out.append(r)
    return tuple(out)


def _dominated(game: Game, seat: int, own, others) -> int:
    """The index form of `strictly_dominated`: the bitset of the own plan
    indices that are strictly dominated in the decision problem."""
    if not others or len(own) <= 1:
        return 0
    space = game._space
    strides = [st for i, st in enumerate(space.strides) if i != seat]
    columns = [sum(k * st for k, st in zip(v, strides)) for v in others]
    utility = game._utility[space.players[seat]]
    step = space.strides[seat]
    key = tuple(
        tuple(utility[x * step + col] for col in columns) for x in own
    )
    bad = game._dominated_memo.get(key)
    if bad is None:
        bad = game._dominated_memo[key] = dominated_rows(key)
    out = 0
    for r in bad:
        out |= 1 << own[r]
    return out


def strictly_dominated(problem: DecisionProblem, game: Game) -> tuple[Plan, ...]:
    """The owner's plans strictly dominated within the decision problem.
    With an empty opponent side nothing is eliminated: there is no state
    against which to witness the strict inequality."""
    space = game._space
    seat = space.players.index(problem.at.owner)
    mine = space.indices[seat]
    indices = [ix for i, ix in enumerate(space.indices) if i != seat]
    own = [mine[plan] for plan in problem.own]
    others = [
        tuple(index[plan] for index, plan in zip(indices, rest))
        for rest in problem.others
    ]
    bad = _dominated(game, seat, own, others)
    return tuple(plan for plan, x in zip(problem.own, own) if bad >> x & 1)


@dataclass(frozen=True)
class BdTrace:
    rounds: tuple[dict[InfoSet, DecisionProblem], ...]
    survivors: dict[str, tuple[Plan, ...]]
    eliminated_round: dict[tuple[str, Plan], int]

    @property
    def round_count(self) -> int:
        return len(self.rounds)


def _weak_follow_matrix(structure: Structure) -> dict[InfoSet, tuple[InfoSet, ...]]:
    """For each set h, the sets g with g weakly following h (g >= h in the
    elimination sense: h < g or h ~ g), in `info_sets` order.  A set's
    earlier mask and the sets at its members, both bitsets over positions
    in `info_sets` from `_order`, hold the sets it weakly follows; the
    matrix is their transpose."""
    sets, position = structure.info_sets, structure._position
    earlier, _, at = structure._order
    follows = [0] * len(sets)
    for i, t in enumerate(sets):
        mask = earlier[t]
        for m in t.members:
            mask |= at[m]
        for k in bit_indices(mask):
            follows[k] |= 1 << i
    return {s: tuple(sets[i] for i in bit_indices(follows[position[s]])) for s in sets}


def bd(game: Game) -> BdTrace:
    """Run the backward dominance procedure to its fixpoint.  The trace is
    computed on the first call for a game; later calls return it."""
    return game._bd_trace


def _run_bd(game: Game) -> BdTrace:
    structure = game.structure
    ok, witness = check_uo(structure)
    if not ok:
        a, b = witness
        raise DominanceError(
            f"backward dominance needs an unambiguous ordering; {a!r} and {b!r}"
            " are each before the other"
        )
    game._utility  # tabulates every profile, so refuses too many before round zero
    space = game._space
    players = space.players
    seat = {p: i for i, p in enumerate(players)}
    followers = {
        s: [(seat[t.owner], t) for t in ts]
        for s, ts in _weak_follow_matrix(structure).items()
    }
    problems = {s: _reaching(space, s, seat[s.owner]) for s in structure.info_sets}
    rounds = [problems]
    eliminated: dict[tuple[int, int], int] = {}
    root_sets = [s for s in structure.info_sets if ROOT in s.member_set]
    # every non-final round strictly shrinks this total
    budget = sum(len(own) + len(others) for own, others in problems.values()) + 2
    n = 0
    while True:
        n += 1
        sd = {s: _dominated(game, seat[s.owner], *problems[s]) for s in problems}
        new_problems = {}
        for s, prob in problems.items():
            bad = [0] * len(players)
            for i, t in followers[s]:
                bad[i] |= sd[t]
            k = seat[s.owner]
            mine = bad.pop(k)
            if not (mine or any(bad)):
                new_problems[s] = prob  # unchanged, and kept as the same object
                continue
            own, others = prob
            new_problems[s] = (
                tuple(x for x in own if not mine >> x & 1),
                tuple(
                    v for v in others
                    if not any(b >> x & 1 for b, x in zip(bad, v))
                ),
            )
        for s in root_sets:
            before, after = rounds[-1][s], new_problems[s]
            if before is after:
                continue
            k = seat[s.owner]
            for x in set(before[0]) - set(after[0]):
                eliminated.setdefault((k, x), n)
            axes = [i for i in range(len(players)) if i != k]
            before_rest = {(i, x) for v in before[1] for i, x in zip(axes, v)}
            after_rest = {(i, x) for v in after[1] for i, x in zip(axes, v)}
            for key in before_rest - after_rest:
                eliminated.setdefault(key, n)
        rounds.append(new_problems)
        if new_problems == problems:
            break
        if n > budget:
            raise DominanceError("backward dominance failed to reach a fixpoint")
        problems = new_problems
    return _trace(game, rounds, eliminated, root_sets)


def _trace(game: Game, rounds, eliminated, root_sets) -> BdTrace:
    """Build the public trace from the index form of the rounds; a problem
    that did not change between rounds keeps one DecisionProblem value."""
    space = game._space
    players = space.players
    built: dict[InfoSet, tuple] = {}
    public = []
    for problems in rounds:
        out = {}
        for s, prob in problems.items():
            last = built.get(s)
            if last is None or last[0] is not prob:
                last = built[s] = (prob, _decision_problem(game, s, *prob))
            out[s] = last[1]
        public.append(out)
    final = rounds[-1]
    survivors: dict[str, tuple[Plan, ...]] = {}
    for i, player in enumerate(players):
        per_root = []
        for s in root_sets:
            own, others = final[s]
            k = players.index(s.owner)
            if k == i:
                alive = set(own)
            else:
                axis = i if i < k else i - 1
                alive = {v[axis] for v in others}
            per_root.append(tuple(space.plan_lists[i][x] for x in sorted(alive)))
        if len(set(per_root)) != 1:
            raise DominanceError(
                f"root-containing information sets disagree on {player}'s survivors"
            )
        survivors[player] = per_root[0]
    eliminated_round = {
        (players[i], space.plan_lists[i][x]): n for (i, x), n in eliminated.items()
    }
    return BdTrace(tuple(public), survivors, eliminated_round)


def format_trace(trace: BdTrace) -> str:
    blocks = []
    for n, problems in enumerate(trace.rounds):
        lines = [f"round {n}"]
        for s in sorted(problems, key=lambda s: (s.owner, s.members[0].moves)):
            prob = problems[s]
            own = ",".join(p.label() for p in prob.own)
            others = " ".join(
                "|".join(p.label() for p in rest) for rest in prob.others
            )
            lines.append(f"  {s!r} own[{own}] others[{others}]")
        blocks.append("\n".join(lines))
    surv = " ".join(
        f"{p}:{{{','.join(q.label() for q in trace.survivors[p])}}}"
        for p in sorted(trace.survivors)
    )
    blocks.append(f"survivors {surv}")
    return "\n\n".join(blocks)


@dataclass(frozen=True)
class MonotonicityViolation:
    player: str
    plan: Plan
    eliminated_in_round: int


@dataclass
class MonotonicityReport:
    violations: tuple[MonotonicityViolation, ...]
    before: BdTrace
    after: BdTrace

    @property
    def ok(self) -> bool:
        return not self.violations


def transport_game(game: Game, new_structure: Structure, comp: HistoryMap) -> Game:
    """Move payoffs across a transformation via its terminal bijection."""
    return _moved(game, new_structure, comp.terminal_bijection(game.structure, new_structure))


def _moved(game: Game, new_structure: Structure, bijection: dict[History, History]) -> Game:
    payoffs = {
        p: {bijection[z]: v for z, v in table.items()}
        for p, table in game.payoffs.items()
    }
    moved = Game(new_structure, payoffs)
    moved._dominated_memo = game._dominated_memo
    return moved


def compare_bd(
    game: Game, other: Game, plan_map: dict[str, dict[Plan, Plan]]
) -> MonotonicityReport:
    """Report plans eliminated by BD in `game` whose images survive BD in
    `other` (monotonicity says there should be none for complete ICOs)."""
    before = bd(game)
    after = bd(other)
    violations = []
    for player in game.structure.players:
        survive_before = set(before.survivors[player])
        survive_after = set(after.survivors.get(player, ()))
        for plan in game.plan_lists[player]:
            if plan in survive_before:
                continue
            image = plan_map[player][plan]
            if image in survive_after:
                violations.append(MonotonicityViolation(
                    player, plan,
                    before.eliminated_round.get((player, plan), -1),
                ))
    return MonotonicityReport(tuple(violations), before, after)


def check_monotonic(game: Game, ico: Ico) -> MonotonicityReport:
    """Run BD before and after the complete immediate compactification and
    verify every eliminated plan stays eliminated.

    A plan's image is the new plan consistent with the images of the
    terminals it is consistent with, read off both plan spaces.  This is
    the plan the coalescing and IS steps carry it to: τ sends each profile
    to one reaching the image of its terminal, so the image plan is
    consistent with exactly the image terminals; and no two plans of a
    player share their terminals, since they first differ at an own set
    both reach, below which a terminal is consistent with one of them
    only."""
    new_structure, comp = apply_tau(game.structure, ico)
    bijection = comp.terminal_bijection(game.structure, new_structure)
    other = _moved(game, new_structure, bijection)
    old, new = game._space, other._space
    bit = new_structure._z  # a terminal's own bit
    old_sets = _terminal_sets(old, {z: bit[bijection[z]] for z in old.terminals})
    new_sets = _terminal_sets(new, bit)
    plan_map: dict[str, dict[Plan, Plan]] = {}
    for i, player in enumerate(old.players):
        if sorted(old_sets[i]) != sorted(new_sets[i]):
            raise DominanceError(
                f"plan transport for {player} is not onto the new plan set"
            )
        image = dict(zip(new_sets[i], new.plan_lists[i]))
        plan_map[player] = {
            plan: image[bits] for plan, bits in zip(old.plan_lists[i], old_sets[i])
        }
    return compare_bd(game, other, plan_map)


def _terminal_sets(space: PlanSpace, bit: dict[History, int]) -> list[list[int]]:
    """Per player, each plan's terminals as one bitset: the union of
    bit[z] over the terminals z the plan is consistent with."""
    out = [[0] * len(plan_list) for plan_list in space.plan_lists]
    for z in space.terminals:
        for row, plans_here in zip(out, space.reach.get(z, ())):
            for x in bit_indices(plans_here):
                row[x] |= bit[z]
    return out
