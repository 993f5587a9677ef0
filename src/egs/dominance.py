"""Payoff-bearing games and the backward dominance procedure.

Round zero gives every information set the decision problem of all plan
profiles reaching it.  Each later round removes, at every information set,
each player's plans that are strictly dominated (possibly by a mixture,
decided with an exact-rational LP) at that set or at any set weakly
following it.  Removal is by component, which keeps every decision problem
in own-set-times-others product form; survivors are read at the
root-containing information sets, which always agree.

A game is treated as immutable, so its BD trace is computed once, on the
first `bd` call, and shared by every later call and monotonicity report.
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

from .core import EgsError, History, InfoSet, ROOT, Structure, relation
from .lp import maximize
from .strategy import Plan, plans, play
from .transform import CompositeMap, Ico, apply_tau, transport_plan_through
from .validate import check_uo


class DominanceError(EgsError):
    pass


class Game:
    """An extensive game: a structure plus exact-rational terminal payoffs.

    Treated as immutable once built: its BD trace and dominance memo are
    derived from the payoffs and kept for the life of the game."""

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
        self.plan_lists: dict[str, tuple[Plan, ...]] = {
            p: plans(structure, p) for p in structure.players
        }
        self._outcomes: dict[tuple[Plan, ...], History] = {}
        for combo in itertools.product(*(self.plan_lists[p] for p in structure.players)):
            profile = dict(zip(structure.players, combo))
            self._outcomes[combo] = play(structure, profile)
        self._bd_trace: BdTrace | None = None
        # dominated_rows answers by payoff matrix; shared by transport_game
        self._dominated_memo: dict[tuple, tuple[int, ...]] = {}

    def outcome(self, combo: tuple[Plan, ...]) -> History:
        return self._outcomes[combo]

    def utility(self, player: str, combo: tuple[Plan, ...]) -> Fraction:
        return self.payoffs[player][self._outcomes[combo]]

    @property
    def profiles(self) -> tuple[tuple[Plan, ...], ...]:
        return tuple(self._outcomes)


@dataclass(frozen=True)
class DecisionProblem:
    """Product-form decision problem at an information set: the owner's
    candidate plans times the opponents' plan profiles."""

    at: InfoSet
    own: tuple[Plan, ...]
    others: tuple[tuple[Plan, ...], ...]

    @property
    def size(self) -> tuple[int, int]:
        return len(self.own), len(self.others)


def _others_index(structure: Structure, owner: str) -> list[int]:
    return [k for k, p in enumerate(structure.players) if p != owner]


def reaching(game: Game, infoset: InfoSet) -> DecisionProblem:
    """Round-zero decision problem: projections of the profiles whose play
    crosses the information set."""
    structure = game.structure
    structure.require_info_set(infoset)
    target = structure.terminals_below_set(infoset.members)
    owner_axis = structure.players.index(infoset.owner)
    rest_axes = _others_index(structure, infoset.owner)
    own: list[Plan] = []
    others: list[tuple[Plan, ...]] = []
    seen_own, seen_rest = set(), set()
    for combo in game.profiles:
        if game.outcome(combo) in target:
            mine = combo[owner_axis]
            rest = tuple(combo[k] for k in rest_axes)
            if mine not in seen_own:
                seen_own.add(mine)
                own.append(mine)
            if rest not in seen_rest:
                seen_rest.add(rest)
                others.append(rest)
    return DecisionProblem(infoset, tuple(own), tuple(others))


def dominated_rows(matrix: Sequence[Sequence[Fraction]]) -> tuple[int, ...]:
    """Rows strictly dominated by a mixture of the rows: for each
    candidate, maximize the worst-column slack of a mixed strategy over
    the full simplex; dominated iff the optimum is positive.  The point
    mu = e_r, eps = 0 is feasible, so the LP's slacks plus mu_r make a
    crash basis and `maximize` needs no phase 1."""
    n = len(matrix)
    if n <= 1 or not matrix[0]:
        return ()
    ncols = len(matrix[0])
    out = []
    for r in range(n):
        # quick exit: pure strict domination
        if any(
            all(matrix[k][c] > matrix[r][c] for c in range(ncols))
            for k in range(n) if k != r
        ):
            out.append(r)
            continue
        # variables: mu_0..mu_{n-1}, eps  (all >= 0; eps > 0 iff dominated)
        c_obj = [Fraction(0)] * n + [Fraction(1)]
        a_ub = []
        b_ub = []
        for col in range(ncols):
            row = [-(matrix[k][col] - matrix[r][col]) for k in range(n)]
            a_ub.append(row + [Fraction(1)])
            b_ub.append(Fraction(0))
        a_eq = [[Fraction(1)] * n + [Fraction(0)]]
        b_eq = [Fraction(1)]
        result = maximize(c_obj, a_ub, b_ub, a_eq, b_eq)
        if result.status == "optimal" and result.value > 0:
            out.append(r)
        elif result.status == "unbounded":
            out.append(r)  # arbitrarily large slack certainly dominates
    return tuple(out)


def strictly_dominated(problem: DecisionProblem, game: Game) -> tuple[Plan, ...]:
    """The owner's plans strictly dominated within the decision problem.
    With an empty opponent side nothing is eliminated: there is no state
    against which to witness the strict inequality."""
    if not problem.others or len(problem.own) <= 1:
        return ()
    structure = game.structure
    owner = problem.at.owner
    owner_axis = structure.players.index(owner)
    rest_axes = _others_index(structure, owner)
    matrix = []
    for mine in problem.own:
        row = []
        for rest in problem.others:
            combo = [None] * len(structure.players)
            combo[owner_axis] = mine
            for k, plan in zip(rest_axes, rest):
                combo[k] = plan
            row.append(game.utility(owner, tuple(combo)))
        matrix.append(tuple(row))
    key = tuple(matrix)
    bad = game._dominated_memo.get(key)
    if bad is None:
        bad = game._dominated_memo[key] = dominated_rows(key)
    return tuple(problem.own[r] for r in bad)


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
    elimination sense: h < g or h ~ g)."""
    sets = structure.info_sets
    out: dict[InfoSet, list[InfoSet]] = {s: [] for s in sets}
    for s in sets:
        for t in sets:
            r = relation(structure, s, t)
            if r.before or r.simultaneous:
                out[s].append(t)
    return {s: tuple(v) for s, v in out.items()}


def bd(game: Game) -> BdTrace:
    """Run the backward dominance procedure to its fixpoint.  The trace is
    computed on the first call for a game; later calls return it."""
    if game._bd_trace is None:
        game._bd_trace = _run_bd(game)
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
    followers = _weak_follow_matrix(structure)
    problems = {s: reaching(game, s) for s in structure.info_sets}
    rounds = [dict(problems)]
    eliminated_round: dict[tuple[str, Plan], int] = {}
    root_sets = [s for s in structure.info_sets if ROOT in s.member_set]
    # every non-final round strictly shrinks this total
    budget = sum(len(p.own) + len(p.others) for p in problems.values()) + 2
    n = 0
    while True:
        n += 1
        sd = {s: set(strictly_dominated(problems[s], game)) for s in problems}
        new_problems: dict[InfoSet, DecisionProblem] = {}
        for s, prob in problems.items():
            bad: dict[str, set[Plan]] = {}
            for t in followers[s]:
                if sd[t]:
                    bad.setdefault(t.owner, set()).update(sd[t])
            own = tuple(p for p in prob.own if p not in bad.get(s.owner, ()))
            others = tuple(
                rest for rest in prob.others
                if not any(
                    plan in bad.get(player, ())
                    for plan, player in zip(
                        rest, [q for q in structure.players if q != s.owner]
                    )
                )
            )
            new_problems[s] = DecisionProblem(s, own, others)
        for s in root_sets:
            before = set(rounds[-1][s].own)
            after = set(new_problems[s].own)
            for plan in before - after:
                eliminated_round.setdefault((s.owner, plan), n)
            axes = [q for q in structure.players if q != s.owner]
            before_rest = {
                (player, plan)
                for rest in rounds[-1][s].others for player, plan in zip(axes, rest)
            }
            after_rest = {
                (player, plan)
                for rest in new_problems[s].others for player, plan in zip(axes, rest)
            }
            for player, plan in before_rest - after_rest:
                eliminated_round.setdefault((player, plan), n)
        rounds.append(new_problems)
        if new_problems == problems:
            break
        if n > budget:
            raise DominanceError("backward dominance failed to reach a fixpoint")
        problems = new_problems
    final = rounds[-1]
    survivors: dict[str, tuple[Plan, ...]] = {}
    for player in structure.players:
        per_root = []
        for s in root_sets:
            prob = final[s]
            if s.owner == player:
                alive = [p for p in game.plan_lists[player] if p in set(prob.own)]
            else:
                axes = [q for q in structure.players if q != s.owner]
                axis = axes.index(player)
                present = {rest[axis] for rest in prob.others}
                alive = [p for p in game.plan_lists[player] if p in present]
            per_root.append(tuple(alive))
        if len(set(per_root)) != 1:
            raise DominanceError(
                f"root-containing information sets disagree on {player}'s survivors"
            )
        survivors[player] = per_root[0]
    return BdTrace(tuple(rounds), survivors, eliminated_round)


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


def transport_game(game: Game, new_structure: Structure, comp: CompositeMap) -> Game:
    """Move payoffs across a transformation via its terminal bijection."""
    bijection = comp.terminal_bijection(game.structure, new_structure)
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
    verify every eliminated plan stays eliminated."""
    new_structure, comp = apply_tau(game.structure, ico)
    other = transport_game(game, new_structure, comp)
    plan_map: dict[str, dict[Plan, Plan]] = {}
    for player in game.structure.players:
        mapping = {
            plan: transport_plan_through(plan, comp)
            for plan in game.plan_lists[player]
        }
        if set(mapping.values()) != set(other.plan_lists[player]):
            raise DominanceError(
                f"plan transport for {player} is not onto the new plan set"
            )
        plan_map[player] = mapping
    return compare_bd(game, other, plan_map)
