"""Command-line interface.

Exit codes: 0 success / affirmative verdict, 1 negative verdict, 2 error.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys

from .core import EgsError
from .dominance import Game, bd, check_monotonic, format_trace
from .dot import to_dot
from .fileformat import parse, serialize
from .generate import GenParams, gen_random, random_payoffs
from .strategy import behaviorally_equivalent, reduced_normal_form
from .transform import (
    apply_coalescing,
    apply_is,
    apply_phi,
    apply_tau,
    backward_compactify,
    find_coalescing,
    find_is,
    is_non_crossing,
    iter_complete_icos,
    iter_synthesized,
    minimize_uo,
)
from .validate import check_uo, check_vnm, validate_structure


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def _structure_of(obj):
    return obj.structure if isinstance(obj, Game) else obj


def _game_of(obj, path: str) -> Game:
    if not isinstance(obj, Game):
        raise EgsError(f"{path} carries no payoffs; this command needs a game")
    return obj


def cmd_validate(args) -> int:
    report = validate_structure(_structure_of(_load(args.file)))
    print(report)
    return 0 if report.ok else 1


def cmd_check(args) -> int:
    structure = _structure_of(_load(args.file))
    if args.property == "uo":
        ok, witness = check_uo(structure)
    else:
        ok, witness = check_vnm(structure)
    print("yes" if ok else f"no  witness: {witness!r}")
    return 0 if ok else 1


def cmd_rnf(args) -> int:
    rnf = reduced_normal_form(_structure_of(_load(args.file)))
    for k, p in enumerate(rnf.players):
        labels = ",".join(plan.label() for plan in rnf.plan_lists[k])
        print(f"player {p}: {labels}")
    print(f"terminals: {len(rnf.terminals)}")
    for combo, term in rnf.table:
        cell = " ".join(
            rnf.plan_lists[k][i].label() for k, i in enumerate(combo)
        )
        print(f"  {cell} -> {rnf.terminals[term].label()}")
    return 0


def cmd_equiv(args) -> int:
    g1 = _structure_of(_load(args.file1))
    g2 = _structure_of(_load(args.file2))
    route = "minimal" if args.via_minimal else "rnf"
    flag, cert = behaviorally_equivalent(
        g1, g2, route=route, allow_player_permutation=args.permute_players
    )
    if flag:
        print("equivalent")
        return 0
    print("not equivalent")
    print(cert["reason"])
    return 1


def cmd_minimize(args) -> int:
    print(serialize(minimize_uo(_structure_of(_load(args.file)))), end="")
    return 0


# each kind's opportunities in listing order, ICOs and synthesized ones lazily
_OPPS = {
    "coalescing": find_coalescing,
    "is": find_is,
    "ico": iter_complete_icos,
    "synth": iter_synthesized,
}


def _nth(opps, k: int, missing: str):
    """The k-th of the opportunities, reading none past it."""
    seen = list(itertools.islice(opps, k + 1) if k >= 0 else opps)
    if not 0 <= k < len(seen):
        raise EgsError(f"{missing} #{k} (found {len(seen)})")
    return seen[k]


def cmd_opps(args) -> int:
    structure = _structure_of(_load(args.file))
    # all found before the first is printed, so a refused search prints none
    for k, opp in enumerate(list(_OPPS[args.kind](structure))):
        print(f"[{k}] {opp!r}")
    return 0


def cmd_apply(args) -> int:
    obj = _load(args.file)
    structure = _structure_of(obj)
    opp = _nth(_OPPS[args.kind](structure), args.opp, f"no {args.kind} opportunity")
    if args.kind == "coalescing":
        result, _ = apply_coalescing(structure, opp)
    elif args.kind == "is":
        if not is_non_crossing(structure, opp) and not args.force:
            raise EgsError(
                "this IS opportunity is crossing and may break the unambiguous"
                " ordering; pass --force to apply it anyway"
            )
        result, _ = apply_is(structure, opp)
    elif args.kind == "ico":
        result, _ = apply_tau(structure, opp)
    else:
        result = apply_phi(structure, opp)
    print(serialize(result), end="")
    return 0


def cmd_compact(args) -> int:
    structure = _structure_of(_load(args.file))
    result, schedule = backward_compactify(structure)
    for k, ico in enumerate(schedule):
        print(f"# applied [{k}] {ico!r}")
    print(serialize(result), end="")
    return 0


def cmd_bd(args) -> int:
    game = _game_of(_load(args.file), args.file)
    print(format_trace(bd(game)))
    return 0


def cmd_monotonic(args) -> int:
    game = _game_of(_load(args.file), args.file)
    ico = _nth(iter_complete_icos(game.structure), args.ico, "no complete ICO")
    report = check_monotonic(game, ico)
    if report.ok:
        print("monotonic: every plan eliminated before stays eliminated after")
        return 0
    for v in report.violations:
        print(
            f"violation: player {v.player} plan {v.plan.label()} (eliminated in"
            f" round {v.eliminated_in_round}) survives after the transformation"
        )
    return 1


def cmd_gen(args) -> int:
    params = GenParams(
        players=args.players,
        max_depth=args.depth,
        max_branching=args.branching,
        simultaneity=args.simultaneity,
        merge_prob=args.merge,
        continue_prob=args.continue_prob,
        seed=args.seed,
    )
    structure = gen_random(params, require_uo=args.uo, require_vnm=args.vnm)
    if args.payoffs:
        rng = random.Random(f"payoffs:{args.seed}")
        obj = Game(structure, random_payoffs(structure, rng))
    else:
        obj = structure
    print(serialize(obj), end="")
    return 0


def cmd_dot(args) -> int:
    print(to_dot(_load(args.file)), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egs",
        description="Extensive game structures: validation, invariant"
        " transformations, behavioral equivalence, and backward dominance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check all structural axioms")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check", help="check a single property")
    p.add_argument("property", choices=["uo", "vnm"])
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("rnf", help="print the reduced normal form")
    p.add_argument("file")
    p.set_defaults(fn=cmd_rnf)

    p = sub.add_parser("equiv", help="decide behavioral equivalence")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--via-minimal", action="store_true",
                   help="certify via unique minimal forms (UO inputs only)")
    p.add_argument("--permute-players", action="store_true")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("minimize", help="reduce to the minimal form w.r.t. UO")
    p.add_argument("file")
    p.set_defaults(fn=cmd_minimize)

    p = sub.add_parser("opps", help="list transformation opportunities")
    p.add_argument("file")
    p.add_argument("--kind", choices=["coalescing", "is", "ico", "synth"],
                   default="coalescing")
    p.set_defaults(fn=cmd_opps)

    p = sub.add_parser("apply", help="apply one listed opportunity")
    p.add_argument("file")
    p.add_argument("--kind", choices=["coalescing", "is", "ico", "synth"],
                   default="coalescing")
    p.add_argument("--opp", type=int, required=True)
    p.add_argument("--force", action="store_true",
                   help="allow a crossing interchange/simultanizing")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("compact", help="backward compactification")
    p.add_argument("file")
    p.set_defaults(fn=cmd_compact)

    p = sub.add_parser("bd", help="run the backward dominance procedure")
    p.add_argument("file")
    p.set_defaults(fn=cmd_bd)

    p = sub.add_parser("monotonic", help="verify monotonicity of a complete ICO")
    p.add_argument("file")
    p.add_argument("--ico", type=int, required=True)
    p.set_defaults(fn=cmd_monotonic)

    p = sub.add_parser("gen", help="generate a random structure")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--players", type=int, default=2)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--simultaneity", type=float, default=0.2)
    p.add_argument("--merge", type=float, default=0.5)
    p.add_argument("--continue-prob", type=float, default=0.5)
    p.add_argument("--uo", action="store_true")
    p.add_argument("--vnm", action="store_true")
    p.add_argument("--payoffs", action="store_true")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("dot", help="emit Graphviz DOT")
    p.add_argument("file")
    p.set_defaults(fn=cmd_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except EgsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
