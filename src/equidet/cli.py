"""Command-line interface.

Subcommands:
    det              determinant of a square tensor file (forces or configuration)
    solve            decide solvability of the rescaling problem for a force file
    example          generate worked-example tensor files
    witness-search   seeded random search for nonzero determinants
    verify-relations check the redundancy identities on random inputs
    selfcheck        fast invariant suite over the whole pipeline

Exit codes: 0 success, 1 check failure (a failed invariant or criterion, or
an exact result that fails its own check, reported by any command as
"internal error: ..."), 2 input error (OSError, ValueError, including a shape
too large to enumerate, or OverflowError), 3 precondition violation
(determinant requested with q != r*d).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from itertools import combinations
from math import comb

from .combinat import subsets_colex
from .detmap import build_system_matrix, check_dependence_relations, det_sr
from .equilibrium import row_dependence_holds, solve_nontrivial, theorem_consistency
from .tensorfile import dump_tensor, format_scalar, load_tensor, tensor_to_json
from .tensors import ForceSystem
from .witnesses import (
    _map_trials,
    cross_product_forces,
    difference_configuration,
    random_coefficients,
    random_configuration,
    random_force_system,
    wedge_forces,
    witness_search,
)


def cmd_det(args) -> int:
    obj = load_tensor(args.input)
    cfg = obj.to_configuration() if isinstance(obj, ForceSystem) else obj
    if cfg.q != cfg.r * cfg.d:
        print(
            f"error: determinant needs q = r*d, file has q={cfg.q}, r={cfg.r}, d={cfg.d}",
            file=sys.stderr,
        )
        return 3
    value = det_sr(cfg)
    print(value)
    print("ZERO" if value == 0 else "NONZERO")
    if args.matrix:
        system = build_system_matrix(cfg)
        dump = {
            "row_labels": [[list(m), coord] for m, coord in system.row_labels],
            "col_labels": [list(t) for t in system.col_labels],
            "entries": [[format_scalar(x) for x in row] for row in system.matrix.data],
        }
        print(json.dumps(dump, indent=2))
    return 0


def cmd_solve(args) -> int:
    obj = load_tensor(args.input)
    if not isinstance(obj, ForceSystem):
        raise ValueError("solve needs a tensor file with kind='forces'")
    lam = solve_nontrivial(obj)
    if lam is None:
        print("UNSOLVABLE")
    else:
        keys = sorted(lam.canonical, key=lambda t: t[::-1])
        lines = [f"lambda{list(key)} = {lam.canonical[key]}" for key in keys]
        print("\n".join(["SOLVABLE", *lines, "residual = 0 (verified)"]))
    if obj.q == obj.r * obj.d:
        value = det_sr(obj.to_configuration())
        print(f"det = {value}")
        consistent = (value == 0) == (lam is not None)
        print(f"criterion: {'CONSISTENT' if consistent else 'INCONSISTENT'}")
        if not consistent:
            return 1
    return 0


def cmd_example(args) -> int:
    rng = random.Random(args.seed)

    def random_point(dim):
        return tuple(rng.randint(-args.bound, args.bound) for _ in range(dim))

    if args.name == "cross-product":
        obj = cross_product_forces([random_point(3) for _ in range(9)])
    elif args.name == "differences":
        obj = difference_configuration([random_point(args.d) for _ in range(2 * args.d)])
    else:  # wedge
        count = 3 * comb(args.s, 2)
        obj = wedge_forces(args.s, [random_point(args.s) for _ in range(count)])
    dump_tensor(obj, args.output)
    kind = "forces" if isinstance(obj, ForceSystem) else "configuration"
    print(f"wrote {args.output}: kind={kind} r={obj.r} d={obj.d} q={obj.q} seed={args.seed}")
    return 0


def cmd_witness_search(args) -> int:
    report = witness_search(
        args.r, args.d, args.trials, args.bound, args.seed, parallel=args.parallel
    )
    doc = {
        "r": report.r,
        "d": report.d,
        "trials": report.trials,
        "bound": args.bound,
        "seed": report.seed,
        "nonzero_count": report.nonzero_count,
        "first_witness": (
            tensor_to_json(report.first_witness) if report.first_witness is not None else None
        ),
    }
    print(json.dumps(doc, indent=2))
    return 0


# ---------------------------------------------------------------------------
# invariant suite shared by selfcheck and verify-relations

def _vanishing(rng, r, d) -> bool:
    cfg = random_configuration(r, d, 5, rng)
    clique = sorted(rng.sample(range(1, r * d + 1), r + 1))
    shared = tuple(rng.randint(-5, 5) for _ in range(d))
    for sub in combinations(clique, r):
        cfg = cfg.with_slot(sub, shared)
    return det_sr(cfg) == 0


def _relations(rng, r, d) -> bool:
    q = r * d
    cfg = random_configuration(r, d, 5, rng)
    if not check_dependence_relations(cfg, random_coefficients(r, q, 5, rng)):
        return False
    forces = random_force_system(r, d, q, 5, rng)
    lam = random_coefficients(r, q, 5, rng)
    return check_dependence_relations(forces, lam) and row_dependence_holds(forces)


def _multilinearity(rng, r, d) -> bool:
    cfg = random_configuration(r, d, 5, rng)
    slot = rng.choice(subsets_colex(r * d, r))
    u = tuple(rng.randint(-5, 5) for _ in range(d))
    w = tuple(rng.randint(-5, 5) for _ in range(d))
    alpha, beta = rng.randint(-4, 4), rng.randint(-4, 4)
    mixed = tuple(alpha * a + beta * b for a, b in zip(u, w))
    lhs = det_sr(cfg.with_slot(slot, mixed))
    return lhs == alpha * det_sr(cfg.with_slot(slot, u)) + beta * det_sr(cfg.with_slot(slot, w))


def _scaling(rng, r, d) -> bool:
    cfg = random_configuration(r, d, 5, rng)
    slot = rng.choice(subsets_colex(r * d, r))
    c = rng.choice((-3, -2, 2, 3, 5))
    scaled = cfg.with_slot(slot, tuple(c * x for x in cfg.get(slot)))
    return det_sr(scaled) == c * det_sr(cfg)


def _consistency(rng, r, d) -> bool:
    report = theorem_consistency(random_force_system(r, d, r * d, 5, rng))
    return report.consistent and report.reduced_matches_full


def run_property(check, r: int, d: int, seed: int, trials: int) -> bool:
    """One invariant predicate ``check(rng, r, d)``, checked on ``trials``
    seeded random inputs."""
    if min(r, d, trials) < 1:
        raise ValueError(f"need r >= 1, d >= 1 and trials >= 1, got r={r}, d={d}, trials={trials}")
    rng = random.Random(seed)
    return all(check(rng, r, d) for _ in range(trials))


_SELFCHECK = (
    ("vanishing (r=2, d=2)", _vanishing, 2, 2),
    ("vanishing (r=3, d=2)", _vanishing, 3, 2),
    ("dependence relations (r=2, d=2)", _relations, 2, 2),
    ("dependence relations (r=3, d=2)", _relations, 3, 2),
    ("multilinearity (r=2, d=2)", _multilinearity, 2, 2),
    ("slot scaling (r=2, d=2)", _scaling, 2, 2),
    ("theorem consistency (r=2, d=2)", _consistency, 2, 2),
    ("theorem consistency (r=3, d=2)", _consistency, 3, 2),
)


def cmd_selfcheck(args) -> int:
    jobs = [(check, r, d, args.seed + index, args.trials)
            for index, (_, check, r, d) in enumerate(_SELFCHECK)]
    outcomes = _map_trials(run_property, jobs, args.parallel)
    for (name, *_), ok in zip(_SELFCHECK, outcomes):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {args.trials} trials")
    failed = [name for (name, *_), ok in zip(_SELFCHECK, outcomes) if not ok]
    if failed:
        print(f"selfcheck FAILED: {', '.join(failed)}")
        return 1
    print(f"selfcheck PASSED: {len(jobs)} properties")
    return 0


def cmd_verify_relations(args) -> int:
    ok = run_property(_relations, args.r, args.d, args.seed, args.trials)
    name = f"tuple-equation relations (r={args.r}, d={args.d})"
    print(f"{'PASS' if ok else 'FAIL'} {name}: {args.trials} trials")
    return 0 if ok else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equidet",
        description="Exact equilibrium solvers and system determinants for antisymmetric force tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="determinant of a square tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--matrix", action="store_true", help="also dump the labeled system matrix")

    p = sub.add_parser("solve", help="decide solvability for a force file")
    p.add_argument("--input", required=True)

    p = sub.add_parser("example", help="generate a worked-example tensor file")
    p.add_argument("name", choices=("cross-product", "wedge", "differences"))
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--d", type=int, default=2, help="space dimension (differences)")
    p.add_argument("--s", type=int, default=3, help="source dimension (wedge)")

    p = sub.add_parser("witness-search", help="random search for nonzero determinants")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallel", action="store_true")

    p = sub.add_parser("verify-relations", help="check redundancy identities on random inputs")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("selfcheck", help="fast invariant suite")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--parallel", action="store_true")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # printed integers may pass the 4300-digit str() limit: lift it for this call only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        # looked up at call time, so a rebound cmd_* (monkeypatch, tracer wrapper) runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (OSError, ValueError, OverflowError) as exc:  # bad input or arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an exact result failed its own check
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
