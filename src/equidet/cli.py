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

Each command loads only the modules it runs.  This module imports ``detmap``,
``tensorfile`` and ``tensors`` at its top, which is all ``det`` needs; ``solve``
imports ``equilibrium``, ``example`` and ``witness-search`` import
``witnesses``, and ``selfcheck`` and ``verify-relations`` import the invariant
suite in ``invariants``, each inside the command.  The process pool is loaded
only by ``--parallel``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import comb

# only the modules `det` runs; every other command imports its own when it runs
from .detmap import build_system_matrix, det_sr
from .tensorfile import dump_tensor, format_scalar, load_tensor, tensor_to_json
from .tensors import ForceSystem


def cmd_det(args) -> int:
    obj = load_tensor(args.input)
    if obj.q != obj.r * obj.d:
        print(f"error: determinant needs q = r*d, file has q={obj.q}, r={obj.r}, d={obj.d}", file=sys.stderr)
        return 3
    value = det_sr(obj)
    print(value)
    print("ZERO" if value == 0 else "NONZERO")
    if args.matrix:
        system = build_system_matrix(obj)
        dump = {
            "row_labels": [[list(m), coord] for m, coord in system.row_labels],
            "col_labels": [list(t) for t in system.col_labels],
            "entries": [[format_scalar(x) for x in row] for row in system.matrix.data],
        }
        print(json.dumps(dump, indent=2))
    return 0


def cmd_solve(args) -> int:
    from .equilibrium import solve_nontrivial

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
        value = det_sr(obj)
        print(f"det = {value}")
        consistent = (value == 0) == (lam is not None)
        print(f"criterion: {'CONSISTENT' if consistent else 'INCONSISTENT'}")
        if not consistent:
            return 1
    return 0


def cmd_example(args) -> int:
    import random

    from .combinat import _check_integer
    from .witnesses import cross_product_forces, difference_configuration, wedge_forces

    _check_integer("--bound", args.bound, 0)
    rng = random.Random(args.seed)

    def random_point(dim):
        return tuple(rng.randint(-args.bound, args.bound) for _ in range(dim))

    if args.name == "cross-product":
        obj = cross_product_forces([random_point(3) for _ in range(9)])
    elif args.name == "differences":
        _check_integer("--d", args.d, 1)
        obj = difference_configuration([random_point(args.d) for _ in range(2 * args.d)])
    else:  # wedge
        _check_integer("--s", args.s, 3)
        count = 3 * comb(args.s, 2)
        obj = wedge_forces(args.s, [random_point(args.s) for _ in range(count)])
    dump_tensor(obj, args.output)
    kind = "forces" if isinstance(obj, ForceSystem) else "configuration"
    print(f"wrote {args.output}: kind={kind} r={obj.r} d={obj.d} q={obj.q} seed={args.seed}")
    return 0


def cmd_witness_search(args) -> int:
    from .witnesses import witness_search

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


def cmd_selfcheck(args) -> int:
    from .invariants import _SELFCHECK, run_property
    from .witnesses import _map_trials

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
    from .invariants import _relations, run_property

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
