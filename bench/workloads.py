"""Seeded input pools for the four benchmark workloads.

Every workload is a fixed pool of CLI calls that the closed loop cycles
through.  Tensor files are written here, with this module's own code, before
any timing starts; the program under test only ever sees the files and argv.
The same seed always gives byte-identical files and argv.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

WORKLOADS = ("det-square", "solve-overdet", "witness-search", "selfcheck")
DEFAULT_SEED = 1
BOUND = 5  # entries are integers in [-BOUND, BOUND], as in the program's own generators

# Pool sizes: a whole pass over a pool takes about 1-5 s, so a run cycles
# through every input several times.
DET_POOL = 32  # 8 zero by construction (1/4), forces and configurations 16 each
SOLVE_POOL = 32
WITNESS_POOL = 16
SELFCHECK_POOL = 16

WITNESS_TRIALS = 50
SELFCHECK_TRIALS = 8


@dataclass(frozen=True)
class Item:
    """One CLI call of a pool and what the checker may assume about it."""

    kind: str  # "det", "solve", "witness" or "selfcheck"
    argv: tuple
    path: str | None = None  # the tensor file passed with --input
    zero: bool = False  # det: the determinant is zero by construction


def colex(n: int, k: int):
    """k-subsets of {1..n} as sorted tuples, in colexicographic order."""
    return sorted(combinations(range(1, n + 1), k), key=lambda t: t[::-1])


def _nonzero_vector(rng, d):
    while True:
        vec = tuple(rng.randint(-BOUND, BOUND) for _ in range(d))
        if any(vec):
            return vec


def random_entries(rng, r, d, q):
    """A nonzero integer d-vector on every sorted r-tuple over {1..q}.

    Zero vectors are left out: a zero force column gives the solver a
    one-entry kernel vector for free, which is not the work being measured.
    """
    return {key: _nonzero_vector(rng, d) for key in colex(q, r)}


def shared_clique_entries(rng, r, d, q):
    """Random configuration in which every r-subset of one (r+1)-clique
    carries the same vector, so the system determinant vanishes."""
    entries = random_entries(rng, r, d, q)
    clique = sorted(rng.sample(range(1, q + 1), r + 1))
    shared = _nonzero_vector(rng, d)
    for key in combinations(clique, r):
        entries[key] = shared
    return entries


def cross_product_entries(rng, q=9):
    """Triple forces from q random points in 3-space: F(i, j, k) is
    (p_j - p_i) x (p_k - p_i).  The 84x84 determinant of such a system is zero."""
    pts = [tuple(rng.randint(-BOUND, BOUND) for _ in range(3)) for _ in range(q)]
    entries = {}
    for i, j, k in colex(q, 3):
        u = [a - b for a, b in zip(pts[j - 1], pts[i - 1])]
        w = [a - b for a, b in zip(pts[k - 1], pts[i - 1])]
        entries[(i, j, k)] = (
            u[1] * w[2] - u[2] * w[1],
            u[2] * w[0] - u[0] * w[2],
            u[0] * w[1] - u[1] * w[0],
        )
    return entries


def write_tensor(path: Path, kind: str, r: int, d: int, q: int, entries) -> str:
    doc = {
        "r": r,
        "d": d,
        "q": q,
        "kind": kind,
        "entries": [
            {"idx": list(key), "vec": [str(x) for x in vec]}
            for key, vec in sorted(entries.items(), key=lambda kv: kv[0][::-1])
            if any(vec)
        ],
    }
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def _det_square(rng, out: Path):
    r, d, q = 3, 3, 9
    eighth = DET_POOL // 8
    specs = (
        [("forces", "cross")] * eighth
        + [("configuration", "clique")] * eighth
        + [("forces", "random")] * 3 * eighth
        + [("configuration", "random")] * 3 * eighth
    )
    rng.shuffle(specs)
    items = []
    for n, (kind, how) in enumerate(specs):
        if how == "cross":
            entries = cross_product_entries(rng, q)
        elif how == "clique":
            entries = shared_clique_entries(rng, r, d, q)
        else:
            entries = random_entries(rng, r, d, q)
        path = write_tensor(out / f"det-{n:02d}.json", kind, r, d, q, entries)
        items.append(Item("det", ("det", "--input", path), path, zero=how != "random"))
    return items


def _solve_overdet(rng, out: Path):
    r, d, q = 3, 2, 9
    items = []
    for n in range(SOLVE_POOL):
        path = write_tensor(out / f"solve-{n:02d}.json", "forces", r, d, q, random_entries(rng, r, d, q))
        items.append(Item("solve", ("solve", "--input", path), path))
    return items


def _witness_search(rng, out: Path):
    return [
        Item("witness", ("witness-search", "--r", "3", "--d", "2", "--trials", str(WITNESS_TRIALS),
                         "--seed", str(rng.getrandbits(32))))
        for _ in range(WITNESS_POOL)
    ]


def _selfcheck(rng, out: Path):
    return [
        Item("selfcheck", ("selfcheck", "--trials", str(SELFCHECK_TRIALS), "--seed", str(rng.getrandbits(32))))
        for _ in range(SELFCHECK_POOL)
    ]


_BUILDERS = {
    "det-square": _det_square,
    "solve-overdet": _solve_overdet,
    "witness-search": _witness_search,
    "selfcheck": _selfcheck,
}


def generate(workload: str, seed: int, out: Path):
    """Write the workload's input files into ``out`` and return its pool."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, Path(out))
