"""Output checks that do not trust the program under test.

Each check re-derives what it needs from the input file and the printed
output with its own plain-``Fraction`` code: equations are evaluated at the
printed lambda and must be exactly zero; printed determinants are compared
with an independent elimination modulo the prime 2**61 - 1, so a wrong value
or a wrong ZERO/NONZERO verdict is caught.  ``check_item`` returns None when
the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from itertools import combinations

from workloads import SELFCHECK_TRIALS, WITNESS_TRIALS, BOUND, colex

PRIME = (1 << 61) - 1
_LAMBDA_RE = re.compile(r"lambda\[([\d, ]+)\] = (-?\d+(?:/\d+)?)\Z")


def read_tensor_doc(doc):
    """(r, d, q, kind, {sorted tuple: tuple of Fractions}) from a tensor document."""
    r, d, q, kind = doc["r"], doc["d"], doc["q"], doc["kind"]
    entries = {}
    for item in doc["entries"]:
        key = tuple(item["idx"])
        if list(key) != sorted(set(key)) or len(key) != r or key[0] < 1 or key[-1] > q:
            raise ValueError(f"bad index tuple {key}")
        if key in entries or len(item["vec"]) != d:
            raise ValueError(f"bad entry for {key}")
        entries[key] = tuple(Fraction(x) for x in item["vec"])
    return r, d, q, kind, entries


def read_tensor_file(path):
    with open(path, encoding="utf-8") as fh:
        return read_tensor_doc(json.load(fh))


def as_configuration(r, kind, entries):
    """Configuration entries; a force file is reindexed with the sign
    (-1) ** (sum(T) + r - 1) per tuple T, which is the CLI's convention."""
    if kind == "configuration":
        return entries
    return {
        key: tuple(-x for x in vec) if (sum(key) + r - 1) & 1 else vec
        for key, vec in entries.items()
    }


def square_system(r, d, q, cfg):
    """The square system of a configuration with q = r*d: one d-row block per
    (r-1)-subset M of {1..q-1} in colex order; the column of T = M + {i}
    (colex order) holds (-1) ** (i + p) * cfg[T], p the 1-based slot of i in T."""
    col = {t: j for j, t in enumerate(colex(q, r))}
    rows = []
    for m in colex(q - 1, r - 1):
        block = [[0] * len(col) for _ in range(d)]
        for i in range(1, q + 1):
            if i in m:
                continue
            key = tuple(sorted(m + (i,)))
            vec = cfg.get(key)
            if vec is None:
                continue
            sign = -1 if (i + key.index(i) + 1) & 1 else 1
            for c in range(d):
                block[c][col[key]] = sign * vec[c]
        rows.extend(block)
    return rows


def residue(x) -> int:
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def det_mod_p(rows) -> int:
    """Determinant of a square matrix of exact scalars, modulo PRIME."""
    a = [[residue(x) for x in row] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        rk = a[k]
        det = det * rk[k] % PRIME
        inv = pow(rk[k], -1, PRIME)
        tail = rk[k + 1:]
        for i in range(k + 1, n):
            f = a[i][k]
            if f:
                f = f * inv % PRIME
                a[i] = a[i][:k + 1] + [(x - f * y) % PRIME for x, y in zip(a[i][k + 1:], tail)]
    return det % PRIME


def check_det(item, stdout):
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[1] not in ("ZERO", "NONZERO"):
        return "det output is not two lines ending in ZERO or NONZERO"
    try:
        value = Fraction(lines[0])
    except ValueError:
        return f"det value {lines[0]!r} is not an exact scalar"
    if (value == 0) != (lines[1] == "ZERO"):
        return f"verdict {lines[1]} disagrees with printed value {value}"
    if item.zero and value != 0:
        return f"input is zero by construction but det printed {value}"
    r, d, q, kind, entries = read_tensor_file(item.path)
    expected = det_mod_p(square_system(r, d, q, as_configuration(r, kind, entries)))
    if residue(value) != expected:
        return "printed determinant differs from an independent elimination mod 2**61-1"
    return None


def equation_totals(r, d, q, forces, lam):
    """Every coordinate of every per-(r-1)-tuple force balance at ``lam``.

    The term for M + {i} reads the force at the written order M + (i,), whose
    sign is that of the permutation sorting it: (-1) ** #{m in M: m > i}.
    """
    for m in combinations(range(1, q + 1), r - 1):
        total = [Fraction(0)] * d
        for i in range(1, q + 1):
            if i in m:
                continue
            key = tuple(sorted(m + (i,)))
            c = lam.get(key)
            vec = forces.get(key)
            if not c or vec is None:
                continue
            if sum(1 for x in m if x > i) & 1:
                c = -c
            for k in range(d):
                total[k] += c * vec[k]
        yield m, total


def check_solve(item, stdout):
    lines = stdout.splitlines()
    r, d, q, kind, forces = read_tensor_file(item.path)
    if kind != "forces" or q == r * d:
        return "solve check supports force files with q != r*d only"
    if len(lines) < 3 or lines[0] != "SOLVABLE" or lines[-1] != "residual = 0 (verified)":
        # more unknowns than equations, so a nonzero solution always exists
        return "solve output is not SOLVABLE ... residual = 0 (verified)"
    lam = {}
    for line in lines[1:-1]:
        match = _LAMBDA_RE.match(line)
        if not match:
            return f"unexpected solve line {line!r}"
        key = tuple(int(x) for x in match.group(1).split(","))
        value = Fraction(match.group(2))
        if len(key) != r or list(key) != sorted(set(key)) or key[0] < 1 or key[-1] > q or key in lam or value == 0:
            return f"bad lambda line {line!r}"
        lam[key] = value
    for m, total in equation_totals(r, d, q, forces, lam):
        if any(total):
            return f"equation for {list(m)} is {[str(x) for x in total]} at the printed lambda, not zero"
    return None


def check_witness(item, stdout):
    argv = dict(zip(item.argv[1::2], item.argv[2::2]))
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "witness-search output is not JSON"
    fields = ("r", "d", "trials", "bound", "seed", "nonzero_count", "first_witness")
    if not isinstance(doc, dict) or set(doc) != set(fields):
        return "witness-search output has unexpected fields"
    for name in ("r", "d", "trials", "seed"):
        if doc[name] != int(argv[f"--{name}"]):
            return f"witness-search echoes {name}={doc[name]!r}, asked for {argv[f'--{name}']}"
    if doc["bound"] != BOUND or doc["trials"] != WITNESS_TRIALS:
        return "witness-search used an unexpected bound or trial count"
    count, witness = doc["nonzero_count"], doc["first_witness"]
    if not isinstance(count, int) or not 0 <= count <= doc["trials"]:
        return f"nonzero_count {count!r} out of range"
    if (witness is None) != (count == 0):
        return "first_witness must be present exactly when nonzero_count > 0"
    if witness is not None:
        r, d, q, kind, entries = read_tensor_doc(witness)
        if (r, d, q, kind) != (doc["r"], doc["d"], doc["r"] * doc["d"], "configuration"):
            return "first_witness has the wrong shape"
        if det_mod_p(square_system(r, d, q, entries)) == 0:
            return "first_witness has a zero determinant"
    return None


def check_selfcheck(item, stdout):
    lines = stdout.splitlines()
    passes = [line for line in lines[:-1] if line.startswith("PASS ") and line.endswith(f": {SELFCHECK_TRIALS} trials")]
    if not lines or len(passes) != len(lines) - 1 or lines[-1] != f"selfcheck PASSED: {len(passes)} properties":
        return "selfcheck did not print PASS for every property and selfcheck PASSED"
    return None


_CHECKS = {"det": check_det, "solve": check_solve, "witness": check_witness, "selfcheck": check_selfcheck}


def check_item(item, rc, stdout):
    """None when (rc, stdout) is a correct answer for ``item``, else a reason."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    try:
        return _CHECKS[item.kind](item, stdout)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"unreadable output or input: {exc!r}"


def stdout_digest(outputs) -> str:
    """sha256 over the pool's outputs in pool order."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
