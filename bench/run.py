"""equidet benchmark: whole CLI calls and each layer on its own.

    python3 bench/run.py --workload det-square --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

One client drives ``equidet.cli.main(argv)`` in a closed loop inside a fresh
worker process (bench/worker.py): the next call starts when the previous one
returns.  The inputs are generated from --seed before timing starts
(bench/workloads.py), every output is checked by code that does not trust the
program (bench/checker.py), and the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: set-up (the median import time of
several fresh workers), calls per second, p50/p90 latency and the worker's
peak memory.  --trace 1 runs a separate traced worker (bench/tracer.py) and
reports per-op time and work counts for each layer, i.e. each module of the
package.  Times are calibrated to a nominal host speed (bench/calibrate.py);
the human-readable lines also give them raw.  The program is run from the src
directory of the checkout holding this file; without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from math import ceil
from pathlib import Path

from calibrate import REF_NOMINAL_S, speed_factor
from checker import check_item, stdout_digest
from tracer import LAYERS, aggregate, load_spans
from workloads import DEFAULT_SEED, WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 4  # fresh workers timed for set-up before and again after the measuring worker
WORKER_TIMEOUT_S = 150
# sha256 of each workload's stdout on DEFAULT_SEED, recorded from the unmodified
# program: CLI output must stay byte-identical across changes.
DIGESTS = BENCH / "digests.json"

# Per-op inclusive times of the functions each workload is expected to move.
TIMED_FUNCTIONS = (
    "exact.det_exact", "exact.kernel_basis", "exact.rank_exact",
    "detmap.build_system_matrix", "detmap.check_dependence_relations",
    "equilibrium.build_equilibrium_system", "equilibrium.residual", "equilibrium.row_dependence_holds",
    "witnesses.random_configuration", "tensorfile.tensor_to_json", "tensorfile.load_tensor",
    "tensors.to_configuration",
)
SELF_TIMED_FUNCTIONS = ("equilibrium.theorem_consistency", "cli.main")
COUNTS = ("exact.cells", "exact.kernel_dim", "exact.det_bits", "detmap.nnz",
          "equilibrium.nnz", "combinat.subsets_colex.misses")


def _worker(*args, timeout=WORKER_TIMEOUT_S):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def setup_samples():
    """[import seconds, reference task seconds] from fresh workers."""
    return [json.loads(_worker("--import-only")) for _ in range(SETUP_SAMPLES)]


def calibrated(calls):
    """Each call's seconds at the nominal speed, from the reference task runs
    around it."""
    return [seconds * REF_NOMINAL_S / ref for _, seconds, _, _, ref in calls]


def percentile(sorted_values, share):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, ceil(share * len(sorted_values)) - 1)]


def judge(pool, result, seed, workload):
    """Check every call: (attempted, failed, correct, notes, stdout digest)."""
    notes = []
    bad_items = set()
    outputs = []
    for index, item in enumerate(pool):
        rc, stdout, err = result["first"][str(index)]
        outputs.append(stdout)
        reason = "raised" if rc is None else check_item(item, rc, stdout)
        if reason:
            bad_items.add(index)
            notes.append(f"input {index} ({' '.join(item.argv)}): {reason}")
    failed = sum(1 for index, _, rc, same, _ in result["calls"] if index in bad_items or rc is None or not same)
    notes += [f"traceback: {text}" for text in result["errors"]]
    digest = stdout_digest(outputs)
    correct = failed == 0
    if seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
        if digest != expected:
            correct = False
            notes.append(f"stdout digest {digest} differs from the recorded {expected}")
    return len(result["calls"]), failed, correct, notes, digest


def end_to_end(result, setup):
    """name -> (calibrated value, unit, sample count, raw value or None)."""
    lat = sorted(calibrated(result["calls"]))
    raw = sorted(seconds for _, seconds, _, _, _ in result["calls"])
    n = len(lat)
    return {
        "setup_s": (statistics.median(s * REF_NOMINAL_S / ref for s, ref in setup), "s", len(setup),
                    statistics.median(s for s, _ in setup)),
        "ops_per_s": (n / sum(lat), "1/s", n, n / sum(raw)),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms", n, 1000 * statistics.median(raw)),
        "latency_p90_ms": (1000 * percentile(lat, 0.9), "ms", n, 1000 * percentile(raw, 0.9)),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB", 1, None),
    }


def per_layer(result, workdir, pool_size):
    """name -> (value, unit, sample count, raw value or None); times are per
    op over the traced calls after the first pass, counts per op over the
    first pass, which alone ran the counters."""
    names, first, total = result["names"], result["first_pass_spans"], result["spans"]
    spans = load_spans(workdir / "spans.bin", total)
    timed = result["calls"][pool_size:]
    ops = len(timed)
    inclusive, self_s, _ = aggregate(names, *spans, first=first)
    _, _, first_calls = aggregate(names, *spans, stop=first)
    factor = speed_factor([ref for *_, ref in timed])

    def per_op_ms(seconds):
        return (1000 * seconds * factor / ops, "ms", ops, 1000 * seconds / ops)

    def per_op_count(total):
        return (total / pool_size, "count", pool_size, None)

    metrics = {f"{name}.ms": per_op_ms(inclusive.get(name, 0.0)) for name in TIMED_FUNCTIONS}
    metrics.update({f"{name}.self_ms": per_op_ms(self_s.get(name, 0.0)) for name in SELF_TIMED_FUNCTIONS})
    for layer in LAYERS:
        in_layer = [name for name in names if name.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_ms"] = per_op_ms(sum(self_s.get(n, 0.0) for n in in_layer))
        metrics[f"{layer}.calls"] = per_op_count(sum(first_calls.get(n, 0) for n in in_layer))
    counts = result["counts"]
    metrics.update({name: per_op_count(counts.get(name, 0)) for name in COUNTS})
    trials = counts.get("witnesses.trials", 0)
    metrics["witnesses.hit_ratio"] = (counts.get("witnesses.hits", 0) / trials if trials else 0.0,
                                      "ratio", trials, None)
    overhead = statistics.mean(calibrated(timed)) / statistics.mean(calibrated(result["baseline"]))
    metrics["tracing.overhead_ratio"] = (overhead, "ratio", ops, None)
    raw_traced = sum(seconds for _, seconds, *_ in timed)
    metrics["unattributed.ms"] = per_op_ms(raw_traced - inclusive.get("cli.main", 0.0))
    return metrics


def run_workload(workload, seed, seconds, trace):
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        pool = generate(workload, seed, workdir)
        (workdir / "pool.json").write_text(json.dumps([list(item.argv) for item in pool]), encoding="utf-8")
        if not trace:
            _worker("--import-only")  # discarded: the first import may also compile bytecode
            setup = setup_samples()
        _worker(str(workdir), repr(seconds), "1" if trace else "0")
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
        attempted, failed, correct, notes, digest = judge(pool, result, seed, workload)
        if trace:
            metrics = per_layer(result, workdir, len(pool))
        else:
            metrics = end_to_end(result, setup + setup_samples() + [result["import"]])
    lines = [f"workload {workload} seed {seed}: {attempted} calls, {failed} failed "
             f"(failed_ratio {failed / attempted:.4f}), stdout digest {digest}"]
    for note in notes:
        lines.append(f"  CHECK {note}")
    for name, (value, unit, samples, raw) in metrics.items():
        raw = "" if raw is None else f", raw {raw:.6g}"
        lines.append(f"  {name} = {value:.6g} {unit} (n={samples}{raw})")
    record = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()}}
    return lines, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equidet" / "cli.py").is_file():
        print(f"error: no equidet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        try:
            lines, record = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            print(json.dumps(record))
            return 0
        combined["correct"] &= record["correct"]
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in record["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
