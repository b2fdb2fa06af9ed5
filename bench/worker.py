"""One fresh benchmark worker process.

    python3 bench/worker.py --import-only
        print [seconds taken to import equidet and equidet.cli, reference time]
    python3 bench/worker.py WORKDIR SECONDS TRACE
        run the pool in WORKDIR/pool.json as a closed loop and write
        WORKDIR/result.json (and WORKDIR/spans.bin when TRACE is 1)

The package is found through PYTHONPATH, which run.py points at the
checkout's src directory.  Only sys and time are imported before the import
is timed, so the measured set-up includes every module equidet pulls in.
"""

import sys
import time

_t0 = time.perf_counter()
import equidet  # noqa: E402
import equidet.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import reference_task  # noqa: E402

IMPORT_REF_S = statistics.median(reference_task() for _ in range(15))

MIN_CALLS = 100  # so that p90 has at least ten samples beyond it
HARD_CAP_S = 120.0  # stop starting passes after this, whatever SECONDS says
SPAN_CAP = 3_000_000  # traced passes stop once this many spans (about 70 MB) are held


def call(main, argv):
    """One in-process CLI call: (seconds, exit code or None if it raised, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # a raising call is a failed call, never the end of the run
        t1 = time.perf_counter()
        return t1 - t0, None, out.getvalue(), traceback.format_exc()
    t1 = time.perf_counter()
    return t1 - t0, rc, out.getvalue(), err.getvalue()


class Loop:
    """Closed loop over a pool: the next call starts when the previous returns.

    Per call it keeps [pool index, seconds, exit code, same exit code and
    stdout as the first call on that input, seconds of the slower of the
    reference task runs just before and just after it]; the first output of
    each input is kept whole for the checker.
    """

    def __init__(self, main, pool):
        self.main = main
        self.pool = pool
        self.calls = []
        self.first = {}
        self.errors = []

    def run_pass(self):
        before = reference_task()
        for index, argv in enumerate(self.pool):
            seconds, rc, stdout, err = call(self.main, argv)
            after = reference_task()
            if index not in self.first:
                self.first[index] = [rc, stdout, err]
            same = rc is not None and [rc, stdout] == self.first[index][:2]
            if rc is None and len(self.errors) < 3:
                self.errors.append(err)
            self.calls.append([index, seconds, rc, same, max(before, after)])
            before = after

    def run(self, seconds, done=lambda: False):
        """Whole passes until ``seconds`` have passed and MIN_CALLS were made,
        or until ``done()`` holds or HARD_CAP_S has passed."""
        t0 = time.perf_counter()
        while True:
            self.run_pass()
            elapsed = time.perf_counter() - t0
            if done() or elapsed >= HARD_CAP_S or (elapsed >= seconds and len(self.calls) >= MIN_CALLS):
                return


def _measure(workdir, seconds):
    loop = Loop(equidet.cli.main, json.loads((workdir / "pool.json").read_text()))
    loop.run(seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"import": [IMPORT_S, IMPORT_REF_S], "peak_rss_kb": peak_kb,
            "calls": loop.calls, "first": loop.first, "errors": loop.errors}


def _trace(workdir, seconds):
    from tracer import Tracer  # only traced workers pay for importing it

    pool = json.loads((workdir / "pool.json").read_text())
    tracer = Tracer()
    tracer.install()
    loop = Loop(equidet.cli.main, pool)
    misses0 = tracer.cache_misses()
    tracer.counting = True
    loop.run_pass()
    tracer.counting = False
    first_pass_spans = len(tracer)
    counts = dict(tracer.counts)
    for name, total in tracer.cache_misses().items():
        counts[name] = total - misses0[name]
    loop.run(seconds, done=lambda: len(tracer) >= SPAN_CAP)
    tracer.uninstall()
    baseline = Loop(equidet.cli.main, pool)
    baseline.run_pass()
    tracer.dump(workdir / "spans.bin")
    return {"calls": loop.calls, "first": loop.first, "errors": loop.errors + baseline.errors,
            "baseline": baseline.calls, "names": tracer.names, "spans": len(tracer),
            "first_pass_spans": first_pass_spans, "counts": counts}


def main(argv):
    if argv == ["--import-only"]:
        print(json.dumps([IMPORT_S, IMPORT_REF_S]))
        return 0
    workdir, seconds, trace = Path(argv[0]), float(argv[1]), argv[2] == "1"
    result = _trace(workdir, seconds) if trace else _measure(workdir, seconds)
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
