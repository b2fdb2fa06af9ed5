"""What a cold start loads: one-shot CLI calls import neither the process pool
nor ``dataclasses``; only ``--parallel`` loads the pool."""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).parents[1] / "src")
FIXTURE = str(Path(__file__).parent / "fixtures" / "forces_r2_d2_nonzero.json")
HEAVY = ("multiprocessing", "concurrent.futures.process", "dataclasses", "inspect")

# argv[1] is a JSON list of CLI calls and argv[2] a JSON list of module names;
# prints the calls' stdout, then one JSON line: [exit codes, names loaded]
PROBE = """
import contextlib, io, json, sys
import equidet, equidet.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [equidet.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(out.getvalue(), end="")
print(json.dumps([codes, [name for name in json.loads(sys.argv[2]) if name in sys.modules]]))
"""


def cold_run(*calls):
    """Run ``calls`` in one fresh ``python -S -B`` (no site-packages, no site
    preloads, no bytecode written): (stdout of the calls, exit codes, loaded HEAVY modules)."""
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-c", PROBE, json.dumps(calls), json.dumps(HEAVY)],
        capture_output=True, text=True, env={"PYTHONPATH": SRC}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    stdout, _, last = done.stdout[:-1].rpartition("\n")
    codes, loaded = json.loads(last)
    return stdout, codes, loaded


def test_one_shot_calls_load_neither_the_pool_nor_dataclasses():
    _, codes, loaded = cold_run(["det", "--input", FIXTURE], ["selfcheck", "--trials", "1"])
    assert codes == [0, 0]
    assert loaded == []


def test_parallel_search_loads_the_pool_and_matches_the_sequential_search():
    argv = ["witness-search", "--r", "2", "--d", "2", "--trials", "2"]
    parallel_out, codes, loaded = cold_run(argv + ["--parallel"])
    assert codes == [0]
    assert "concurrent.futures.process" in loaded
    sequential_out, _, loaded = cold_run(argv)
    assert "concurrent.futures.process" not in loaded
    assert parallel_out == sequential_out
