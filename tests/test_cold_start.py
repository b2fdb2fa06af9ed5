"""What a cold start loads: ``import equidet`` loads no submodule, each command
loads only the modules it runs, one-shot CLI calls import neither the process
pool nor ``dataclasses``, and only ``--parallel`` loads the pool."""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).parents[1] / "src")
FIXTURE = str(Path(__file__).parent / "fixtures" / "forces_r2_d2_nonzero.json")
HEAVY = ("multiprocessing", "concurrent.futures.process", "dataclasses", "inspect")
# modules that only some commands run
DEFERRED = ("equidet.witnesses", "equidet.equilibrium", "equidet.invariants", "random")

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


def fresh_python(*argv):
    """stdout of one fresh ``python -S -B`` (no site-packages, no site preloads,
    no bytecode written) run with ``argv``."""
    done = subprocess.run(
        [sys.executable, "-S", "-B", *argv],
        capture_output=True, text=True, env={"PYTHONPATH": SRC}, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def cold_run(*calls, watch=HEAVY):
    """Run ``calls`` in one fresh process: (stdout of the calls, exit codes,
    the modules of ``watch`` that are loaded at the end, in ``watch`` order)."""
    out = fresh_python("-c", PROBE, json.dumps(calls), json.dumps(watch))
    stdout, _, last = out[:-1].rpartition("\n")
    codes, loaded = json.loads(last)
    return stdout, codes, loaded


def test_importing_the_package_loads_no_submodule():
    out = fresh_python("-c", "import sys, equidet; print([m for m in sys.modules if m.startswith('equidet.')])")
    assert out == "[]\n"


def test_det_loads_neither_witnesses_equilibrium_the_suite_nor_random():
    _, codes, loaded = cold_run(["det", "--input", FIXTURE], ["det", "--input", FIXTURE, "--matrix"],
                                watch=DEFERRED)
    assert codes == [0, 0]
    assert loaded == []


def test_solve_loads_equilibrium_but_not_witnesses():
    _, codes, loaded = cold_run(["solve", "--input", FIXTURE], watch=DEFERRED)
    assert codes == [0]
    assert loaded == ["equidet.equilibrium"]


def test_witness_search_loads_witnesses_but_not_equilibrium():
    _, codes, loaded = cold_run(["witness-search", "--r", "2", "--d", "2", "--trials", "2"], watch=DEFERRED)
    assert codes == [0]
    assert loaded == ["equidet.witnesses", "random"]


def test_selfcheck_loads_the_suite():
    _, codes, loaded = cold_run(["selfcheck", "--trials", "1"], watch=DEFERRED)
    assert codes == [0]
    assert loaded == list(DEFERRED)


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
