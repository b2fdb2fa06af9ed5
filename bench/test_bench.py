"""Tests of the benchmark itself:  python3 -m pytest -q bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import equidet.cli  # noqa: E402
from checker import check_item  # noqa: E402
from run import judge, run_workload  # noqa: E402
from tracer import aggregate  # noqa: E402
from worker import Loop, call  # noqa: E402
from workloads import generate  # noqa: E402


def program_output(item):
    _, rc, stdout, _ = call(equidet.cli.main, item.argv)
    assert rc == 0
    return stdout


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    return {name: generate(name, 5, out) for name in ("det-square", "solve-overdet", "witness-search", "selfcheck")}


def test_generator_is_seeded(tmp_path):
    runs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        runs.append(generate("det-square", 3, tmp_path / name))
    a, b = runs
    assert [x.zero for x in a] == [x.zero for x in b]
    assert sum(x.zero for x in a) == len(a) // 4
    for x, y in zip(a, b):
        assert Path(x.path).read_bytes() == Path(y.path).read_bytes()


def test_det_checker_rejects_flipped_verdict_and_wrong_value(pools):
    zero = next(x for x in pools["det-square"] if x.zero)
    nonzero = next(x for x in pools["det-square"] if not x.zero)
    assert program_output(zero) == "0\nZERO\n"
    assert check_item(zero, 0, "0\nZERO\n") is None
    assert "disagrees" in check_item(zero, 0, "0\nNONZERO\n")
    assert "zero by construction" in check_item(zero, 0, "5\nNONZERO\n")
    out = program_output(nonzero)
    value = int(out.splitlines()[0])
    assert check_item(nonzero, 0, out) is None
    assert "disagrees" in check_item(nonzero, 0, f"{value}\nZERO\n")
    assert "independent elimination" in check_item(nonzero, 0, f"{value + 1}\nNONZERO\n")
    assert "independent elimination" in check_item(nonzero, 0, "0\nZERO\n")
    assert "exit code" in check_item(nonzero, 1, out)


def test_solve_checker_rejects_nonzero_residual(pools):
    item = pools["solve-overdet"][0]
    out = program_output(item)
    assert check_item(item, 0, out) is None
    lines = out.splitlines()
    key, value = lines[1].split(" = ")
    bumped = "\n".join([lines[0], f"{key} = {int(value) + 1}", *lines[2:]]) + "\n"
    assert "not zero" in check_item(item, 0, bumped)
    assert check_item(item, 0, "UNSOLVABLE\n") is not None


def test_witness_and_selfcheck_checkers(pools):
    item = pools["witness-search"][0]
    out = program_output(item)
    assert check_item(item, 0, out) is None
    doc = json.loads(out)
    assert doc["nonzero_count"] > 0
    assert check_item(item, 0, json.dumps(dict(doc, nonzero_count=0))) is not None
    assert check_item(item, 0, json.dumps(dict(doc, seed=doc["seed"] + 1))) is not None
    selfcheck = pools["selfcheck"][0]
    out = program_output(selfcheck)
    assert check_item(selfcheck, 0, out) is None
    assert check_item(selfcheck, 0, out.replace("PASS", "FAIL", 1)) is not None


def test_raising_call_is_failed_and_run_continues(pools):
    pool = pools["witness-search"][:3]

    def flaky(argv):
        if argv[-1] == pool[1].argv[-1]:
            raise RuntimeError("boom")
        return equidet.cli.main(argv)

    loop = Loop(flaky, [list(item.argv) for item in pool])
    loop.run_pass()
    loop.run_pass()
    assert [c[0] for c in loop.calls] == [0, 1, 2, 0, 1, 2]
    assert [c[2] for c in loop.calls] == [0, None, 0, 0, None, 0]
    assert "boom" in loop.errors[0]
    result = {"calls": loop.calls, "first": {str(k): v for k, v in loop.first.items()}, "errors": loop.errors}
    attempted, failed, correct, notes, _ = judge(pool, result, seed=5, workload="witness-search")
    assert (attempted, failed, correct) == (6, 2, False)


def test_aggregate_self_time():
    # outer a.f [0, 10] calls b.g [1, 4] and a nested a.f [5, 9]; then a root b.g [20, 21]
    name_id, start, end, parent = [0, 1, 0, 1], [0, 1, 5, 20], [10, 4, 9, 21], [-1, 0, 0, -1]
    inclusive, self_s, calls = aggregate(["a.f", "b.g"], name_id, start, end, parent)
    assert self_s["a.f"] == (10 - 3 - 4) + 4 and self_s["b.g"] == 3 + 1
    assert inclusive["a.f"] == 10 and inclusive["b.g"] == 4
    assert calls["a.f"] == 2 and calls["b.g"] == 2
    assert sum(self_s.values()) == 10 + 1


def test_metric_names_match_and_counts_repeat():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _, e2e = run_workload("witness-search", 5, 0.0, trace=False)
    assert list(e2e["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert e2e["correct"] and e2e["failed"] == 0
    traced = [run_workload("witness-search", 5, 0.0, trace=True)[1] for _ in range(2)]
    assert list(traced[0]["metrics"]) == [m["name"] for m in spec["per_layer"]]
    for record in traced:
        assert record["correct"]
        for metric in spec["per_layer"]:
            assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r in traced]
    assert counts[0] == counts[1]
    assert counts[0]["exact.calls"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "det-square", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
