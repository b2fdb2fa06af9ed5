import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from equidet import ForceSystem, dump_tensor, load_tensor, tensor_from_json, theorem_consistency
from equidet.cli import _build_parser, main

FIXTURE = str(Path(__file__).parent / "fixtures" / "forces_r2_d2_nonzero.json")


def write_min_config(tmp_path, value="7"):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(
            {
                "r": 2,
                "d": 1,
                "q": 2,
                "kind": "configuration",
                "entries": [{"idx": [1, 2], "vec": [value]}],
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def test_det_minimal_configuration(tmp_path, capsys):
    assert main(["det", "--input", write_min_config(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "7"
    assert out[1] == "NONZERO"


def test_det_reports_zero(tmp_path, capsys):
    assert main(["det", "--input", write_min_config(tmp_path, value="0")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0"
    assert out[1] == "ZERO"


def test_det_matrix_dump(tmp_path, capsys):
    assert main(["det", "--input", write_min_config(tmp_path), "--matrix"]) == 0
    out = capsys.readouterr().out
    dump = json.loads(out.split("NONZERO", 1)[1])
    assert dump["col_labels"] == [[1, 2]]
    assert dump["row_labels"] == [[[1], 1]]
    assert dump["entries"] == [["7"]]


def test_det_rejects_non_square_particle_count(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(
        json.dumps({"r": 2, "d": 2, "q": 5, "kind": "forces", "entries": []}),
        encoding="utf-8",
    )
    assert main(["det", "--input", str(path)]) == 3


def test_det_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["det", "--input", str(path)]) == 2
    assert main(["det", "--input", str(tmp_path / "missing.json")]) == 2


def test_det_accepts_forces_via_conversion(capsys):
    assert main(["det", "--input", FIXTURE]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "26730"  # frozen regression value
    assert out[1] == "NONZERO"


def test_solve_overdetermined_is_solvable(tmp_path, capsys):
    import random

    from equidet import random_force_system

    f = random_force_system(2, 2, 5, 5, random.Random(70))
    path = tmp_path / "f.json"
    dump_tensor(f, path)
    assert main(["solve", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SOLVABLE" in out
    assert "residual = 0 (verified)" in out


def test_solve_fixture_unsolvable(capsys):
    assert main(["solve", "--input", FIXTURE]) == 0
    out = capsys.readouterr().out
    assert "UNSOLVABLE" in out
    assert "det = 26730" in out
    assert "criterion: CONSISTENT" in out


def test_solve_zero_forces(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps({"r": 2, "d": 2, "q": 4, "kind": "forces", "entries": []}),
        encoding="utf-8",
    )
    assert main(["solve", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "SOLVABLE" in out
    assert "criterion: CONSISTENT" in out


def test_solve_rejects_configuration_kind(tmp_path):
    assert main(["solve", "--input", write_min_config(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["det", "solve"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main([command, "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["det", "solve"])
def test_shape_too_large_to_enumerate_exits_2(tmp_path, capsys, command):
    # q = r*d passes the square check, but C(q, r - 1) subsets overflow a C size
    huge = 10**21
    path = tmp_path / "huge.json"
    path.write_text(
        json.dumps({"r": huge, "d": 1, "q": huge, "kind": "forces", "entries": []}),
        encoding="utf-8",
    )
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error: field 'r' has 22 digits" in captured.err
    assert str(huge) not in captured.err
    assert "Traceback" not in captured.err
    assert "internal error" not in captured.err
    assert captured.out == ""


def test_solve_on_a_particle_count_too_large_to_enumerate_is_solvable(tmp_path, capsys):
    # q > r*d: solve lists only the tuples of the first r*d + 1 particles, so
    # q itself is never enumerated
    path = tmp_path / "many.json"
    path.write_text(
        json.dumps({"r": 2, "d": 1, "q": 10**25, "kind": "forces", "entries": []}),
        encoding="utf-8",
    )
    assert main(["solve", "--input", str(path)]) == 0
    assert capsys.readouterr().out == "SOLVABLE\nlambda[1, 2] = 1\nresidual = 0 (verified)\n"


def test_solve_on_a_particle_count_too_large_to_enumerate_exits_2(tmp_path, capsys):
    # r and q load, but the first r*d + 1 particles are too many to list
    path = tmp_path / "many.json"
    path.write_text(
        json.dumps({"r": 2, "d": 5 * 10**18, "q": 10**25, "kind": "forces", "entries": []}),
        encoding="utf-8",
    )
    assert main(["solve", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert "error: cannot enumerate" in captured.err
    assert "has 20 digits" in captured.err
    assert captured.out == ""


def test_values_over_4300_digits_print(tmp_path, capsys):
    # 1000-digit entries give a determinant of about 6000 digits, past the
    # interpreter's default limit for str() of an int
    import random

    from equidet import det_sr

    rng = random.Random(44)
    canonical = {
        (a, b): tuple(rng.randint(-(10**1000), 10**1000) for _ in range(2))
        for a in range(1, 5)
        for b in range(a + 1, 5)
    }
    path = tmp_path / "wide.json"
    dump_tensor(ForceSystem(2, 2, 4, canonical), path)
    expected = det_sr(load_tensor(path).to_configuration())
    assert abs(expected.numerator) > 10**4300
    # main restores the caller's digit limit, so this conversion lifts its own
    text = str_past_digit_limit(expected)
    assert main(["det", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == text
    assert main(["solve", "--input", str(path)]) == 0
    assert f"det = {text}" in capsys.readouterr().out.splitlines()


def str_past_digit_limit(value):
    """str(value) with the interpreter's int digit limit lifted for the call only."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("argv", [
    ["example", "cross-product", "--output", "{tmp}/cross.json"],
    ["det", "--input", "{tmp}/missing.json"],  # exits 2
])
def test_main_restores_the_callers_digit_limit(tmp_path, argv):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        main([arg.format(tmp=tmp_path) for arg in argv])
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("scalar", ["1" * 5000, "1/" + "1" * 5000])
def test_det_rejects_scalars_over_the_digit_limit(tmp_path, capsys, scalar):
    assert main(["det", "--input", write_min_config(tmp_path, value=scalar)]) == 2
    assert "4300-digit limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-relations", "--r", "0"],
        ["verify-relations", "--d", "0"],
        ["verify-relations", "--trials", "0"],
        ["selfcheck", "--trials", "0"],
        ["selfcheck", "--trials", "-3"],
    ],
)
def test_invariant_suite_rejects_bad_arguments(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "PASS" not in captured.out


def test_solve_exits_1_when_the_kernel_vector_fails_its_certificate(tmp_path, monkeypatch, capsys):
    import random

    import equidet.equilibrium as equilibrium
    from equidet import build_equilibrium_system, kernel_vector, random_force_system

    f = random_force_system(2, 2, 5, 5, random.Random(70))
    matrix = build_equilibrium_system(f).full_matrix
    # q = 5 > r*d: solve eliminates the n = 8 equations avoiding particle 5,
    # cut to n + 1 = 9 columns, so the patched vector has that length
    n = 8
    bad = kernel_vector(matrix)
    assert not any(bad[n + 1:])
    del bad[n + 1:]
    bad[next(j for j in range(n + 1) if any(row[j] for row in matrix.data))] += 1
    assert any(matrix.mul_vec(bad + [0] * (matrix.cols - n - 1)))
    monkeypatch.setattr(equilibrium, "kernel_vector", lambda m: list(bad))
    path = tmp_path / "f.json"
    dump_tensor(f, path)
    assert main(["solve", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "internal error" in captured.err
    assert "SOLVABLE" not in captured.out


@pytest.mark.parametrize("r, d, q", [(2, 2, 6), (3, 2, 8)])
def test_solve_exits_1_when_the_prefix_vector_fails_its_certificate(
    tmp_path, corrupt_prefix_vectors, capsys, r, d, q
):
    import random

    from equidet import random_force_system

    path = tmp_path / "f.json"
    dump_tensor(random_force_system(r, d, q, 5, random.Random(73)), path)
    corrupt_prefix_vectors(r, d, q)
    assert main(["solve", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert "internal error" in captured.err
    assert "SOLVABLE" not in captured.out


def test_det_exits_1_when_the_determinant_fails_its_check(tmp_path, monkeypatch, capsys):
    import equidet.cli as cli

    def failing_det(cfg):
        raise ArithmeticError("determinant failed its check")

    monkeypatch.setattr(cli, "det_sr", failing_det)
    assert main(["det", "--input", write_min_config(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "internal error: determinant failed its check" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_solve_exits_1_when_the_criterion_disagrees(tmp_path, monkeypatch, capsys):
    import equidet.cli as cli

    path = tmp_path / "cross.json"
    assert main(["example", "cross-product", "--output", str(path), "--seed", "1"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "det_sr", lambda cfg: Fraction(1))  # solvable, so det must be 0
    assert main(["solve", "--input", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SOLVABLE"
    assert out[-2:] == ["det = 1", "criterion: INCONSISTENT"]


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_main_runs_the_handler_bound_at_call_time(monkeypatch):
    import equidet.cli as cli

    monkeypatch.setattr(cli, "cmd_det", lambda args: 7)
    assert main(["det", "--input", "x"]) == 7


def test_cached_parser_survives_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["det"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["det", "--input", FIXTURE]) == 0
    assert capsys.readouterr().out == "26730\nNONZERO\n"


def test_det_rejects_json_integers_over_the_digit_limit(tmp_path, capsys):
    # main lifts the interpreter's int/str limit for printing; the file's own
    # JSON integers must still obey the format's limit afterwards
    assert main(["det", "--input", write_min_config(tmp_path)]) == 0
    capsys.readouterr()
    path = tmp_path / "long_r.json"
    path.write_text(
        '{"r": ' + "1" * 5000 + ', "d": 1, "q": 2, "kind": "configuration", "entries": []}',
        encoding="utf-8",
    )
    assert main(["det", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert "4300-digit limit" in captured.err
    assert len(captured.err) < 200
    assert captured.out == ""


@pytest.mark.parametrize("value", ["\u0663", "\uff11", "1/\u0662"])
def test_det_rejects_non_ascii_digits(tmp_path, capsys, value):
    assert main(["det", "--input", write_min_config(tmp_path, value=value)]) == 2
    captured = capsys.readouterr()
    assert "bad scalar" in captured.err
    assert captured.out == ""


def _random_tensor(kind, seed):
    import random

    from equidet import cross_product_forces, random_configuration, random_force_system

    rng = random.Random(seed)
    if kind == "forces-square":
        return random_force_system(2, 2, 4, 5, rng)
    if kind == "forces-overdetermined":
        return random_force_system(2, 2, 5, 5, rng)
    if kind == "cross-product":  # square and solvable: det 0 and printed lambdas
        return cross_product_forces([tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(9)])
    return random_configuration(3, 1, 5, rng)


@pytest.mark.parametrize(
    "kind,exit_codes",
    [
        ("forces-square", [0, 0, 0]),
        ("forces-overdetermined", [3, 3, 0]),
        ("cross-product", [0, 0, 0]),
        ("configuration", [0, 0, 2]),
    ],
)
def test_integer_and_unit_fraction_files_print_identically(tmp_path, capsys, kind, exit_codes):
    # integer strings load as int, "k/1" as Fraction; det, det --matrix and
    # solve must not tell the two apart
    from equidet import tensor_to_json

    doc = tensor_to_json(_random_tensor(kind, 80))
    assert all("/" not in x for entry in doc["entries"] for x in entry["vec"])
    as_ratios = json.loads(json.dumps(doc))
    for entry in as_ratios["entries"]:
        entry["vec"] = [f"{x}/1" for x in entry["vec"]]
    outputs = []
    for name, document in (("int.json", doc), ("ratio.json", as_ratios)):
        path = tmp_path / name
        path.write_text(json.dumps(document), encoding="utf-8")
        runs = []
        for argv in (["det"], ["det", "--matrix"], ["solve"]):
            code = main(argv + ["--input", str(path)])
            runs.append((code, capsys.readouterr().out))
        outputs.append(runs)
    assert outputs[0] == outputs[1]
    assert [code for code, _ in outputs[0]] == exit_codes


def test_example_cross_product(tmp_path, capsys):
    out_path = tmp_path / "cross.json"
    assert main(["example", "cross-product", "--output", str(out_path), "--seed", "1"]) == 0
    obj = load_tensor(out_path)
    assert isinstance(obj, ForceSystem)
    assert (obj.r, obj.d, obj.q) == (3, 3, 9)
    capsys.readouterr()
    assert main(["det", "--input", str(out_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0" and out[1] == "ZERO"


def test_example_differences(tmp_path):
    out_path = tmp_path / "diff.json"
    assert main(["example", "differences", "--d", "2", "--output", str(out_path), "--seed", "1"]) == 0
    obj = load_tensor(out_path)
    assert (obj.r, obj.d, obj.q) == (2, 2, 4)
    assert not isinstance(obj, ForceSystem)


def test_example_wedge(tmp_path):
    out_path = tmp_path / "wedge.json"
    assert main(["example", "wedge", "--s", "3", "--output", str(out_path), "--seed", "1"]) == 0
    obj = load_tensor(out_path)
    assert isinstance(obj, ForceSystem)
    assert (obj.r, obj.d, obj.q) == (3, 3, 9)


def test_example_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["example", "cross-product", "--output", str(a), "--seed", "9"]) == 0
    assert main(["example", "cross-product", "--output", str(b), "--seed", "9"]) == 0
    assert a.read_text() == b.read_text()


def test_example_rejects_bad_params(tmp_path):
    out_path = tmp_path / "w.json"
    assert main(["example", "wedge", "--s", "2", "--output", str(out_path)]) == 2
    assert main(["example", "differences", "--d", "0", "--output", str(out_path)]) == 2


def test_example_unknown_name_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["example", "sphere", "--output", str(tmp_path / "x.json")])
    assert err.value.code == 2


def test_witness_search_json_output(capsys):
    assert main(["witness-search", "--r", "2", "--d", "2", "--trials", "5", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 5
    assert 0 <= doc["nonzero_count"] <= 5
    if doc["nonzero_count"]:
        witness = tensor_from_json(doc["first_witness"])
        assert witness.q == 4


def test_witness_search_deterministic(capsys):
    main(["witness-search", "--r", "2", "--d", "2", "--trials", "4", "--seed", "11"])
    first = capsys.readouterr().out
    main(["witness-search", "--r", "2", "--d", "2", "--trials", "4", "--seed", "11"])
    assert capsys.readouterr().out == first
    main(["witness-search", "--r", "2", "--d", "2", "--trials", "4", "--seed", "11", "--parallel"])
    assert capsys.readouterr().out == first


def test_witness_search_rejects_bad_counts(capsys):
    assert main(["witness-search", "--r", "2", "--d", "2", "--trials", "0"]) == 2


def test_verify_relations_passes(capsys):
    assert main(["verify-relations", "--r", "3", "--d", "2", "--trials", "4", "--seed", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_selfcheck_passes(capsys):
    assert main(["selfcheck", "--trials", "3", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 8
    assert "FAIL" not in out
    assert "3 trials" in out


def test_selfcheck_parallel_matches_sequential(capsys):
    assert main(["selfcheck", "--trials", "2", "--seed", "6"]) == 0
    seq = capsys.readouterr().out
    assert main(["selfcheck", "--trials", "2", "--seed", "6", "--parallel"]) == 0
    assert capsys.readouterr().out == seq


def test_selfcheck_detects_corrupted_signs(patch_order_sign, capsys):
    patch_order_sign(lambda equation_tuple, i: 1)
    assert main(["selfcheck", "--trials", "2", "--seed", "5"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "dependence relations" in out


README_GOLDEN = Path(__file__).parent / "fixtures" / "readme_cli_golden.json"


def test_readme_examples_match_recorded_output(tmp_path, monkeypatch, capsys):
    # Every command of the README's CLI section, in order (later commands read
    # the files earlier ones write), against stdout and exit codes recorded
    # from the program before its system builders were merged.
    monkeypatch.chdir(tmp_path)
    for case in json.loads(README_GOLDEN.read_text(encoding="utf-8")):
        assert main(case["argv"]) == case["exit_code"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]



EXAMPLE_GOLDEN = Path(__file__).parent / "fixtures" / "example_golden.json"


@pytest.mark.parametrize(
    "case",
    json.loads(EXAMPLE_GOLDEN.read_text(encoding="utf-8")),
    ids=lambda case: " ".join(case["argv"][1:2] + case["argv"][4:]),
)
def test_example_files_match_recorded_digests(case, tmp_path, monkeypatch, capsys):
    # exit code, stdout and the sha256 of the written file, recorded from the
    # program whose generators wrote out each force formula by hand
    monkeypatch.chdir(tmp_path)
    assert main(case["argv"]) == case["exit_code"]
    assert capsys.readouterr().out == case["stdout"]
    written = tmp_path / "out.json"
    digest = hashlib.sha256(written.read_bytes()).hexdigest() if written.exists() else None
    assert digest == case["sha256"]


SOLVE_GOLDEN = Path(__file__).parent / "fixtures" / "solve_overdet_golden.json"


@pytest.mark.parametrize("name", sorted(json.loads(SOLVE_GOLDEN.read_text(encoding="utf-8"))))
def test_overdetermined_solve_matches_recorded_output(name, capsys):
    # seeded (2, 2, 7) and (3, 2, 8) force files; stdout recorded from the
    # solver that eliminated the whole system
    case = json.loads(SOLVE_GOLDEN.read_text(encoding="utf-8"))[name]
    assert main(["solve", "--input", str(SOLVE_GOLDEN.parent / name)]) == case["exit_code"]
    assert capsys.readouterr().out == case["stdout"]


def _example_file(*argv):
    def write(path):
        assert main(["example", *argv, "--output", str(path)]) == 0
    return write


def _text_file(text):
    return lambda path: path.write_text(text, encoding="utf-8")


def _force_file(r, d, q, vec):
    """A force file holding vec(*idx) at every sorted r-tuple of {1..q}, in lexicographic order."""
    entries = [{"idx": list(t), "vec": [str(x) for x in vec(*t)]} for t in combinations(range(1, q + 1), r)]
    return _text_file(json.dumps({"r": r, "d": d, "q": q, "kind": "forces", "entries": entries}))


def _pair_file(values):
    """An r = 2, d = 1, q = 4 force file with values at (1,2), (1,3), (2,3), (1,4), (2,4), (3,4)."""
    keys = [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4]]
    entries = [{"idx": key, "vec": [x]} for key, x in zip(keys, values)]
    return _text_file(json.dumps({"r": 2, "d": 1, "q": 4, "kind": "forces", "entries": entries}))


_POINTS = [(i, i * i % 7, (3 * i * i + i) % 5) for i in range(1, 8)]


def _cross(i, j, k):
    u, v = ([x - y for x, y in zip(_POINTS[a - 1], _POINTS[i - 1])] for a in (j, k))
    return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]


WORKFLOW_PINS = {
    # det --matrix at r = 3, q = 9, recorded from the square system built on its own equation range
    "cross-product-matrix": (
        _example_file("cross-product", "--seed", "1"), ["det", "--matrix"],
        "e08aeb3edace81848d62933891a266a1acf3eff14fefe83e7cb60fac8000517e",
    ),
    # det --matrix of a configuration at d = 3, both sign flips (block D and column Tau); recorded
    # from the builder that signed configurations with their own sign function
    "differences-d3-matrix": (
        _example_file("differences", "--d", "3", "--seed", "1"), ["det", "--matrix"],
        "8c263b899df33248872dc1e8579655c10931a2d6ae08f6b3bc035c2e72c69b84",
    ),
    # q > r*d at d = 1; stdout recorded from the full-system solver
    "overdet": (
        _pair_file(["3", "-1", "2", "5", "-4", "1/2"]), ["solve"],
        "SOLVABLE\nlambda[1, 2] = 2\nlambda[1, 3] = 6\nlambda[2, 3] = 3\nresidual = 0 (verified)\n",
    ),
    # p/q scalars, one repeated; stdout recorded from the loader that parsed every scalar on its own
    "fractions": (
        _pair_file(["1/2", "-2/3", "3/4", "5", "-4/7", "1/2"]), ["solve"],
        "SOLVABLE\nlambda[1, 2] = 12\nlambda[1, 3] = 9\nlambda[2, 3] = 8\nresidual = 0 (verified)\n",
    ),
    # d = 3, q = 8 > r*d: both cuts apply; recorded from the solver that eliminated the 21 x 21 system
    "r2d3q8": (
        _force_file(2, 3, 8, lambda i, j: [(3 * i + 5 * j + 7 * c) % 11 - 5 for c in range(3)]), ["solve"],
        "cb88ab8b4ace187852dd5859cd804f4990b8f7a2446d8dae3549377b970188a5",
    ),
    # r = 3, q = 16; recorded from the solver that scattered all 560 vectors into the full system
    "r3d2q16": (
        _force_file(3, 2, 16, lambda i, j, k: [(3 * i + 5 * j + 7 * k + 11 * c) % 13 - 6 for c in range(2)]),
        ["solve"],
        "a5aca7b80580f47841b12b84dbc26f066da823a5a4767c85834cb407e926efa4",
    ),
    # r = d = 3, q = 7 < r*d: cross-product forces with a kernel; recorded from the solver that
    # eliminated the whole 63 x 35 system
    "r3d3q7": (
        _force_file(3, 3, 7, _cross), ["solve"],
        "43f9c5f984b9267fcb50508a2e65d16f2ee4cb4e4ff95f7f10b1999981ebaa5c",
    ),
}


@pytest.mark.parametrize("name", WORKFLOW_PINS)
def test_workflow_pinned_outputs(name, tmp_path, capsys):
    # the outputs .github/workflows/tests.yml pins on the console script, here through main():
    # the exact stdout, or its sha256 where the stdout is long
    write, command, expected = WORKFLOW_PINS[name]
    path = tmp_path / "input.json"
    write(path)
    capsys.readouterr()
    assert main([command[0], "--input", str(path), *command[1:]]) == 0
    out = capsys.readouterr().out
    assert expected in (out, hashlib.sha256(out.encode()).hexdigest())


def test_forces_enter_the_square_without_tau(tmp_path, capsys, monkeypatch):
    # Force(Tau x) = Force(x) Tau, so det, det --matrix, solve and theorem_consistency read a
    # force system as stored: with the copy and Tau made to raise, the recorded outputs stay
    import equidet.detmap
    import equidet.tensors

    def refuse(*args):
        raise AssertionError("a force system was copied or Tau applied")

    path = tmp_path / "cross.json"
    _example_file("cross-product", "--seed", "1")(path)
    capsys.readouterr()
    monkeypatch.setattr(ForceSystem, "to_configuration", refuse)
    monkeypatch.setattr(equidet.detmap, "_tau", refuse)
    monkeypatch.setattr(equidet.tensors, "_tau", refuse)
    for argv, expected in [
        (["det", "--input", str(path), "--matrix"], WORKFLOW_PINS["cross-product-matrix"][2]),
        (["solve", "--input", str(path)], "ce625b5aac7677f93c8db03ebc7faed04d395f7377a32d010442a14fa7bfd41d"),
        (["det", "--input", FIXTURE], "26730\nNONZERO\n"),
        (["solve", "--input", FIXTURE], "UNSOLVABLE\ndet = 26730\ncriterion: CONSISTENT\n"),
    ]:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert expected in (out, hashlib.sha256(out.encode()).hexdigest()), argv
    report = theorem_consistency(load_tensor(FIXTURE))
    assert report == (Fraction(26730), 0, True, True)
    assert theorem_consistency(load_tensor(str(path))) == (0, 35, True, True)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cross-product", "--bound", "-1"], "need --bound >= 0, got -1"),
        (["wedge", "--bound", "-3"], "need --bound >= 0, got -3"),
        (["differences", "--d", "0"], "need --d >= 1, got 0"),
        (["differences", "--d", "-2"], "need --d >= 1, got -2"),
        (["wedge", "--s", "-1"], "need --s >= 3, got -1"),
        (["wedge", "--s", "2"], "need --s >= 3, got 2"),
    ],
    ids=["cross-product-bound", "wedge-bound", "differences-d-zero", "differences-d-negative",
         "wedge-s-negative", "wedge-s-two"],
)
def test_example_names_a_bad_field(tmp_path, capsys, argv, message):
    # the floors the random generators use; before, random's "empty range for randrange()"
    # or "need at least r = 2 points" came out instead
    out_path = tmp_path / "x.json"
    assert main(["example", *argv, "--output", str(out_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


def test_module_entry_point_matches_main_and_exit_codes(tmp_path, capsys):
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "equidet.cli", *argv], capture_output=True, text=True, env=env
        )

    done = run("det", "--input", FIXTURE)
    assert done.returncode == 0
    assert main(["det", "--input", FIXTURE]) == 0
    assert done.stdout == capsys.readouterr().out
    assert run("det", "--input", str(tmp_path / "missing.json")).returncode == 2
