"""Fuzzing the file boundary: any document either loads or is rejected with
ValueError, and the CLI answers any small file with an exit code."""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from equidet import tensor_from_json
from equidet.cli import main

# Arabic-Indic and fullwidth digits, which int() accepts and the format does not
ODD_SCALARS = ["\u0663", "\uff11", "1/\u0662", "1/0", "-", "", "1e3", "0.5", " 2", "1/-2", "--1"]

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-9, 9), st.floats(), st.text(max_size=4)
)
json_values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
exact_scalars = st.fractions(-9, 9, max_denominator=9).map(str)
scalars = st.one_of(
    exact_scalars,
    st.sampled_from(ODD_SCALARS),
    st.text(alphabet="0123456789-/.e \u0663\uff11", max_size=5),
    json_values,
)


@st.composite
def shaped_documents(draw):
    """Documents of a plausible shape (r <= 4, d <= 3, q <= 7), square about
    half the time; about half of them are valid, the rest have wrong
    entries, fields or scalars."""
    r, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    square = r * d <= 7 and draw(st.booleans())
    q = r * d if square else draw(st.integers(r, 7))
    valid = draw(st.booleans())
    entry = st.fixed_dictionaries(
        {
            "idx": st.lists(st.integers(1, q), min_size=r, max_size=r, unique=True).map(sorted),
            "vec": st.lists(exact_scalars if valid else scalars, min_size=d, max_size=d),
        }
    )
    if valid:
        entries = st.lists(entry, max_size=6, unique_by=lambda e: tuple(e["idx"]))
    else:
        entries = st.lists(st.one_of(entry, json_values), max_size=6)
    doc = {
        "r": r,
        "d": d,
        "q": q,
        "kind": draw(st.sampled_from(["forces", "configuration"])),
        "entries": draw(entries),
    }
    if not valid:
        for field in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
            doc[field] = draw(json_values)
    return doc


documents = st.one_of(shaped_documents(), json_values)


@given(documents)
@example({"r": 2, "d": 1, "q": 2, "kind": "configuration",
          "entries": [{"idx": [1, 2], "vec": ["\u0663"]}]})
def test_tensor_from_json_returns_a_tensor_or_raises_value_error(doc):
    try:
        tensor = tensor_from_json(doc)
    except ValueError:
        return
    assert (tensor.r, tensor.d, tensor.q) == (doc["r"], doc["d"], doc["q"])
    # the format's scalars are ASCII decimal strings
    assert all(x.isascii() for entry in doc["entries"] for x in entry["vec"])


files = st.one_of(documents.map(json.dumps), st.text(max_size=20))


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=files, command=st.sampled_from([["det"], ["det", "--matrix"], ["solve"]]))
@example(text='{"r": 2, "d": 1, "q": 2, "kind": "configuration", '
              '"entries": [{"idx": [1, 2], "vec": ["\\u0663"]}]}', command=["det"])
@example(text='{"r": ' + "1" * 5000 + ', "d": 1, "q": 2, "kind": "forces", "entries": []}',
         command=["det"])
def test_cli_answers_any_small_file_with_an_exit_code(tmp_path, capsys, text, command):
    path = tmp_path / "fuzz.json"
    path.write_text(text, encoding="utf-8")
    code = main(command + ["--input", str(path)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in captured.err
    # errors name the problem without echoing an input of unbounded size
    assert len(captured.err) < 2000
    if code == 2:
        assert captured.err.startswith("error:")
        assert captured.out == ""


LONG = "x" * 100_000
LONG_ECHO_DOCUMENTS = {
    "string idx": {"r": 2, "d": 1, "q": 3, "kind": "forces", "entries": [{"idx": LONG, "vec": ["1"]}]},
    "string index": {"r": 2, "d": 1, "q": 3, "kind": "forces", "entries": [{"idx": [LONG, 2], "vec": ["1"]}]},
    "long idx": {"r": 2, "d": 1, "q": 3, "kind": "forces", "entries": [{"idx": list(range(1, 100_001)), "vec": ["1"]}]},
    "long unsorted idx": {"r": 100_000, "d": 1, "q": 100_000, "kind": "forces",
                          "entries": [{"idx": list(range(100_000, 0, -1)), "vec": ["1"]}]},
    "bad scalar": {"r": 2, "d": 1, "q": 3, "kind": "forces", "entries": [{"idx": [1, 2], "vec": [LONG]}]},
    "kind": {"r": 2, "d": 1, "q": 3, "kind": LONG, "entries": []},
    "unknown-key entry": {"r": 2, "d": 1, "q": 3, "kind": "forces", "entries": [{LONG: 1}]},
    "string r": {"r": LONG, "d": 1, "q": 3, "kind": "forces", "entries": []},
    "4000-digit negative r": {"r": -int("9" * 4000), "d": 1, "q": 3, "kind": "forces", "entries": []},
    "4000-digit q": {"r": 2, "d": 1, "q": int("9" * 4000), "kind": "forces", "entries": [{"idx": [0, 1], "vec": ["1"]}]},
}


@pytest.mark.parametrize("command", ["det", "solve"])
@pytest.mark.parametrize("name", sorted(LONG_ECHO_DOCUMENTS))
def test_errors_echo_a_bounded_part_of_a_long_value(tmp_path, capsys, name, command):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(LONG_ECHO_DOCUMENTS[name]), encoding="utf-8")
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert len(captured.err) < 2000
