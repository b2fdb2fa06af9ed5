import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from equidet import (
    CoefficientSystem,
    ForceSystem,
    VectorConfiguration,
    det_sr,
    tensor_from_json,
    tensor_to_json,
    tensorfile,
    tensors,
)
from equidet.tensorfile import dump_tensor, format_scalar, load_tensor, parse_scalar


def make_doc(**overrides):
    doc = {
        "r": 2,
        "d": 2,
        "q": 4,
        "kind": "forces",
        "entries": [
            {"idx": [1, 2], "vec": ["3", "-1/2"]},
            {"idx": [3, 4], "vec": ["0", "7"]},
        ],
    }
    doc.update(overrides)
    return doc


def test_parse_scalar_accepts_integers_and_fractions():
    assert parse_scalar("3") == 3
    assert parse_scalar("-12") == -12
    assert parse_scalar("-1/2") == Fraction(-1, 2)
    assert parse_scalar("10/4") == Fraction(5, 2)


def test_integer_strings_load_as_int_and_ratios_as_fraction():
    assert type(parse_scalar("3")) is int
    assert type(parse_scalar("-12")) is int
    assert type(parse_scalar("6/3")) is Fraction and parse_scalar("6/3") == 2
    f = tensor_from_json(make_doc())
    assert [type(x) for x in f.canonical[(1, 2)]] == [int, Fraction]


# the last four use Arabic-Indic and fullwidth digits, which int() accepts
@pytest.mark.parametrize(
    "bad", ["1.5", "1/-2", "", "a", "1e3", " 2", "3/0", None, 3, "\u0663", "\uff11", "1/\u0662", "-\u0663/2"]
)
def test_parse_scalar_rejects_non_exact_forms(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000, "-" + "9" * 4301])
def test_parse_scalar_rejects_more_than_4300_digits(text):
    with pytest.raises(ValueError, match="4300-digit limit"):
        parse_scalar(text)


def test_load_holds_json_integers_to_the_digit_limit(tmp_path):
    path = tmp_path / "long.json"
    template = '{"r": 1, "d": 1, "q": %s, "kind": "forces", "entries": []}'
    path.write_text(template % ("9" * 4300), encoding="utf-8")
    assert load_tensor(path).q == 10**4300 - 1
    path.write_text(template % ("1" + "0" * 4300), encoding="utf-8")
    with pytest.raises(ValueError, match="4300-digit limit"):
        load_tensor(path)


LONG_RUN = "1" * 4301
# q is covered above.  The last case is the one the raw-text check adds: a
# field the loader ignores may not hold a longer digit run either, even
# inside a string.
LONG_RUN_DOCUMENTS = {
    "idx": '{"r": 1, "d": 1, "q": 2, "kind": "forces", "entries": [{"idx": [%s], "vec": ["1"]}]}' % LONG_RUN,
    "scalar": '{"r": 1, "d": 1, "q": 2, "kind": "forces", "entries": [{"idx": [1], "vec": ["%s"]}]}' % LONG_RUN,
    "denominator": '{"r": 1, "d": 1, "q": 2, "kind": "forces", "entries": [{"idx": [1], "vec": ["1/%s"]}]}'
    % LONG_RUN,
    "ignored string": '{"r": 1, "d": 1, "q": 2, "kind": "forces", "entries": [], "note": "x%sx"}' % LONG_RUN,
}


@pytest.mark.parametrize("where", sorted(LONG_RUN_DOCUMENTS))
def test_load_rejects_a_4301_digit_run_anywhere(tmp_path, where):
    path = tmp_path / "long.json"
    path.write_text(LONG_RUN_DOCUMENTS[where], encoding="utf-8")
    with pytest.raises(ValueError, match="4300-digit limit") as info:
        load_tensor(path)
    assert str(path) in str(info.value)
    # one digit fewer and the same document is no longer rejected for its length
    path.write_text(LONG_RUN_DOCUMENTS[where].replace(LONG_RUN, LONG_RUN[1:]), encoding="utf-8")
    try:
        load_tensor(path)
    except ValueError as exc:
        assert "4300-digit limit" not in str(exc)


def test_load_accepts_many_4300_digit_scalars(tmp_path):
    # a run of 4300 digits is allowed, and checking many of them stays linear
    # in the file (a regex search for a longer run rescans each run from every
    # digit, about 25 ms per run)
    scalar = "9" * 4300
    entries = [{"idx": [i], "vec": [scalar, "-" + scalar, "1/" + scalar]} for i in range(1, 201)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"r": 1, "d": 3, "q": 200, "kind": "forces", "entries": entries}), encoding="utf-8")
    f = load_tensor(path)
    assert f.get((200,)) == (10**4300 - 1, 1 - 10**4300, Fraction(1, 10**4300 - 1))


def test_parse_scalar_accepts_4300_digits():
    assert parse_scalar("-" + "9" * 4300) == -(10**4300 - 1)
    assert parse_scalar("1/" + "1" * 4300) == Fraction(1, int("1" * 4300))


@given(st.fractions())
def test_scalar_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_parse_forces_document():
    f = tensor_from_json(make_doc())
    assert isinstance(f, ForceSystem)
    assert f.get((1, 2)) == (3, Fraction(-1, 2))
    assert f.get((2, 1)) == (-3, Fraction(1, 2))
    assert f.get((1, 3)) == (0, 0)  # missing tuple reads zero


def test_parse_configuration_document():
    v = tensor_from_json(make_doc(kind="configuration"))
    assert isinstance(v, VectorConfiguration)
    assert v.get((1, 2)) == (3, Fraction(-1, 2))


def test_roundtrip_is_canonical_idempotent():
    doc = make_doc()
    once = tensor_to_json(tensor_from_json(doc))
    twice = tensor_to_json(tensor_from_json(once))
    assert once == twice
    # canonical form sorts entries in colex order and keeps lowest terms
    f = ForceSystem(2, 2, 4, {(1, 4): (Fraction(2, 4), 0), (1, 2): (1, 1)})
    out = tensor_to_json(f)
    assert [e["idx"] for e in out["entries"]] == [[1, 2], [1, 4]]
    assert out["entries"][1]["vec"] == ["1/2", "0"]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("r"),
        lambda d: d.update(r=0),
        lambda d: d.update(r=True),
        lambda d: d.update(kind="tensor"),
        lambda d: d.update(entries="nope"),
        lambda d: d["entries"].append({"idx": [1, 2], "vec": ["1", "1"]}),  # duplicate
        lambda d: d["entries"].append({"idx": [2, 1], "vec": ["1", "1"]}),  # not increasing
        lambda d: d["entries"].append({"idx": [1, 9], "vec": ["1", "1"]}),  # out of range
        lambda d: d["entries"].append({"idx": [1], "vec": ["1", "1"]}),  # wrong arity
        lambda d: d["entries"].append({"idx": [1, 3], "vec": ["1"]}),  # wrong length
        lambda d: d["entries"].append({"idx": [1, 3], "vec": ["1", "0.5"]}),  # float string
        lambda d: d["entries"].append({"idx": [1, 3], "vec": ["1", 2]}),  # bare number
        lambda d: d["entries"].append({"idx": [True, 2], "vec": ["1", "1"]}),  # boolean index
        lambda d: d["entries"].append({"idx": [1, 3], "vec": ["1", [2]]}),  # list scalar
        lambda d: d["entries"].append({"idx": [1, 3], "vec": ["1", {"2": 2}]}),  # object scalar
        # a bare number equal to a scalar string parsed earlier in the same file
        lambda d: d["entries"].extend([{"idx": [1, 3], "vec": ["2", "1"]}, {"idx": [2, 3], "vec": ["1", 2]}]),
        # a list or an object holding a scalar string parsed earlier in the same file
        lambda d: d["entries"].extend([{"idx": [1, 3], "vec": ["2", "1"]}, {"idx": [2, 3], "vec": ["1", ["2"]]}]),
        lambda d: d["entries"].extend([{"idx": [1, 3], "vec": ["2", "1"]}, {"idx": [2, 3], "vec": [{"2": "2"}, "1"]}]),
        lambda d: d.update(r=3, q=2, entries=[]),  # q < r, nothing else to reject
    ],
)
def test_malformed_documents_rejected(mutate):
    doc = make_doc()
    mutate(doc)
    with pytest.raises(ValueError):
        tensor_from_json(doc)


def test_non_object_document_rejected():
    with pytest.raises(ValueError):
        tensor_from_json([1, 2, 3])
    with pytest.raises(TypeError):
        tensor_to_json(object())


@pytest.mark.parametrize("obj", [CoefficientSystem(2, 3), object(), {}], ids=["coefficients", "object", "dict"])
def test_the_writer_and_det_sr_refuse_other_objects_by_one_kind_rule(obj):
    # one kind rule, tensors._values, for the writer and the square system: a TypeError naming the type
    name = type(obj).__name__
    with pytest.raises(TypeError, match=f"got {name}$"):
        tensor_to_json(obj)
    with pytest.raises(TypeError, match=f"got {name}$"):
        det_sr(obj)


def test_zero_vectors_dropped_on_write():
    f = ForceSystem(2, 2, 4, {(1, 2): (0, 0), (1, 3): (1, 0)})
    out = tensor_to_json(f)
    assert [e["idx"] for e in out["entries"]] == [[1, 3]]


def test_file_roundtrip(tmp_path):
    f = ForceSystem(2, 2, 4, {(1, 2): (Fraction(1, 3), -2)})
    path = tmp_path / "forces.json"
    dump_tensor(f, path)
    g = load_tensor(path)
    assert g == f


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_tensor(path)


def test_field_order_irrelevant(tmp_path):
    path = tmp_path / "reordered.json"
    path.write_text(
        json.dumps(
            {
                "entries": [{"vec": ["1", "2"], "idx": [1, 2]}],
                "kind": "configuration",
                "q": 4,
                "d": 2,
                "r": 2,
            }
        ),
        encoding="utf-8",
    )
    v = load_tensor(path)
    assert v.get((1, 2)) == (1, 2)


def reference_load(path):
    """The loader's contract spelled out: decode, parse every scalar on its
    own, and build through the public constructor.  A list inside an idx
    becomes a tuple, so that every key can be hashed, and an idx given twice
    is refused."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = {
        tuple(tuple(i) if isinstance(i, list) else i for i in e["idx"]): tuple(parse_scalar(x) for x in e["vec"])
        for e in doc["entries"]
    }
    if len(entries) != len(doc["entries"]):
        raise ValueError("an idx is given twice")
    cls = ForceSystem if doc["kind"] == "forces" else VectorConfiguration
    return cls(doc["r"], doc["d"], doc["q"], entries)


# few distinct strings, so most documents repeat them; zeros in three spellings
scalar_strings = st.one_of(
    st.sampled_from(["0", "-0", "0/7", "1", "-1", "2/4", "-3/6", "5/1", "-5"]),
    st.integers(-(10**30), 10**30).map(str),
    st.tuples(st.integers(-99, 99), st.integers(1, 99)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
)


@st.composite
def malformed_entry(draw, r, d, q):
    """An entry that breaks one rule: an index of the wrong type, the wrong
    arity, an unsorted or out-of-range key, or a vector one scalar off."""
    key = list(draw(st.sampled_from(list(combinations(range(1, q + 1), r)))))
    vec = draw(st.lists(scalar_strings, min_size=d, max_size=d))
    fault = draw(st.sampled_from(["type", "arity", "order", "range", "length"]))
    if fault == "type":
        key[draw(st.integers(0, r - 1))] = draw(st.sampled_from([True, False, 1.0, 2.0, "1", [1], [], None]))
    elif fault == "arity":
        key = key[:-1] if draw(st.booleans()) else key + [q + 1]
    elif fault == "order" and r > 1:
        key = key[::-1]
    elif fault in ("order", "range"):
        key[draw(st.integers(0, r - 1))] = draw(st.sampled_from([0, -1, q + 1]))
    else:
        vec = vec[:-1] if draw(st.booleans()) else vec + ["1"]
    return {"idx": key, "vec": vec}


@st.composite
def valid_documents(draw):
    r, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    q = draw(st.integers(r, r + 3))
    keys = draw(st.lists(st.sampled_from(list(combinations(range(1, q + 1), r))), unique=True, max_size=12))
    vectors = st.lists(scalar_strings, min_size=d, max_size=d)
    return {
        "r": r,
        "d": d,
        "q": q,
        "kind": draw(st.sampled_from(["forces", "configuration"])),
        "entries": [{"idx": list(key), "vec": draw(vectors)} for key in keys],
    }


@st.composite
def documents(draw):
    """A valid document, about half the time with malformed entries put in."""
    doc = draw(valid_documents())
    if draw(st.booleans()):
        for entry in draw(st.lists(malformed_entry(doc["r"], doc["d"], doc["q"]), min_size=1, max_size=2)):
            doc["entries"].insert(draw(st.integers(0, len(doc["entries"]))), entry)
    return doc


def stored(obj):
    return obj.canonical if isinstance(obj, ForceSystem) else obj.entries


def load_or_value_error(load, path):
    try:
        return load(path)
    except ValueError as exc:
        return exc


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents())
def test_load_matches_the_reference_loader(tmp_path, doc):
    # one entry rule: the loader rejects exactly what the public constructors
    # reject, and otherwise builds the same tensor
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    got, want = load_or_value_error(load_tensor, path), load_or_value_error(reference_load, path)
    if isinstance(got, ValueError) or isinstance(want, ValueError):
        assert isinstance(got, ValueError) and isinstance(want, ValueError), (got, want)
        return
    assert type(got) is type(want)
    assert got == want
    assert {key: [type(x) for x in vec] for key, vec in stored(got).items()} == {
        key: [type(x) for x in vec] for key, vec in stored(want).items()
    }


def test_load_checks_each_key_once(tmp_path, monkeypatch):
    # the entry rule runs once per file, and the key rule once per entry
    calls = {"entries": 0, "keys": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(tensorfile, "_vector_entries", counted("entries", tensors._vector_entries))
    monkeypatch.setattr(tensors, "_check_key", counted("keys", tensors._check_key))
    doc = make_doc(entries=[{"idx": list(key), "vec": [str(sum(key)), "0"]} for key in combinations(range(1, 5), 2)])
    path = tmp_path / "forces.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tensor = load_tensor(path)
    assert calls == {"entries": 1, "keys": len(doc["entries"])}
    assert tensor.get((4, 2)) == (-6, 0)
