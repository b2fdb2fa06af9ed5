"""JSON tensor files.

A file holds one force system or one configuration:

    {
      "r": 2, "d": 2, "q": 4,
      "kind": "forces",                    // or "configuration"
      "entries": [
        {"idx": [1, 2], "vec": ["3", "-1/2"]},
        ...
      ]
    }

Scalars are strings, either decimal integers or "p/q" with a positive
denominator, written in ASCII digits, so exact values survive any JSON
parser.  An integer, a numerator or a denominator has at most 4300 digits,
and so has every JSON integer (r, d, q and the indices).  The file loader
checks this limit on the raw text before decoding: no run of ASCII digits
anywhere in the file, ignored fields included, may be longer.  Index tuples are
strictly increasing, 1-based, of length r; duplicates are rejected and
missing tuples mean the zero vector.  Serialization is canonical: entries
in colex order, zero vectors omitted, scalars in lowest terms.

The loader checks only what is JSON's (the object, its fields, ``kind``,
and each entry an object with list ``idx`` and ``vec``), parses each distinct
scalar string once, and hands r, d, q and the ``(idx, vector)`` pairs, in one
pass, to the entry rule of :mod:`equidet.tensors`, whose shape rule refuses
an r, d or q that is not a JSON integer.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .combinat import _brief
from .tensors import ForceSystem, VectorConfiguration, _values, _vector_entries

_SCALAR_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")
_MAX_DIGITS = 4300  # per integer, numerator or denominator
_DIGITS_TO_ZERO = str.maketrans("123456789", "000000000")
_TOO_MANY_DIGITS = "0" * (_MAX_DIGITS + 1)


def parse_scalar(text) -> int | Fraction:
    """Exact scalar: an ``int`` from a decimal-integer string, a ``Fraction`` from p/q."""
    if not isinstance(text, str) or not _SCALAR_RE.match(text):
        raise ValueError(f"bad scalar {_brief(text)}: expected an integer or p/q string")
    num, _, den = text.partition("/")
    if max(len(num.lstrip("-")), len(den)) > _MAX_DIGITS:
        raise ValueError(f"scalar of {len(text)} characters exceeds the {_MAX_DIGITS}-digit limit")
    if not den:
        return int(num)
    if int(den) == 0:
        raise ValueError(f"bad scalar {_brief(text)}: zero denominator")
    return Fraction(int(num), int(den))


def format_scalar(x) -> str:
    return str(Fraction(x))


class _ScalarMemo(dict):
    """Each distinct scalar string of a document, parsed once on first use."""

    def __missing__(self, text):
        value = self[text] = parse_scalar(text)
        return value


def _entry_pairs(items):
    """``(idx, vector)`` per item of a document's entries list, each distinct
    scalar string parsed once."""
    scalars = _ScalarMemo()
    for item in items:
        if not (isinstance(item, dict) and isinstance(item.get("idx"), list) and isinstance(item.get("vec"), list)):
            raise ValueError(f"bad entry {_brief(item)}: expected {{'idx': [...], 'vec': [...]}}")
        yield item["idx"], [scalars[x] if type(x) is str else parse_scalar(x) for x in item["vec"]]


def tensor_from_json(doc):
    """Build a ForceSystem or VectorConfiguration from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValueError("tensor file must be a JSON object")
    for field in ("r", "d", "q", "kind", "entries"):
        if field not in doc:
            raise ValueError(f"missing field {field!r}")
    r, d, q = doc["r"], doc["d"], doc["q"]
    kind = doc["kind"]
    if kind not in ("forces", "configuration"):
        raise ValueError(f"kind must be 'forces' or 'configuration', got {_brief(kind)}")
    if not isinstance(doc["entries"], list):
        raise ValueError("entries must be a list")
    cls = ForceSystem if kind == "forces" else VectorConfiguration
    return cls._from_checked(r, d, q, _vector_entries(r, d, q, _entry_pairs(doc["entries"])))


def tensor_to_json(obj) -> dict:
    """Canonical JSON document for a ForceSystem or VectorConfiguration
    (``TypeError`` for anything else, from the kind rule ``tensors._values``)."""
    stored, configuration = _values(obj)
    keys = sorted(stored, key=lambda t: t[::-1])
    return {
        "r": obj.r,
        "d": obj.d,
        "q": obj.q,
        "kind": "configuration" if configuration else "forces",
        "entries": [
            {"idx": list(key), "vec": [format_scalar(x) for x in stored[key]]}
            for key in keys
        ],
    }


def load_tensor(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # linear in the file, unlike a regex search for the run, which rescans
    # a long digit run from each of its positions
    if _TOO_MANY_DIGITS in text.translate(_DIGITS_TO_ZERO):
        raise ValueError(f"{path}: a run of over {_MAX_DIGITS} digits exceeds the {_MAX_DIGITS}-digit limit")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return tensor_from_json(doc)


def dump_tensor(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tensor_to_json(obj), fh, indent=2)
        fh.write("\n")
