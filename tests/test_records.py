"""The four result records keep their public shape: field order, keyword
construction, repr, equality, read-only fields and pickling."""

import pickle
import random
from fractions import Fraction

import pytest

from equidet import (
    ConsistencyReport,
    EquilibriumSystem,
    SystemMatrix,
    WitnessReport,
    build_equilibrium_system,
    build_system_matrix,
    random_force_system,
    theorem_consistency,
    witness_search,
)

FIELDS = {
    SystemMatrix: ("matrix", "row_labels", "col_labels"),
    EquilibriumSystem: ("r", "d", "q", "full_matrix", "reduced_matrix", "row_labels", "col_labels"),
    ConsistencyReport: ("det_value", "kernel_dim", "consistent", "reduced_matches_full"),
    WitnessReport: ("r", "d", "trials", "nonzero_count", "first_witness", "seed"),
}


def built_records():
    f = random_force_system(2, 2, 4, 5, random.Random(7))
    return [
        build_system_matrix(f.to_configuration()),
        build_equilibrium_system(f),
        theorem_consistency(f),
        witness_search(2, 2, 3, 5, 11),
    ]


@pytest.mark.parametrize("record", built_records(), ids=lambda record: type(record).__name__)
def test_record_keeps_its_public_shape(record):
    cls = type(record)
    assert cls._fields == FIELDS[cls]
    values = {name: getattr(record, name) for name in cls._fields}
    rebuilt = cls(**values)
    assert rebuilt == record
    assert repr(rebuilt) == repr(record)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    assert pickle.loads(pickle.dumps(record)) == record


def test_consistency_report_repr():
    report = ConsistencyReport(det_value=Fraction(0), kernel_dim=1, consistent=True, reduced_matches_full=True)
    assert repr(report) == (
        "ConsistencyReport(det_value=Fraction(0, 1), kernel_dim=1, consistent=True, reduced_matches_full=True)"
    )
    assert report == ConsistencyReport(Fraction(0), 1, True, True)
    assert report != ConsistencyReport(Fraction(0), 2, True, True)
