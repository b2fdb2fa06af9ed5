"""Force, coefficient, and configuration tensors indexed by sorted tuples.

Canonical values are stored on strictly increasing index tuples only; the
accessors supply full antisymmetry (forces) or full symmetry (coefficients),
so those invariants are structural rather than duplicated in storage.
Absent tuples read as zero.  Instances are treated as immutable after
construction.

Values are checked once, where they enter, and each rule is one function that
all three kinds share: the index rule ``combinat._check_indices`` (r ints in
1..q) for every accessor, the key rule ``combinat._check_key`` (that, strictly
increasing) for every key, ``_vector_entries`` (the shape rule
``_check_shape``, each key once, d exact scalars, zero vectors dropped) for
the ``(key, vector)`` pairs of every public constructor (a coefficient is a
one-scalar vector), ``with_slot`` and :mod:`equidet.tensorfile`,
``_tau_negates`` and ``_tau`` for the column sign Tau, and ``_values``, the
kind rule through which :mod:`equidet.detmap` and :mod:`equidet.tensorfile`
read a configuration's or a force system's stored values.  The kinds share
one storage, the private base ``_Tensor``: the fields each kind names in
``_FIELDS`` (the shape, then the stored values), one ``==`` (the same kind
and fields) and one ``_from_checked``, which stores values made or already
checked here (the loader's, the random generators', ``to_configuration``'s,
the solver's coefficients) as they are: keys sorted in-range r-tuples,
values nonzero exact d-vectors (or scalars).
"""

from __future__ import annotations

from fractions import Fraction

from .combinat import _brief, _check_indices, _check_integer, _check_key, _check_size, permutation_sign
from .exact import _check_exact


def _check_shape(r, d, q):
    """The shape rule: r, d and q of type ``int``, r and d past the size rule,
    r >= 1, d >= 1 and q >= r.  q is not bounded: a sparse tensor over any
    number of particles can be stored, and :func:`equidet.combinat.subsets_colex`
    rejects a particle count too large to enumerate."""
    for name, value in (("field 'r'", r), ("field 'd'", d), ("field 'q'", q)):
        _check_integer(name, value)
    _check_size("field 'r'", r)
    _check_size("field 'd'", d)
    if r < 1 or d < 1 or q < r:
        raise ValueError(f"need r >= 1, d >= 1, q >= r, got r={_brief(r)}, d={_brief(d)}, q={_brief(q)}")


def _vector_entries(r, d, q, pairs):
    """Validated {sorted r-tuple: d-vector} dict from ``(key, vector)`` pairs."""
    _check_shape(r, d, q)
    out = {}
    zeros = {}  # keys seen with a zero vector, which is not stored
    for key, vec in pairs:
        key = _check_key(key, r, q)
        if key in out or key in zeros:
            raise ValueError(f"repeated key {_brief(key)}")
        vec = tuple(vec)
        if len(vec) != d:
            raise ValueError(f"vector for {_brief(key)} has length {len(vec)}, expected {d}")
        _check_exact(*vec)
        (out if any(vec) else zeros)[key] = vec
    return out


def _tau_negates(t, r):
    """True where Tau, the column sign of :mod:`equidet.detmap`, negates sorted r-tuple ``t``."""
    return (sum(t) + r - 1) % 2 == 1


def _tau(values, r):
    """``values``, a map from sorted r-tuples to vectors, with each vector
    negated where :func:`_tau_negates`; Tau is its own inverse."""
    return {t: tuple(-x for x in vec) if _tau_negates(t, r) else vec for t, vec in values.items()}


class _Tensor:
    """The storage of the three kinds: the fields each names in ``_FIELDS``, in that order."""

    @classmethod
    def _from_checked(cls, *fields):
        """A tensor over ``fields``, given in ``_FIELDS`` order and taken without
        a copy or a check: the caller guarantees sorted in-range r-tuples
        mapping to nonzero exact d-vectors (scalars for coefficients)."""
        if len(fields) != len(cls._FIELDS):
            raise TypeError(f"{cls.__name__} takes {len(cls._FIELDS)} fields {cls._FIELDS}, got {len(fields)}")
        t = cls.__new__(cls)
        for name, value in zip(cls._FIELDS, fields):  # not __dict__.update: that makes every later read slower
            setattr(t, name, value)
        return t

    def __eq__(self, other):
        """The same kind, shape and stored values."""
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


class VectorConfiguration(_Tensor):
    """A d-vector for every sorted r-tuple over {1..q}; zero slots are implicit."""

    _FIELDS = ("r", "d", "q", "entries")

    def __init__(self, r: int, d: int, q: int, entries=None):
        self.r = r
        self.d = d
        self.q = q
        self.entries = _vector_entries(r, d, q, (entries or {}).items())

    def get(self, key):
        key = _check_key(key, self.r, self.q)
        return self.entries.get(key, (Fraction(0),) * self.d)

    def with_slot(self, key, vec):
        """Copy of this configuration with one slot replaced.

        The other entries were validated at construction and are not
        rechecked; a zero vector removes the slot."""
        key = tuple(key)
        slot = _vector_entries(self.r, self.d, self.q, [(key, vec)])
        entries = dict(self.entries)
        if slot:
            entries[key] = slot[key]
        else:
            entries.pop(key, None)
        return self._from_checked(self.r, self.d, self.q, entries)

    def __repr__(self):
        return f"VectorConfiguration(r={self.r}, d={self.d}, q={self.q}, {len(self.entries)} nonzero slots)"


class ForceSystem(_Tensor):
    """Fully antisymmetric family of d-vectors indexed by r-tuples over {1..q}."""

    _FIELDS = ("r", "d", "q", "canonical")

    def __init__(self, r: int, d: int, q: int, canonical=None):
        self.r = r
        self.d = d
        self.q = q
        self.canonical = _vector_entries(r, d, q, (canonical or {}).items())

    def get(self, idx):
        """Value at an arbitrary index sequence: zero on repeats, else the
        canonical entry times the sign of the sorting permutation."""
        idx = _check_indices(idx, self.r, self.q)
        vec = self.canonical.get(tuple(sorted(idx)))
        if vec is None:  # also every index sequence with a repeat
            return (Fraction(0),) * self.d
        if permutation_sign(idx) > 0:
            return vec
        return tuple(-x for x in vec)

    def to_configuration(self) -> VectorConfiguration:
        """Reindex as a configuration: :func:`_tau` of the canonical values.
        Tau is its own inverse, so the two have one square system (``detmap``)."""
        return VectorConfiguration._from_checked(self.r, self.d, self.q, _tau(self.canonical, self.r))

    def __repr__(self):
        return f"ForceSystem(r={self.r}, d={self.d}, q={self.q}, {len(self.canonical)} nonzero tuples)"


class CoefficientSystem(_Tensor):
    """Fully symmetric scalar family indexed by r-tuples over {1..q}."""

    _FIELDS = ("r", "q", "canonical")

    def __init__(self, r: int, q: int, canonical=None):
        self.r = r
        self.q = q
        pairs = ((key, (value,)) for key, value in (canonical or {}).items())
        self.canonical = {key: value for key, (value,) in _vector_entries(r, 1, q, pairs).items()}

    def get(self, idx):
        """Value at any ordering of distinct indices; repeats are rejected."""
        idx = _check_indices(idx, self.r, self.q)
        key = tuple(sorted(idx))
        if len(set(key)) != len(key):
            raise ValueError(f"repeated index in {_brief(idx)}")
        return self.canonical.get(key, Fraction(0))

    def is_trivial(self) -> bool:
        return not self.canonical

    def __repr__(self):
        return f"CoefficientSystem(r={self.r}, q={self.q}, {len(self.canonical)} nonzero tuples)"


def _values(v) -> tuple:
    """The kind rule: a configuration's or a force system's stored values, and True for a configuration."""
    if not isinstance(v, (VectorConfiguration, ForceSystem)):
        raise TypeError(f"need a VectorConfiguration or a ForceSystem, got {type(v).__name__}")
    return (v.entries, True) if isinstance(v, VectorConfiguration) else (v.canonical, False)


def _check_coefficients(lam, r: int, q: int) -> None:
    """``TypeError`` unless ``lam`` is a :class:`CoefficientSystem`, ``ValueError``
    unless it has arity r over q particles, as the system it is tried on."""
    if not isinstance(lam, CoefficientSystem):
        raise TypeError(f"coefficients must be a CoefficientSystem, got {type(lam).__name__}")
    if lam.r != r or lam.q != q:
        raise ValueError(
            f"arity mismatch: coefficients are (r={lam.r}, q={lam.q}), the system is (r={r}, q={q})"
        )
