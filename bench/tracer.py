"""Span tracing of the program's layers from outside the program.

The layers are the modules of the ``equidet`` package.  ``Tracer.install``
wraps every public function of each layer, every public method and the
``__init__`` of each public non-dataclass class, and rebinds each attribute of
every ``equidet.*`` module that points at an original, so calls made through
``from .x import y`` bindings are seen too.  Each call appends one span
(name, start, end, parent) to in-memory arrays; nothing is written until the
run ends.  ``aggregate`` turns spans into per-name inclusive time, per-name
and per-layer self time (a span's duration minus the time its children
cover) and call counts.

While ``counting`` is set, the wrappers also derive exact work counters from
the arguments and results of the wrapped calls.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "tensorfile", "tensors", "combinat", "detmap", "exact", "equilibrium", "witnesses")


def _nnz(matrix):
    return sum(1 for row in matrix.data for x in row if x)


def _count_elimination(counts, args, result, name):
    m = args[0]
    counts["exact.cells"] += m.rows * m.cols
    if name == "exact.det_exact":
        counts["exact.det_bits"] += abs(result.numerator).bit_length()
    elif name == "exact.kernel_basis":
        counts["exact.kernel_dim"] += len(result)


def _count_witnesses(counts, args, result, name):
    counts["witnesses.trials"] += result.trials
    counts["witnesses.hits"] += result.nonzero_count


def _count_nnz(counts, args, result, name):
    if name == "detmap.build_system_matrix":
        counts["detmap.nnz"] += _nnz(result.matrix)
    else:
        counts["equilibrium.nnz"] += _nnz(result.full_matrix)


COUNTERS = {
    "exact.det_exact": _count_elimination,
    "exact.kernel_basis": _count_elimination,
    "exact.rank_exact": _count_elimination,
    "detmap.build_system_matrix": _count_nnz,
    "equilibrium.build_equilibrium_system": _count_nnz,
    "witnesses.witness_search": _count_witnesses,
}


class Tracer:
    """Wraps the layers of one process; state lives on the instance."""

    def __init__(self):
        self.names = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.counting = False
        self.counts = defaultdict(int)
        self._stack = [-1]
        self._cached = {}  # span name -> wrapped function that has cache_info()
        self._undo = []

    def __len__(self):
        return len(self.name_id)

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent, stack = self.name_id, self.start, self.end, self.parent, self._stack
        counter = COUNTERS.get(name)
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None and self.counting:
                counter(self.counts, args, result, name)
            return result

        traced.__wrapped__ = fn
        if hasattr(fn, "cache_info"):
            self._cached[name] = fn
        return traced

    def install(self):
        """Wrap every layer and rebind all references inside the package."""
        replace = {}
        for layer in LAYERS:
            module = importlib.import_module(f"equidet.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if dataclasses.is_dataclass(obj):
                        continue
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("_")):
                            span = f"{layer}.{obj.__name__ if meth == '__init__' else meth}"
                            self._undo.append((obj, meth, fn))
                            setattr(obj, meth, self._wrap(span, fn))
                elif callable(obj):
                    replace[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "equidet" and not modname.startswith("equidet."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def cache_misses(self):
        """Total misses so far of every wrapped function that has a cache."""
        return {f"{name}.misses": fn.cache_info().misses for name, fn in self._cached.items()}

    def dump(self, path):
        """Write the spans as four consecutive arrays; see ``load_spans``."""
        with open(path, "wb") as fh:
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)


def load_spans(path, count):
    arrays = (array("H"), array("d"), array("d"), array("l"))
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, count)
    return arrays


def aggregate(names, name_id, start, end, parent, first=0, stop=None):
    """Per-name inclusive and self seconds and call counts over spans[first:stop].

    Spans are in entry order, so a parent always precedes its children.  The
    inclusive time of a name counts only its outermost spans, so a recursive
    call is not counted twice.
    """
    stop = len(name_id) if stop is None else stop
    child = array("d", bytes(8 * len(name_id)))
    for i in range(first, stop):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    open_spans = []
    active = defaultdict(int)
    for i in range(first, stop):
        while open_spans and open_spans[-1] != parent[i]:
            active[names[name_id[open_spans.pop()]]] -= 1
        name = names[name_id[i]]
        dur = end[i] - start[i]
        self_s[name] += dur - child[i]
        calls[name] += 1
        if not active[name]:
            inclusive[name] += dur
        active[name] += 1
        open_spans.append(i)
    return inclusive, self_s, calls
