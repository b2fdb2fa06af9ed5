"""The package's public names resolve lazily to the objects their defining
modules hold, ``dir`` and ``import *`` see all of them, and the submodules
stay importable by name."""

import subprocess
import sys
from pathlib import Path

import pytest

import equidet


def defining(obj):
    return sys.modules[obj.__module__]


@pytest.mark.parametrize("name", equidet.__all__)
def test_each_public_name_is_its_defining_modules_object(name):
    obj = getattr(equidet, name)
    assert obj.__module__.startswith("equidet.")
    assert getattr(defining(obj), name) is obj
    assert equidet.__getattr__(name) is obj  # the lazy path, even once the name is bound


def test_import_star_binds_exactly_the_public_names():
    namespace = {}
    exec("from equidet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == equidet.__all__
    assert all(getattr(defining(obj), name) is obj for name, obj in namespace.items())


def test_all_is_sorted_and_dir_lists_it():
    assert equidet.__all__ == sorted(set(equidet.__all__))
    assert set(equidet.__all__) <= set(dir(equidet))
    assert "__version__" in dir(equidet)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        equidet.no_such_name
    with pytest.raises(ImportError):
        exec("from equidet import no_such_name", {})


def test_submodules_still_import_by_name():
    # in a fresh process none of them is loaded yet, so each name falls back from __getattr__ to the submodule
    names = ("exact", "tensorfile", "tensors", "witnesses")
    code = (f"import sys; from equidet import {', '.join(names)}; "
            f"print(all(globals()[n] is sys.modules['equidet.' + n] for n in {names!r}))")
    done = subprocess.run([sys.executable, "-S", "-B", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(Path(__file__).parents[1] / "src")}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"
