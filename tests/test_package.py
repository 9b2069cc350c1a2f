"""The package surface: each public name declared once and imported on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ipcap


def test_import_ipcap_loads_no_submodule_and_not_numpy():
    code = "import sys, ipcap; print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('ipcap')))"
    env = {**os.environ, "PYTHONPATH": str(Path(ipcap.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["['ipcap']"]


def test_every_public_name_is_the_object_of_its_owning_module():
    names = [name for name in ipcap.__all__ if name != "__version__"]
    assert len(names) == len(set(names)) == 52
    for name in names:
        value = getattr(ipcap, name)
        owner = importlib.import_module(value.__module__)
        assert owner.__name__ == f"ipcap.{ipcap._OWNER[name]}", name
        assert getattr(owner, name) is value, name
    star = {}
    exec("from ipcap import *", star)
    assert all(star[name] is getattr(ipcap, name) for name in names)
    assert set(ipcap.__all__) <= set(dir(ipcap))


@pytest.mark.parametrize("name", ["no_such_name", "compute_capacity", "surrogate_threshold", "TargetSeries"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(ipcap, name)
    with pytest.raises(ImportError):
        exec(f"from ipcap import {name}", {})
