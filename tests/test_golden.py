"""Reduced-scale golden digests of every bundled preset (tests/golden/).

The reduced configs and the digest live in tools/make_golden.py, which also
regenerates the files. Kept targets, skips, rank and every string or integer
must match exactly; numbers within GOLDEN_TOL.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from ipcap import preset_names

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import make_golden  # noqa: E402

# Largest difference between digests made with 1 and 2 BLAS threads was
# 7.9e-9 (integrity_esn50, raw 2@5); every other preset moved by <= 4.3e-15.
GOLDEN_TOL = 1e-7


def assert_close(got, want, path):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        if math.isnan(want):
            assert math.isnan(got), path
        else:
            assert abs(got - want) <= GOLDEN_TOL, f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, path


def test_every_preset_has_a_digest():
    assert sorted(p.stem for p in make_golden.GOLDEN_DIR.glob("*.json")) == preset_names()


@pytest.mark.parametrize("name", preset_names())
def test_golden_digest(name, tmp_path):
    want = json.loads((make_golden.GOLDEN_DIR / f"{name}.json").read_text())
    got = json.loads(json.dumps(make_golden.digest(name, tmp_path)))
    assert_close(got, want, name)
