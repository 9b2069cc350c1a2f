"""Reduced-scale golden digests of every bundled preset.

Usage (from the repository root, one BLAS thread):

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        PYTHONPATH=src python tools/make_golden.py [PRESET ...]

Each preset runs once at the reduced scale set in REDUCED and is boiled down
to a digest, stored as tests/golden/<preset>.json; tests/test_golden.py
recomputes the digests and compares. A capacity digest holds the raw
capacities, the kept (nonzero) targets, the skipped targets with their
reasons, the per-order totals and the rank. A NARMA-suite digest holds every
file the suite writes, CSV files as named columns. Reduced scale is for
regression detection only; regenerate a digest only in a change that is
meant to move it, and say which entries moved and why.
"""

from __future__ import annotations

import copy
import csv
import json
import sys
import tempfile
from pathlib import Path

from ipcap import ExperimentConfig, preset_names, run_ipc, run_narma_suite, run_tipc
from ipcap.presets import PRESETS

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"

_FIG1A_REDUCED = {
    "input": {"T": 20_000, "washout": 500},
    "sweep": {"degree_blocks": [[1, 30], [2, 12], [3, 8], [4, 6], [5, 5], [6, 4]]},
}
_FIG1A_TAGS = (
    "legendre", "hermite", "laguerre", "jacobi", "charlier", "krawtchouk", "meixner",
    "hahn", "mixed_gaussian", "pareto",
)

# Deep-merged into the bundled preset dicts; a list replaces the whole list.
REDUCED: dict[str, dict] = {f"fig1a_{tag}": _FIG1A_REDUCED for tag in _FIG1A_TAGS}
REDUCED.update(
    {
        # a washout shorter than the longest delay, so the digest covers skips
        "fig1a_zipf": {
            "input": {"T": 20_000, "washout": 15},
            "sweep": {"degree_blocks": [[1, 30], [2, 12], [3, 8], [4, 6], [5, 5], [6, 4]]},
        },
        "fig1a_bernoulli": {
            "input": {"T": 20_000, "washout": 500},
            "sweep": {"degree_blocks": [[1, 30], [2, 12], [3, 8], [4, 7], [5, 6], [6, 6]]},
        },
        # T stays a multiple of the 30-step drive period, with the harmonic
        # on DFT bin T / 30
        "fig1b_limit_cycle": {
            "input": {"T": 9_000, "washout": 500},
            "sweep": {"degree_blocks": [[1, 9], [2, 9], [3, 5]], "temporal": [300]},
        },
        "fig2a_symmetric": {
            "input": {"T": 20_000, "washout": 500},
            "sweep": {"degree_blocks": [[1, 15], [2, 15], [3, 6]]},
        },
        "fig2a_asymmetric": {
            "input": {"T": 20_000, "washout": 500},
            "sweep": {"degree_blocks": [[1, 15], [2, 15], [3, 6]]},
        },
        "integrity_esn50": {
            "input": {"T": 20_000, "washout": 500},
            "sweep": {"degree_blocks": [[1, 40], [2, 10], [3, 4]]},
        },
        "esn1d_tipc_null": {"input": {"T": 10_000}},
        "fig2b": {
            "analysis": {
                "divergence": {"sigmas": [0.2, 0.4, 0.5, 0.6, 0.8], "n_seeds": 20, "horizon": 20_000}
            }
        },
        "fig3": {"analysis": {"nrmse_table": {"rhos": [0.2, 0.95, 1.2], "T": 2000}}},
        "figA1_basin": {
            "analysis": {
                "nullclines": {"count": 101},
                "basin": {"a_count": 30, "b_count": 30, "max_steps": 2000},
            }
        },
        "figA1_lyapunov": {"analysis": {"lyapunov": {"sigmas": [0.1, 0.3], "T": 1000, "M": 20}}},
        "figA3": {"analysis": {"approx_model": {"T": 20_000, "washout": 500, "trace_len": 500}}},
    }
)


def _merge(base: dict, override: dict) -> dict:
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = copy.deepcopy(value)
    return base


def reduced_config(name: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_merge(copy.deepcopy(PRESETS[name]), REDUCED[name]))


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [float(row[i]) for row in rows[1:]] for i, name in enumerate(rows[0])}


def digest(name: str, workdir) -> dict:
    """The digest of one preset at reduced scale, run in `workdir`."""
    config = reduced_config(name)
    workdir = Path(workdir)
    if config.kind == "narma_suite":
        run_narma_suite(config, workdir)
        out = {}
        for path in sorted(workdir.iterdir()):
            out[path.name] = _read_csv(path) if path.suffix == ".csv" else json.loads(path.read_text())
        return out
    report = (run_tipc if config.kind == "tipc" else run_ipc)(config, workdir)
    return {
        "rank": report.rank,
        "per_order_totals": {str(k): v for k, v in report.per_order_totals.items()},
        "raw": {e.spec: e.raw_capacity for e in report.entries},
        "kept": sorted(e.spec for e in report.entries if e.thresholded_capacity != 0.0),
        "skipped": [list(pair) for pair in report.skipped],
    }


def main(names) -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or preset_names():
        with tempfile.TemporaryDirectory() as workdir:
            payload = digest(name, workdir)
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"{name}: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
