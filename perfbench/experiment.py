"""Run one benchmark experiment in this (fresh) process and print one JSON record.

Usage: experiment.py --workload NAME --seed N --mode setup|run|trace
                     --outdir DIR --t0 MONOTONIC [--smoke]

`--t0` is the parent's CLOCK_MONOTONIC reading taken just before it started
this process, so `setup_s` covers interpreter start, importing numpy and
ipcap, and loading and validating the preset. Modes:

- setup: stop once the experiment could be called; also report provenance.
- run:   call the public runner (`run_ipc` / `run_narma_suite`) once, untraced.
- trace: rebuild the same experiment from public module calls, timing each.

The ipcap under test must be the one in the checkout's `src/`: the parent
puts it first on PYTHONPATH, and this script refuses any other copy.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]


def _load(workload: str, seed: int, smoke: bool):
    import numpy  # noqa: F401  (part of the measured set-up)

    import ipcap

    if not Path(ipcap.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ipcap imported from {ipcap.__file__}, not from {ROOT / 'src'}")
    payload = copy.deepcopy(ipcap.get_preset(workloads.WORKLOADS[workload]["preset"]).to_dict())
    return ipcap.ExperimentConfig.from_dict(workloads.derive_config(payload, workload, seed, smoke))


def provenance(config, seed: int) -> dict:
    import numpy as np

    import ipcap

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return {
        "ipcap": ipcap.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name) for name in workloads.THREAD_VARS},
        "nproc": os.cpu_count(),
        "seed": seed,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def _work(config, report=None) -> tuple[int, int]:
    """(outputs decided, column-steps) of one experiment, for the throughput metrics.

    NARMA: trajectories, each run for the horizon. Capacity: report entries
    plus skipped targets, each a column of T input steps.
    """
    if config.kind == "narma_suite":
        block = config.analysis["divergence"]
        decided = len(block["sigmas"]) * int(block["n_seeds"])
        return decided, decided * int(block["horizon"])
    decided = len(report.entries) + len(report.skipped)
    return decided, decided * int(config.input["T"])


def run_untraced(config, workload: str, outdir: Path) -> dict:
    import ipcap

    runner = getattr(ipcap, workloads.WORKLOADS[workload]["runner"])
    start = time.perf_counter()
    result = runner(config, outdir)
    wall = time.perf_counter() - start
    decided, column_steps = _work(config, result)
    return {"wall_s": wall, "decided": decided, "column_steps": column_steps}


class Spans:
    """Durations of the benchmark's own calls into ipcap, by metric name."""

    def __init__(self):
        self.seconds: dict[str, float] = {}

    def __call__(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
        return out


def trace_capacity(config, outdir: Path) -> dict:
    """`run_ipc` rebuilt from public calls, with a span around each."""
    from ipcap import (
        DistributionSpec,
        EsnConfig,
        InputShaping,
        PolynomialFamily,
        StateMatrix,
        ThresholdConfig,
        capacity_sweep,
        decompose,
        detrend,
        enumerate_chaos,
        eval_table,
        sample_stream,
        shape_input,
        simulate_1d_esn,
        simulate_esn,
        write_report,
    )

    span = Spans()
    inp, system, sweep = config.input, config.system, config.sweep
    T, washout = int(inp["T"]), int(inp["washout"])
    dist = inp["distribution"]
    shaping = InputShaping(**inp["shaping"])
    zeta = span(
        "distributions.sample_s",
        sample_stream,
        DistributionSpec(kind=dist["kind"], params=dist.get("params", {})),
        washout + T,
        int(inp["seed"]),
    )
    u = span("distributions.sample_s", shape_input, zeta, shaping)
    if system["kind"] == "esn":
        esn = EsnConfig(**{k: v for k, v in system.items() if k != "kind"})
        full = span("systems.simulate_s", simulate_esn, esn, u)
    else:
        full = span("systems.simulate_s", simulate_1d_esn, float(system["rho"]), shaping, zeta)
    state = span(
        "capacity.detrend_s",
        StateMatrix,
        full.data[washout:],
        washout=washout,
        labels=full.labels,
        meta=full.meta,
    )
    state = span("capacity.detrend_s", detrend, state, 0)
    rank_tol = sweep.get("rank_tol")
    basis = span("capacity.decompose_s", decompose, state, None if rank_tol is None else float(rank_tol))
    family = PolynomialFamily(kind=sweep["family"]["kind"], params=sweep["family"].get("params", {}))
    specs = []
    for degree, max_delay in sweep["degree_blocks"]:
        specs += span(
            "polychaos.enumerate_s",
            enumerate_chaos,
            int(degree),
            int(max_delay),
            min_total_degree=int(degree),
            max_degree_per_var=sweep.get("max_degree_per_var"),
        )
    max_degree = max(n for spec in specs for _, n in spec.terms)
    # probes: capacity_sweep builds this table itself and computes the raw
    # capacities again, so these two spans split sweep_s rather than add to it
    span("polychaos.eval_table_s", eval_table, family, zeta, max_degree)
    raw = span("capacity.sweep_raw_s", capacity_sweep, basis, specs, family, zeta, threshold=None)
    meta = {
        "name": config.name,
        "kind": "ipc",
        "system": system,
        "T": T,
        "washout": washout,
        "family": sweep["family"]["kind"],
    }
    threshold = ThresholdConfig(**config.threshold)
    report = span(
        "capacity.sweep_s", capacity_sweep, basis, specs, family, zeta, threshold=threshold, meta=meta
    )
    base = config.output["basename"]
    outdir.mkdir(parents=True, exist_ok=True)
    span("reports.write_s", write_report, report, outdir / f"{base}.json", outdir / f"{base}.csv")

    raw_by_label = {e.spec: e.raw_capacity for e in raw.entries}
    assembled = len(report.entries)
    kept = sum(1 for e in report.entries if e.thresholded_capacity > 0.0)
    counts = {
        "polychaos.targets": len(specs),
        "capacity.skipped": len(report.skipped),
        "capacity.kept": kept,
        "capacity.kept_ratio": kept / len(specs),
        "capacity.rank": report.rank,
        "capacity.target_mb": assembled * T * 8 / 2**20,
        "capacity.panel_mb": threshold.n_surrogates * T * 4 / 2**20,
        "capacity.project_gflop": 2 * assembled * T * report.rank / 1e9,
    }
    consistent = all(raw_by_label.get(e.spec) == e.raw_capacity for e in report.entries)
    return {"spans": span.seconds, "counts": counts, "raw_matches_threshold_sweep": consistent}


def trace_narma(config, outdir: Path) -> dict:
    """`run_narma_suite` for a divergence-only config, rebuilt from public calls."""
    import numpy as np

    from ipcap import InputShaping, Narma10Config, divergence_probability
    from ipcap.reports import write_json, write_series_csv

    span = Spans()
    block = config.analysis["divergence"]
    extra = {k: v for k, v in config.system.items() if k != "kind"}
    base_cfg = Narma10Config(shaping=InputShaping(), **extra)
    curve = span(
        "narma.divergence_s",
        divergence_probability,
        base_cfg,
        block["sigmas"],
        n_seeds=int(block["n_seeds"]),
        horizon=int(block["horizon"]),
        seed=int(block["seed"]),
        symmetric=bool(block.get("symmetric", False)),
    )
    base = config.output["basename"]
    outdir.mkdir(parents=True, exist_ok=True)
    columns = {
        "sigma": np.array([s for s, _ in curve]),
        "survival_probability": np.array([p for _, p in curve]),
    }
    span("reports.write_s", write_series_csv, outdir / f"{base}_divergence.csv", columns)
    summary = {"name": config.name, "divergence": [[s, p] for s, p in curve]}
    span("reports.write_s", write_json, outdir / f"{base}_summary.json", summary)
    counts = {
        "narma.column_steps": _work(config)[1],
        "narma.survived_frac": sum(p for _, p in curve) / len(curve),
    }
    return {"spans": span.seconds, "counts": counts}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--outdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    config = _load(args.workload, args.seed, args.smoke)
    setup = time.monotonic() - args.t0
    record = {"setup_s": setup, "basename": config.output["basename"]}
    if args.mode == "setup":
        record["provenance"] = provenance(config, args.seed)
    elif args.mode == "run":
        record.update(run_untraced(config, args.workload, args.outdir))
    elif config.kind == "narma_suite":
        record.update(trace_narma(config, args.outdir))
    else:
        record.update(trace_capacity(config, args.outdir))
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
