"""ipcap benchmark: one bundled preset experiment per fresh process, closed loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are listed in workloads.py and described in README.md. Each
experiment runs in its own process (experiment.py) so that peak RSS belongs
to that one experiment; the next one starts only after the previous one has
finished and its output has been checked. With `--trace 0` the run reports
the end-to-end metrics; with `--trace 1` it runs one untraced experiment and
then traced ones, and reports the per-module split. The last line of standard
output is one JSON object; a fuller record with provenance goes to
`.perfbench_out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# Results are byte-stable only at a fixed BLAS thread count, and one thread
# is available on every machine.
BLAS_THREADS = 1
# Extra processes per run that only set up, so setup_s is a median.
SETUP_PROBES = 5
# A whole run, set-up probes included, must end within 180 s.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "targets_per_s": "1/s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
SPANS = (
    "distributions.sample_s",
    "systems.simulate_s",
    "capacity.detrend_s",
    "capacity.decompose_s",
    "polychaos.enumerate_s",
    "polychaos.eval_table_s",
    "capacity.sweep_raw_s",
    "capacity.sweep_s",
    "narma.divergence_s",
    "reports.write_s",
)
# Spans that repeat work another span contains (capacity_sweep builds its own
# table and computes raw capacities again); not part of the pipeline total.
PROBE_SPANS = ("polychaos.eval_table_s", "capacity.sweep_raw_s")
COUNTS = {
    "polychaos.targets": "count",
    "capacity.skipped": "count",
    "capacity.kept": "count",
    "capacity.kept_ratio": "fraction",
    "capacity.rank": "count",
    "capacity.target_mb": "MiB",
    "capacity.panel_mb": "MiB",
    "capacity.project_gflop": "GFLOP",
    "narma.column_steps": "count",
    "narma.survived_frac": "fraction",
}
PER_LAYER = {
    **{name: "s" for name in SPANS},
    "capacity.threshold_s": "s",
    **COUNTS,
    "bench.untraced_wall_s": "s",
    "bench.span_total_s": "s",
    "bench.trace_overhead_s": "s",
}


class Child:
    """Starts experiment.py processes for one workload, one at a time."""

    def __init__(self, workload: str, seed: int, smoke: bool, deadline: float):
        self.workload, self.seed, self.smoke, self.deadline = workload, seed, smoke, deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({name: str(BLAS_THREADS) for name in workloads.THREAD_VARS})

    def __call__(self, mode: str, outdir: Path) -> tuple[dict | None, str]:
        """(record, error); record is None when the process failed."""
        shutil.rmtree(outdir, ignore_errors=True)
        args = [sys.executable, str(HERE / "experiment.py"), "--workload", self.workload]
        args += ["--seed", str(self.seed), "--mode", mode, "--outdir", str(outdir)]
        args += ["--smoke"] if self.smoke else []
        timeout = max(self.deadline - time.monotonic(), 1.0)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                args + ["--t0", repr(t0)],
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"{mode} process killed after {timeout:.0f} s"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, f"{mode} process exited {proc.returncode}: {' | '.join(tail)}"
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["process_s"] = time.monotonic() - t0
        return record, ""


def _digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(path.read_bytes())
    return h.hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False, reference=None) -> dict:
    """Measure one workload; returns the full result record."""
    start = time.monotonic()
    child = Child(workload, seed, smoke, start + RUN_BUDGET_S)
    work = OUT / "work" / workload

    setups = []
    provenance = None
    for _ in range(1 if trace else SETUP_PROBES):
        record, error = child("setup", work / "setup")
        if record is None:
            raise SystemExit(f"perfbench: cannot set up {workload}: {error}")
        setups.append(record["setup_s"])
        provenance = record["provenance"]

    samples, traced, failures = [], [], []
    attempted = 0

    def experiment(mode: str) -> dict | None:
        nonlocal attempted
        attempted += 1
        outdir = work / mode
        record, error = child(mode, outdir)
        if record is None:
            failures.append(error)
            return None
        files = workloads.output_files(workload, record["basename"], outdir)
        problems = workloads.check_output(workload, files, smoke, reference)
        complete = all(f.is_file() for f in files)
        if mode == "trace":
            if complete and _digest(files) != baseline_digest:
                problems.append("traced report differs from the untraced run_* report")
            if not record.get("raw_matches_threshold_sweep", True):
                problems.append("capacity_sweep(threshold=None) raw capacities differ from the thresholded sweep")
            if traced and record["counts"] != traced[0]["counts"]:
                problems.append("traced counts differ between experiments")
        elif complete:
            record["digest"] = _digest(files)
        if problems:
            failures.append(f"{mode}: " + "; ".join(problems[:5]))
        return record

    baseline_digest = None
    if trace:
        baseline = experiment("run")
        if baseline is not None:
            samples.append(baseline)
            baseline_digest = baseline.get("digest")
    mode = "trace" if trace else "run"
    while True:
        record = experiment(mode)
        if record is not None:
            (traced if trace else samples).append(record)
        elapsed = time.monotonic() - start
        last = record["process_s"] if record is not None else 0.0
        if elapsed + last > seconds or time.monotonic() + last > child.deadline:
            break

    if not samples or (trace and not traced):
        raise SystemExit(f"perfbench: no {workload} experiment completed: {failures}")
    setups += [s["setup_s"] for s in samples + traced]
    if trace:
        metrics = _per_layer(traced, samples[0]["wall_s"])
    else:
        metrics = _end_to_end(samples, setups)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "smoke": smoke,
        "provenance": provenance,
        "blas_threads": BLAS_THREADS,
        "reference_checked": reference is not None,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": samples,
        "traced": traced,
        "setup_samples": setups,
        "metrics": metrics,
    }


def _end_to_end(samples: list[dict], setups: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(s["wall_s"] for s in samples),
        "targets_per_s": med(s["decided"] / s["wall_s"] for s in samples),
        "steps_per_s": med(s["column_steps"] / s["wall_s"] for s in samples),
        "peak_rss_mb": med(s["peak_rss_mb"] for s in samples),
        "setup_s": med(setups),
    }


def _per_layer(traced: list[dict], untraced_wall: float) -> dict:
    def span_median(fn) -> float:
        return statistics.median(fn(t["spans"]) for t in traced)

    metrics = {name: span_median(lambda s, n=name: s.get(n, 0.0)) for name in SPANS}
    metrics["capacity.threshold_s"] = span_median(
        lambda s: s.get("capacity.sweep_s", 0.0) - s.get("capacity.sweep_raw_s", 0.0)
    )
    metrics.update({name: traced[0]["counts"].get(name, 0) for name in COUNTS})
    total = span_median(lambda s: sum(v for k, v in s.items() if k not in PROBE_SPANS))
    metrics["bench.untraced_wall_s"] = untraced_wall
    metrics["bench.span_total_s"] = total
    metrics["bench.trace_overhead_s"] = total - untraced_wall
    return metrics


def summary_lines(result: dict) -> list[str]:
    """Human-readable lines; the last one is the JSON object the contract asks for."""
    units = PER_LAYER if result["trace"] else END_TO_END
    n_setup = len(result["setup_samples"])
    n = len(result["traced"] if result["trace"] else result["samples"])
    lines = [f"# provenance {json.dumps(result['provenance'], sort_keys=True)}"]
    for name, value in result["metrics"].items():
        if name in COUNTS:
            how = "from the traced report"
        else:
            how = f"median of {n_setup if name == 'setup_s' else n}"
        lines.append(f"{name} {value!r} {units[name]} ({how})")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"failed_frac {failed / attempted!r} ({failed} of {attempted} experiments)")
    lines += [f"# failure: {text}" for text in result["failures"]]
    lines.append(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
            }
        )
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "ipcap" / "__init__.py").is_file():
        print(f"perfbench: no ipcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = workloads.load_reference(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), reference=reference)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("\n".join(summary_lines(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
