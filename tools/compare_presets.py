"""Compare presets between two source trees, at full scale.

Usage (from anywhere, each argument the directory that holds `ipcap`):

    python tools/compare_presets.py PARENT_SRC CHANGE_SRC [PRESET ...]

Without PRESET names it runs every bundled preset: each capacity preset and
each NARMA suite (`narma_suite`, e.g. fig2b). Each preset runs once per tree,
each run in its own process at one BLAS thread, the two trees one after the
other. For every preset the meta column shows whether the validated configs
(ExperimentConfig.to_dict, every default and derived value filled in) are
equal, so a moved default, moment or shaping fails it even when no result
moves. For a capacity preset it also compares the reports' meta and threshold
blocks, and the table shows whether the kept sets, the skip lists (order
included) and the ranks are equal, and the largest |raw capacity difference|
over the targets. For a NARMA suite it shows whether the two runs wrote the
same files with the same bytes. Every row gives the seconds and the peak RSS
(ru_maxrss, MiB) of each run. The exit status is 1 if any config, decision,
skip, rank, meta or threshold block differs, if a raw capacity moves by more
than 1e-12, or if a NARMA suite's output files differ in any byte; otherwise 0.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RAW_BOUND = 1e-12

# Runs one preset, writing its files into the directory argv[2], and prints
# its digest.
_WORKER = """
import json, resource, sys, time
from ipcap import get_preset, run_ipc, run_narma_suite, run_tipc
config = get_preset(sys.argv[1])
runner = {"ipc": run_ipc, "tipc": run_tipc, "narma_suite": run_narma_suite}[config.kind]
t0 = time.perf_counter()
report = runner(config, sys.argv[2])
digest = {
    "seconds": time.perf_counter() - t0,
    # kilobytes on Linux
    "peak_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "config": config.to_dict(),
}
if config.kind != "narma_suite":
    digest.update(
        rank=report.rank,
        raw={e.spec: e.raw_capacity for e in report.entries},
        kept=sorted(e.spec for e in report.entries if e.thresholded_capacity != 0.0),
        skipped=[list(pair) for pair in report.skipped],
        meta=report.meta,
        threshold=report.threshold_meta,
    )
print(json.dumps(digest))
"""

_LIST = """
from ipcap import preset_names
print("\\n".join(preset_names()))
"""


def _python(src: str, code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )
    if done.returncode != 0:
        raise SystemExit(f"{src}: {' '.join(args) or 'preset list'} failed:\n{done.stderr}")
    return done.stdout


def compare(parent: dict, change: dict) -> dict:
    """Equality of decisions, skips, rank, config, meta and threshold, and the largest raw difference."""
    old, new = parent["raw"], change["raw"]
    delta = max((abs(old[k] - new[k]) for k in old), default=0.0) if old.keys() == new.keys() else math.inf
    return {
        "kept": parent["kept"] == change["kept"],
        "skipped": parent["skipped"] == change["skipped"],
        "rank": parent["rank"] == change["rank"],
        "meta": (parent["config"], parent["meta"], parent["threshold"])
        == (change["config"], change["meta"], change["threshold"]),
        "max_delta": delta,
    }


def same_files(parent_dir: Path, change_dir: Path) -> bool:
    """Whether both directories hold the same file names, each with the same bytes."""
    names = sorted(p.name for p in parent_dir.iterdir())
    if names != sorted(p.name for p in change_dir.iterdir()):
        return False
    _, mismatch, errors = filecmp.cmpfiles(parent_dir, change_dir, names, shallow=False)
    return not (mismatch or errors)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent_src, change_src, *names = argv
    names = names or _python(change_src, _LIST).split()
    header = (
        f"{'preset':<22} {'kept':>5} {'skips':>5} {'rank':>5} {'meta':>5} {'max |dRaw|':>11}"
        f" {'parent s':>9} {'change s':>9} {'parent MiB':>10} {'change MiB':>10}"
    )
    print(header)
    print("-" * len(header))
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            outdirs = [Path(scratch, name, side) for side in ("parent", "change")]
            parent, change = (
                json.loads(_python(src, _WORKER, name, str(outdir)))
                for src, outdir in zip((parent_src, change_src), outdirs)
            )
            if "raw" in parent:
                c = compare(parent, change)
                same = c["kept"] and c["skipped"] and c["rank"] and c["meta"]
                bad = not same or c["max_delta"] > RAW_BOUND
                cells = ["same" if c[key] else "DIFF" for key in ("kept", "skipped", "rank", "meta")]
                cells.append(f"{c['max_delta']:.3g}")
            else:
                same_config, files = parent["config"] == change["config"], same_files(*outdirs)
                bad = not (same_config and files)
                cells = ["-", "-", "-", "same" if same_config else "DIFF", "files same" if files else "files DIFF"]
            failed |= bad
            print(
                f"{name:<22} {cells[0]:>5} {cells[1]:>5} {cells[2]:>5} {cells[3]:>5} {cells[4]:>11}"
                f" {parent['seconds']:>9.2f} {change['seconds']:>9.2f}"
                f" {parent['peak_mib']:>10.1f} {change['peak_mib']:>10.1f}"
                + ("  FAIL" if bad else ""),
                flush=True,
            )
    print(
        "FAIL"
        if failed
        else f"OK: same configs, no decision flip, same meta and threshold, every |dRaw| <= {RAW_BOUND:g},"
        " every NARMA output file identical"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
