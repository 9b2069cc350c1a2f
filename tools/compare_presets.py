"""Compare every capacity preset between two source trees, at full scale.

Usage (from anywhere, each argument the directory that holds `ipcap`):

    python tools/compare_presets.py PARENT_SRC CHANGE_SRC [PRESET ...]

Each preset runs once per tree, each run in its own process at one BLAS
thread, the two trees one after the other. Per preset the table shows
whether the kept sets, the skip lists (order included) and the ranks are
equal, the largest |raw capacity difference| over the targets, and the
seconds each run took. The exit status is 1 if any decision, skip or rank
differs, or if a raw capacity moves by more than 1e-12; otherwise 0.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

RAW_BOUND = 1e-12

# Runs one preset in a fresh temporary directory and prints its digest.
_WORKER = """
import json, sys, tempfile, time
from ipcap import get_preset, run_ipc, run_tipc
config = get_preset(sys.argv[1])
with tempfile.TemporaryDirectory() as outdir:
    t0 = time.perf_counter()
    report = (run_tipc if config.kind == "tipc" else run_ipc)(config, outdir)
    seconds = time.perf_counter() - t0
print(json.dumps({
    "seconds": seconds,
    "rank": report.rank,
    "raw": {e.spec: e.raw_capacity for e in report.entries},
    "kept": sorted(e.spec for e in report.entries if e.thresholded_capacity != 0.0),
    "skipped": [list(pair) for pair in report.skipped],
}))
"""

_LIST = """
from ipcap import get_preset, preset_names
print("\\n".join(n for n in preset_names() if get_preset(n).kind in ("ipc", "tipc")))
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
    """Equality of decisions, skips and rank, and the largest raw difference."""
    old, new = parent["raw"], change["raw"]
    delta = max((abs(old[k] - new[k]) for k in old), default=0.0) if old.keys() == new.keys() else math.inf
    return {
        "kept": parent["kept"] == change["kept"],
        "skipped": parent["skipped"] == change["skipped"],
        "rank": parent["rank"] == change["rank"],
        "max_delta": delta,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent_src, change_src, *names = argv
    names = names or _python(change_src, _LIST).split()
    header = f"{'preset':<22} {'kept':>5} {'skips':>5} {'rank':>5} {'max |dRaw|':>11} {'parent s':>9} {'change s':>9}"
    print(header)
    print("-" * len(header))
    failed = False
    for name in names:
        parent = json.loads(_python(parent_src, _WORKER, name))
        change = json.loads(_python(change_src, _WORKER, name))
        c = compare(parent, change)
        bad = not (c["kept"] and c["skipped"] and c["rank"]) or c["max_delta"] > RAW_BOUND
        failed |= bad
        same = ["same" if c[key] else "DIFF" for key in ("kept", "skipped", "rank")]
        print(
            f"{name:<22} {same[0]:>5} {same[1]:>5} {same[2]:>5} "
            f"{c['max_delta']:>11.3g} {parent['seconds']:>9.2f} {change['seconds']:>9.2f}"
            + ("  FAIL" if bad else ""),
            flush=True,
        )
    print("FAIL" if failed else f"OK: no decision flip, every |dRaw| <= {RAW_BOUND:g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
