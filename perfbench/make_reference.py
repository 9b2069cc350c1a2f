"""Regenerate the default-seed references the benchmark compares against.

Usage (from the repository root): python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at the default seed with the benchmark's pinned BLAS
thread count, requires its output checks to pass, and stores the part of the
report a later run must repeat. Only regenerate a reference when a change is
meant to alter results, and say so with the change.
"""

import json
import sys

import run
import workloads


def main(names) -> int:
    for name in names or sorted(workloads.WORKLOADS):
        result = run.run(name, workloads.DEFAULT_SEED, 0.0, trace=False)
        if result["failed"]:
            print(f"{name}: output check failed, reference not written: {result['failures']}")
            return 1
        outdir = run.OUT / "work" / name / "run"
        files = workloads.output_files(name, result["samples"][0]["basename"], outdir)
        reference = workloads.reference_from_output(name, files)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"{name}: wrote {path.name} ({result['provenance']['blas']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
