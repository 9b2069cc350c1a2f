"""Reading and writing capacity reports and simulated series.

JSON carries the full report (entries, totals, threshold metadata); the CSV
companion holds one row per target for spreadsheet work. Writes go through a
temporary file and os.replace so a crash never leaves a half-written report.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .capacity import CapacityEntry, CapacityReport
from .errors import DataError

FORMAT_VERSION = 1


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def report_to_dict(report: CapacityReport) -> dict:
    return {
        "version": FORMAT_VERSION,
        "entries": [
            {
                "spec": e.spec,
                "order": e.order,
                "raw_capacity": e.raw_capacity,
                "thresholded_capacity": e.thresholded_capacity,
            }
            for e in report.entries
        ],
        "per_order_totals": {str(k): v for k, v in report.per_order_totals.items()},
        "total": report.total,
        "rank": report.rank,
        "threshold": report.threshold_meta,
        "skipped": [list(pair) for pair in report.skipped],
        "meta": report.meta,
    }


def report_from_dict(payload: dict) -> CapacityReport:
    if not isinstance(payload, dict) or "entries" not in payload:
        raise DataError("report payload: missing 'entries'")
    entries = tuple(
        CapacityEntry(
            spec=str(e["spec"]),
            order=int(e["order"]),
            raw_capacity=float(e["raw_capacity"]),
            thresholded_capacity=float(e["thresholded_capacity"]),
        )
        for e in payload["entries"]
    )
    return CapacityReport(
        entries=entries,
        per_order_totals={int(k): float(v) for k, v in payload["per_order_totals"].items()},
        total=float(payload["total"]),
        rank=int(payload["rank"]),
        threshold_meta=payload.get("threshold", {}),
        skipped=tuple(tuple(pair) for pair in payload.get("skipped", [])),
        meta=payload.get("meta", {}),
    )


def write_report(report: CapacityReport, json_path, csv_path=None) -> None:
    """Serialize a report to JSON and, optionally, a per-target CSV."""
    json_path = Path(json_path)
    text = json.dumps(report_to_dict(report), sort_keys=True, indent=2)
    _atomic_write(json_path, text + "\n")
    if csv_path is not None:
        rows = [["spec", "order", "raw_capacity", "thresholded_capacity"]]
        for e in report.entries:
            rows.append([e.spec, e.order, repr(e.raw_capacity), repr(e.thresholded_capacity)])
        buf = []
        writer = csv.writer(_ListIO(buf))
        writer.writerows(rows)
        _atomic_write(Path(csv_path), "".join(buf))


def read_report(json_path) -> CapacityReport:
    with open(json_path) as fh:
        payload = json.load(fh)
    return report_from_dict(payload)


class _ListIO:
    """Minimal write sink so csv.writer can fill a string buffer."""

    def __init__(self, buf: list):
        self.buf = buf

    def write(self, chunk: str):
        self.buf.append(chunk)


def write_series_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write named 1-d series of equal length as CSV columns."""
    names = list(columns)
    if not names:
        raise DataError("columns: need at least one series")
    arrays = [np.asarray(columns[n]).ravel() for n in names]
    length = arrays[0].size
    if any(a.size != length for a in arrays):
        raise DataError("columns: series lengths differ")
    buf = []
    writer = csv.writer(_ListIO(buf))
    writer.writerow(names)
    for i in range(length):
        writer.writerow([repr(float(a[i])) for a in arrays])
    _atomic_write(Path(path), "".join(buf))


def write_json(path, payload: dict) -> None:
    """Atomic JSON dump with stable key order."""
    _atomic_write(Path(path), json.dumps(payload, sort_keys=True, indent=2) + "\n")
