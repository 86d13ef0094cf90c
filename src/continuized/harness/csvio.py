"""CSV emission of aggregated run sets.

Format: header ``t,metric,mean,q05,q95`` with one row per (checkpoint,
metric), values printed with 12 significant digits.  When the run set
carries theoretical reference curves, a trailing ``bound`` column is
appended; rows of metrics without a bound leave the cell empty.
"""

from __future__ import annotations

import csv
import io
import os

import numpy as np

from .runner import RunSet


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def render_csv(runset: RunSet) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["t", "metric", "mean", "q05", "q95"]
    with_bounds = bool(runset.bounds)
    if with_bounds:
        header.append("bound")
    writer.writerow(header)
    for ti, t in enumerate(runset.checkpoints):
        for metric in sorted(runset.metrics):
            agg = runset.aggregate[metric]
            row = [
                _fmt(t),
                metric,
                _fmt(agg["mean"][ti]),
                _fmt(agg["q05"][ti]),
                _fmt(agg["q95"][ti]),
            ]
            if with_bounds:
                bound = runset.bounds.get(metric)
                row.append(_fmt(bound[ti]) if bound is not None else "")
            writer.writerow(row)
    return buf.getvalue()


def emit_csv(runset: RunSet, path: str) -> None:
    """Write the aggregate table; parent directories must exist."""
    text = render_csv(runset)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def load_csv(path: str):
    """Read an emitted table back: (checkpoints, {metric: {column: array}})."""
    if not os.path.exists(path):
        raise OSError(f"no such file: {path}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"empty file, no CSV header: {path}")
    header, data = rows[0], rows[1:]
    columns = header[2:]
    times: list[float] = []
    series: dict[str, dict[str, list[float]]] = {}
    for row in data:
        t = float(row[0])
        if not times or times[-1] != t:
            times.append(t)
        metric = row[1]
        slot = series.setdefault(metric, {c: [] for c in columns})
        for c, cell in zip(columns, row[2:]):
            slot[c].append(float(cell) if cell != "" else np.nan)
    return (
        np.array(times),
        {m: {c: np.array(v) for c, v in cols.items()} for m, cols in series.items()},
    )
