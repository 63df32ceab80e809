"""Result persistence: RowSets to CSV/JSON, experiment manifests.

The benchmark harnesses print their tables; this module writes them to
disk so figure series can be versioned, diffed, and plotted by external
tooling.  Layout convention::

    results/
      manifest.json          # experiment id → file, notes, elapsed
      fig7.csv               # one CSV per experiment, headers included
      fig7.json              # same rows, machine-friendly

Used by ``meteorograph run <exp> --out results/``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping

from .experiments.common import RowSet

__all__ = [
    "write_rowset",
    "write_manifest",
    "update_manifest",
    "write_spans",
]


def _slug(experiment_id: str) -> str:
    keep = [c if c.isalnum() or c in "-_" else "-" for c in experiment_id.lower()]
    return "".join(keep).strip("-") or "experiment"


def write_rowset(rs: RowSet, out_dir: str | Path, experiment_id: str) -> tuple[Path, Path]:
    """Write one RowSet as ``<id>.csv`` and ``<id>.json``; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    slug = _slug(experiment_id)
    csv_path = out / f"{slug}.csv"
    json_path = out / f"{slug}.json"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rs.headers)
        for row in rs.rows:
            writer.writerow(row)
    payload = {
        "experiment": rs.experiment,
        "headers": list(rs.headers),
        "rows": [list(r) for r in rs.rows],
        "notes": {k: _jsonable(v) for k, v in rs.notes.items()},
        "elapsed_s": rs.elapsed_s,
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


def _jsonable(value):
    try:
        json.dumps(value)
        return value
    except TypeError:
        return str(value)


def write_manifest(
    out_dir: str | Path, entries: Mapping[str, RowSet]
) -> Path:
    """Write ``manifest.json`` indexing a batch of experiment outputs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        exp_id: {
            "title": rs.experiment,
            "csv": f"{_slug(exp_id)}.csv",
            "json": f"{_slug(exp_id)}.json",
            "rows": len(rs.rows),
            "elapsed_s": round(rs.elapsed_s, 3),
            "notes": {k: _jsonable(v) for k, v in rs.notes.items()},
        }
        for exp_id, rs in entries.items()
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def update_manifest(
    out_dir: str | Path, entries: Mapping[str, RowSet]
) -> Path:
    """Merge ``entries`` into an existing ``manifest.json`` (or create it).

    :func:`write_manifest` overwrites, which silently drops earlier
    experiments from a results directory grown one ``run --out`` at a
    time; this variant keeps every previously indexed experiment and
    replaces only the ids being re-run.
    """
    out = Path(out_dir)
    path = out / "manifest.json"
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (ValueError, OSError):
            existing = {}  # corrupt manifest: rebuild from this batch
    write_manifest(out_dir, entries)
    merged = {**existing, **json.loads(path.read_text())}
    path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    return path


def write_spans(tracer, out_dir: str | Path, name: str = "spans") -> Path:
    """Export a trace bus's span trees as ``<name>.spans.json``.

    Writes next to the rowset CSVs (``meteorograph trace --out``), so a
    results directory can carry the per-hop trace evidence alongside the
    figures it explains.  ``tracer`` is anything with ``to_dicts()``
    (:class:`repro.obs.trace.TraceBus` or its null twin, which exports
    an empty list).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    roots = tracer.to_dicts()
    path = out / f"{_slug(name)}.spans.json"
    payload = {"roots": len(roots), "spans": roots}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
