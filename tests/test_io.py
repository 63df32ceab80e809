"""Unit tests for result persistence."""

import csv
import json
from pathlib import Path

import pytest

from repro.experiments.common import RowSet
from repro.io import update_manifest, write_manifest, write_rowset


def read_rowset_csv(path: str | Path) -> tuple[tuple[str, ...], list[tuple[str, ...]]]:
    """Read back a rowset CSV as (headers, string rows)."""
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [tuple(r) for r in reader]
    if not rows:
        raise ValueError(f"empty rowset file {path}")
    return rows[0], rows[1:]


def sample_rowset():
    rs = RowSet("Figure X — demo", ("n", "hops"))
    rs.add(100, 3.5)
    rs.add(200, 4.0)
    rs.notes["scheme"] = "hot"
    rs.elapsed_s = 1.25
    return rs


class TestWriteRowset:
    def test_csv_round_trip(self, tmp_path):
        csv_path, _ = write_rowset(sample_rowset(), tmp_path, "figX")
        headers, rows = read_rowset_csv(csv_path)
        assert headers == ("n", "hops")
        assert rows == [("100", "3.5"), ("200", "4.0")]

    def test_json_payload(self, tmp_path):
        _, json_path = write_rowset(sample_rowset(), tmp_path, "figX")
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "Figure X — demo"
        assert payload["rows"] == [[100, 3.5], [200, 4.0]]
        assert payload["notes"] == {"scheme": "hot"}
        assert payload["elapsed_s"] == 1.25

    def test_slug_sanitised(self, tmp_path):
        csv_path, _ = write_rowset(sample_rowset(), tmp_path, "Fig 10(a)!")
        assert csv_path.name == "fig-10-a.csv"

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        write_rowset(sample_rowset(), target, "x")
        assert (target / "x.csv").exists()

    def test_non_jsonable_notes_stringified(self, tmp_path):
        rs = sample_rowset()
        rs.notes["weird"] = {1, 2}
        _, json_path = write_rowset(rs, tmp_path, "figY")
        payload = json.loads(json_path.read_text())
        assert isinstance(payload["notes"]["weird"], str)


class TestManifest:
    def test_manifest_indexes_entries(self, tmp_path):
        entries = {"figX": sample_rowset(), "figY": sample_rowset()}
        for name, rs in entries.items():
            write_rowset(rs, tmp_path, name)
        path = write_manifest(tmp_path, entries)
        manifest = json.loads(path.read_text())
        assert set(manifest) == {"figX", "figY"}
        assert manifest["figX"]["csv"] == "figx.csv"
        assert manifest["figX"]["rows"] == 2

    def test_update_keeps_earlier_entries(self, tmp_path):
        write_manifest(tmp_path, {"figX": sample_rowset()})
        path = update_manifest(tmp_path, {"figY": sample_rowset()})
        manifest = json.loads(path.read_text())
        assert set(manifest) == {"figX", "figY"}

    def test_update_replaces_rerun_ids(self, tmp_path):
        update_manifest(tmp_path, {"figX": sample_rowset()})
        rerun = sample_rowset()
        rerun.add(300, 5.0)
        path = update_manifest(tmp_path, {"figX": rerun})
        manifest = json.loads(path.read_text())
        assert manifest["figX"]["rows"] == 3

    def test_update_survives_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        path = update_manifest(tmp_path, {"figX": sample_rowset()})
        assert set(json.loads(path.read_text())) == {"figX"}


class TestReadErrors:
    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            read_rowset_csv(p)


class TestCliOut:
    def test_run_with_out_writes_files(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "0.02")
        assert main(["run", "table1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "manifest.json").exists()
        assert "results written" in capsys.readouterr().out


class TestWriteSpans:
    def _bus(self):
        from repro.obs.trace import TraceBus

        bus = TraceBus(clock=lambda: 0.0)
        with bus.span("publish", item=3):
            bus.event("hop", src=1, dst=2)
        return bus

    def test_span_export_round_trips(self, tmp_path):
        from repro.io import write_spans

        path = write_spans(self._bus(), tmp_path, "fig7")
        assert path.name == "fig7.spans.json"
        payload = json.loads(path.read_text())
        assert payload["roots"] == 1
        root = payload["spans"][0]
        assert root["kind"] == "publish"
        assert root["attrs"] == {"item": 3}
        assert root["children"][0]["kind"] == "hop"

    def test_null_tracer_exports_empty(self, tmp_path):
        from repro.io import write_spans
        from repro.obs.trace import NULL_TRACER

        payload = json.loads(write_spans(NULL_TRACER, tmp_path).read_text())
        assert payload == {"roots": 0, "spans": []}

    def test_trace_cli_out_writes_spans(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "--out", str(tmp_path)]) == 0
        files = list(tmp_path.glob("*.spans.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["roots"] > 0
