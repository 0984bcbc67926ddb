"""End-to-end smoke test of the ``repro-trace`` CLI (run in CI).

Records a tiny traced workload, then drives every subcommand over the
resulting file and checks the Chrome export against the trace-event
schema.  Mirrors the "Trace smoke" CI step so failures reproduce
locally with plain pytest.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.cli import main
from repro.obs.export import (
    NATIVE_FORMAT,
    TRACE_EVENT_SCHEMA,
    load_trace,
    validate_chrome_trace,
)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trace-smoke")
    out = str(tmp_path / "smoke.trace.json")
    chrome = str(tmp_path / "smoke.chrome.json")
    code = main(
        [
            "record",
            "--out", out,
            "--chrome", chrome,
            "--n", "120",
            "--requests", "8",
            "--clients", "2",
            "--workers", "2",
            "--no-io-model",
            "--seed", "3",
            "--write-fraction", "0.25",
        ]
    )
    assert code == 0
    return tmp_path, out, chrome


def test_record_writes_native_trace(recorded):
    _tmp, out, _chrome = recorded
    document = load_trace(out)
    assert document["format"] == NATIVE_FORMAT
    assert document["meta"]["workload"]["n"] == 120
    # 2 of the 8 operations are writes; completed counts the reads
    assert document["meta"]["completed"] == 6
    names = {span["name"] for span in document["spans"]}
    assert "service.request" in names
    assert "engine.query" in names


def test_record_traces_writes(recorded):
    _tmp, out, _chrome = recorded
    spans = load_trace(out)["spans"]
    writes = [span for span in spans if span["name"] == "service.write"]
    assert writes, "the smoke workload must record writes"
    for write in writes:
        assert write["args"]["op"] in ("insert", "delete")
        waits = [
            span
            for span in spans
            if span["name"] == "service.write_lock_wait"
            and span["parent_id"] == write["span_id"]
            and span["trace_id"] == write["trace_id"]
        ]
        assert len(waits) == 1


def test_record_chrome_export_validates(recorded):
    _tmp, _out, chrome = recorded
    with open(chrome, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    validate_chrome_trace(document)
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(document, TRACE_EVENT_SCHEMA)
    assert any(e["ph"] == "X" for e in document["traceEvents"])


def test_summarize_shows_cost_axes(recorded, capsys):
    _tmp, out, _chrome = recorded
    assert main(["summarize", out]) == 0
    text = capsys.readouterr().out
    assert "cpu%" in text and "io%" in text and "dist%" in text
    assert "engine.query" in text


def test_top_ranks_traces(recorded, capsys):
    _tmp, out, _chrome = recorded
    assert main(["top", out, "--axis", "io", "-n", "3"]) == 0
    text = capsys.readouterr().out
    assert "top" in text and "io" in text


def test_export_roundtrip(recorded, tmp_path, capsys):
    _tmp, out, _chrome = recorded
    target = str(tmp_path / "exported.chrome.json")
    assert main(["export", out, "--chrome", target]) == 0
    with open(target, "r", encoding="utf-8") as handle:
        validate_chrome_trace(json.load(handle))


def test_bad_trace_file_is_a_clean_cli_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other/1", "spans": []}')
    assert main(["summarize", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-trace: error:")
    assert "not a repro-trace/1 trace file" in err
