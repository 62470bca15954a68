"""Observer lifecycle: enable / re-enable / disable semantics.

The observer is process-global; long-lived processes (notebooks, the DES
driver) re-enable it between experiments, so re-enabling must never lose
data already recorded to the previous trace, and must hand out a fresh
observer rather than mutating the old one.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.obs as obs
from repro.obs.null import NULL_OBSERVER

SRC = Path(__file__).resolve().parents[2] / "src"


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_reenable_flushes_and_closes_previous_trace(tmp_path):
    first_path = tmp_path / "first.jsonl"
    second_path = tmp_path / "second.jsonl"
    try:
        first = obs.enable(trace_path=first_path)
        with first.span("phase.one"):
            pass

        second = obs.enable(trace_path=second_path)
        assert second is not first
        assert obs.get_observer() is second

        # The first trace was flushed and closed on re-enable: its span
        # and its final metric snapshot are on disk even though disable()
        # was never called on it.
        records = _read_jsonl(first_path)
        assert any(
            r["kind"] == "span" and r["name"] == "phase.one" for r in records
        )
        assert records[-1]["kind"] == "snapshot"
        assert first.events_log.closed

        # The second observer starts fresh: no carried-over metrics.
        assert second.registry.snapshot()["counters"] == {}
        with second.span("phase.two"):
            pass
        obs.disable()
        names = [r.get("name") for r in _read_jsonl(second_path)]
        assert "phase.two" in names and "phase.one" not in names
    finally:
        obs.disable()


def test_reenable_resets_flight_recorder(tmp_path):
    try:
        first = obs.enable()
        with first.decision(request_id=1, requestor="p0") as dec:
            dec.set(outcome="granted", granted=1.0)
        assert obs.explain(1) is not None

        obs.enable()  # fresh observer, fresh ring buffer
        assert obs.explain(1) is None
    finally:
        obs.disable()


def test_disable_is_idempotent_and_restores_null():
    obs.disable()
    obs.disable()
    assert obs.get_observer() is NULL_OBSERVER
    assert obs.report() == "(observability disabled)"
    assert obs.explain(12345) is None


def test_second_close_is_a_noop(tmp_path):
    path = tmp_path / "trace.jsonl"
    try:
        observer = obs.enable(trace_path=path)
        observer.counter("x")
        observer.close()
        written = path.read_text()
        observer.close()
        obs.disable()  # closes the same observer a third time
    finally:
        obs.disable()
    assert path.read_text() == written
    (snapshot,) = _read_jsonl(path)
    assert snapshot["kind"] == "snapshot"
    assert snapshot["counters"]["x"] == {"": 1}


@pytest.mark.parametrize(
    "name, value",
    [
        ("REPRO_OBS_SAMPLE", "nan"),
        ("REPRO_OBS_SAMPLE", "1.5"),
        ("REPRO_OBS_SAMPLE", "-0.2"),
        ("REPRO_OBS_SAMPLE", "half"),
        ("REPRO_OBS_DECISIONS", "-1"),
        ("REPRO_OBS_DECISIONS", "many"),
        ("sample", math.nan),
        ("sample", 1.5),
        ("sample", -0.2),
        ("decision_capacity", -1),
    ],
)
def test_invalid_settings_rejected(monkeypatch, name, value):
    """Environment variables and enable() arguments are validated alike."""
    kwargs = {}
    if name.startswith("REPRO_OBS_"):
        monkeypatch.setenv(name, value)
    else:
        kwargs[name] = value
    try:
        with pytest.raises(ValueError, match=f"{name}=.*{value}"):
            obs.enable(**kwargs)
    finally:
        obs.disable()


@pytest.mark.parametrize("value, observer", [
    ("off", "NullObserver"), (" OFF ", "NullObserver"), ("no", "NullObserver"),
    ("1", "Observer"),
])
def test_repro_obs_switch(value, observer):
    """``REPRO_OBS`` reads on/off words as ``REPRO_SANITIZE`` does."""
    env = {**os.environ, "REPRO_OBS": value}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("REPRO_OBS_TRACE", None)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro.obs as obs; print(type(obs.get_observer()).__name__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == observer
