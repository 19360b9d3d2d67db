"""Tests of the benchmark itself, in its short mode.

Run from the repository root::

    python -m pytest perfbench -q
"""

import json
import pathlib
import shutil
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from calibrate import PERIOD_S, SpeedProbe  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_metric_is_mapped_to_what_it_moves():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert set(layers.MOVES) == {m["name"] for m in SPEC["per_layer"]}
    targets = {m["name"] for m in SPEC["end_to_end"]} | {"store.read_s"}
    for name, (moves, where) in layers.MOVES.items():
        assert moves == "-" or set(moves.split(",")) <= targets, name
        assert where and set(where) <= set(workloads.WORKLOADS), name


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    name = request.param
    return name, workloads.measure(name, seed=3, seconds=0, trace=True,
                                   size=workloads.SHORT)


def test_short_traced_run_passes_its_checks(traced):
    name, record = traced
    assert record["failures"] == [] and record["failed"] == 0
    assert record["attempted"] > 0
    assert set(record["e2e"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in record["e2e"].values())
    assert set(record["per_layer"]) == {m["name"]
                                        for m in SPEC["per_layer"]}
    assert record["absent"] == []
    for metric, (_moves, where) in layers.MOVES.items():
        if name in where:
            assert metric not in record["not_applicable"], metric
    assert record["spans"], "the traced run recorded no spans"


def test_traced_digest_equals_untraced(traced):
    name, record = traced
    untraced = workloads.measure(name, seed=3, seconds=0, trace=False,
                                 size=workloads.SHORT)
    assert untraced["failed"] == 0
    assert untraced["per_layer"] is None
    assert untraced["spans"] == []
    assert untraced["inputs"] == record["inputs"]
    assert untraced["digest"] == record["digest"]


def test_self_times_subtract_the_union_of_children():
    spans = [
        {"id": "a", "layer": "x", "start": 0.0, "end": 10.0,
         "parent": None},
        {"id": "b", "layer": "y", "start": 1.0, "end": 5.0, "parent": "a"},
        {"id": "c", "layer": "y", "start": 3.0, "end": 7.0, "parent": "a"},
        {"id": "d", "layer": "z", "start": 2.0, "end": 3.0, "parent": "b"},
    ]
    assert self_times(spans) == pytest.approx({"x": 4.0, "y": 7.0,
                                               "z": 1.0})


def test_speed_probe_samples_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as outer:
        with SpeedProbe() as inner:
            end = time.perf_counter() + 3 * PERIOD_S
            while time.perf_counter() < end:
                pass
        assert signal.getsignal(signal.SIGALRM) == outer._tick
    assert len(inner.samples) >= 3 and len(outer.samples) >= 1
    assert all(sample > 0 for sample in inner.samples + outer.samples)
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("a", "x"):
        tracer.add("b", "x", 0.0, 1.0, None)
    tracer.adopt([{"id": "c", "parent": None}], None)
    assert tracer.spans == []


def _fake_sim():
    sim = SimpleNamespace(sent=[])
    sim.send_upstream = lambda *a, **k: sim.sent.append(a)
    sim.send_downstream = lambda *a, **k: sim.sent.append(a)
    sim.gateway = SimpleNamespace(upstream_sink=lambda p, t: None)
    sim.vehicle = SimpleNamespace(downstream_sink=lambda p, t: None)
    sim.ctx = SimpleNamespace(
        gateway_deliver_upstream=lambda p: sim.gateway.upstream_sink(p, 0))

    def set_up(cb):
        sim.gateway.upstream_sink = cb

    def set_down(cb):
        sim.vehicle.downstream_sink = cb

    sim.set_upstream_sink = set_up
    sim.set_downstream_sink = set_down
    return sim


def test_delivery_audit_flags_unsent_and_duplicate_packets():
    sim = _fake_sim()
    audit = workloads.DeliveryAudit(sim)
    payload = ("x", 1)
    sim.send_downstream(payload, 20)
    packet = SimpleNamespace(payload=payload, src=1, dst=0, pkt_id=7)
    sim.vehicle.downstream_sink(packet, 1.0)
    assert audit.failures(events=1) == []
    sim.vehicle.downstream_sink(packet, 1.1)          # same packet again
    sim.vehicle.downstream_sink(                       # salvaged copy
        SimpleNamespace(payload=payload, src=2, dst=0, pkt_id=0), 1.2)
    sim.ctx.gateway_deliver_upstream(                 # never sent up
        SimpleNamespace(payload=payload, src=0, dst=1, pkt_id=7))
    assert (audit.duplicates, audit.redelivered, audit.unsent) == (1, 2, 1)
    assert (audit.offered, audit.delivered) == (1, 1)
    assert len(audit.failures(events=0)) == 3
    assert sim.sent == [(payload, 20)]


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_cli_prints_end_to_end_metrics_with_units(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "FULL", workloads.SHORT)
    code = run.main(["--workload", "vanlan_cbr", "--seed", "2",
                     "--seconds", "0", "--trace", "0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    report = json.loads(lines[-2])["report"]
    assert set(report["host"]) == {"nproc", "cpu_count", "loadavg_1m",
                                   "python", "numpy"}
    assert report["inputs"] and len(report["digest"]) == 64


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "tcp_sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
