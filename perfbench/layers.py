"""The benchmark's metric catalogue and the counters it reads.

``BENCHMARK.json`` holds each metric's name, unit, direction and bound;
this module reads names and units from it and adds what that file has
no room for: which end-to-end metric each per-layer metric should move,
and on which workload, plus the layers left out and why.

Layers are the ``repro`` packages on the run path: ``sim`` (engine),
``net`` (propagation banks, medium), ``core`` (ViFi nodes, estimator,
stats), ``apps`` (CBR/TCP/VoIP), ``testbeds`` (VanLAN deployment,
DieselNet traces, loss maps), ``experiments`` (``run_trips`` pool,
shared banks) and ``store`` (result store).  Not measured:

* ``handoff`` and ``analysis`` post-process results off the protocol
  run;
* ``service`` and ``gateway`` are not on ROADMAP's end-to-end list; a
  served workload comes with the change that optimises one of them;
* ``lint`` never runs with the program;
* the fault plane stays off (``faults=None``).

App work runs inside ``Simulator.run`` and the benchmark spans only its
own calls into the program, so ``sim.run_self_s`` holds every callback
the engine dispatches (medium, nodes, apps) except the estimator fold,
which the estimator bank times itself.
"""

import functools
import json
import os

__all__ = ["MOVES", "fold_seconds", "host_scaled", "sim_counters",
           "units"]

_SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


@functools.cache
def units(kind):
    """Metric name -> unit, in ``BENCHMARK.json``'s order.

    Args:
        kind: ``"end_to_end"`` -- reported on every workload (see
            ``workloads.py`` for what each means on each one; the warm
            store re-run is timed as the layer metric ``store.read_s``)
            -- or ``"per_layer"``.
    """
    with open(_SPEC_PATH) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}

V, D, T = "vanlan_cbr", "dieselnet_voip", "tcp_sweep"

#: Per-layer metric -> (moves, workloads): *moves* is the end-to-end
#: metric it should move and *workloads* where it should move it; "-"
#: marks an output count that a speed-only change must leave identical.
#: Every per-layer metric of ``BENCHMARK.json`` has an entry.
MOVES = {
    "sim.events": ("sim_rate", (V,)),
    "sim.events_per_cpu_s": ("sim_rate", (V,)),
    "sim.run_self_s": ("sim_rate", (V,)),
    "net.prefill_s": ("setup_s", (V,)),
    "net.frames.data": ("sim_rate,sweep_s", (D, T)),
    "net.frames.ack": ("sim_rate,sweep_s", (D, T)),
    "net.frames.beacon": ("sim_rate,sweep_s", (D, T)),
    "net.frames_per_cpu_s": ("sim_rate,sweep_s", (D, T)),
    "net.defers": ("sim_rate,sweep_s", (D, T)),
    "net.batched_frame_share": ("sim_rate", (V, D)),
    "net.predraw_hit_share": ("sim_rate", (V, D)),
    "core.build_s": ("setup_s", (V, D)),
    "core.estimator_fold_s": ("sim_rate", (V,)),
    "core.relays": ("-", (D,)),
    "core.false_positives": ("-", (D,)),
    "core.salvaged": ("-", (D,)),
    "core.anchor_switches": ("-", (D,)),
    "apps.offered": ("-", (V, D, T)),
    "apps.delivered": ("-", (V, D, T)),
    # Payloads delivered again under a fresh packet identity (salvage,
    # anchor switch); see workloads.DeliveryAudit.
    "apps.redelivered": ("-", (V, D, T)),
    "apps.tcp_completed": ("-", (T,)),
    "apps.tcp_aborted": ("-", (T,)),
    "apps.voip_mos_mean": ("-", (D,)),
    "testbeds.build_s": ("setup_s", (V,)),
    "testbeds.trace_s": ("setup_s", (D,)),
    "testbeds.lossmap_s": ("setup_s", (D,)),
    "experiments.task_s_p50": ("sweep_s", (T,)),
    "experiments.task_s_max": ("sweep_s", (T,)),
    "experiments.task_samples": ("-", (T,)),
    "experiments.parallel_eff": ("sweep_s", (T,)),
    "experiments.cpu_s": ("sweep_s", (T,)),
    "experiments.failures": ("sweep_s", (T,)),
    "experiments.retries": ("sweep_s", (T,)),
    "store.writes": ("sweep_s", (T,)),
    # The warm re-run is store reads alone; its wall time is measured,
    # but at about a millisecond it does not hold steady enough across
    # runs to be gated, so it is a layer metric (store.read_s) that the
    # other store metrics explain.
    "store.read_s": ("-", (T,)),
    "store.hits": ("store.read_s", (T,)),
    "store.misses": ("store.read_s", (T,)),
    "store.verify_failures": ("store.read_s", (T,)),
    "store.bytes": ("store.read_s", (T,)),
    "store.warm_hit_ratio": ("store.read_s", (T,)),
    "store.read_mbps": ("store.read_s", (T,)),
    # Wall self time per layer from the spans: the span's duration
    # minus the part its child spans cover.
    "testbeds.self_s": ("setup_s", (V, D)),
    "net.self_s": ("setup_s", (V,)),
    "core.self_s": ("setup_s,sim_rate", (V, D)),
    "experiments.self_s": ("sweep_s,setup_s", (T,)),
    "store.self_s": ("store.read_s", (T,)),
    # Tracing overhead: traced minus untraced value of each end-to-end
    # metric over the same inputs, in that metric's unit and direction.
    "trace.delta.sim_rate": ("sim_rate", (V, D, T)),
    "trace.delta.setup_s": ("setup_s", (V, D, T)),
    "trace.delta.sweep_s": ("sweep_s", (V, D, T)),
    "trace.delta.peak_rss_mb": ("peak_rss_mb", (V, D, T)),
}


def host_scaled(value, unit, factor):
    """*value* in *unit* scaled to the nominal host (see calibrate.py).

    Times are multiplied by *factor* (from ``calibrate.scale``), rates
    per time divided by it; other units are unchanged.
    """
    if value is None or unit not in ("s", "s/s", "1/s", "MB/s"):
        return value
    return value * factor if unit == "s" else value / factor


def _read(obj, *path):
    """``obj.a.b...`` or ``None`` when any attribute on the way is gone."""
    for name in path:
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def _frames(medium, kind):
    transmissions = _read(medium, "transmissions")
    return None if transmissions is None else transmissions(kind=kind)


def fold_seconds(sim):
    """Wall seconds the estimator bank spent folding, or ``None``."""
    return _read(sim, "ctx", "estimator_bank", "fold_wall_s")


def sim_counters(sim, bank=None):
    """Counters of one finished protocol run, read from public attributes.

    A counter that the program no longer has reads as ``None`` (absent)
    rather than failing the run.

    Args:
        sim: the finished :class:`~repro.core.protocol.ViFiSimulation`.
        bank: the run's propagation bank, if it has one.
    """
    medium = sim.medium
    stats = sim.stats
    defers = [_read(medium, name) for name in ("defer_count",
                                               "freeze_count")]
    defers = [d for d in defers if d is not None]
    tx_records = _read(stats, "tx_records")
    decisions = _read(stats, "relay_decisions")
    return {
        "events": _read(sim, "sim", "events_processed"),
        "frames.data": _frames(medium, "data"),
        "frames.ack": _frames(medium, "ack"),
        "frames.beacon": _frames(medium, "beacon"),
        "defers": sum(defers) if defers else None,
        "slot_batch_frames": _read(medium, "slot_batch_frames"),
        "predraw_planned": _read(medium, "predraw_planned_frames"),
        "predraw_fallback": _read(medium, "predraw_fallback_frames"),
        "fold_s": fold_seconds(sim),
        "prefill_s": (_read(bank, "prefill_wall_s")
                      if bank is not None else 0.0),
        "relays": (None if decisions is None
                   else sum(1 for d in decisions if d[3])),
        "false_positives": (None if tx_records is None else sum(
            len(t.relays) for t in tx_records.values() if t.heard_by_dst)),
        "salvaged": _read(stats, "salvaged_packets"),
        "anchor_switches": _read(stats, "anchor_changes"),
    }

