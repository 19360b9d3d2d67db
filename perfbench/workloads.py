"""The benchmark's three workloads and the loop that measures them.

Each workload turns the workload seed into its inputs (testbed seed,
trips or days, protocol seeds); the program sees only those inputs.
One *rep* is one unit of work on one input:

* ``vanlan_cbr`` -- one full VanLAN trip carrying 500 B CBR at 10 pkt/s
  each way, built on the deployment radio model (testbed, prefilled
  propagation bank, link table, ``ViFiSimulation``) and run in-process.
  Traffic is light, so engine dispatch, beacons, the estimator fold and,
  in set-up, the propagation prefill dominate.  No pool, no store, no
  trace generation.
* ``dieselnet_voip`` -- one DieselNet Ch1 day: beacon-log generation,
  loss map, ``ViFiSimulation``, then G.729 VoIP (20 B every 20 ms each
  way) over the trace-driven links.  Per-frame medium resolve,
  relay/ack/salvage and ``apps.voip`` dominate; there is no propagation
  bank, so a propagation change should show no change here.
* ``tcp_sweep`` -- a Figure 9-shaped {BRR, ViFi} x trips grid of bulk TCP
  through ``run_trips`` on up to two workers, each trip on its own
  testbed draw, with shared banks from ``build_shared_banks`` (one call
  per trip) and a fresh result store: the grid runs cold,
  then the identical grid is re-run warm from the store several times.
  Both variants of a trip use the same protocol seed (common random
  numbers).

A seed fixes a run's inputs, ``Size.inputs`` of them; the run cycles
through them until ``--seconds`` have passed, so a slower program
measures the same inputs less often, never different ones.  End-to-end
metrics take one value per rep; a run reports, per input, the median
over that input's reps, and then the mean over its inputs, each input
weighing the same.  A speed probe that runs a small kernel inside each
rep scales the rep's times to a nominal host (see ``calibrate.py``);
the run report keeps the raw values too.

* ``sim_rate`` -- simulated seconds per process-CPU second of
  ``Simulator.run`` (on ``tcp_sweep``, summed over the grid's tasks);
* ``setup_s`` -- CPU seconds from nothing to a simulation ready to run,
  the median of ``setup_repeats`` builds (on ``tcp_sweep``, one pass of
  cold ``build_shared_banks`` calls, one per trip);
* ``sweep_s`` -- wall seconds of one cold pass over the rep's grid: the
  ``run_trips`` grid on ``tcp_sweep``, and set-up plus run of the one
  trip or day on the single-process workloads;
* ``peak_rss_mb`` -- peak resident set of the process, plus on
  ``tcp_sweep`` the peak of each pool child; the run reports the
  highest value any rep reached.

The delivery audit's wrappers (see :class:`DeliveryAudit`) sit on the
app send and sink paths, so their cost is inside the timed ``sim.run``
on every workload.

Every rep checks its outputs (each failure is one failed operation):
every app delivery was sent and none arrives twice, the run processed
events, the cold sweep lost no task, and each warm pass returns the cold
results bit for bit.  A SHA-256 digest of the simulated outputs of the
first pass over the inputs identifies the run's realization, so an A/B run
shows whether a change altered the simulation.
"""

import gc
import hashlib
import os
import pickle
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass

from repro.apps.tcp import TcpWorkload
from repro.apps.voip import VoipStream
from repro.apps.workload import CbrWorkload, FlowRouter
from repro.core.protocol import ViFiConfig, ViFiSimulation
from repro.experiments.common import (
    WARMUP_S,
    available_workers,
    build_shared_banks,
    install_shared_banks,
    run_trips,
    shared_bank,
)
from repro.sim.rng import RngRegistry
from repro.store import ResultStore
from repro.testbeds.dieselnet import DieselNetTestbed
from repro.testbeds.lossmap import build_link_table_from_log
from repro.testbeds.vanlan import VEHICLE_ID, VanLanTestbed

import layers
from calibrate import SpeedProbe, scale
from spans import NULL, Tracer, self_times

__all__ = ["FULL", "SHORT", "WORKLOADS", "measure", "tcp_task"]


@dataclass(frozen=True)
class Size:
    """How much work one rep does, and how many inputs a run measures."""

    vanlan_s: float = None      # None: the whole trip
    dieselnet_s: float = 60.0
    tcp_trips: int = 6
    tcp_s: float = 40.0
    warm_passes: int = 100
    setup_repeats: int = 3
    inputs: tuple = (("vanlan_cbr", 8), ("dieselnet_voip", 10),
                     ("tcp_sweep", 4))


FULL = Size()
#: The tests' short mode: same code paths, a few simulated seconds.
SHORT = Size(vanlan_s=20.0, dieselnet_s=20.0, tcp_trips=1, tcp_s=15.0,
             warm_passes=2, setup_repeats=1,
             inputs=(("vanlan_cbr", 1), ("dieselnet_voip", 1),
                     ("tcp_sweep", 1)))

#: TCP grid variants (Figure 9's outer bars).
VARIANTS = {"BRR": lambda: ViFiConfig().brr_variant(), "ViFi": ViFiConfig}

#: Where reps keep temporary result stores: inside the checkout.
SCRATCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".bench_build", "perfbench")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(obj):
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


class DeliveryAudit:
    """Checks every app delivery against the app's sends.

    Apps hand a payload object to ``send_upstream``/``send_downstream``
    and the protocol delivers that same object at the far end, so a
    delivery whose payload was never sent on its leg is caught by
    identity (the audit keeps every sent payload alive, so identities
    stay unique).

    "Arrives twice" is checked against the protocol's own packet
    identity, ``(src, pkt_id)``, within the de-duplication scope of the
    node that hands the packet on: the vehicle for downstream packets,
    and for upstream ones the anchor it was addressed to, read when
    that anchor forwards it (the vehicle re-addresses the same packet
    object on a later retransmission).  The same payload can still
    reach the app again under a fresh identity: a salvaged packet
    re-enters from the new anchor after its ack was lost (Section 4.5
    accepts that duplicate), and a retransmission or relay addressed to
    a new anchor is forwarded again.  Those are counted as
    ``redelivered``, not as failures.  Attach the audit after the run's
    :class:`FlowRouter`, whose sinks it wraps.
    """

    def __init__(self, sim):
        self._sent = {}         # (leg, id(payload)) -> [payload, sends]
        self._arrived = {}      # (leg, id(payload)) -> deliveries
        self._packets = set()   # handed-on (leg, scope, src, pkt_id)
        self.offered = 0
        self.delivered = 0
        self.redelivered = 0
        self.unsent = 0
        self.duplicates = 0
        send_up, send_down = sim.send_upstream, sim.send_downstream
        forward = sim.ctx.gateway_deliver_upstream
        to_wired = sim.gateway.upstream_sink
        to_vehicle = sim.vehicle.downstream_sink

        def upstream(payload, size_bytes, flow_id=0, seq=0):
            self._send("up", payload)
            return send_up(payload, size_bytes, flow_id=flow_id, seq=seq)

        def downstream(payload, size_bytes, flow_id=0, seq=0):
            self._send("down", payload)
            return send_down(payload, size_bytes, flow_id=flow_id, seq=seq)

        def forwarded(packet):
            self._hand_on("up", packet)
            forward(packet)

        def wired_sink(packet, delivered_at):
            self._arrive("up", packet)
            to_wired(packet, delivered_at)

        def vehicle_sink(packet, delivered_at):
            self._hand_on("down", packet)
            self._arrive("down", packet)
            to_vehicle(packet, delivered_at)

        sim.send_upstream = upstream
        sim.send_downstream = downstream
        sim.ctx.gateway_deliver_upstream = forwarded
        sim.set_upstream_sink(wired_sink)
        sim.set_downstream_sink(vehicle_sink)

    def _send(self, leg, payload):
        self.offered += 1
        entry = self._sent.setdefault((leg, id(payload)), [payload, 0])
        entry[1] += 1

    def _hand_on(self, leg, packet):
        identity = (leg, packet.dst, packet.src, packet.pkt_id)
        if identity in self._packets:
            self.duplicates += 1
        self._packets.add(identity)

    def _arrive(self, leg, packet):
        key = (leg, id(packet.payload))
        if key not in self._sent:
            self.unsent += 1
            return
        arrived = self._arrived.get(key, 0) + 1
        self._arrived[key] = arrived
        if arrived > self._sent[key][1]:
            self.redelivered += 1
        else:
            self.delivered += 1

    def failures(self, events):
        out = []
        if self.unsent:
            out.append(f"{self.unsent} deliveries were never sent")
        if self.duplicates:
            out.append(f"{self.duplicates} packets were delivered twice")
        if not events:
            out.append("the run processed no events")
        return out


def _vanlan_sim(testbed_seed, trip, seed, tracer, config=None, bank=None,
                prefill_s=None):
    """One VanLAN protocol run, built as ``vanlan_protocol`` builds it.

    The steps are spelled out so each layer's call gets its own span.
    Without a *bank* one is built and prefilled to *prefill_s* (default:
    the whole trip); shared and freshly built banks are bit-identical.
    """
    with tracer.span("testbeds.VanLanTestbed", "testbeds"):
        testbed = VanLanTestbed(seed=testbed_seed)
        motion = testbed.vehicle_motion()
    if bank is None:
        horizon = motion.route.duration
        if prefill_s is not None:
            horizon = min(prefill_s, horizon)
        with tracer.span("testbeds.build_link_bank", "net"):
            bank = testbed.build_link_bank(trip, motion, prefill_s=horizon)
    with tracer.span("testbeds.build_link_table", "testbeds"):
        table = testbed.build_link_table(trip, motion, bank=bank)
    with tracer.span("core.ViFiSimulation", "core"):
        sim = ViFiSimulation(testbed.deployment.bs_ids, table,
                             config=config or ViFiConfig(), seed=seed,
                             vehicle_id=VEHICLE_ID)
    return sim, motion.route.duration, bank


def _run(sim, horizon, tracer):
    """``sim.run`` to *horizon*; returns its CPU seconds.

    The estimator fold runs inside ``sim.run`` and the bank times it, so
    the traced run records it as a child span of the run.
    """
    gc.collect()
    start = time.perf_counter()
    cpu = time.process_time()
    with tracer.span("sim.run", "sim") as run_id:
        sim.run(until=horizon)
    cpu = time.process_time() - cpu
    fold = layers.fold_seconds(sim)
    if fold:
        tracer.add("core.estimator_fold", "core", start, start + fold,
                   run_id)
    return cpu


def _set_up(build, tracer, repeats):
    """Build *repeats* times; return the last build, its wall start and
    the median CPU seconds of the builds.

    One set-up is a fraction of a second of CPU, too short to time
    steadily once; only the last build is traced and used.
    """
    cpus = []
    for k in range(repeats):
        gc.collect()
        wall = time.perf_counter()
        cpu = time.process_time()
        built = build(tracer if k == repeats - 1 else NULL)
        cpus.append(time.process_time() - cpu)
    return built, wall, statistics.median(cpus)


def _deliveries(app):
    return (sorted(app.up_deliveries.items()),
            sorted(app.down_deliveries.items()))


def _vanlan_rep(inp, tracer, size):
    (sim, duration, bank), wall, setup = _set_up(
        lambda t: _vanlan_sim(inp["testbed_seed"], inp["trip"], inp["seed"],
                              t, prefill_s=size.vanlan_s),
        tracer, size.setup_repeats)
    horizon = duration if size.vanlan_s is None else min(size.vanlan_s,
                                                         duration)
    router = FlowRouter(sim)
    audit = DeliveryAudit(sim)
    cbr = CbrWorkload(sim, router, interval_s=0.1, size_bytes=500)
    cbr.start(WARMUP_S)
    cbr.stop(horizon - 1.0)
    run_cpu = _run(sim, horizon, tracer)
    end = time.perf_counter()
    counters = layers.sim_counters(sim, bank)
    up, down = _deliveries(cbr)
    outputs = (inp, counters["events"], up, down,
               sorted(sim.medium.tx_count.items()))
    return {
        "e2e": {"sim_rate": horizon / run_cpu, "setup_s": setup,
                "sweep_s": end - wall, "peak_rss_mb": _peak_rss_mb()},
        "digest": _digest(outputs),
        "attempted": 1,
        "failures": audit.failures(counters["events"]),
        "layer": _layer_values(counters, tracer.spans, run_cpu, audit),
    }


def _dieselnet_sim(inp, tracer):
    """One trace-driven DieselNet run, built as ``dieselnet_protocol``
    builds it, one span per layer call."""
    with tracer.span("testbeds.DieselNetTestbed", "testbeds"):
        testbed = DieselNetTestbed(channel=1, seed=inp["testbed_seed"])
    with tracer.span("testbeds.generate_beacon_log", "testbeds"):
        log = testbed.generate_beacon_log(inp["day"])
    with tracer.span("testbeds.build_link_table_from_log", "testbeds"):
        table = build_link_table_from_log(
            log, RngRegistry(inp["link_seed"]).spawn("dn-voip", inp["day"]),
            vehicle_id=VEHICLE_ID, bursty=True)
    with tracer.span("core.ViFiSimulation", "core"):
        sim = ViFiSimulation(log.bs_ids, table, seed=inp["seed"],
                             vehicle_id=VEHICLE_ID)
    return sim, log


def _dieselnet_rep(inp, tracer, size):
    (sim, log), wall, setup = _set_up(
        lambda t: _dieselnet_sim(inp, t), tracer, size.setup_repeats)
    horizon = min(size.dieselnet_s, float(log.n_secs))
    router = FlowRouter(sim)
    audit = DeliveryAudit(sim)
    voip = VoipStream(sim, router)
    voip.start(WARMUP_S)
    voip.stop(horizon - 2.0)
    run_cpu = _run(sim, horizon, tracer)
    end = time.perf_counter()
    counters = layers.sim_counters(sim)
    mos = [m for m, _, _ in voip.window_quality()]
    up, down = _deliveries(voip)
    outputs = (inp, counters["events"], up, down,
               sorted(sim.medium.tx_count.items()), mos)
    layer = _layer_values(counters, tracer.spans, run_cpu, audit)
    layer["testbeds.trace_s"] = _span_s(tracer.spans,
                                        "testbeds.generate_beacon_log")
    layer["testbeds.lossmap_s"] = _span_s(
        tracer.spans, "testbeds.build_link_table_from_log")
    layer["apps.voip_mos_mean"] = statistics.fmean(mos) if mos else 1.0
    return {
        "e2e": {"sim_rate": horizon / run_cpu, "setup_s": setup,
                "sweep_s": end - wall, "peak_rss_mb": _peak_rss_mb()},
        "digest": _digest(outputs),
        "attempted": 1,
        "failures": audit.failures(counters["events"]),
        "layer": layer,
    }


def tcp_task(task):
    """``run_trips`` worker: one (variant, trip) cell of the TCP grid.

    Module-level so the pool can pickle it by name.  Besides the
    simulated outputs it returns its own spans (when ``task["trace"]``),
    wall and CPU seconds, speed-probe samples, pid and peak RSS; those
    ride along into the store, so the warm re-run returns them
    unchanged.  The trace flag is part of the task and so of its store
    key; the simulated outputs leave it out, so traced and untraced
    digests compare.
    """
    label = f"{task['variant']}/{task['trip']}"
    tracer = Tracer(enabled=task["trace"], prefix=f"{label}-", task=label)
    wall = time.perf_counter()
    cpu = time.process_time()
    with SpeedProbe() as probe, tracer.span("experiments.task",
                                            "experiments"):
        sim, _, bank = _vanlan_sim(
            task["testbed_seed"], task["trip"], task["seed"], tracer,
            config=VARIANTS[task["variant"]](),
            bank=shared_bank(task["testbed_seed"], task["trip"]),
            prefill_s=task["duration_s"] + 1.0)
        router = FlowRouter(sim)
        audit = DeliveryAudit(sim)
        tcp = TcpWorkload(sim, router)
        tcp.start(WARMUP_S)
        tcp.stop(task["duration_s"] - 2.0)
        run_cpu = _run(sim, task["duration_s"], tracer)
    counters = layers.sim_counters(sim, bank)
    counters["prefill_s"] = 0.0   # the parent prefilled the shared bank
    counters["offered"] = audit.offered
    counters["delivered"] = audit.delivered
    counters["redelivered"] = audit.redelivered
    inputs = {k: v for k, v in task.items() if k != "trace"}
    return {
        "outputs": (inputs, counters["events"],
                    sorted(sim.medium.tx_count.items()),
                    [(r.direction, r.started_at, r.finished_at,
                      r.completed) for r in tcp.results]),
        "completed": len(tcp.completed),
        "aborted": len(tcp.aborted),
        "counters": counters,
        "failures": audit.failures(counters["events"]),
        "spans": tracer.spans,
        "task_s": time.perf_counter() - wall,
        "run_cpu_s": run_cpu,
        "cpu_s": time.process_time() - cpu,
        "speed_samples": probe.samples,
        "pid": os.getpid(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def _tcp_rep(inp, tracer, size):
    workers = min(2, available_workers())

    cells = list(zip(inp["testbed_seeds"], inp["trips"], inp["seeds"]))

    def build(t):
        banks = {}
        for testbed_seed, trip, _ in cells:
            with t.span("experiments.build_shared_banks", "experiments"):
                banks.update(build_shared_banks(testbed_seed, [trip],
                                                store=False))
        return banks

    # One build per rep: it already sets up one bank per trip.
    banks, _, setup = _set_up(build, tracer, 1)
    tasks = [{"variant": variant, "trip": trip, "seed": seed,
              "testbed_seed": testbed_seed,
              "duration_s": size.tcp_s, "trace": tracer.enabled}
             for variant in VARIANTS
             for testbed_seed, trip, seed in cells]
    sweep = {"worker": tcp_task, "tasks": tasks, "workers": workers,
             "initializer": install_shared_banks, "initargs": (banks,)}
    os.makedirs(SCRATCH, exist_ok=True)
    root = tempfile.mkdtemp(prefix="store-", dir=SCRATCH)
    failures = []
    try:
        store = ResultStore(root)
        start = time.perf_counter()
        with tracer.span("experiments.run_trips.cold",
                         "experiments") as cold_id:
            cold = run_trips(store=store, **sweep)
        sweep_s = time.perf_counter() - start
        stored_bytes = store.total_bytes()
        why = dict(cold.failures)
        failures.extend(f"cold task {i} returned nothing: "
                        f"{why.get(i, 'interrupted')}"
                        for i, record in enumerate(cold) if record is None)
        cold_bytes = pickle.dumps(list(cold), protocol=4)
        warm_walls, warm_stats = [], []
        for _ in range(size.warm_passes):
            start = time.perf_counter()
            # A fully warm run_trips never starts a pool: its time is
            # the parent's verified store reads.
            with tracer.span("experiments.run_trips.warm", "store"):
                warm = run_trips(store=store, **sweep)
            warm_walls.append(time.perf_counter() - start)
            warm_stats.append(warm.store)
            if pickle.dumps(list(warm), protocol=4) != cold_bytes:
                failures.append("a warm pass differs from the cold sweep")
    finally:
        install_shared_banks({})
        shutil.rmtree(root, ignore_errors=True)
    done = [r for r in cold if r is not None]
    for record in done:
        failures.extend(record["failures"])
        tracer.adopt(record["spans"], cold_id)
    peak_children = {}
    for record in done:
        peak_children[record["pid"]] = max(
            peak_children.get(record["pid"], 0), record["rss_kb"])
    run_cpu = sum(r["run_cpu_s"] for r in done)
    counters = _sum_counters([r["counters"] for r in done])
    task_s = [r["task_s"] for r in done]
    read_s = statistics.median(warm_walls)
    hits = sum(s["hits"] for s in warm_stats)
    misses = sum(s["misses"] for s in warm_stats)
    layer = _layer_values(counters, tracer.spans, run_cpu, None)
    layer.update({
        "apps.offered": counters["offered"],
        "apps.delivered": counters["delivered"],
        "apps.redelivered": counters["redelivered"],
        "apps.tcp_completed": sum(r["completed"] for r in done),
        "apps.tcp_aborted": sum(r["aborted"] for r in done),
        "experiments.task_s_p50": statistics.median(task_s),
        "experiments.task_s_max": max(task_s),
        "experiments.task_samples": len(task_s),
        "experiments.parallel_eff": sum(task_s) / (workers * sweep_s),
        "experiments.cpu_s": sum(r["cpu_s"] for r in done),
        "experiments.failures": len(cold.failures),
        "experiments.retries": cold.retries,
        "store.writes": cold.store["writes"],
        "store.hits": hits,
        "store.misses": cold.store["misses"] + misses,
        "store.verify_failures": cold.store["verify_failures"] + sum(
            s["verify_failures"] for s in warm_stats),
        "store.bytes": stored_bytes,
        "store.warm_hit_ratio": hits / max(hits + misses, 1),
        "store.read_s": read_s,
        "store.read_mbps": stored_bytes / read_s / 1e6,
    })
    return {
        "e2e": {"sim_rate": size.tcp_s * len(done) / run_cpu,
                "setup_s": setup, "sweep_s": sweep_s,
                "peak_rss_mb": (_peak_rss_mb()
                                + sum(peak_children.values()) / 1024.0)},
        "digest": _digest([r and r["outputs"] for r in cold]),
        "speed_samples": [x for r in done for x in r["speed_samples"]],
        "attempted": len(tasks) + size.warm_passes,
        "failures": failures,
        "layer": layer,
    }


def _span_s(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _sum_counters(records):
    out = {}
    for record in records:
        for name, value in record.items():
            total = out.get(name, 0)
            out[name] = (None if total is None or value is None
                         else total + value)
    return out


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def _layer_values(c, spans, run_cpu, audit):
    """Per-layer values of one rep from its counters and spans."""
    frames = [c["frames.data"], c["frames.ack"], c["frames.beacon"]]
    frames = None if None in frames else sum(frames)
    planned, fallback = c["predraw_planned"], c["predraw_fallback"]
    attempts = None if None in (planned, fallback) else planned + fallback
    own = self_times(spans)
    values = {
        "sim.events": c["events"],
        "sim.events_per_cpu_s": _ratio(c["events"], run_cpu),
        "sim.run_self_s": own.get("sim", 0.0),
        "net.prefill_s": c["prefill_s"],
        "net.frames.data": c["frames.data"],
        "net.frames.ack": c["frames.ack"],
        "net.frames.beacon": c["frames.beacon"],
        "net.frames_per_cpu_s": _ratio(frames, run_cpu),
        "net.defers": c["defers"],
        "net.batched_frame_share": _ratio(c["slot_batch_frames"], frames),
        "net.predraw_hit_share": _ratio(planned, attempts),
        "core.build_s": _span_s(spans, "core.ViFiSimulation"),
        "core.estimator_fold_s": c["fold_s"],
        "core.relays": c["relays"],
        "core.false_positives": c["false_positives"],
        "core.salvaged": c["salvaged"],
        "core.anchor_switches": c["anchor_switches"],
        "testbeds.build_s": (_span_s(spans, "testbeds.VanLanTestbed")
                             + _span_s(spans, "testbeds.DieselNetTestbed")
                             + _span_s(spans, "testbeds.build_link_table")),
    }
    for layer in ("testbeds", "net", "core", "experiments", "store"):
        values[f"{layer}.self_s"] = own.get(layer, 0.0)
    if audit is not None:
        values["apps.offered"] = audit.offered
        values["apps.delivered"] = audit.delivered
        values["apps.redelivered"] = audit.redelivered
    return values


# Every input, and every trip of a TCP grid, draws its own testbed seed
# as well as its trip or day: the testbed seed fixes the spatial radio
# fields, which set how busy the links are, so a shared testbed would
# make many trips share one draw of the input factor that most moves
# the rates.

def _vanlan_input(rng, size):
    return {"testbed_seed": rng.randrange(1000),
            "trip": rng.randrange(10 ** 6),
            "seed": rng.randrange(2 ** 31)}


def _dieselnet_input(rng, size):
    return {"testbed_seed": rng.randrange(1000),
            "day": rng.randrange(10 ** 6),
            "link_seed": rng.randrange(2 ** 31),
            "seed": rng.randrange(2 ** 31)}


def _tcp_input(rng, size):
    return {"testbed_seeds": [rng.randrange(1000)
                              for _ in range(size.tcp_trips)],
            "trips": [rng.randrange(10 ** 6) for _ in range(size.tcp_trips)],
            "seeds": [rng.randrange(2 ** 31) for _ in range(size.tcp_trips)]}


#: name -> (one input from a seeded RNG, one rep).
WORKLOADS = {
    "vanlan_cbr": (_vanlan_input, _vanlan_rep),
    "dieselnet_voip": (_dieselnet_input, _dieselnet_rep),
    "tcp_sweep": (_tcp_input, _tcp_rep),
}

#: Units that add up over reps; every other per-layer value is a time,
#: rate or ratio.
_SUMMED = ("count", "bytes")


def _combine(reps, n_inputs, value):
    """*value* over *reps*, rep ``k`` having run input ``k % n_inputs``:
    per input the median over its reps, then the mean over the inputs.
    """
    return statistics.fmean(
        statistics.median(value(r) for r in reps[i::n_inputs])
        for i in range(n_inputs))


def _end_to_end(reps, n_inputs, key):
    """Every end-to-end metric over *reps*; the peak RSS is the highest
    any rep reached."""
    return {name: (max(r[key][name] for r in reps)
                   if name == "peak_rss_mb" else
                   _combine(reps, n_inputs, lambda r: r[key][name]))
            for name in layers.units("end_to_end")}


def _scaled(values, units, factor):
    return {name: layers.host_scaled(value, units[name], factor)
            for name, value in values.items()}


def measure(workload, seed, seconds, trace, size=FULL):
    """Run *workload* for about *seconds*; return the run's record.

    The seed fixes the run's inputs.  Reps cycle through them until
    *seconds* have passed, and every input runs at least once.  With
    *trace*, every rep runs twice on the same input, untraced and
    traced (alternating which goes first): the two digests must agree,
    the traced reps give the per-layer values and the differences give
    the tracing overhead.  End-to-end metrics always come from the
    untraced reps.

    Returns:
        dict with ``attempted``, ``failed``, ``failures``, ``e2e``,
        ``raw_e2e``, ``kernel_s``, ``reps``, ``per_layer`` (``None``
        untraced), ``digest``, ``inputs``, ``absent``,
        ``not_applicable`` and ``spans``.
    """
    make_input, rep = WORKLOADS[workload]
    n_inputs = dict(size.inputs)[workload]
    rng = random.Random(f"{workload}:{seed}")
    inputs = [make_input(rng, size) for _ in range(n_inputs)]
    deadline = time.perf_counter() + seconds
    untraced, traced, spans = [], [], []
    attempted, failures = 0, []
    while len(untraced) < n_inputs or time.perf_counter() < deadline:
        i = len(untraced)
        plan = [(NULL, untraced)]
        if trace:
            tracer = Tracer(prefix=f"r{i}-")
            plan.append((tracer, traced))
            if i % 2:
                plan.reverse()
        for recorder, results in plan:
            result = _host_scaled(rep, inputs[i % n_inputs], recorder,
                                  size)
            results.append(result)
            attempted += result["attempted"]
            failures.extend(result["failures"])
        if trace:
            spans.extend(tracer.spans)
            attempted += 1
            if traced[i]["digest"] != untraced[i]["digest"]:
                failures.append(f"rep {i}: traced digest differs")
    e2e = _end_to_end(untraced, n_inputs, "e2e")
    record = {"attempted": attempted, "failed": len(failures),
              "failures": failures, "e2e": e2e,
              "raw_e2e": _end_to_end(untraced, n_inputs, "raw"),
              "kernel_s": statistics.median(r["kernel_s"]
                                            for r in untraced),
              "reps": len(untraced), "per_layer": None,
              "digest": _digest([r["digest"] for r in untraced[:n_inputs]]),
              "inputs": inputs, "absent": [], "not_applicable": [],
              "spans": spans}
    if trace:
        record.update(_per_layer(traced, n_inputs, e2e))
    return record


def _host_scaled(rep, inp, recorder, size):
    """One rep under a speed probe; its times scaled to the nominal host
    (see calibrate.py), the raw values kept.  A ``tcp_sweep`` rep adds
    the probe samples its pool workers took."""
    with SpeedProbe() as probe:
        result = rep(inp, recorder, size)
    samples = probe.samples + result.pop("speed_samples", [])
    result["kernel_s"] = statistics.fmean(samples)
    factor = scale(samples)
    result["raw"] = result["e2e"]
    result["e2e"] = _scaled(result["raw"], layers.units("end_to_end"),
                            factor)
    result["layer"] = _scaled(result["layer"], layers.units("per_layer"),
                              factor)
    return result


def _per_layer(traced, n_inputs, e2e):
    """Per-layer metrics from the traced reps.

    Counts are totals over the first pass over the inputs, the reps the
    digest covers, so a speed-only change leaves them identical; times,
    rates and ratios combine over every traced rep as the end-to-end
    metrics do.  A metric the workload does not exercise reads 0 and is
    listed as not applicable; a counter the program no longer has is
    left out and listed as absent.
    """
    per_layer, absent, not_applicable = {}, [], []
    traced_e2e = _end_to_end(traced, n_inputs, "e2e")
    for name, unit in layers.units("per_layer").items():
        if name.startswith("trace.delta."):
            metric = name[len("trace.delta."):]
            per_layer[name] = traced_e2e[metric] - e2e[metric]
            continue
        if any(name not in r["layer"] for r in traced):
            not_applicable.append(name)
        values = [r["layer"].get(name, 0) for r in traced]
        if any(v is None for v in values):
            absent.append(name)
        elif unit in _SUMMED:
            per_layer[name] = sum(values[:n_inputs])
        else:
            per_layer[name] = _combine(
                traced, n_inputs, lambda r: r["layer"].get(name, 0))
    return {"per_layer": per_layer, "absent": absent,
            "not_applicable": not_applicable}
