#!/usr/bin/env python
"""Simulator-core throughput benchmark: fast vs reference scheduler.

Runs three event-profile workloads through both schedulers and reports
events/sec plus the fast scheduler's speedup, asserting identical
behaviour along the way (event counts, packet counts and the final
clock must match bit-for-bit; the experiment presets must produce
byte-identical canonical JSON).  Results land in ``BENCH_sim.json`` at
the repository root.

Workload profiles:

* ``packet_flood``     -- hundreds of guarded CBR flows: periodic
  ticks, transmit/receive chains (the pooled-event fast path) plus the
  two canonical cancel-heavy timer bands riding alongside the data
  plane -- a per-flow delivery guard re-armed on every send and
  cancelled on every delivery (the retransmission-timer idiom of
  :mod:`repro.epc.signalling`'s RetryPolicy), and a per-flow idle
  timer reset on every delivery (the OVS ``idle_timeout`` idiom of
  the ACACIA data plane).  Those timers almost never fire, which is
  exactly the asymmetry the timer wheel exploits: a cancelled wheel
  event is discarded with a flag check when its bucket opens, while
  the reference heap pays two full O(log n) passes of Python-level
  ``Event.__lt__`` comparisons to carry and skip each tombstone;
* ``signalling_storm`` -- a concurrent attach storm plus dedicated
  bearers: process-driven control-plane signalling with retransmission
  timers armed and cancelled (the now-lane fast path);
* ``chaos_mix``        -- the storm under injected signalling loss with
  background CBR traffic: a mix of all event shapes.

Protocol: ``tools/benchkit.py`` -- one untimed pass per scheduler,
then ``--repeats`` rounds of alternating timed passes with the cyclic
garbage collector off (both schedulers hold large tombstone
populations, and GC pauses would add noise); the reported rate is from
the median time.  After timing, every shipped preset runs under both
schedulers: each trial must succeed and the canonical JSON must be
byte-identical.  ``--smoke`` shrinks every workload, checks only the
``smoke`` preset and skips the speedup gate: CI uses it to check
determinism, not performance.

Usage::

    PYTHONPATH=src python tools/bench_sim.py [--repeats N] [--smoke]
                                             [--out PATH]
"""

from __future__ import annotations

import functools
import hashlib
import os
from unittest import mock

import benchkit
from repro.core.config import NetworkConfig, ResilienceConfig, SimConfig
from repro.exp import ExperimentRunner, ExperimentSpec
from repro.scenario import catalogue, load
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.traffic import CBRSource

SCHEDULERS = ("fast", "reference")
SCHEDULER_ENV = "REPRO_SIM_SCHEDULER"

#: Catalogue tag of the presets whose canonical JSON must be
#: byte-identical across schedulers: every shipped one, so each has a
#: committed digest.
PRESET_TAG = "preset"
SMOKE_IDENTITY = ("smoke",)

#: Acceptance gate: fast-scheduler speedup on the packet flood.
FLOOD_GATE = 3.0


# ---------------------------------------------------------------------------
# workload profiles -- each returns (events_run, behaviour_digest_dict)
# ---------------------------------------------------------------------------

class GuardedCBRSource(CBRSource):
    """CBR source with a per-flow delivery guard.

    The guard is re-armed on every send and cancelled when the peer
    acknowledges a delivery -- the retransmission-timer idiom (one RTO
    timer per connection, reset on progress).  On a healthy link the
    guard never fires, so it exists purely as scheduler load: armed,
    cancelled, discarded.
    """

    def __init__(self, sim, name: str, dst: str, rate: float,
                 packet_size: int, guard_timeout: float) -> None:
        super().__init__(sim, name, dst, rate=rate,
                         packet_size=packet_size)
        self.guard_timeout = guard_timeout
        self.guard = None
        self.guard_expiries = 0

    def _tick(self) -> None:
        packet = Packet(src=self.ip, dst=self.dst, size=self.packet_size)
        old = self.guard
        if old is not None:
            old.cancel()
        self.guard = self.sim.schedule(self.guard_timeout,
                                       self._guard_expired)
        self.send("out", packet)
        self._timer = self._timer.reschedule(self._interval)

    def _guard_expired(self) -> None:
        self.guard_expiries += 1
        self.guard = None


class AckingSink(Node):
    """Counts deliveries, cancels the sender's guard, resets an idle
    timer per flow (the OVS ``idle_timeout`` idiom: a rule's timer is
    pushed back on every matching packet and expires only when the
    flow goes quiet)."""

    def __init__(self, sim, name: str, source: GuardedCBRSource,
                 idle_timeout: float) -> None:
        super().__init__(sim, name)
        self.rx_count = 0
        self.bytes_received = 0
        self.source = source
        self.idle_timeout = idle_timeout
        self.idle_timer = None
        self.idle_expiries = 0

    def on_receive(self, packet, link) -> None:
        self.rx_count += 1
        self.bytes_received += packet.size
        guard = self.source.guard
        if guard is not None:
            guard.cancel()
            self.source.guard = None
        timer = self.idle_timer
        if timer is not None:
            timer.cancel()
        self.idle_timer = self.sim.schedule(self.idle_timeout, self._idle)

    def _idle(self) -> None:
        self.idle_expiries += 1
        self.idle_timer = None


def run_packet_flood(scheduler: str, n_sources: int = 800,
                     duration: float = 0.5, guard_timeout: float = 0.08,
                     idle_timeout: float = 0.1) -> tuple[int, dict]:
    """Guarded CBR flood: per-pair flows with live timer bands.

    Every packet drags two armed-then-cancelled timers through the
    scheduler, and the pending set holds on the order of a hundred
    thousand tombstones in steady state -- the event profile of a
    figure-scale data-plane experiment with resilience enabled.
    """
    sim = Simulator(scheduler=scheduler)
    sources = []
    sinks = []
    for i in range(n_sources):
        src = GuardedCBRSource(sim, f"src{i}", f"sink{i}", rate=8e6,
                               packet_size=1000,
                               guard_timeout=guard_timeout)
        sink = AckingSink(sim, f"sink{i}", src, idle_timeout=idle_timeout)
        link = Link(sim, f"l{i}", bandwidth=20e6, delay=0.002)
        src.attach("out", link)
        sink.attach("in", link)
        src.start(at=i * 2e-5)       # stagger so ticks spread over slots
        sources.append(src)
        sinks.append(sink)
    sim.run(until=duration)
    digest = {
        "events_run": sim.events_run,
        "now": sim.now,
        "rx_packets": sum(s.rx_count for s in sinks),
        "rx_bytes": sum(s.bytes_received for s in sinks),
        "guard_expiries": sum(s.guard_expiries for s in sources),
        "idle_expiries": sum(s.idle_expiries for s in sinks),
    }
    return sim.events_run, digest


def run_signalling_storm(scheduler: str, n_ues: int = 80) -> tuple[int, dict]:
    """Concurrent attach storm plus one dedicated bearer per UE."""
    from repro.core.network import MobileNetwork
    from repro.epc.entities import ServicePolicy

    config = NetworkConfig(seed=4242, sim=SimConfig(scheduler=scheduler))
    network = MobileNetwork(config)
    network.add_mec_site("mec")
    network.add_server("ci", site_name="mec", echo=True)
    network.pcrf.configure(ServicePolicy(service_id="svc", qci=3))
    server_ip = network.servers["ci"].ip

    attach_procs = [network.add_ue_async() for _ in range(n_ues)]
    network.sim.run()
    attached = [proc.value for proc in attach_procs if proc.value.attached]
    bearer_procs = [
        network.control_plane.activate_dedicated_bearer_async(
            ue, "svc", server_ip, "mec")
        for ue in attached]
    network.sim.run()
    digest = {
        "events_run": network.sim.events_run,
        "now": network.sim.now,
        "attached": len(attached),
        "bearers_ok": sum(1 for proc in bearer_procs
                          if proc.value.outcome in ("ok", "retried-ok")),
        "messages": network.fabric.messages_sent,
    }
    return network.sim.events_run, digest


def run_chaos_mix(scheduler: str, n_ues: int = 40,
                  tail: float = 3.0) -> tuple[int, dict]:
    """Attach storm under signalling loss with background CBR load."""
    from repro.core.network import MobileNetwork
    from repro.faults import ChannelLoss, FaultInjector, FaultPlan

    config = NetworkConfig(seed=1717,
                           resilience=ResilienceConfig(enabled=True),
                           sim=SimConfig(scheduler=scheduler))
    network = MobileNetwork(config)
    network.add_mec_site("mec")
    network.add_server("ci", site_name="mec", echo=True)
    FaultInjector(network, FaultPlan((
        ChannelLoss(channel="*", rate=0.05),))).arm()
    background = network.add_background_load(rate=40e6)
    background.start()

    attach_procs = [network.add_ue_async() for _ in range(n_ues)]
    network.sim.run(until=network.sim.now + tail)
    background.stop()                # let the control plane drain
    network.sim.run()
    digest = {
        "events_run": network.sim.events_run,
        "now": network.sim.now,
        "attached": sum(1 for proc in attach_procs
                        if proc.finished and proc.value.attached),
        "retransmissions": network.fabric.retransmissions,
        "drops": dict(sorted(network.fabric.drops.items())),
    }
    return network.sim.events_run, digest


WORKLOADS = {
    "packet_flood": run_packet_flood,
    "signalling_storm": run_signalling_storm,
    "chaos_mix": run_chaos_mix,
}

SMOKE_SIZES = {
    "packet_flood": dict(n_sources=50, duration=0.25),
    "signalling_storm": dict(n_ues=15),
    "chaos_mix": dict(n_ues=8, tail=1.0),
}


def preset_digest(spec: ExperimentSpec,
                  scheduler: str) -> tuple[str, bool]:
    """SHA-256 of a compiled preset's canonical JSON under one
    scheduler, and whether every trial succeeded.  The caller's
    scheduler setting is restored afterwards."""
    with mock.patch.dict(os.environ, {SCHEDULER_ENV: scheduler}):
        result = ExperimentRunner(spec).run()
    digest = hashlib.sha256(result.canonical_json().encode()).hexdigest()
    return digest, result.ok


def check_presets(names) -> tuple[dict, list[str]]:
    """Run each preset (a catalogue name or document path, keyed by its
    scenario name) under both schedulers.  The gate: every trial
    succeeds and the canonical JSON is byte-identical -- a trial that
    crashes the same way under both schedulers is not a pass."""
    identity, failures = {}, []
    for spec in (load(name).compile() for name in names):
        name = spec.name
        fast, fast_ok = preset_digest(spec, "fast")
        ref, ref_ok = preset_digest(spec, "reference")
        identical, ok = fast == ref, fast_ok and ref_ok
        identity[name] = {"sha256": fast, "identical": identical,
                          "trials_ok": ok}
        print(f"preset {name:14s} canonical JSON "
              f"{'identical' if identical else 'DIFFERS'}"
              f"{'' if ok else ', trials FAILED'}")
        if not ok:
            failures.append(f"preset {name}: a trial failed")
        if not identical:
            failures.append(f"preset {name}: canonical JSON differs "
                            "across schedulers")
    return identity, failures


def main(argv=None) -> int:
    args = benchkit.parse_args(
        __doc__, "BENCH_sim.json", repeats=5, argv=argv,
        smoke="reduced sizes, smoke preset only, no speedup gate (CI)")
    failures = []
    workloads = {}
    for name, fn in WORKLOADS.items():
        kwargs = SMOKE_SIZES[name] if args.smoke else {}
        outputs, times = benchkit.alternate(
            {s: functools.partial(fn, s, **kwargs) for s in SCHEDULERS},
            args.repeats)
        if outputs["fast"] != outputs["reference"]:
            failures.append(f"{name}: behaviour differs across "
                            f"schedulers: {outputs}")
            continue
        events, digest = outputs["reference"]
        median = benchkit.medians(times)
        rates = {s: events / median[s] for s in median}
        speedup = median["reference"] / median["fast"]
        print(f"{name:18s} {events:>9d} events  "
              f"fast {rates['fast']:>10.0f} ev/s  "
              f"reference {rates['reference']:>10.0f} ev/s  "
              f"speedup {speedup:.2f}x")
        workloads[name] = {
            "params": kwargs,
            "events_run": events,
            "behaviour_digest": digest,
            "times_s": times,
            "median_s": median,
            "events_per_sec": rates,
            "speedup": speedup,
        }

    identity, preset_failures = check_presets(
        SMOKE_IDENTITY if args.smoke else
        [name for name in catalogue() if PRESET_TAG in load(name).tags])
    failures += preset_failures

    flood = workloads.get("packet_flood", {}).get("speedup", 0.0)
    if not args.smoke and flood < FLOOD_GATE:
        failures.append(f"packet_flood speedup {flood:.2f}x < "
                        f"{FLOOD_GATE}x")
    return benchkit.finish(args, {
        "gates": {"packet_flood_speedup_min": FLOOD_GATE},
        "workloads": workloads,
        "preset_identity": identity,
    }, failures)


if __name__ == "__main__":
    raise SystemExit(main())
