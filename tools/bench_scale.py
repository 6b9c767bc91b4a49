#!/usr/bin/env python
"""Fluid data-plane scale benchmark: packet vs fluid-bg background.

Two gated measurements, reported to ``BENCH_scale.json``:

* ``fig3g_sweep`` -- the Figure 3(g) ping workload at several
  background loads, run under both data planes.  The per-packet plane
  pays one event chain per background packet; the fluid plane replaces
  the whole aggregate with a handful of rate re-solves, so the event
  count must collapse.  Gate: every sweep point's event-count
  reduction is at least ``EVENTS_GATE`` (20x), and the planes agree:
  every point answers the same number of pings under both, with median
  RTTs within the 0.25-4x factor ``tests/test_fluid.py`` asserts.

* ``scale_100k`` -- the headline scenario: a 100,000-UE population on
  one simulated EPC.  1,000 UEs attach individually (a concurrent
  attach storm over 20 eNodeBs, every control-plane message simulated)
  and each runs a live CI ping session; the other 99,000 UEs are
  aggregated into 99 fluid background flows of 1,000 UEs x 20 kbit/s
  each (~2 Gbit/s offered) sharing the same central gateways, with the
  core provisioned at 10 Gbit/s and the ACACIA OVS fast-path profile
  so the shared CPUs run loaded-but-unsaturated.  Gate: the population
  is >= 100,000, every attach succeeds, >= 99% of pings are answered,
  and the whole scenario fits ``WALL_BUDGET_S`` of wall clock.

Protocol: ``tools/benchkit.py`` -- one untimed pass per plane, then
``--repeats`` rounds of alternating timed passes with the cyclic
garbage collector off; reported times are medians.  ``--smoke``
shrinks the ping-train shape (not the 100k population -- the headline
gate is the point) for CI.

Usage::

    PYTHONPATH=src python tools/bench_scale.py [--repeats N] [--smoke]
                                               [--out PATH]
"""

from __future__ import annotations

import functools
import time

import benchkit
import numpy as np
from repro.core.config import NetworkConfig, SimConfig
from repro.core.network import MobileNetwork, Pinger
from repro.sdn.dataplane import ACACIA_OVS_PROFILE

PLANES = ("packet", "fluid-bg")

#: The planes agree when fluid/packet median RTT is inside this factor.
RTT_RATIO_BOUNDS = (0.25, 4.0)

#: Acceptance gate: minimum event-count reduction at every sweep point.
EVENTS_GATE = 20.0

#: Acceptance gate: the 100k-UE scenario must fit this much wall clock.
#: CI machines are slow and noisy; a local run finishes in seconds.
WALL_BUDGET_S = 120.0

#: The fig3g background sweep (Mbit/s offered through the shared GW-Us).
SWEEP_BG_MBPS = (40.0, 80.0, 100.0)

#: Ping-train shape per mode (the experiment preset's shape vs a
#: shrunken smoke shape; both regimes keep the warmup ahead of the
#: measured train).
SWEEP_SHAPES = {
    "full": dict(count=8, interval=0.4, warmup=6.0, tail=8.0),
    "smoke": dict(count=4, interval=0.4, warmup=2.0, tail=3.0),
}

#: 100k-UE scenario composition.
SCALE = dict(
    n_enbs=20,            # real attaches spread over these base stations
    n_real_ues=1_000,     # individually attached, one CI session each
    n_fluid_flows=99,     # aggregated background flows
    ues_per_flow=1_000,   # population folded into each fluid flow
    per_ue_bps=20e3,      # offered rate per aggregated UE
    core_bandwidth=10e9,  # provisioned core for the ~2 Gbit/s aggregate
    pings={"full": 5, "smoke": 3},
    ping_interval=0.5,
)


def run_fig3g(bg_mbps: float, data_plane: str, shape: dict) -> dict:
    """One fig3g ping trial (the ``ping`` workload's conventional
    rtt_ms=70 cell, replicated here so the simulator's event count can
    be reported without touching the workload's canonical output)."""
    config = NetworkConfig(seed=17, sim=SimConfig(data_plane=data_plane),
                           backhaul_delay=0.010, core_delay=0.010,
                           internet_delay=0.009)
    network = MobileNetwork(config)
    ue = network.add_ue()
    if bg_mbps > 0:
        network.add_background_load(rate=bg_mbps * 1e6).start()
    pinger = Pinger(network, ue, "internet", size=1000,
                    interval=shape["interval"])
    pinger.run(count=shape["count"], start=shape["warmup"])
    network.sim.run(until=shape["warmup"]
                    + shape["count"] * shape["interval"] + shape["tail"])
    pinger.close()
    median = (float(np.median(pinger.rtts)) if pinger.rtts
              else shape["warmup"] + shape["tail"])
    return {
        "median_rtt_ms": median * 1e3,
        "answered": len(pinger.rtts),
        "lost": pinger.lost,
        "events_run": network.sim.events_run,
    }


def run_sweep_point(bg_mbps: float, shape: dict, repeats: int) -> dict:
    """One fig3g load point, timed under both data planes."""
    runs, times = benchkit.alternate(
        {plane: functools.partial(run_fig3g, bg_mbps, plane, shape)
         for plane in PLANES}, repeats)
    median = benchkit.medians(times)
    return {
        "bg_mbps": bg_mbps,
        "runs": runs,
        "events_reduction": (runs["packet"]["events_run"]
                             / runs["fluid-bg"]["events_run"]),
        "median_s": median,
        "wall_speedup": median["packet"] / median["fluid-bg"],
    }


def sweep_failures(point: dict) -> list[str]:
    """The planes must agree, and the fluid plane must cut events."""
    bg, failures = point["bg_mbps"], []
    packet, fluid = point["runs"]["packet"], point["runs"]["fluid-bg"]
    if packet["answered"] != fluid["answered"]:
        failures.append(f"fig3g bg={bg}: pings answered differ across "
                        f"planes ({packet['answered']} vs {fluid['answered']})")
    ratio = fluid["median_rtt_ms"] / packet["median_rtt_ms"]
    low, high = RTT_RATIO_BOUNDS
    if not low < ratio < high:
        failures.append(f"fig3g bg={bg}: fluid/packet median RTT {ratio:.2f}x "
                        f"not within {low}-{high}x")
    if point["events_reduction"] < EVENTS_GATE:
        failures.append(f"fig3g bg={bg}: events reduction "
                        f"{point['events_reduction']:.1f}x < {EVENTS_GATE}x")
    return failures


def run_scale_100k(pings: int) -> dict:
    """The 100k-UE scenario: real signalling + CI sessions for 1k UEs,
    the other 99k UEs as fluid background aggregates."""
    s = SCALE
    wall_start = time.perf_counter()
    config = NetworkConfig(seed=7, sim=SimConfig(data_plane="fluid-bg"),
                           core_bandwidth=s["core_bandwidth"],
                           central_profile=ACACIA_OVS_PROFILE)
    network = MobileNetwork(config)
    for i in range(1, s["n_enbs"]):
        network.add_enb(f"enb{i}")
    enb_names = list(network.enbs)

    procs = [network.add_ue_async(enb_name=enb_names[i % len(enb_names)])
             for i in range(s["n_real_ues"])]
    network.sim.run()
    attached = [proc.value for proc in procs
                if proc.finished and proc.value.attached]
    attach_wall = time.perf_counter() - wall_start

    for _ in range(s["n_fluid_flows"]):
        network.add_background_load(
            rate=s["ues_per_flow"] * s["per_ue_bps"]).start()

    pingers = []
    for i, ue in enumerate(attached):
        pinger = Pinger(network, ue, "internet", size=256,
                        interval=s["ping_interval"])
        # stagger the session starts so the trains interleave
        pinger.run(count=pings,
                   start=network.sim.now + 0.5 + (i % 100) * 0.005)
        pingers.append(pinger)
    network.sim.run()
    for pinger in pingers:
        pinger.close()

    rtts = [rtt for pinger in pingers for rtt in pinger.rtts]
    lost = sum(pinger.lost for pinger in pingers)
    wall = time.perf_counter() - wall_start
    population = (s["n_real_ues"]
                  + s["n_fluid_flows"] * s["ues_per_flow"])
    return {
        "population_ues": population,
        "real_ues": s["n_real_ues"],
        "aggregated_ues": s["n_fluid_flows"] * s["ues_per_flow"],
        "background_bps": (s["n_fluid_flows"] * s["ues_per_flow"]
                           * s["per_ue_bps"]),
        "attached": len(attached),
        "ci_sessions": len(pingers),
        "pings_answered": len(rtts),
        "pings_lost": lost,
        "median_rtt_ms": float(np.median(rtts)) * 1e3 if rtts else None,
        "p95_rtt_ms": (float(np.percentile(rtts, 95)) * 1e3
                       if rtts else None),
        "fluid_resolves": network.fluid.resolves,
        "events_run": network.sim.events_run,
        "sim_seconds": network.sim.now,
        "attach_wall_s": attach_wall,
        "wall_s": wall,
    }


def scale_failures(scale: dict, pings: int) -> list[str]:
    """Print the 100k summary and return its failed gates."""
    rtt = scale["median_rtt_ms"]
    print(f"scale_100k {scale['population_ues']:,} UEs  "
          f"({scale['real_ues']} attached + {scale['aggregated_ues']:,} "
          f"aggregated)  {scale['ci_sessions']} CI sessions  "
          f"median RTT {'n/a' if rtt is None else f'{rtt:.1f} ms'}  "
          f"wall {scale['wall_s']:.1f}s")
    failures = []
    if scale["population_ues"] < 100_000:
        failures.append(f"population {scale['population_ues']} < 100000")
    if scale["attached"] != scale["real_ues"]:
        failures.append(f"only {scale['attached']}/{scale['real_ues']} "
                        "UEs attached")
    offered = scale["ci_sessions"] * pings
    if scale["pings_answered"] < 0.99 * offered:
        failures.append(f"pings answered {scale['pings_answered']} "
                        f"< 99% of {offered}")
    if scale["wall_s"] > WALL_BUDGET_S:
        failures.append(f"wall {scale['wall_s']:.1f}s > "
                        f"{WALL_BUDGET_S:.0f}s budget")
    return failures


def main(argv=None) -> int:
    args = benchkit.parse_args(
        __doc__, "BENCH_scale.json", repeats=3, argv=argv,
        smoke="shrunken ping trains (CI); gates still apply")
    mode = "smoke" if args.smoke else "full"
    shape = SWEEP_SHAPES[mode]
    failures, points = [], []
    for bg in SWEEP_BG_MBPS:
        point = run_sweep_point(bg, shape, args.repeats)
        points.append(point)
        print(f"fig3g bg={bg:5.0f} Mbit/s  events "
              f"{point['runs']['packet']['events_run']:>9d} -> "
              f"{point['runs']['fluid-bg']['events_run']:>6d}  "
              f"reduction {point['events_reduction']:8.0f}x  "
              f"wall speedup {point['wall_speedup']:6.1f}x")
        failures += sweep_failures(point)

    pings = SCALE["pings"][mode]
    scale = run_scale_100k(pings)
    failures += scale_failures(scale, pings)
    return benchkit.finish(args, {
        "gates": {"events_reduction_min": EVENTS_GATE,
                  "rtt_ratio_bounds": RTT_RATIO_BOUNDS,
                  "wall_budget_s": WALL_BUDGET_S},
        "fig3g_sweep": {"shape": shape, "points": points},
        "scale_100k": scale,
    }, failures)


if __name__ == "__main__":
    raise SystemExit(main())
