"""Discrete-event network simulation substrate.

This package provides the event engine, packet/link/node primitives,
traffic generators, measurement probes and empirical WAN models on which
the LTE/EPC, SDN and ACACIA layers are built.

The engine is deliberately small and deterministic: a pluggable
scheduler (a two-lane fast path -- zero-delay FIFO plus hierarchical
timer wheel -- or the reference binary heap, see
:mod:`repro.sim.scheduler`) dispatches timestamped callbacks in exact
``(time, priority, seq)`` order, with optional generator-based
processes on top.  Both schedulers execute every workload in the
identical order, so switching them changes wall-clock only.  All
randomness is injected through :class:`numpy.random.Generator`
instances so every experiment in the repository is reproducible from a
seed.
"""

from repro.sim.context import SimContext, derive_seed
from repro.sim.engine import Event, Process, Simulator
from repro.sim.fluid import FluidDomain, FluidFlow, FluidLink, FluidQueue
from repro.sim.hooks import (HookBus, PacketDelivered, PacketDropped,
                             Subscription)
from repro.sim.link import Link
from repro.sim.monitor import FlowStats, LatencyProbe, ThroughputMeter
from repro.sim.node import Node, PacketSink
from repro.sim.packet import Header, Packet
from repro.sim.tcp import TcpSink, TcpSource
from repro.sim.traffic import CBRSource, GreedySource, PoissonSource
from repro.sim.wan import LTE_WAN_PROFILES, WANProfile

__all__ = [
    "CBRSource",
    "Event",
    "FlowStats",
    "FluidDomain",
    "FluidFlow",
    "FluidLink",
    "FluidQueue",
    "GreedySource",
    "Header",
    "HookBus",
    "LatencyProbe",
    "Link",
    "LTE_WAN_PROFILES",
    "Node",
    "Packet",
    "PacketDelivered",
    "PacketDropped",
    "PacketSink",
    "PoissonSource",
    "Process",
    "SimContext",
    "Simulator",
    "Subscription",
    "TcpSink",
    "TcpSource",
    "ThroughputMeter",
    "WANProfile",
    "derive_seed",
]
