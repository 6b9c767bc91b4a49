"""Observing wrappers around each layer's entry points.

A :class:`Tracer` patches the public entry points of every layer the
benchmark attributes time to (engine, scheduler, link, packet, switch,
GTP, signalling, fluid solver, MRS relocation, matcher, features,
localization, world build), runs trials with the patches in place and
removes every patch afterwards.  The wrappers only observe: each one
calls the original with the original arguments and returns its result
unchanged, so a traced trial produces byte-identical output.

Two modes:

``census``
    Counts only -- constructor registries plus counting wrappers on
    procedure completion and frame matching.  Used for an untimed pass
    that yields the work counts (packets, attaches, frames, simulated
    seconds) and the scheduler that ran.
``trace``
    Everything: per-layer self time through a wrapper stack (a layer's
    self time leaves out the wrapped calls nested inside it), per-call
    counters, and spans for the coarse boundaries (trial, world build,
    ``Simulator.run``, procedures).  Per-packet boundaries get counts
    and self time only; a span per packet would dominate the run.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

#: Attribute set on every wrapper, so a leftover patch can be found.
MARKER = "_perfbench_wrapper"

#: Self-time buckets; with ``trace.unattributed_s`` they add up to the
#: traced wall time.
SELF_TIME_KEYS = (
    "sim.engine.self_s",
    "sim.scheduler.self_s",
    "sim.link.self_s",
    "sdn.switch.rx_self_s",
    "sdn.switch.install_self_s",
    "epc.gtp.self_s",
    "epc.signalling.self_s",
    "sim.fluid.resolve_self_s",
    "sim.fluid.wait_self_s",
    "core.mrs.self_s",
    "vision.batch.self_s",
    "vision.features.self_s",
    "localization.self_s",
    "build.self_s",
)

DROP_REASONS = ("link-down", "queue-overflow", "injected-loss",
                "entity-down")
OUTCOMES = ("ok", "retried-ok", "timeout", "rejected")


def import_all_repro() -> None:
    """Import every ``repro`` module before patching.

    A module first imported while a patch is live could bind the
    wrapper at import time (``from x import f``) and keep it after the
    patch is removed; importing everything up front rules that out.
    """
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def find_leftover_wrappers() -> list[str]:
    """Names of module or class attributes that are still wrappers."""
    leftovers = []
    for mod_name, module in sorted(sys.modules.items()):
        if not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if getattr(value, MARKER, False):
                leftovers.append(f"{mod_name}.{name}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if getattr(fn, MARKER, False):
                        leftovers.append(f"{mod_name}.{name}.{attr}")
    return leftovers


class _TimedGenerator:
    """Generator proxy timing each resume of a simulator process.

    Procedures and relocations are generators driven by the engine;
    wrapping the generator function would time only its creation, so
    the proxy times every ``send``/``throw`` instead.  It also records
    the process as one span from creation to completion.
    """

    __slots__ = ("_gen", "_tracer", "_key", "_span", "__name__")

    def __init__(self, tracer: "Tracer", gen, key: str,
                 span_name: str) -> None:
        self._gen = gen
        self._tracer = tracer
        self._key = key
        self.__name__ = getattr(gen, "__name__", "process")
        self._span = tracer._open_span(span_name)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self) -> None:
        self._gen.close()

    def _resume(self, fn, *args):
        try:
            return self._tracer._timed(self._key, fn, args, {})
        except BaseException:
            self._tracer._close_span(self._span)
            raise


class Tracer:
    """Installs, runs under and removes the layer wrappers."""

    def __init__(self, mode: str = "trace") -> None:
        if mode not in ("census", "trace"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.counts: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[dict[str, Any]] = []
        self.schedulers: set[str] = set()
        self.wall_s = 0.0
        self._registry: dict[str, list] = defaultdict(list)
        self._stack: list[list] = []    # [key, child seconds, span id]
        self._patches: list[tuple[Any, str, Any]] = []
        self._installed = False

    # -- timing core -------------------------------------------------------

    def _timed(self, key: Optional[str], fn: Callable, args, kwargs,
               span: Optional[str] = None):
        """Call ``fn`` as one frame of ``key``; ``span`` names a span."""
        span_id = None if span is None else self._open_span(span)
        stack = self._stack
        frame = [key, 0.0, span_id]
        t0 = perf_counter()
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            stack.pop()
            if span_id is not None:
                self._close_span(span_id)
            if key is not None:
                self.self_s[key] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def _current_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _open_span(self, name: str) -> int:
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": self._current_span(),
                           "start": perf_counter(), "end": None})
        return len(self.spans) - 1

    def _close_span(self, span_id: int) -> None:
        span = self.spans[span_id]
        if span["end"] is None:
            span["end"] = perf_counter()

    # -- wrapper factories -------------------------------------------------

    def _outermost(self, key: str) -> bool:
        """True unless the innermost wrapped call is already ``key``."""
        return not self._stack or self._stack[-1][0] != key

    def timed(self, key: str, count: Optional[str] = None,
              span: Optional[str] = None,
              amount: Optional[Callable] = None,
              after: Optional[Callable] = None,
              outermost: bool = False):
        """Factory for a timing wrapper.

        ``count`` is bumped per call (by ``amount(*args)`` when given),
        or with ``outermost`` only for calls not nested in another call
        into ``key``; ``span`` records the call as a span;
        ``after(result, *args)`` runs on return.
        """
        tracer = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if count is not None and (not outermost
                                          or tracer._outermost(key)):
                    tracer.counts[count] += (
                        1 if amount is None else amount(*args, **kwargs))
                result = tracer._timed(key, fn, args, kwargs, span)
                if after is not None:
                    after(result, *args)
                return result
            return wrapper
        return make

    def counted(self, count: Optional[str] = None,
                after: Optional[Callable] = None):
        """Factory for an untimed wrapper that counts calls into ``count``
        and runs ``after(result, *args)`` on return."""
        tracer = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if count is not None:
                    tracer.counts[count] += 1
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result
            return wrapper
        return make

    def registered(self, kind: str):
        """Factory for an ``__init__`` wrapper recording the instance."""
        tracer = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(obj, *args, **kwargs):
                fn(obj, *args, **kwargs)
                tracer._registry[kind].append(obj)
            return wrapper
        return make

    def generator(self, key: str, span: Callable[..., str]):
        """Factory wrapping a generator function's result; ``span(*args)``
        names the process span."""
        tracer = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _TimedGenerator(tracer, fn(*args, **kwargs), key,
                                       span(*args, **kwargs))
            return wrapper
        return make

    # -- patching ----------------------------------------------------------

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def patch_method(self, cls: type, name: str, factory) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = factory(raw.__func__)
            setattr(wrapper, MARKER, True)
            self._set(cls, name, type(raw)(wrapper))
        else:
            wrapper = factory(raw)
            setattr(wrapper, MARKER, True)
            self._set(cls, name, wrapper)

    def patch_function(self, module_name: str, name: str, factory) -> None:
        """Patch a function in its module and wherever it was imported."""
        original = getattr(sys.modules[module_name], name)
        wrapper = factory(original)
        setattr(wrapper, MARKER, True)
        for mod_name, module in sorted(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        import_all_repro()
        try:
            self._install_census()
            if self.mode == "trace":
                self._install_trace()
        except BaseException:
            self.uninstall()
            raise
        self._installed = True

    def uninstall(self) -> None:
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)
        self._installed = False

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _install_census(self) -> None:
        from repro.core.mrs import MecRegistrationServer
        from repro.epc.procedures import EPCControlPlane
        from repro.epc.signalling import SignallingFabric
        from repro.sdn.controller import SdnController
        from repro.sdn.switch import FlowSwitch
        from repro.sim.engine import Simulator
        from repro.sim.link import Link
        from repro.vision.batch import (BatchObjectMatcher,
                                        CandidateMatrixCache)

        trace = self.mode == "trace"
        self.patch_method(Simulator, "__init__", self.registered("sim"))
        self.patch_method(Link, "__init__", self.registered("link"))
        for cls, kind in ((FlowSwitch, "switch"),
                          (SignallingFabric, "fabric"),
                          (SdnController, "controller"),
                          (MecRegistrationServer, "mrs"),
                          (CandidateMatrixCache, "cache")):
            self.patch_method(cls, "__init__", self.registered(kind))

        def on_complete(_result, _cp, result, _subject) -> None:
            self.counts[f"epc.procedures.completed.{result.outcome}"] += 1
            if result.name == "attach" and result.outcome in ("ok",
                                                              "retried-ok"):
                self.counts["epc.procedures.attaches"] += 1
        self.patch_method(EPCControlPlane, "_complete",
                          self.counted(after=on_complete))

        frames = "vision.batch.frames"
        batch = "vision.batch.self_s"
        self.patch_method(BatchObjectMatcher, "match_frame",
                          self.timed(batch, count=frames, outermost=True))
        self.patch_method(
            BatchObjectMatcher, "match_frames",
            self.timed(batch, count=frames, outermost=True,
                       amount=lambda _self, fs, *a, **k: len(fs)))
        if trace:
            self.patch_method(BatchObjectMatcher, "match_all",
                              self.timed(batch))

    def _install_trace(self) -> None:
        from repro.core.mrs import MecRegistrationServer
        from repro.core.network import MobileNetwork
        from repro.epc.procedures import EPCControlPlane
        from repro.epc.signalling import SignallingFabric
        from repro.sdn.switch import FlowSwitch
        from repro.sim import scheduler
        from repro.sim.engine import Simulator
        from repro.sim.fluid import FluidDomain, FluidLink, FluidQueue
        from repro.sim.link import Link
        from repro.sim.packet import Packet
        from repro.vision.features import FeatureExtractor, ObjectModel

        engine = "sim.engine.self_s"
        self.patch_method(Simulator, "run",
                          self.timed(engine, span="Simulator.run"))
        self.patch_method(Simulator, "step", self.timed(engine))
        for cls in (scheduler.ReferenceScheduler, scheduler.FastScheduler):
            for name in ("push", "pop_due"):
                self.patch_method(cls, name,
                                  self.timed("sim.scheduler.self_s"))

        link = "sim.link.self_s"
        for cls in (Link, FluidLink):
            self.patch_method(cls, "transmit",
                              self.timed(link, count="sim.link.transmits",
                                         outermost=True))
        self.patch_method(Packet, "__init__",
                          self.counted("sim.packet.allocs"))

        rx = "sdn.switch.rx_self_s"
        self.patch_method(FlowSwitch, "on_receive",
                          self.timed(rx, count="sdn.switch.rx"))
        self.patch_method(FlowSwitch, "_forward", self.timed(rx))

        def table_peak(_result, switch, *_args) -> None:
            peak = "sdn.switch.table_peak"
            self.counts[peak] = max(self.counts[peak], len(switch.table))
        install = "sdn.switch.install_self_s"
        self.patch_method(FlowSwitch, "install",
                          self.timed(install, count="sdn.switch.installs",
                                     after=table_peak))
        self.patch_method(FlowSwitch, "remove",
                          self.timed(install, count="sdn.switch.removes"))

        gtp = "epc.gtp.self_s"
        self.patch_function("repro.epc.gtp", "gtp_encapsulate",
                            self.timed(gtp, count="epc.gtp.encaps"))
        self.patch_function("repro.epc.gtp", "gtp_decapsulate",
                            self.timed(gtp, count="epc.gtp.decaps"))

        sig = "epc.signalling.self_s"
        for name in ("send", "send_reliable", "_deliver"):
            self.patch_method(SignallingFabric, name, self.timed(sig))
        self.patch_method(
            EPCControlPlane, "_guarded",
            self.generator(sig, lambda _cp, gen, *a, **k:
                           "procedure:" + getattr(gen, "__name__", "?")))

        self.patch_method(FluidDomain, "resolve",
                          self.timed("sim.fluid.resolve_self_s",
                                     count="sim.fluid.resolves"))
        self.patch_method(FluidQueue, "packet_wait",
                          self.timed("sim.fluid.wait_self_s",
                                     count="sim.fluid.packet_waits"))

        mrs = "core.mrs.self_s"
        for name in ("request_connectivity", "relocate_session",
                     "_on_handover"):
            self.patch_method(MecRegistrationServer, name, self.timed(mrs))
        self.patch_method(MecRegistrationServer, "_relocate_proc",
                          self.generator(mrs, lambda *a, **k: "relocation"))
        self.patch_method(
            MobileNetwork, "context_transfer_async",
            self.timed(mrs, count="core.network.context_bytes",
                       amount=lambda _net, _src, _dst, nbytes, *a, **k:
                       nbytes))

        features = "vision.features.self_s"
        for name in ("frame_of", "clutter_frame"):
            self.patch_method(FeatureExtractor, name, self.timed(features))
        self.patch_method(ObjectModel, "generate", self.timed(features))

        self.patch_function("repro.localization.trilateration",
                            "trilaterate",
                            self.timed("localization.self_s",
                                       count="localization.trilaterate_calls"))

        build = "build.self_s"
        self.patch_method(MobileNetwork, "__init__",
                          self.timed(build, span="MobileNetwork"))
        self.patch_function("repro.baselines.deployments",
                            "build_deployment",
                            self.timed(build, span="build_deployment"))
        self.patch_function("repro.baselines.deployments",
                            "build_edge_fabric",
                            self.timed(build, span="build_edge_fabric"))
        self.patch_function("repro.apps.retail", "build_retail_database",
                            self.timed(build, span="build_retail_database"))

    # -- per-trial harvest -------------------------------------------------

    @contextmanager
    def trial(self, name: str) -> Iterator[None]:
        """Run one trial under the tracer, then harvest its counters."""
        if not self._installed:
            raise RuntimeError("tracer is not installed")
        span_id = self._open_span(f"trial:{name}")
        frame = [None, 0.0, span_id]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.wall_s += perf_counter() - t0
            self._stack.pop()
            self._close_span(span_id)
            self._harvest()

    def _harvest(self) -> None:
        counts = self.counts
        reg, self._registry = self._registry, defaultdict(list)
        for sim in reg["sim"]:
            profile = sim.profile()
            self.schedulers.add(profile["scheduler"])
            counts["sim.engine.events"] += profile["events_run"]
            counts["sim.engine.pool_hits"] += profile["pool"]["hits"]
            counts["sim.engine.pool_misses"] += profile["pool"]["misses"]
            counts["sim.scheduler.pushes"] += sum(profile["lanes"].values())
            counts["sim.scheduler.cancelled"] += profile[
                "cancelled_discarded"]
            counts["sim.seconds"] += sim.now
        for link in reg["link"]:
            for reason, n in link.drop_counts.items():
                counts[f"sim.link.drops.{reason}"] += n
            for direction in link._directions.values():
                counts["sim.link.deliveries"] += direction.tx_packets
        for switch in reg["switch"]:
            counts["sdn.switch.fast_path_hits"] += switch.fast_path_hits
            counts["sdn.switch.slow_path_hits"] += switch.slow_path_hits
            counts["sdn.switch.table_misses"] += switch.table_misses
        for fabric in reg["fabric"]:
            counts["epc.signalling.messages"] += fabric.messages_sent
            counts["epc.signalling.bytes"] += fabric.ledger.total_bytes
            counts["epc.signalling.retransmissions"] += \
                fabric.retransmissions
        for controller in reg["controller"]:
            counts["sdn.controller.flowmods"] += controller.flow_mods_sent
        for mrs in reg["mrs"]:
            counts["core.mrs.relocations"] += mrs.relocations_completed
        for cache in reg["cache"]:
            counts["vision.batch.cache_hits"] += cache.hits
            counts["vision.batch.cache_misses"] += cache.misses

    # -- results -----------------------------------------------------------

    def layer_metrics(self, passes: int, untraced_wall_s: float
                      ) -> dict[str, float]:
        """Per-layer metrics of one traced pass, averaged over ``passes``.

        ``untraced_wall_s`` is the mean wall time of an untraced pass.
        """
        c = {k: v / passes for k, v in self.counts.items()}
        c = defaultdict(float, c)
        self_s = defaultdict(float, {k: v / passes
                                     for k, v in self.self_s.items()})
        wall_s = self.wall_s / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        events = c["sim.engine.events"]
        out["sim.engine.events"] = events
        out["sim.engine.self_s"] = self_s["sim.engine.self_s"]
        out["sim.engine.ns_per_event"] = ratio(
            self_s["sim.engine.self_s"] * 1e9, events)
        out["sim.engine.pool_hit_rate"] = ratio(
            c["sim.engine.pool_hits"],
            c["sim.engine.pool_hits"] + c["sim.engine.pool_misses"])
        out["sim.scheduler.self_s"] = self_s["sim.scheduler.self_s"]
        out["sim.scheduler.ns_per_event"] = ratio(
            self_s["sim.scheduler.self_s"] * 1e9, events)
        out["sim.scheduler.cancelled_share"] = ratio(
            c["sim.scheduler.cancelled"], c["sim.scheduler.pushes"])
        out["sim.seconds"] = c["sim.seconds"]
        out["sim.link.transmits"] = c["sim.link.transmits"]
        out["sim.link.deliveries"] = c["sim.link.deliveries"]
        out["sim.link.self_s"] = self_s["sim.link.self_s"]
        for reason in DROP_REASONS:
            out[f"sim.link.drops.{reason}"] = c[f"sim.link.drops.{reason}"]
        out["sim.packet.allocs_per_delivery"] = ratio(
            c["sim.packet.allocs"], c["sim.link.deliveries"])
        out["sdn.switch.rx"] = c["sdn.switch.rx"]
        out["sdn.switch.rx_self_s"] = self_s["sdn.switch.rx_self_s"]
        out["sdn.switch.fast_path_share"] = ratio(
            c["sdn.switch.fast_path_hits"],
            c["sdn.switch.fast_path_hits"] + c["sdn.switch.slow_path_hits"])
        out["sdn.switch.table_misses"] = c["sdn.switch.table_misses"]
        out["sdn.switch.installs"] = c["sdn.switch.installs"]
        out["sdn.switch.removes"] = c["sdn.switch.removes"]
        out["sdn.switch.install_self_s"] = \
            self_s["sdn.switch.install_self_s"]
        out["sdn.switch.table_peak"] = self.counts["sdn.switch.table_peak"]
        out["sdn.controller.flowmods"] = c["sdn.controller.flowmods"]
        out["epc.gtp.encaps"] = c["epc.gtp.encaps"]
        out["epc.gtp.decaps"] = c["epc.gtp.decaps"]
        out["epc.gtp.self_s"] = self_s["epc.gtp.self_s"]
        out["epc.signalling.messages"] = c["epc.signalling.messages"]
        out["epc.signalling.bytes"] = c["epc.signalling.bytes"]
        out["epc.signalling.self_s"] = self_s["epc.signalling.self_s"]
        out["epc.signalling.retransmissions"] = \
            c["epc.signalling.retransmissions"]
        out["epc.procedures.attaches"] = c["epc.procedures.attaches"]
        for outcome in OUTCOMES:
            key = f"epc.procedures.completed.{outcome}"
            out[key] = c[key]
        out["sim.fluid.resolves"] = c["sim.fluid.resolves"]
        out["sim.fluid.resolve_self_s"] = \
            self_s["sim.fluid.resolve_self_s"]
        out["sim.fluid.packet_waits"] = c["sim.fluid.packet_waits"]
        out["sim.fluid.wait_self_s"] = self_s["sim.fluid.wait_self_s"]
        out["core.mrs.relocations"] = c["core.mrs.relocations"]
        out["core.network.context_bytes"] = c["core.network.context_bytes"]
        out["core.mrs.self_s"] = self_s["core.mrs.self_s"]
        out["vision.batch.frames"] = c["vision.batch.frames"]
        out["vision.batch.self_s"] = self_s["vision.batch.self_s"]
        out["vision.batch.cache_hit_rate"] = ratio(
            c["vision.batch.cache_hits"],
            c["vision.batch.cache_hits"] + c["vision.batch.cache_misses"])
        out["vision.features.self_s"] = \
            self_s["vision.features.self_s"]
        out["localization.trilaterate_calls"] = \
            c["localization.trilaterate_calls"]
        out["localization.self_s"] = self_s["localization.self_s"]
        out["build.self_s"] = self_s["build.self_s"]
        attributed = sum(self_s[k] for k in SELF_TIME_KEYS)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - attributed
        out["trace.overhead"] = ratio(wall_s, untraced_wall_s) - 1.0
        return out

    def spans_out(self, origin: float) -> list[dict[str, Any]]:
        """Spans with times in seconds relative to ``origin``."""
        out = []
        for span in self.spans:
            end = span["end"]
            out.append({"id": span["id"], "name": span["name"],
                        "parent": span["parent"],
                        "start_s": span["start"] - origin,
                        "end_s": None if end is None else end - origin})
        return out
