"""Pluggable event schedulers for the discrete-event engine.

Every scheduler implements the same total order -- events execute in
``(time, priority, seq)`` order, ties broken by insertion sequence --
but they differ in how much work each ``push``/``pop`` costs:

:class:`ReferenceScheduler`
    The original design: one binary heap of :class:`~repro.sim.engine.Event`
    records compared through ``Event.__lt__``.  Every push and pop pays
    ``O(log n)`` *Python-level* comparisons.  Kept as the semantic
    reference for differential tests and benchmarks.

:class:`FastScheduler`
    The default.  Three cooperating lanes:

    * a **now lane** -- a plain FIFO for ``schedule(0.0, ...)`` events at
      default priority.  These dominate event volume (process steps,
      future settlement, ``run_until_complete`` stepping) and need no
      ordering work at all: the FIFO is sorted by construction, because
      simulated time never decreases and sequence numbers only grow.
    * a **hierarchical timer wheel** -- timed events land in a fine
      bucket of width ``granularity`` (or a coarse bucket ``slots``
      fine-widths wide when far in the future).  Insertion and
      cancellation are O(1) list appends/flag writes; a bucket is sorted
      *once*, with the C sort, when the clock reaches it.  Timers that
      are cancelled before they expire -- the common case for
      retransmission guards -- never cost a single comparison.
    * a **heap fallback** -- events that cannot ride the wheel (slots the
      cursor already passed, non-default-priority zero delays) go to a
      binary heap of ``(time, priority, seq, event)`` tuples, so sifting
      compares tuples in C instead of calling ``Event.__lt__``.

    The next event is the least, under the full ``(time, priority,
    seq)`` key, of the three lane heads; a wheel bucket is flushed
    whenever its lower bound could precede the current best candidate,
    which is what makes the merge exact rather than approximate.

Scheduler choice is threaded through
:class:`repro.core.config.SimConfig`; the ``REPRO_SIM_SCHEDULER``
environment variable overrides the default for whole test runs (the
differential suite uses it to replay identical workloads on both
implementations).
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from typing import TYPE_CHECKING, Any, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Event

_INF = float("inf")

#: Names accepted by :func:`build_scheduler` (and ``SimConfig.scheduler``).
SCHEDULER_NAMES = ("fast", "reference")

#: Fallback when neither the caller nor the environment chooses.
DEFAULT_SCHEDULER = "fast"


def build_scheduler(spec: Union[str, None, "SchedulerBase"] = None
                    ) -> "SchedulerBase":
    """Resolve a scheduler choice to an instance.

    ``spec`` may be an instance (returned as-is), a name from
    :data:`SCHEDULER_NAMES`, or ``None`` -- which defers to the
    ``REPRO_SIM_SCHEDULER`` environment variable and finally to
    :data:`DEFAULT_SCHEDULER`.
    """
    if spec is not None and not isinstance(spec, str):
        return spec
    name = spec or os.environ.get("REPRO_SIM_SCHEDULER") or DEFAULT_SCHEDULER
    if name == "fast":
        return FastScheduler()
    if name == "reference":
        return ReferenceScheduler()
    raise ValueError(f"unknown scheduler {name!r}; "
                     f"expected one of {SCHEDULER_NAMES}")


class SchedulerBase:
    """Interface shared by the scheduler implementations."""

    name = "base"

    def push(self, event: "Event", zero_delay: bool = False) -> None:
        raise NotImplementedError

    def pop_due(self, until: Optional[float] = None) -> Optional["Event"]:
        """Remove and return the next live event, or ``None``.

        With ``until`` set, an event strictly later than ``until`` is
        left in place and ``None`` is returned (the run loop then parks
        the clock at ``until``).
        """
        raise NotImplementedError

    def next_time_lower_bound(self) -> float:
        """A lower bound on the next live event's time (``inf`` if none).

        O(1) and side-effect-free: implementations may return a bound
        that is earlier than the true next event time (a cancelled head,
        an unflushed wheel bucket), never later.  Real-time pacers use
        it to sleep through idle gaps without disturbing the queue --
        see :meth:`repro.sim.engine.Simulator.next_event_time`.
        """
        raise NotImplementedError

    def profile(self) -> dict:
        raise NotImplementedError


class ReferenceScheduler(SchedulerBase):
    """The original single-heap scheduler (``Event.__lt__`` ordering).

    Cancelled events stay in the heap and are skipped when popped --
    exactly the pre-refactor behaviour, preserved as the ground truth
    the fast scheduler is differentially tested against.
    """

    name = "reference"

    def __init__(self) -> None:
        self._heap: list["Event"] = []
        self._pushed = 0
        self._skipped = 0
        self.heap_peak = 0

    def push(self, event: "Event", zero_delay: bool = False) -> None:
        heapq.heappush(self._heap, event)
        self._pushed += 1
        if len(self._heap) > self.heap_peak:
            self.heap_peak = len(self._heap)

    def pop_due(self, until: Optional[float] = None) -> Optional["Event"]:
        heap = self._heap
        while heap:
            event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                event._popped = True
                self._skipped += 1
                continue
            if until is not None and event.time > until:
                return None
            heapq.heappop(heap)
            event._popped = True
            return event
        return None

    def next_time_lower_bound(self) -> float:
        """Exact for the reference heap, modulo a cancelled head."""
        return self._heap[0].time if self._heap else _INF

    def profile(self) -> dict:
        return {
            "lanes": {"heap": self._pushed},
            "heap_peak": self.heap_peak,
            "cancelled_discarded": self._skipped,
        }


class FastScheduler(SchedulerBase):
    """Two-lane scheduler: now-lane FIFO + timer wheel + heap fallback.

    Parameters
    ----------
    granularity:
        Width of a fine wheel bucket in simulated seconds.  Timers that
        land within ``slots`` buckets of the cursor go to the fine
        wheel; the default (0.1 ms x 1024 slots, a ~102 ms span) keeps
        every data-plane serialization/propagation timer and CBR tick
        in the repository on the wheel -- sub-slot re-arms that land in
        the bucket currently being consumed are the only data-plane
        events that fall back to the heap.
    slots:
        Fine buckets per coarse bucket.  Events beyond the fine span
        (retransmission guards seconds out, monitor polls) wait in a
        coarse bucket and cascade into fine buckets when the clock
        approaches -- cancelled ones are discarded at cascade/flush time
        without ever entering an ordered structure.
    """

    name = "fast"

    __slots__ = ("_gran", "_span", "_coarse_width", "_now_lane", "_heap",
                 "_runlist", "_ri", "_wheel", "_wheel_heap", "_coarse",
                 "_coarse_heap", "_cursor", "_next_lb", "_n_now", "_n_wheel",
                 "_n_heap", "_flushes", "_cascades", "_skipped", "heap_peak",
                 "wheel_peak")

    def __init__(self, granularity: float = 1e-4, slots: int = 1024) -> None:
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        if slots < 2:
            raise ValueError("slots must be >= 2")
        self._gran = float(granularity)
        self._span = int(slots)
        self._coarse_width = self._gran * self._span
        self._now_lane: deque["Event"] = deque()
        self._heap: list[tuple] = []        # (time, priority, seq, Event)
        self._runlist: list[tuple] = []     # flushed bucket, sorted
        self._ri = 0                        # runlist consumption index
        self._wheel: dict[int, list["Event"]] = {}
        self._wheel_heap: list[int] = []    # occupied fine buckets
        self._coarse: dict[int, list["Event"]] = {}
        self._coarse_heap: list[int] = []   # occupied coarse buckets
        self._cursor = -1                   # last flushed fine bucket
        # lower bound of the earliest pending wheel bucket (fine or
        # coarse): the pop fast path compares one float against it
        # instead of peeking both occupancy heaps
        self._next_lb = float("inf")
        self._n_now = 0
        self._n_wheel = 0
        self._n_heap = 0
        self._flushes = 0
        self._cascades = 0
        self._skipped = 0
        self.heap_peak = 0
        self.wheel_peak = 0

    # -- insertion -------------------------------------------------------

    def push(self, event: "Event", zero_delay: bool = False) -> None:
        if zero_delay and event.priority == 0:
            self._now_lane.append(event)
            self._n_now += 1
            return
        gran = self._gran
        time = event.time
        slot = int(time / gran)
        # float guards: division and multiplication round independently,
        # so clamp until slot*gran <= time < (slot+1)*gran under the
        # *same* multiplications the flush comparisons use -- otherwise
        # an event can sort against the wrong bucket lower bound
        if slot * gran > time:
            slot -= 1
        elif (slot + 1) * gran <= time:
            slot += 1
        cursor = self._cursor
        if cursor < slot < cursor + self._span:
            # fine wheel: the hot path for every data-plane timer
            self._n_wheel += 1
            bucket = self._wheel.get(slot)
            if bucket is not None:
                bucket.append(event)
                return
            self._wheel[slot] = [event]
            heapq.heappush(self._wheel_heap, slot)
            lb = slot * gran
            if lb < self._next_lb:
                self._next_lb = lb
            return
        if slot <= cursor:
            # the wheel already swept past this bucket (an event landing
            # in the bucket currently being consumed, or a priority!=0
            # zero-delay): the tuple heap preserves exact order
            heap = self._heap
            heapq.heappush(heap, (time, event.priority, event.seq, event))
            self._n_heap += 1
            if len(heap) > self.heap_peak:
                self.heap_peak = len(heap)
        else:
            self._n_wheel += 1
            cslot = slot // self._span
            width = self._coarse_width              # same float guards
            if cslot * width > time:
                cslot -= 1
            elif (cslot + 1) * width <= time:
                cslot += 1
            bucket = self._coarse.get(cslot)
            if bucket is None:
                self._coarse[cslot] = [event]
                heapq.heappush(self._coarse_heap, cslot)
                clb = cslot * width
                if clb < self._next_lb:
                    self._next_lb = clb
            else:
                bucket.append(event)

    # -- wheel maintenance ----------------------------------------------

    def _recompute_lb(self) -> None:
        """Refresh the cached lower bound after a flush or cascade."""
        wheel_heap = self._wheel_heap
        coarse_heap = self._coarse_heap
        if wheel_heap:
            lb = wheel_heap[0] * self._gran
            if coarse_heap:
                clb = coarse_heap[0] * self._coarse_width
                if clb < lb:
                    lb = clb
        elif coarse_heap:
            lb = coarse_heap[0] * self._coarse_width
        else:
            lb = _INF
        self._next_lb = lb

    def _advance(self) -> None:
        """Open the wheel bucket whose lower bound is ``_next_lb``.

        Coarse buckets cascade before fine buckets flush (a coarse
        bucket strictly earlier than the fine head may hide events that
        belong in earlier fine buckets).
        """
        coarse_heap = self._coarse_heap
        wheel_heap = self._wheel_heap
        if coarse_heap and (not wheel_heap
                            or coarse_heap[0] * self._coarse_width
                            < wheel_heap[0] * self._gran):
            self._cascade()
        else:
            self._flush()
        self._recompute_lb()

    def _flush(self) -> None:
        """Move the earliest fine bucket onto the sorted run list."""
        slot = heapq.heappop(self._wheel_heap)
        bucket = self._wheel.pop(slot)
        self._cursor = slot
        if len(bucket) > self.wheel_peak:
            self.wheel_peak = len(bucket)
        live = []
        for event in bucket:
            if event.cancelled:
                event._popped = True
                self._skipped += 1
            else:
                live.append((event.time, event.priority, event.seq, event))
        live.sort()
        self._runlist = live
        self._ri = 0
        self._flushes += 1

    def _cascade(self) -> None:
        """Spill the earliest coarse bucket into fine buckets."""
        cslot = heapq.heappop(self._coarse_heap)
        bucket = self._coarse.pop(cslot)
        self._cascades += 1
        gran = self._gran
        cursor = self._cursor
        wheel = self._wheel
        for event in bucket:
            if event.cancelled:
                event._popped = True
                self._skipped += 1
                continue
            time = event.time
            slot = int(time / gran)
            if slot * gran > time:
                slot -= 1
            elif (slot + 1) * gran <= time:
                slot += 1
            if slot <= cursor:
                heapq.heappush(self._heap,
                               (time, event.priority, event.seq, event))
            else:
                fine = wheel.get(slot)
                if fine is None:
                    wheel[slot] = [event]
                    heapq.heappush(self._wheel_heap, slot)
                else:
                    fine.append(event)

    # -- extraction ------------------------------------------------------

    def pop_due(self, until: Optional[float] = None) -> Optional["Event"]:
        # hot path: a live run-list head with no competing now-lane or
        # heap entry wins outright.  No barrier check is needed: every
        # run-list time is below its bucket's upper bound, later pushes
        # land in buckets at or above the next lower bound, and the
        # now lane is empty -- so nothing pending can precede it.
        ri = self._ri
        runlist = self._runlist
        if ri < len(runlist) and not self._now_lane and not self._heap:
            entry = runlist[ri]
            event = entry[3]
            if not event.cancelled:
                if until is not None and entry[0] > until:
                    return None
                self._ri = ri + 1
                event._popped = True
                return event
        return self._pop_slow(until)

    def _pop_slow(self, until: Optional[float]) -> Optional["Event"]:
        while True:
            # normalise the three lane heads (skip cancelled events)
            lane = self._now_lane
            while lane:
                head = lane[0]
                if head.cancelled:
                    lane.popleft()
                    head._popped = True
                    self._skipped += 1
                else:
                    break
            fifo_head = lane[0] if lane else None

            runlist = self._runlist
            ri = self._ri
            n_run = len(runlist)
            while ri < n_run:
                entry = runlist[ri]
                if entry[3].cancelled:
                    entry[3]._popped = True
                    self._skipped += 1
                    ri += 1
                else:
                    break
            self._ri = ri
            run_head = runlist[ri] if ri < n_run else None

            heap = self._heap
            while heap:
                entry = heap[0]
                if entry[3].cancelled:
                    heapq.heappop(heap)
                    entry[3]._popped = True
                    self._skipped += 1
                else:
                    break
            heap_head = heap[0] if heap else None

            # least of the three heads under (time, priority, seq)
            best = None
            source = 0
            if fifo_head is not None:
                best = (fifo_head.time, fifo_head.priority, fifo_head.seq,
                        fifo_head)
                source = 1
            if run_head is not None and (best is None or run_head < best):
                best = run_head
                source = 2
            if heap_head is not None and (best is None or heap_head < best):
                best = heap_head
                source = 3

            # a wheel bucket whose lower bound could precede the best
            # candidate must be opened first -- it may hide an earlier
            # event.  ``_next_lb`` caches min(fine lb, coarse lb), so
            # the common case is a single float compare.  The slot
            # guards in push() keep every bucketed event strictly below
            # the next bucket's lower bound, so advancing on ``<=``
            # never discards a live run-list entry.
            nlb = self._next_lb
            if best is None:
                if nlb == _INF:
                    return None
                if until is not None and nlb > until:
                    return None        # nothing pending at or before until
                self._advance()
                continue
            best_time = best[0]
            if nlb <= best_time:
                self._advance()
                continue
            if until is not None and best_time > until:
                return None
            event = best[3]
            if source == 1:
                lane.popleft()
            elif source == 2:
                self._ri = self._ri + 1
            else:
                heapq.heappop(heap)
            event._popped = True
            return event

    def next_time_lower_bound(self) -> float:
        """Min over the four lane heads, without opening any bucket.

        A lower bound only: the now-lane/run-list/heap heads may be
        cancelled, and ``_next_lb`` is a wheel *bucket* bound rather
        than an event time -- both make the result early, never late.
        """
        lb = self._next_lb
        lane = self._now_lane
        if lane and lane[0].time < lb:
            lb = lane[0].time
        runlist = self._runlist
        if self._ri < len(runlist) and runlist[self._ri][0] < lb:
            lb = runlist[self._ri][0]
        if self._heap and self._heap[0][0] < lb:
            lb = self._heap[0][0]
        return lb

    def profile(self) -> dict:
        return {
            "lanes": {"now": self._n_now, "wheel": self._n_wheel,
                      "heap": self._n_heap},
            "heap_peak": self.heap_peak,
            "wheel": {
                "granularity": self._gran,
                "slots": self._span,
                "flushes": self._flushes,
                "cascades": self._cascades,
                "bucket_peak": self.wheel_peak,
            },
            "cancelled_discarded": self._skipped,
        }
