"""Flow-table switch: the Open vSwitch analog realising GW user planes.

The switch keeps a priority-ordered OpenFlow table (the *slow path*) and
an exact-match cache (the *kernel fast path*).  The first packet of a
flow is matched against the table, pays the slow-path CPU cost and
installs a cache entry; later packets hit the cache at the fast-path
cost.  The CPU is a serial resource: costs accumulate on a busy-until
clock, which is what caps a user-space gateway's throughput in Figure 8.

Packets with no matching rule are counted as table misses, announced as
a :class:`~repro.sdn.events.TableMiss` on the hook bus (the paging
manager's punt path) and dropped.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Optional

from repro.epc.gtp import gtp_teid
from repro.sdn.dataplane import IDEAL_PROFILE, DataPlaneProfile
from repro.sdn.events import FlowRuleInstalled, FlowRuleRemoved, TableMiss
from repro.sdn.openflow import FlowRule, Output
from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link


def _cache_key(packet: Packet) -> tuple:
    """Exact-match key: outer TEID (if tunnelled) + inner five-tuple."""
    return (gtp_teid(packet),) + packet.five_tuple


class FlowSwitch(Node):
    """An SDN switch with GTP-capable actions and a fast-path cache."""

    def __init__(self, sim: "Simulator", name: str,
                 profile: DataPlaneProfile = IDEAL_PROFILE,
                 ip: Optional[str] = None) -> None:
        super().__init__(sim, name, ip)
        self.profile = profile
        # the OpenFlow table, highest priority first and in install
        # order within a priority band; _order is its parallel list of
        # (-priority, install sequence) keys, so an install or a
        # removal finds its position by bisection
        self.table: list[FlowRule] = []
        self._order: list[tuple[int, int]] = []
        self._seq = 0
        # (cookie, priority, match.describe()) -> order key
        self._slots: dict[tuple, tuple[int, int]] = {}
        # cookie -> its rules' (cookie, priority, match.describe()) keys
        self._by_cookie: dict[str, list[tuple]] = {}
        self._cache: dict[tuple, FlowRule] = {}
        self._cpu_free_at = 0.0
        self._fluid_cpu = None
        self.table_misses = 0
        self.fast_path_hits = 0
        self.slow_path_hits = 0

    def set_fluid_cpu(self, queue) -> None:
        """Attach the fluid server modelling aggregated background load
        on this switch's CPU (a :class:`repro.sim.fluid.FluidQueue`
        with ``capacity=1.0`` in CPU-seconds per second).  Per-packet
        arrivals then wait behind the fluid CPU backlog in addition to
        the per-packet busy-until clock."""
        self._fluid_cpu = queue

    # -- table management (driven by the controller) ---------------------

    def install(self, rule: FlowRule) -> None:
        """Add a rule; idempotent for an identical (cookie, priority,
        match) triple -- re-installing replaces the previous rule
        instead of duplicating it, so a retried FlowMod (or a re-steer
        replayed over a lossy channel) leaves exactly one rule in the
        table.  The replacement goes to the end of its priority band,
        like any new rule."""
        key = (rule.cookie, rule.priority, rule.match.describe())
        old = self._slots.get(key)
        if old is None:
            self._by_cookie.setdefault(rule.cookie, []).append(key)
        else:
            self._unlink(old)
        self._seq += 1
        slot = (-rule.priority, self._seq)
        # the newest sequence number sorts last in its band
        i = bisect_right(self._order, slot)
        self._order.insert(i, slot)
        self.table.insert(i, rule)
        self._slots[key] = slot
        self._cache.clear()     # conservatively invalidate the fast path
        hooks = self.sim.hooks
        if hooks.has(FlowRuleInstalled):
            hooks.emit(FlowRuleInstalled(switch=self, rule=rule))

    def rules_for_cookie(self, cookie: str) -> list[FlowRule]:
        """The installed rules carrying a cookie (table order)."""
        slots = sorted(self._slots[key]
                       for key in self._by_cookie.get(cookie, ()))
        return [self.table[bisect_left(self._order, s)] for s in slots]

    def remove(self, cookie: str) -> list[FlowRule]:
        """Delete the rules carrying a cookie; returns them in table
        order (empty if none were installed)."""
        slots = sorted(self._slots.pop(key)
                       for key in self._by_cookie.pop(cookie, ()))
        removed = [self._unlink(slot) for slot in slots]
        self._cache.clear()
        hooks = self.sim.hooks
        if hooks.has(FlowRuleRemoved):
            hooks.emit(FlowRuleRemoved(switch=self, cookie=cookie,
                                       count=len(removed)))
        return removed

    def _unlink(self, slot: tuple[int, int]) -> FlowRule:
        """Take the rule whose order key is ``slot`` out of the table."""
        i = bisect_left(self._order, slot)
        del self._order[i]
        return self.table.pop(i)

    def lookup(self, packet: Packet) -> Optional[FlowRule]:
        for rule in self.table:
            if rule.match.matches(packet):
                return rule
        return None

    # -- data path --------------------------------------------------------

    def on_receive(self, packet: Packet, link: "Link") -> None:
        key = _cache_key(packet)
        rule = self._cache.get(key)
        cached = rule is not None
        if rule is None:
            rule = self.lookup(packet)
            if rule is None:
                self.table_misses += 1
                hooks = self.sim.hooks
                if hooks.has(TableMiss):
                    hooks.emit(TableMiss(switch=self, packet=packet))
                return
            if self.profile.has_fast_path:
                self._cache[key] = rule
        if cached:
            self.fast_path_hits += 1
        else:
            self.slow_path_hits += 1
        cost = self.profile.cost_for(cached)
        start = max(self.sim.now, self._cpu_free_at)
        self._cpu_free_at = start + cost
        fluid = self._fluid_cpu
        if fluid is not None:
            # aggregated background occupies the same serial CPU: the
            # packet waits behind the instantaneous fluid backlog, but
            # the wait is *not* chained into the busy-until clock (the
            # backlog itself already carries that state forward)
            start += fluid.packet_wait(self.sim.now)
        done = start + cost
        if done <= self.sim.now:
            self._forward(packet, rule)
        else:
            self.sim.schedule(done - self.sim.now, self._forward,
                              packet, rule)

    def _forward(self, packet: Packet, rule: FlowRule) -> None:
        rule.record(packet)
        for action in rule.actions:
            if isinstance(action, Output):
                self.send(action.port, packet)
            else:
                packet = action.apply(packet)
