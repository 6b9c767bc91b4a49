"""Unit tests for the flow switch: forwarding, fast path, CPU costs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.epc.gtp import gtp_encapsulate, is_gtp
from repro.sdn.dataplane import (ACACIA_OVS_PROFILE, IDEAL_PROFILE,
                                 OPENEPC_USERSPACE_PROFILE, DataPlaneProfile)
from repro.sdn.openflow import FlowMatch, FlowRule, GtpDecap, GtpEncap, Output
from repro.sdn.switch import FlowSwitch
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import PacketSink
from repro.sim.packet import Packet


def build(profile=IDEAL_PROFILE):
    sim = Simulator()
    src = PacketSink(sim, "src", ip="10.0.0.1")
    switch = FlowSwitch(sim, "sw", profile=profile, ip="172.16.0.1")
    dst = PacketSink(sim, "dst", ip="10.0.0.2")
    l_in = Link(sim, "in", bandwidth=1e9, delay=0.0)
    l_out = Link(sim, "out", bandwidth=1e9, delay=0.0)
    src.attach("p", l_in)
    switch.attach("in", l_in)
    switch.attach("out", l_out)
    dst.attach("p", l_out)
    return sim, src, switch, dst


def pkt(dst="10.0.0.2", **kw):
    defaults = dict(src="10.0.0.1", dst=dst, size=1000, protocol="UDP",
                    src_port=1, dst_port=2)
    defaults.update(kw)
    return Packet(**defaults)


def test_forwarding_with_matching_rule():
    sim, src, switch, dst = build()
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    src.send("p", pkt())
    sim.run()
    assert len(dst.received) == 1


def test_table_miss_drops():
    sim, src, switch, dst = build()
    switch.install(FlowRule(FlowMatch(dst_ip="1.1.1.1"), [Output("out")]))
    src.send("p", pkt())
    sim.run()
    assert dst.received == []
    assert switch.table_misses == 1


def test_priority_selects_rule():
    sim, src, switch, dst = build()
    switch.install(FlowRule(FlowMatch(), [Output("in")], priority=10,
                            cookie="low"))
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")],
                            priority=200, cookie="high"))
    src.send("p", pkt())
    sim.run()
    assert len(dst.received) == 1


def test_gtp_decap_encap_chain():
    sim, src, switch, dst = build()
    switch.install(FlowRule(
        FlowMatch(teid=0x10),
        [GtpDecap(), GtpEncap(0x20, "172.16.0.1", "172.16.0.2"),
         Output("out")]))
    packet = gtp_encapsulate(pkt(), 0x10, "192.168.1.1", "172.16.0.1")
    src.send("p", packet)
    sim.run()
    assert len(dst.received) == 1
    out = dst.received[0]
    assert is_gtp(out)
    assert out.find_header("GTP-U")["teid"] == 0x20


def test_remove_by_cookie():
    sim, src, switch, dst = build()
    switch.install(FlowRule(FlowMatch(), [Output("out")], cookie="x"))
    removed = switch.remove("x")
    assert len(removed) == 1
    src.send("p", pkt())
    sim.run()
    assert switch.table_misses == 1


def test_fast_path_cache_hit_counting():
    sim, src, switch, dst = build(profile=ACACIA_OVS_PROFILE)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    for _ in range(5):
        src.send("p", pkt())
    sim.run()
    assert switch.slow_path_hits == 1
    assert switch.fast_path_hits == 4
    assert len(dst.received) == 5


def test_no_fast_path_profile_always_slow():
    sim, src, switch, dst = build(profile=OPENEPC_USERSPACE_PROFILE)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    for _ in range(5):
        src.send("p", pkt())
    sim.run()
    assert switch.slow_path_hits == 5
    assert switch.fast_path_hits == 0


def test_cpu_serialisation_caps_throughput():
    """With a 100us per-packet cost, 10 packets take ~1ms to process."""
    profile = DataPlaneProfile("slow", slow_path_cost=100e-6,
                               fast_path_cost=100e-6, has_fast_path=False)
    sim, src, switch, dst = build(profile=profile)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    for _ in range(10):
        src.send("p", pkt())
    sim.run()
    assert len(dst.received) == 10
    # 10 packets * 100us CPU each, serialized
    assert sim.now == pytest.approx(10 * 100e-6, rel=0.1)


def test_install_invalidates_cache():
    sim, src, switch, dst = build(profile=ACACIA_OVS_PROFILE)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")],
                            priority=10))
    src.send("p", pkt())
    sim.run()
    # higher-priority rule shadows the old one; cache must not bypass it
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("in")],
                            priority=500))
    src.send("p", pkt())
    sim.run()
    assert len(dst.received) == 1   # second packet went elsewhere


def test_ideal_profile_forwards_inline():
    sim, src, switch, dst = build(profile=IDEAL_PROFILE)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    src.send("p", pkt())
    sim.run()
    # only link serialization (2 hops at 1 Gbps, 1000B) contributes
    assert sim.now == pytest.approx(2 * 8000 / 1e9, rel=0.01)


# -- table bookkeeping -------------------------------------------------------


def bare_switch():
    return FlowSwitch(Simulator(), "sw")


def assert_same(got, want):
    """Same rule objects, in the same order."""
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


def rule(match=None, port="out", priority=100, cookie=""):
    return FlowRule(match or FlowMatch(), [Output(port)], priority=priority,
                    cookie=cookie)


class ReferenceTable:
    """The flow table as a filtered, stably re-sorted list: the plain
    specification the indexed switch table must reproduce."""

    def __init__(self):
        self.table = []

    @staticmethod
    def key(r):
        return (r.cookie, r.priority, r.match.describe())

    def install(self, new):
        self.table = [r for r in self.table if self.key(r) != self.key(new)]
        self.table.append(new)
        self.table.sort(key=lambda r: -r.priority)

    def remove(self, cookie):
        removed = [r for r in self.table if r.cookie == cookie]
        self.table = [r for r in self.table if r.cookie != cookie]
        return removed

    def rules_for_cookie(self, cookie):
        return [r for r in self.table if r.cookie == cookie]

    def lookup(self, packet):
        return next((r for r in self.table if r.match.matches(packet)), None)


COOKIES = ["a", "b", "c", "d"]
PRIORITIES = [10, 100, 100, 150, 500]
MATCHES = [FlowMatch(), FlowMatch(dst_ip="10.0.0.2"),
           FlowMatch(dst_ip="10.0.0.3"), FlowMatch(teid=7),
           FlowMatch(dst_ip="10.0.0.2", dst_port=2), FlowMatch(src_port=1)]
PORTS = ["out", "in"]

_install = st.tuples(st.just("install"), st.sampled_from(COOKIES),
                     st.sampled_from(PRIORITIES), st.sampled_from(MATCHES),
                     st.sampled_from(PORTS))
_reinstall = st.tuples(st.just("reinstall"), st.integers(0, 63),
                       st.sampled_from(PORTS))
_remove = st.tuples(st.just("remove"), st.sampled_from(COOKIES + ["zz"]))
_packet = st.builds(
    lambda dst, dst_port, teid: (
        gtp_encapsulate(pkt(dst=dst, dst_port=dst_port), teid,
                        "192.168.1.1", "172.16.0.1")
        if teid is not None else pkt(dst=dst, dst_port=dst_port)),
    st.sampled_from(["10.0.0.2", "10.0.0.3", "10.0.0.9"]),
    st.sampled_from([2, 3]), st.sampled_from([None, 7, 8]))


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(st.one_of(_install, _reinstall, _remove), max_size=40),
       packets=st.lists(_packet, min_size=1, max_size=4))
def test_indexed_table_matches_reference_model(ops, packets):
    switch, model = bare_switch(), ReferenceTable()
    for op in ops:
        switch._cache[("stale",)] = None    # a fast-path entry to flush
        if op[0] == "remove":
            assert_same(switch.remove(op[1]), model.remove(op[1]))
        else:
            if op[0] == "install":
                _, cookie, priority, match, port = op
            elif model.table:
                # an identical (cookie, priority, match) key, new rule object
                old = model.table[op[1] % len(model.table)]
                cookie, priority, match = old.cookie, old.priority, old.match
                port = op[2]
            else:
                continue
            new = rule(match, port, priority, cookie)
            switch.install(new)
            model.install(new)
        assert switch._cache == {}
        assert_same(switch.table, model.table)
        for cookie in COOKIES + ["zz"]:
            assert_same(switch.rules_for_cookie(cookie),
                        model.rules_for_cookie(cookie))
        for packet in packets:
            assert switch.lookup(packet) is model.lookup(packet)


def test_install_formats_each_match_once(monkeypatch):
    """Installing n rules costs n ``describe()`` calls, not O(n^2)."""
    calls = 0
    describe = FlowMatch.describe

    def counting(self):
        nonlocal calls
        calls += 1
        return describe(self)

    monkeypatch.setattr(FlowMatch, "describe", counting)
    switch = bare_switch()
    n = 2000
    for i in range(n):
        switch.install(rule(FlowMatch(teid=i), priority=(100, 150)[i % 2],
                            cookie=f"c{i % 500}"))
    assert len(switch.table) == n
    assert calls <= n
    for i in range(500):
        switch.remove(f"c{i}")
    assert switch.table == []
    assert calls <= n


def test_reinstall_moves_to_end_of_priority_band():
    switch = bare_switch()
    a = rule(FlowMatch(teid=1), cookie="a")
    b = rule(FlowMatch(teid=2), cookie="b")
    high = rule(FlowMatch(teid=3), priority=500, cookie="h")
    low = rule(FlowMatch(teid=4), priority=10, cookie="l")
    for r in (a, b, high, low):
        switch.install(r)
    a2 = rule(FlowMatch(teid=1), port="in", cookie="a")
    switch.install(a2)
    assert_same(switch.table, [high, b, a2, low])


def test_remove_absent_cookie_keeps_table():
    switch = bare_switch()
    rules = [rule(FlowMatch(teid=i), priority=p, cookie=c)
             for i, (p, c) in enumerate([(100, "a"), (500, "b"),
                                         (100, "c")])]
    for r in rules:
        switch.install(r)
    before = list(switch.table)
    assert switch.remove("missing") == []
    assert_same(switch.table, before)


def test_remove_from_middle_of_band_keeps_order():
    switch = bare_switch()
    rules = [rule(FlowMatch(teid=i), cookie=c)
             for i, c in enumerate(["a", "b", "c", "b", "d"])]
    for r in rules:
        switch.install(r)
    removed = switch.remove("b")
    assert_same(removed, [rules[1], rules[3]])
    assert_same(switch.table, [rules[0], rules[2], rules[4]])
    assert switch.rules_for_cookie("b") == []


def test_remove_every_cookie_empties_table():
    switch = bare_switch()
    cookies = ["a", "b", "c"]
    for i in range(9):
        switch.install(rule(FlowMatch(teid=i), priority=(10, 100, 500)[i % 3],
                            cookie=cookies[i // 3]))
    for cookie in cookies:
        switch.remove(cookie)
    assert switch.table == []
    assert switch.rules_for_cookie("a") == []
