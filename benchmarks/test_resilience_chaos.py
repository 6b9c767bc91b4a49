"""Control-plane resilience under injected signalling loss.

Runs the ``chaos`` preset from the scenario catalogue (``python -m
repro scenario run chaos``): ``n_ues`` concurrent attaches plus one
dedicated MEC bearer each, while a :class:`~repro.faults.plan.ChannelLoss`
fault drops every signalling delivery with probability ``loss``.  The
sweep crosses loss rate (0-10%) with retransmission on/off, so the
table shows both what the NAS/S1AP-style timers buy (success stays at
100% at the cost of retransmission latency) and what losing them costs
(procedures terminate with ``timeout`` outcomes -- never a deadlock).
The whole experiment is deterministic: a rerun at the same seeds is
byte-identical.
"""

from repro.exp.runner import ExperimentRunner
from repro.scenario import load

LOSSES = (0.0, 0.02, 0.05, 0.10)


def run_chaos():
    result = ExperimentRunner(load("chaos").compile()).run()
    assert result.ok, result.failures()
    return result


def test_resilience_chaos(report, benchmark):
    result = run_chaos()
    by = result.metrics_by("loss", "retries")

    rows = []
    for retries in (True, False):
        for loss in LOSSES:
            m = by[(loss, retries)]
            timeouts = (m["attach_outcomes"].get("timeout", 0)
                        + m["bearer_outcomes"].get("timeout", 0))
            rows.append([f"{loss:.0%}", "on" if retries else "off",
                         f"{m['attach_success_rate']:.2f}",
                         f"{m['bearer_success_rate']:.2f}",
                         f"{m['attach_mean_ms']:.1f}",
                         m["retransmissions"], timeouts])

    r = report("resilience_chaos", "Resilience under signalling loss "
               "(20 UEs, attach + dedicated bearer)")
    r.table(["loss", "retries", "attach_ok", "bearer_ok",
             "attach_ms", "retrans", "timeouts"], rows)
    r.line()
    r.line("with retransmission every procedure completes even at 10% "
           "loss; without it, losses surface as terminal timeout "
           "outcomes (no deadlocks, no hung procedures)")

    # acceptance: >= 99% attach success at 5% injected loss with retries
    assert by[(0.05, True)]["attach_success_rate"] >= 0.99
    assert by[(0.05, True)]["bearer_success_rate"] >= 0.99
    # recovery is not free: retransmission timers add latency under loss
    assert (by[(0.05, True)]["attach_mean_ms"]
            > by[(0.0, True)]["attach_mean_ms"])
    # zero loss needs zero retransmissions, lossy runs need some
    assert by[(0.0, True)]["retransmissions"] == 0
    assert by[(0.05, True)]["retransmissions"] > 0
    # without retries, loss means terminal timeouts -- but every trial
    # still ran to completion (status "ok"), so nothing deadlocked
    for loss in LOSSES[1:]:
        m = by[(loss, False)]
        assert m["retransmissions"] == 0
        assert m["attach_outcomes"].get("timeout", 0) > 0
        assert m["attach_success_rate"] < 1.0
    # success degrades monotonically with loss when nothing retries
    rates = [by[(loss, False)]["attach_success_rate"] for loss in LOSSES]
    assert rates == sorted(rates, reverse=True)

    # determinism: a rerun of the same spec is byte-identical
    assert run_chaos().canonical_json() == result.canonical_json()

    benchmark.pedantic(run_chaos, rounds=1, iterations=1)
