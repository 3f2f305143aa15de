"""Named experiments: declarative specs + table renderers.

Each entry pairs an :class:`~repro.harness.spec.ExperimentSpec` builder
with a renderer that reduces the merged
:class:`~repro.harness.record.RunRecord` list to exactly the table the
corresponding bench has always emitted (``benchmarks/out/<name>.txt``),
so migrating a bench onto the harness changes *how* the numbers are
produced (declaratively, parallelizably, with full telemetry persisted)
without changing a byte of the table -- ``check_determinism.py`` keeps
that honest.

The specs are plain data: the CLI (``python -m repro experiments run``)
and the benches share them, and ``--smoke`` swaps in a reduced grid for
CI without touching the full artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import Table
from repro.harness.record import RunRecord
from repro.harness.session import ExperimentSession
from repro.harness.spec import (
    ExperimentSpec,
    FailureSpec,
    FaultSpec,
    MisbehaviorSpec,
    ProtocolSpec,
    ScenarioSpec,
    TrafficSpec,
)

# --------------------------------------------------------------------------
# E1 -- Table 1, measured (bench_table1_design_space)

#: Registry names of the eight design points, in Section 5's walk order.
DESIGN_POINT_NAMES: Tuple[str, ...] = (
    "ecma",
    "idrp",
    "ls-hbh",
    "orwg",
    "ls-hbh-topo",
    "ls-src-topo",
    "topo-vector-src",
    "pv-src",
)


def _table1_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="table1_design_space",
        scenarios=(
            ScenarioSpec(kind="reference", seed=1, num_flows=12 if smoke else 40),
        ),
        protocols=tuple(ProtocolSpec(name) for name in DESIGN_POINT_NAMES),
        evaluate=True,
    )


def _render_table1(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    from repro.core.scorecard import render_scorecard, score_rows_from_records

    return render_scorecard(score_rows_from_records(records))


# --------------------------------------------------------------------------
# E7 -- Scaling with internet size (bench_scaling)

SCALING_SIZES: Tuple[int, ...] = (25, 50, 100, 200, 400)
SCALING_SIZES_SMOKE: Tuple[int, ...] = (25, 50)
SCALING_PROTOCOLS: Tuple[str, ...] = ("idrp", "ecma", "orwg")


def _scaling_spec(smoke: bool) -> ExperimentSpec:
    sizes = SCALING_SIZES_SMOKE if smoke else SCALING_SIZES
    return ExperimentSpec(
        name="scaling",
        scenarios=tuple(
            ScenarioSpec(
                kind="scaled",
                target_ads=size,
                seed=41,
                num_flows=40,
                restrictiveness=0.2,
            )
            for size in sizes
        ),
        protocols=tuple(ProtocolSpec(name) for name in SCALING_PROTOCOLS),
    )


def synthesis_stats(scenario) -> Dict[str, float]:
    """Per-route synthesis cost over a scenario's flow sample.

    The ``ms_per_route`` figure is wall-clock (masked by
    ``check_determinism.py``); ``states_per_route`` is deterministic.
    """
    from repro.core.synthesis import RouteSynthesizer

    syn = RouteSynthesizer(scenario.graph, scenario.policies)
    t0 = time.perf_counter()
    found = sum(syn.route(f) is not None for f in scenario.flows)
    elapsed = (time.perf_counter() - t0) / max(1, len(scenario.flows))
    return dict(
        found=found,
        states_per_route=syn.stats.states_expanded / max(1, syn.stats.dijkstra_runs),
        ms_per_route=elapsed * 1000,
    )


def _render_scaling(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    table = Table(
        "ADs",
        "links",
        "PTs",
        "idrp msgs",
        "idrp KB",
        "ecma msgs",
        "ecma KB",
        "orwg msgs",
        "orwg KB",
        "orwg max RIB",
        "synth states/route",
        "synth ms/route",
        title="E7: growth with internet size (shape-preserving topologies)",
    )
    n_protocols = len(spec.protocols)
    for si, scenario_spec in enumerate(spec.scenarios):
        group = {
            rec.cell["protocol"]: rec
            for rec in records[si * n_protocols : (si + 1) * n_protocols]
        }
        idrp, ecma, orwg = group["idrp"], group["ecma"], group["orwg"]
        syn = synthesis_stats(scenario_spec.build())
        table.add(
            idrp.scenario["num_ads"],
            idrp.scenario["num_links"],
            idrp.scenario["num_terms"],
            idrp.initial.messages,
            f"{idrp.initial.bytes / 1024:.0f}",
            ecma.initial.messages,
            f"{ecma.initial.bytes / 1024:.0f}",
            orwg.initial.messages,
            f"{orwg.initial.bytes / 1024:.0f}",
            orwg.state["max_rib"],
            f"{syn['states_per_route']:.0f}",
            f"{syn['ms_per_route']:.2f}",
        )
    return table.render()


# --------------------------------------------------------------------------
# E4 -- Reconvergence after failures (bench_convergence)

CONVERGENCE_CONTENDERS: Tuple[ProtocolSpec, ...] = (
    ProtocolSpec("naive-dv", label="naive-dv(inf=16)", options=(("infinity", 16),)),
    ProtocolSpec("naive-dv", label="naive-dv(inf=64)", options=(("infinity", 64),)),
    ProtocolSpec("ecma", label="ecma(1 qos)", options=(("qos_classes", ("default",)),)),
    ProtocolSpec("idrp"),
    ProtocolSpec("plain-ls"),
    ProtocolSpec("orwg"),
)


def _convergence_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="convergence",
        scenarios=(ScenarioSpec(kind="reference", seed=17),),
        protocols=CONVERGENCE_CONTENDERS,
        failures=(
            FailureSpec(
                kind="random",
                count=2 if smoke else 5,
                repair=True,
                seed=17,
                label="reroute",
            ),
            FailureSpec(
                kind="stub_partition", count=2 if smoke else 4, label="partition"
            ),
        ),
    )


def episode_cost(record: RunRecord) -> Dict[str, float]:
    """Mean/max per-event reconvergence cost over a record's episodes."""
    msgs = [ep.messages for ep in record.failure_episodes]
    times = [ep.time for ep in record.failure_episodes]
    return dict(
        initial=record.initial.messages,
        mean_msgs=sum(msgs) / len(msgs),
        max_msgs=max(msgs),
        mean_time=sum(times) / len(times),
    )


def _render_convergence(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    table = Table(
        "protocol",
        "initial msgs",
        "reroute msgs/event",
        "partition msgs/event",
        "partition max",
        "partition time",
        title=(
            "E4: reconvergence cost per topology event "
            f"({num_ads} ADs; reroute vs partition events)"
        ),
    )
    n_failures = len(spec.failures)
    for pi, protocol in enumerate(spec.protocols):
        r = episode_cost(records[pi * n_failures])
        p = episode_cost(records[pi * n_failures + 1])
        table.add(
            protocol.display,
            r["initial"],
            f"{r['mean_msgs']:.0f}",
            f"{p['mean_msgs']:.0f}",
            p["max_msgs"],
            f"{p['mean_time']:.0f}",
        )
    return table.render()


# --------------------------------------------------------------------------
# E3 -- Route availability vs policy restrictiveness (bench_availability)

AVAILABILITY_PROTOCOLS: Tuple[str, ...] = (
    "naive-dv",
    "ecma",
    "bgp2",
    "idrp",
    "ls-hbh",
    "orwg",
)
AVAILABILITY_RESTRICTIVENESS: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)
AVAILABILITY_RESTRICTIVENESS_SMOKE: Tuple[float, ...] = (0.0, 0.4)


def _availability_spec(smoke: bool) -> ExperimentSpec:
    sweep = (
        AVAILABILITY_RESTRICTIVENESS_SMOKE if smoke else AVAILABILITY_RESTRICTIVENESS
    )
    topology = (
        ("num_backbones", 2),
        ("regionals_per_backbone", 4),
        ("campuses_per_parent", 4),
        ("seed", 9),
    )
    return ExperimentSpec(
        name="availability",
        scenarios=tuple(
            ScenarioSpec(
                kind="custom",
                seed=9,
                topology=topology,
                restrictiveness=r,
                policy_seed=9,
                flows_seed=10,
                num_flows=16 if smoke else 40,
            )
            for r in sweep
        ),
        protocols=tuple(ProtocolSpec(name) for name in AVAILABILITY_PROTOCOLS),
        evaluate=True,
    )


def _render_availability(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    sweep = [s.restrictiveness for s in spec.scenarios]
    num_flows = spec.scenarios[0].num_flows
    avail = Table(
        "protocol",
        *[f"r={r:.1f}" for r in sweep],
        title="E3a: route availability (found legal / existing legal)",
    )
    illegal = Table(
        "protocol",
        *[f"r={r:.1f}" for r in sweep],
        title=f"E3b: illegal routes produced (of {num_flows} flows)",
    )
    n_protocols = len(spec.protocols)
    for pi, protocol in enumerate(spec.protocols):
        row_a, row_i = [], []
        for si in range(len(spec.scenarios)):
            quality = records[si * n_protocols + pi].route_quality
            row_a.append(f"{quality['availability']:.2f}")
            row_i.append(quality["n_illegal"])
        avail.add(protocol.display, *row_a)
        illegal.add(protocol.display, *row_i)
    return avail.render() + "\n\n" + illegal.render()


# --------------------------------------------------------------------------
# E11 -- Robustness under loss and churn (bench_robustness)

#: Loss levels of the sweep (the lossy points also jitter and duplicate).
ROBUSTNESS_LOSSES: Tuple[float, ...] = (0.0, 0.05, 0.2)
ROBUSTNESS_LOSSES_SMOKE: Tuple[float, ...] = (0.0, 0.05)


def _robustness_fault(loss: float, smoke: bool) -> FaultSpec:
    label = "clean" if loss == 0 else f"{loss:.0%} loss"
    return FaultSpec(
        loss=loss,
        dup=0.01 if loss > 0 else 0.0,
        jitter=2.0 if loss > 0 else 0.0,
        flaps=1 if smoke else 2,
        crashes=1,
        retain_state=False,
        seed=3,
        label=label,
    )


def _robustness_protocols(smoke: bool) -> Tuple[ProtocolSpec, ...]:
    """Every design point, plain and fully hardened (the ablation pair)."""
    names = ("ls-hbh", "orwg") if smoke else DESIGN_POINT_NAMES
    out: List[ProtocolSpec] = []
    for name in names:
        out.append(ProtocolSpec(name))
        out.append(
            ProtocolSpec(
                name, label=f"{name}+h", options=(("hardening", "all"),)
            )
        )
    return tuple(out)


def _robustness_spec(smoke: bool) -> ExperimentSpec:
    losses = ROBUSTNESS_LOSSES_SMOKE if smoke else ROBUSTNESS_LOSSES
    return ExperimentSpec(
        name="robustness",
        scenarios=(
            ScenarioSpec(kind="reference", seed=5, num_flows=12 if smoke else 24),
        ),
        protocols=_robustness_protocols(smoke),
        faults=tuple(_robustness_fault(loss, smoke) for loss in losses),
        evaluate=True,
    )


def _render_robustness(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    fault = spec.faults[0]
    columns = ["protocol"]
    for f in spec.faults:
        columns += [f"{f.display} avail", f"{f.display} ok%", f"{f.display} ttr"]
    table = Table(
        *columns,
        title=(
            "E11: robustness under loss and churn "
            f"({num_ads} ADs; {fault.flaps} link flaps + {fault.crashes} AD "
            "crash/restart, state lost; avail = legal routes found after "
            "repair, ok% = probed data-plane reachability during churn, "
            "ttr = mean time-to-repair; '*' = event budget hit)"
        ),
    )
    n_faults = len(spec.faults)
    for pi, protocol in enumerate(spec.protocols):
        row = [protocol.display]
        for fi in range(n_faults):
            rec = records[pi * n_faults + fi]
            star = "" if rec.quiesced else "*"
            row.append(f"{rec.route_quality['availability']:.2f}{star}")
            row.append(f"{100 * rec.robustness['availability']:.0f}")
            row.append(f"{rec.robustness['mean_ttr']:.0f}")
        table.add(*row)
    return table.render()


# --------------------------------------------------------------------------
# E13 -- Control-plane overload under a churn storm (bench_robustness_churn)

#: Churn-storm flap frequencies (cycles per time unit, per flapped link).
CHURN_RATES: Tuple[float, ...] = (0.1, 0.25)
CHURN_RATES_SMOKE: Tuple[float, ...] = (0.25,)
#: Bounded ingress-queue capacities of the sweep.
CHURN_QUEUES: Tuple[int, ...] = (4, 32)
CHURN_QUEUES_SMOKE: Tuple[int, ...] = (4,)

#: Event budget for E13 cells: deliberately tight (initial convergence
#: needs at most ~23k events on the reference internet), so a protocol
#: that cannot quench the storm *measurably* melts down (hits the
#: limit) instead of burning minutes proving the same thing at 5M
#: events.
CHURN_MAX_EVENTS = 60_000


def _churn_fault(hz: float, capacity: int, smoke: bool) -> FaultSpec:
    return FaultSpec(
        churn_hz=hz,
        churn_links=2 if smoke else 6,
        churn_duration=120.0 if smoke else 240.0,
        queue_capacity=capacity,
        seed=7,
        start_time=50.0,
        spacing=100.0,
        probe_interval=20.0,
        probe_flows=12 if smoke else 24,
        label=f"{hz:g}Hz/q{capacity}",
    )


def _churn_protocols(smoke: bool) -> Tuple[ProtocolSpec, ...]:
    """Every design point raw, hardened, and paced+damped (the E13 triple)."""
    names = ("ls-hbh", "orwg") if smoke else DESIGN_POINT_NAMES
    out: List[ProtocolSpec] = []
    for name in names:
        out.append(ProtocolSpec(name))
        out.append(
            ProtocolSpec(name, label=f"{name}+h", options=(("hardening", "all"),))
        )
        out.append(
            ProtocolSpec(
                name,
                label=f"{name}+pd",
                options=(("hardening", "all"), ("pacing", "all")),
            )
        )
    return tuple(out)


def _churn_spec(smoke: bool) -> ExperimentSpec:
    rates = CHURN_RATES_SMOKE if smoke else CHURN_RATES
    queues = CHURN_QUEUES_SMOKE if smoke else CHURN_QUEUES
    return ExperimentSpec(
        name="robustness_churn",
        scenarios=(
            ScenarioSpec(kind="reference", seed=5, num_flows=12 if smoke else 24),
        ),
        protocols=_churn_protocols(smoke),
        faults=tuple(
            _churn_fault(hz, capacity, smoke)
            for hz in rates
            for capacity in queues
        ),
        evaluate=True,
        max_events=CHURN_MAX_EVENTS,
    )


def _render_churn(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    fault = spec.faults[0]
    table = Table(
        "protocol",
        "storm",
        "avail",
        "ok%",
        "ttr",
        "peakq",
        "drops",
        "sup",
        "paced",
        "duty",
        title=(
            "E13: control-plane overload under a churn storm "
            f"({num_ads} ADs; {fault.churn_links} lateral links flapping "
            "concurrently through a bounded ingress queue; avail = legal "
            "routes found after the storm, ok% = probed reachability during "
            "it, ttr = mean time-to-repair, peakq/drops = worst queue depth "
            "and overflow drops, sup = damped announcements, paced = "
            "deferred update batches, duty = mean ingress service duty "
            "cycle; '*' = event budget hit, i.e. the storm was never "
            "quenched)"
        ),
    )
    n_faults = len(spec.faults)
    for pi, protocol in enumerate(spec.protocols):
        for fi, fault in enumerate(spec.faults):
            rec = records[pi * n_faults + fi]
            star = "" if rec.quiesced else "*"
            overload = rec.overload or {}
            table.add(
                protocol.display,
                fault.display,
                f"{rec.route_quality['availability']:.2f}{star}",
                f"{100 * rec.robustness['availability']:.0f}",
                f"{rec.robustness['mean_ttr']:.0f}",
                overload.get("peak_depth", "-"),
                overload.get("dropped", "-"),
                overload.get("suppressed_announcements", 0)
                + overload.get("suppressions", 0),
                overload.get("paced_deferrals", 0),
                f"{overload.get('duty_cycle', 0.0):.2f}",
            )
    return table.render()


# --------------------------------------------------------------------------
# E12 -- Misbehaving-AD blast radius and containment
# (bench_robustness_misbehavior)

#: The factored lie grid: the role axis is swept for the canonical route
#: leak; every other lie is told by the backbone (the worst-placed liar).
#: A full roles x lies cross would quadruple the grid for rows that only
#: repeat the role effect the leak sweep already shows.
MISBEHAVIOR_LIE_SWEEP: Tuple[str, ...] = (
    "bogus-origin",
    "stale-replay",
    "metric-lie",
    "term-forgery",
)


def _misbehavior_points(smoke: bool) -> Tuple[MisbehaviorSpec, ...]:
    baseline = MisbehaviorSpec(label="baseline")
    leak_backbone = MisbehaviorSpec(lie="route-leak", liar_role="backbone")
    if smoke:
        return (baseline, leak_backbone)
    points = [baseline]
    for role in ("stub", "regional", "backbone"):
        points.append(MisbehaviorSpec(lie="route-leak", liar_role=role))
    for lie in MISBEHAVIOR_LIE_SWEEP:
        points.append(MisbehaviorSpec(lie=lie, liar_role="backbone"))
    return tuple(points)


def _misbehavior_protocols(smoke: bool) -> Tuple[ProtocolSpec, ...]:
    """Every design point, plain and validating (the containment pair)."""
    names = ("ls-hbh", "orwg") if smoke else DESIGN_POINT_NAMES
    out: List[ProtocolSpec] = []
    for name in names:
        out.append(ProtocolSpec(name))
        out.append(
            ProtocolSpec(
                name, label=f"{name}+v", options=(("validation", "all"),)
            )
        )
    return tuple(out)


def _misbehavior_spec(smoke: bool) -> ExperimentSpec:
    # Restrictiveness 0.5 gives the top-degree backbone a genuinely
    # restrictive registered policy, so a route leak has something to
    # leak: flows that legally detour (or are unroutable) divert through
    # the liar once it forges an open term.
    return ExperimentSpec(
        name="robustness_misbehavior",
        scenarios=(
            ScenarioSpec(
                kind="reference", seed=11, num_flows=24, restrictiveness=0.5
            ),
        ),
        protocols=_misbehavior_protocols(smoke),
        misbehaviors=_misbehavior_points(smoke),
    )


def _render_misbehavior(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    table = Table(
        "protocol",
        "lie",
        "liar",
        "told",
        "peak",
        "steady",
        "poisoned",
        "contain",
        "viol",
        "quar",
        "false-q",
        title=(
            "E12: single misbehaving AD -- blast radius and containment "
            f"({num_ads} ADs; told = lie expressible at this design point; "
            "peak/steady = probed flows hijacked or newly broken, at worst "
            "and at end; poisoned = source ADs left holding a route through "
            "the liar; contain = time from lie to a lasting zero blast; "
            "'-' = no validation state, 'never' = blast outlasted the run)"
        ),
    )
    n_mis = len(spec.misbehaviors)
    for pi, protocol in enumerate(spec.protocols):
        for mi, point in enumerate(spec.misbehaviors):
            rec = records[pi * n_mis + mi]
            block = rec.misbehavior
            if block is None:
                table.add(protocol.display, point.display, *["-"] * 9)
                continue
            counters = block["counters"]
            if not point.active:
                told, peak, steady, poisoned, contain = "-", "-", "-", "-", "-"
            else:
                told = "yes" if block["applied"] else "no"
                peak, steady = block["peak_blast"], block["steady_blast"]
                poisoned = block["ads_poisoned"]
                latency = block["containment_latency"]
                if not block["applied"]:
                    contain = "-"
                elif latency is None:
                    contain = "never"
                else:
                    contain = f"{latency:.0f}"
            table.add(
                protocol.display,
                point.display,
                "-" if block["liar"] is None else block["liar"],
                told,
                peak,
                steady,
                poisoned,
                contain,
                counters["violations"],
                counters["quarantines"],
                counters["false_quarantines"],
            )
    return table.render()


# --------------------------------------------------------------------------
# E14 -- Data-plane tail latency under convergence (bench_dataplane)

#: Full-scale workload: a million flows through every design point's
#: compiled FIB at every convergence epoch of the storm.
DATAPLANE_FLOWS = 1_000_000
DATAPLANE_FLOWS_SMOKE = 20_000
DATAPLANE_PAIRS = 4096
DATAPLANE_PAIRS_SMOKE = 256


def _dataplane_fault(smoke: bool) -> FaultSpec:
    """An E11-style churn storm: link flaps then an AD crash/restart,
    probed (and FIB-snapshotted) every ``probe_interval``."""
    return FaultSpec(
        flaps=1 if smoke else 2,
        crashes=1,
        retain_state=False,
        seed=3,
        probe_interval=100.0 if smoke else 50.0,
        probe_flows=8,
        label="storm",
    )


def _dataplane_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="dataplane_tail",
        scenarios=(ScenarioSpec(kind="reference", seed=5, num_flows=12),),
        protocols=tuple(
            ProtocolSpec(name)
            for name in (("ls-hbh", "orwg") if smoke else DESIGN_POINT_NAMES)
        ),
        faults=(_dataplane_fault(smoke),),
        traffics=(
            TrafficSpec(
                flows=DATAPLANE_FLOWS_SMOKE if smoke else DATAPLANE_FLOWS,
                zipf_s=1.1,
                pairs=DATAPLANE_PAIRS_SMOKE if smoke else DATAPLANE_PAIRS,
                seed=14,
            ),
        ),
    )


def _render_dataplane(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    workload = records[0].dataplane["workload"]
    fault = spec.faults[0]
    table = Table(
        "protocol",
        "epochs",
        "gap0",
        "gap-worst",
        "gap-final",
        "out-p99",
        "out-p999",
        "lat-p99",
        "lat-p999",
        "str-p99",
        "fib-KB",
        title=(
            "E14: data-plane tails under convergence "
            f"({num_ads} ADs; {workload['flows']} zipf flows in "
            f"{workload['classes']} classes, s={workload['zipf_s']:g}; "
            f"{fault.flaps} flaps + {fault.crashes} crash, FIB recompiled "
            "at every probe epoch; gap = fraction of flows undelivered at "
            "the converged start / worst epoch / settled end, out-p99/999 "
            "= storm-long outage fraction of the unluckiest 1%/0.1% of "
            "flows, lat/str = delivered-flow latency and stretch tails at "
            "the worst-gap epoch, fib-KB = compiled state; '*' = event "
            "budget hit)"
        ),
    )
    for pi, protocol in enumerate(spec.protocols):
        rec = records[pi]
        block = rec.dataplane
        series = block["series"]
        epochs = series["epochs"]
        worst = max(epochs, key=lambda e: e["reach_gap"])
        star = "" if rec.quiesced else "*"
        table.add(
            protocol.display,
            len(epochs),
            f"{epochs[0]['reach_gap']:.3f}",
            f"{series['worst_gap']:.3f}{star}",
            f"{epochs[-1]['reach_gap']:.3f}",
            f"{series['outage_p99']:.3f}",
            f"{series['outage_p999']:.3f}",
            f"{worst['latency_p99']:.1f}",
            f"{worst['latency_p999']:.1f}",
            f"{worst['stretch_p99']:.2f}",
            f"{block['fib']['bytes'] / 1024:.0f}",
        )
    return table.render()


# --------------------------------------------------------------------------
# E15 -- Rolling restarts + partition chaos, both substrates
# (bench_live_chaos)

#: The E15 design points: both LS-family hop-by-hop points plus one
#: DV-family point per forwarding mode, each measured plain and with
#: graceful restart fully enabled.
LIVE_CHAOS_PROTOCOLS: Tuple[str, ...] = (
    "ls-hbh",
    "ls-hbh-topo",
    "idrp",
    "pv-src",
)
LIVE_CHAOS_FLOWS = 200_000
LIVE_CHAOS_FLOWS_SMOKE = 20_000
LIVE_CHAOS_PAIRS = 1024
LIVE_CHAOS_PAIRS_SMOKE = 256


def _live_chaos_protocols(smoke: bool) -> Tuple[ProtocolSpec, ...]:
    names = ("ls-hbh",) if smoke else LIVE_CHAOS_PROTOCOLS
    out: List[ProtocolSpec] = []
    for name in names:
        out.append(ProtocolSpec(name))
        out.append(
            ProtocolSpec(
                name, label=f"{name}+gr", options=(("graceful", "all"),)
            )
        )
    return tuple(out)


def _live_chaos_fault(smoke: bool) -> FaultSpec:
    return FaultSpec(
        restarts=1 if smoke else 3,
        partitions=1,
        seed=15,
        start_time=100.0,
        spacing=400.0,
    )


def _live_chaos_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="live_chaos",
        scenarios=(
            ScenarioSpec(kind="reference", seed=5, num_flows=12 if smoke else 24),
        ),
        protocols=_live_chaos_protocols(smoke),
        faults=(_live_chaos_fault(smoke),),
        traffics=(
            TrafficSpec(
                flows=LIVE_CHAOS_FLOWS_SMOKE if smoke else LIVE_CHAOS_FLOWS,
                zipf_s=1.1,
                pairs=LIVE_CHAOS_PAIRS_SMOKE if smoke else LIVE_CHAOS_PAIRS,
                seed=15,
            ),
        ),
        substrates=("sim", "live"),
    )


def _render_live_chaos(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    num_ads = records[0].scenario["num_ads"]
    fault = spec.faults[0]
    workload = records[0].dataplane["workload"]
    table = Table(
        "protocol",
        "substrate",
        "gr",
        "avail",
        "gap-worst",
        "out-p99",
        "out-p999",
        "msgs",
        "holds",
        "resyncs",
        "digest",
        title=(
            "E15: rolling-restart + partition chaos, both substrates "
            f"({num_ads} ADs; {fault.restarts} rolling AD restart(s) + "
            f"{fault.partitions} partition window(s); "
            f"{workload['flows']} zipf flows, s={workload['zipf_s']:g}; "
            "avail = mean control-plane routability while each chaos "
            "event is in force, gap-worst = worst-epoch fraction of "
            "flows undelivered, out-p99/999 = chaos-long outage of the "
            "unluckiest 1%/0.1% of flows, msgs = reconvergence messages "
            "across all chaos events, holds/resyncs = graceful-restart "
            "helper activity, digest = post-chaos routes fingerprint "
            "-- equal digests mean identical forwarding state)"
        ),
    )
    for rec in records:
        chaos = rec.chaos
        series = rec.dataplane["series"]
        gsum = chaos["graceful_summary"]
        table.add(
            rec.cell["label"],
            rec.cell["substrate"],
            chaos["graceful"],
            f"{chaos['availability']:.2f}",
            f"{series['worst_gap']:.3f}",
            f"{series['outage_p99']:.3f}",
            f"{series['outage_p999']:.3f}",
            sum(g["messages"] for g in chaos["groups"]),
            gsum["holds"],
            gsum["resyncs"],
            chaos["routes_digest"][:12],
        )
    lines = [table.render()]
    digests: Dict[str, Dict[str, str]] = {}
    for rec in records:
        digests.setdefault(rec.cell["label"], {})[rec.cell["substrate"]] = (
            rec.chaos["routes_digest"]
        )
    footer = [
        f"fidelity {label}: post-chaos routes sim-vs-live "
        + ("IDENTICAL" if subs["sim"] == subs["live"] else "MISMATCH")
        for label, subs in digests.items()
        if "sim" in subs and "live" in subs
    ]
    if footer:
        lines.append("")
        lines.extend(footer)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# E16 -- Mixed-version rolling upgrade, both substrates
# (bench_version_skew)

#: The E16 design points: both LS-family hop-by-hop points plus the
#: IDRP-style path-vector point, every AD starting at wire v1 with
#: negotiation on (the population the rolling upgrade sweeps to the
#: current version).
MIXED_VERSION_PROTOCOLS: Tuple[str, ...] = (
    "ls-hbh",
    "ls-hbh-topo",
    "idrp",
)


def _mixed_version_protocols(smoke: bool) -> Tuple[ProtocolSpec, ...]:
    names = ("ls-hbh",) if smoke else MIXED_VERSION_PROTOCOLS
    return tuple(
        ProtocolSpec(name, options=(("wire", "v1+negotiate"),))
        for name in names
    )


def _mixed_version_fault(smoke: bool) -> FaultSpec:
    return FaultSpec(
        upgrade_waves=2 if smoke else 4,
        rollback=not smoke,
        seed=16,
    )


def _mixed_version_spec(smoke: bool) -> ExperimentSpec:
    return ExperimentSpec(
        name="mixed_version",
        scenarios=(
            ScenarioSpec(kind="reference", seed=5, num_flows=12 if smoke else 24),
        ),
        protocols=_mixed_version_protocols(smoke),
        faults=(_mixed_version_fault(smoke),),
        traffics=(
            TrafficSpec(
                flows=LIVE_CHAOS_FLOWS_SMOKE if smoke else LIVE_CHAOS_FLOWS,
                zipf_s=1.1,
                pairs=LIVE_CHAOS_PAIRS_SMOKE if smoke else LIVE_CHAOS_PAIRS,
                seed=16,
            ),
        ),
        substrates=("sim", "live"),
    )


def _render_version_skew(
    spec: ExperimentSpec, records: Sequence[RunRecord]
) -> str:
    from repro.simul.wire import WIRE_VERSION

    num_ads = records[0].scenario["num_ads"]
    fault = spec.faults[0]
    workload = records[0].dataplane["workload"]
    table = Table(
        "protocol",
        "substrate",
        "waves",
        "upg-msgs",
        "gap-worst",
        "out-p99",
        "pairs",
        "rejected",
        "stable",
        "digest",
        title=(
            "E16: mixed-version rolling upgrade, both substrates "
            f"({num_ads} ADs; wire v1 -> v{WIRE_VERSION} in "
            f"{fault.upgrade_waves} wave(s)"
            + (" + rollback leg" if fault.rollback else "")
            + f"; {workload['flows']} zipf flows, s={workload['zipf_s']:g}; "
            "upg-msgs = reconvergence messages across all waves, "
            "gap-worst = worst-epoch fraction of flows undelivered, "
            "out-p99 = sweep-long outage of the unluckiest 1% of flows, "
            "pairs = negotiated per-neighbour wire versions after the "
            "sweep, rejected = frames refused for unsupported versions, "
            "stable = routes digest matched the pre-upgrade baseline "
            "after every wave -- the upgrade was invisible to routing)"
        ),
    )
    for rec in records:
        v = rec.versioning
        series = rec.dataplane["series"]
        pairs = ",".join(
            f"{k}:{n}"
            for k, n in sorted(v["negotiation"]["pairs"].items())
        )
        table.add(
            rec.cell["label"],
            rec.cell["substrate"],
            len(v["waves"]),
            sum(w["messages"] for w in v["waves"]),
            f"{series['worst_gap']:.3f}",
            f"{series['outage_p99']:.3f}",
            pairs or "-",
            v["version_rejected"],
            "yes" if v["digest_stable"] else "NO",
            v["routes_digest"][:12],
        )
    lines = [table.render()]
    digests: Dict[str, Dict[str, str]] = {}
    for rec in records:
        digests.setdefault(rec.cell["label"], {})[rec.cell["substrate"]] = (
            rec.versioning["routes_digest"]
        )
    footer = [
        f"fidelity {label}: post-upgrade routes sim-vs-live "
        + ("IDENTICAL" if subs["sim"] == subs["live"] else "MISMATCH")
        for label, subs in digests.items()
        if "sim" in subs and "live" in subs
    ]
    if footer:
        lines.append("")
        lines.extend(footer)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Registry + one-call runner

Renderer = Callable[[ExperimentSpec, Sequence[RunRecord]], str]


@dataclass(frozen=True)
class Experiment:
    """A named, harness-driven experiment."""

    name: str
    eid: str
    description: str
    build_spec: Callable[[bool], ExperimentSpec]
    render: Renderer


EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment(
            name="table1_design_space",
            eid="E1",
            description="Table 1 measured across all 8 design points",
            build_spec=_table1_spec,
            render=_render_table1,
        ),
        Experiment(
            name="availability",
            eid="E3",
            description="Route availability vs policy restrictiveness",
            build_spec=_availability_spec,
            render=_render_availability,
        ),
        Experiment(
            name="convergence",
            eid="E4",
            description="Reconvergence after failures (count-to-infinity)",
            build_spec=_convergence_spec,
            render=_render_convergence,
        ),
        Experiment(
            name="scaling",
            eid="E7",
            description="Scaling with internet size",
            build_spec=_scaling_spec,
            render=_render_scaling,
        ),
        Experiment(
            name="robustness",
            eid="E11",
            description="Robustness under message loss and churn",
            build_spec=_robustness_spec,
            render=_render_robustness,
        ),
        Experiment(
            name="robustness_misbehavior",
            eid="E12",
            description="Misbehaving-AD blast radius and containment",
            build_spec=_misbehavior_spec,
            render=_render_misbehavior,
        ),
        Experiment(
            name="robustness_churn",
            eid="E13",
            description="Control-plane overload under a churn storm",
            build_spec=_churn_spec,
            render=_render_churn,
        ),
        Experiment(
            name="dataplane_tail",
            eid="E14",
            description="Data-plane tail latency under convergence",
            build_spec=_dataplane_spec,
            render=_render_dataplane,
        ),
        Experiment(
            name="live_chaos",
            eid="E15",
            description="Rolling-restart + partition chaos, both substrates",
            build_spec=_live_chaos_spec,
            render=_render_live_chaos,
        ),
        Experiment(
            name="mixed_version",
            eid="E16",
            description="Mixed-version rolling upgrade, both substrates",
            build_spec=_mixed_version_spec,
            render=_render_version_skew,
        ),
    )
}


def _parse_liar(value: str) -> Dict[str, Any]:
    """Parse a ``--liar`` override: a role name or ``ad=<id>``."""
    from repro.faults.misbehavior import ROLES

    if value.startswith("ad="):
        try:
            return {"liar_ad": int(value[3:]), "liar_role": "backbone"}
        except ValueError:
            pass
    elif value in ROLES:
        return {"liar_ad": -1, "liar_role": value}
    raise ValueError(
        f"bad liar {value!r} (expected 'ad=<id>' or one of {', '.join(ROLES)})"
    )


def run_experiment(
    name: str,
    jobs: int = 1,
    smoke: bool = False,
    runs_dir: Optional[str] = None,
    trace: Optional[str] = None,
    seed: Optional[int] = None,
    loss: Optional[float] = None,
    liar: Optional[str] = None,
    lie: Optional[str] = None,
    queue_capacity: Optional[int] = None,
    churn_hz: Optional[float] = None,
    pacing: Optional[str] = None,
    flows: Optional[int] = None,
    zipf_s: Optional[float] = None,
    restarts: Optional[int] = None,
    partitions: Optional[int] = None,
    gr: Optional[str] = None,
    wire_version: Optional[str] = None,
    upgrade_waves: Optional[int] = None,
    rollback: Optional[bool] = None,
) -> Tuple[ExperimentSpec, List[RunRecord], str]:
    """Run a named experiment; returns (spec, records, rendered table).

    ``smoke`` switches to the reduced grid *and* renames the experiment
    to ``<name>_smoke`` so smoke artifacts never overwrite the full
    (determinism-checked) ones.  ``seed`` replaces the spec's seed axis
    with a single seed (re-seeding every scenario); ``loss`` overrides
    the message-loss probability of every fault axis point (duplicate
    points after the override collapse, preserving order).  ``liar``
    (``'ad=<id>'`` or a role name) and ``lie`` (a lie kind, applied to
    the active misbehavior points only) override the misbehavior axis
    the same way.  ``queue_capacity`` (negative removes the queue) and
    ``churn_hz`` override every fault point's ingress queue and churn
    storm; ``pacing`` (``'off'``, a feature name, or ``'full'``)
    replaces every protocol point's pacing option; ``flows`` and
    ``zipf_s`` override the active traffic points (the E14 workload
    size and skew).  ``restarts`` and ``partitions`` override every
    fault point's chaos program (E15), and ``gr`` (``'off'`` or a
    graceful-restart scope) replaces every protocol point's graceful
    option the same way ``pacing`` does.  ``upgrade_waves`` and
    ``rollback`` override every fault point's upgrade program (E16),
    and ``wire_version`` (``'off'`` or a wire spec like ``'v1'``,
    ``'v2'``, ``'v1+negotiate'``) replaces every protocol point's wire
    option the same way ``gr`` does.
    """
    try:
        experiment = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        ) from None
    spec = experiment.build_spec(smoke)
    if smoke:
        spec = replace(spec, name=f"{spec.name}_smoke")
    if trace is not None:
        spec = replace(spec, trace=trace)
    if seed is not None:
        spec = replace(spec, seeds=(seed,))
    if loss is not None:
        overridden = []
        for fault in spec.faults:
            fault = replace(fault, loss=loss, label=None)
            if fault not in overridden:
                overridden.append(fault)
        spec = replace(spec, faults=tuple(overridden))
    if queue_capacity is not None or churn_hz is not None:
        fields: Dict[str, Any] = {}
        if queue_capacity is not None:
            fields["queue_capacity"] = None if queue_capacity < 0 else queue_capacity
        if churn_hz is not None:
            fields["churn_hz"] = churn_hz
        overridden = []
        for fault in spec.faults:
            fault = replace(fault, label=None, **fields)
            if fault not in overridden:
                overridden.append(fault)
        spec = replace(spec, faults=tuple(overridden))
    if pacing is not None:
        from repro.protocols.pacing import pacing_from

        pacing_from(pacing)  # validate early
        protocols = []
        for point in spec.protocols:
            options = tuple(
                (k, v) for k, v in point.options if k != "pacing"
            )
            if pacing != "off":
                options = options + (("pacing", pacing),)
            point = replace(point, options=options)
            if point not in protocols:
                protocols.append(point)
        spec = replace(spec, protocols=tuple(protocols))
    if restarts is not None or partitions is not None:
        fields = {}
        if restarts is not None:
            if restarts < 0:
                raise ValueError("--restarts must be non-negative")
            fields["restarts"] = restarts
        if partitions is not None:
            if partitions < 0:
                raise ValueError("--partitions must be non-negative")
            fields["partitions"] = partitions
        overridden = []
        for fault in spec.faults:
            fault = replace(fault, label=None, **fields)
            if fault not in overridden:
                overridden.append(fault)
        spec = replace(spec, faults=tuple(overridden))
    if upgrade_waves is not None or rollback is not None:
        fields = {}
        if upgrade_waves is not None:
            if upgrade_waves < 0:
                raise ValueError("--upgrade-waves must be non-negative")
            fields["upgrade_waves"] = upgrade_waves
        if rollback is not None:
            fields["rollback"] = rollback
        overridden = []
        for fault in spec.faults:
            fault = replace(fault, label=None, **fields)
            if fault not in overridden:
                overridden.append(fault)
        spec = replace(spec, faults=tuple(overridden))
    if wire_version is not None:
        from repro.protocols.versioning import wire_from

        wire_from(wire_version)  # validate early
        protocols = []
        for point in spec.protocols:
            options = tuple((k, v) for k, v in point.options if k != "wire")
            if wire_version != "off":
                options = options + (("wire", wire_version),)
            point = replace(point, options=options)
            if point not in protocols:
                protocols.append(point)
        spec = replace(spec, protocols=tuple(protocols))
    if gr is not None:
        from repro.protocols.graceful import graceful_from

        graceful_from(gr)  # validate early
        protocols = []
        for point in spec.protocols:
            options = tuple(
                (k, v) for k, v in point.options if k != "graceful"
            )
            if gr != "off":
                options = options + (("graceful", gr),)
            point = replace(point, options=options)
            if point not in protocols:
                protocols.append(point)
        spec = replace(spec, protocols=tuple(protocols))
    if flows is not None or zipf_s is not None:
        fields = {}
        if flows is not None:
            if flows <= 0:
                raise ValueError("--flows must be positive")
            fields["flows"] = flows
        if zipf_s is not None:
            if zipf_s < 0:
                raise ValueError("--zipf-s must be non-negative")
            fields["zipf_s"] = zipf_s
        overridden = []
        for point in spec.traffics:
            if point.active:
                point = replace(point, label=None, **fields)
            if point not in overridden:
                overridden.append(point)
        spec = replace(spec, traffics=tuple(overridden))
    if liar is not None or lie is not None:
        from repro.faults.misbehavior import LIES

        if lie is not None and lie not in LIES:
            raise ValueError(
                f"bad lie {lie!r} (expected one of {', '.join(LIES)})"
            )
        liar_fields = {} if liar is None else _parse_liar(liar)
        overridden = []
        for point in spec.misbehaviors:
            fields = dict(liar_fields)
            # A lie override turns inert baseline points into liars too;
            # a liar override alone leaves the baseline lie-free.
            if lie is not None:
                fields["lie"] = lie
            if point.active or "lie" in fields:
                point = replace(point, label=None, **fields)
            if point not in overridden:
                overridden.append(point)
        spec = replace(spec, misbehaviors=tuple(overridden))
    records = ExperimentSession(spec, out_dir=runs_dir).run(jobs=jobs)
    return spec, records, experiment.render(spec, records)
