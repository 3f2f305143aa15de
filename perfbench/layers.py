"""Which library entry points a traced run wraps, and the per-layer
metrics derived from them.

Each wrapped call is a public entry point into one layer; the comment
on each group names the end-to-end metric that layer should move.
"""

from __future__ import annotations

from statistics import median
from typing import Dict

from repro.core import synthesis
from repro.live import network as live_network
from repro.live import runner as live_runner
from repro.policy.database import PolicyDatabase
from repro.policy.sets import ADSet
from repro.protocols import base, lshbh
from repro.protocols.ecma import ECMANode
from repro.protocols.idrp import IDRPNode
from repro.simul.network import SimNetwork
from repro.traffic import fib as traffic_fib
from repro.traffic.replay import TrafficReplay

from stats import percentile
from tracing import WINDOW, Tracer
from workloads import Run

#: Node class of each protocol the workloads run, for handler layers.
HANDLER_NODES = (("ls-hbh", lshbh.LSHbHNode), ("idrp", IDRPNode), ("ecma", ECMANode))


def instrument(tracer: Tracer) -> None:
    """Register a wrapper around every layer's entry points."""
    # Engine: events_per_s on sim_dv_churn.  Self time = run minus handlers.
    def events(n: object) -> None:
        tracer.count("simul.engine.events", n)

    tracer.wrap(SimNetwork, "run", "simul.engine", on_result=events)
    tracer.wrap(SimNetwork, "set_link_status", "simul.engine")
    # Handlers and protocol timers (the DV trigger-delayed flush):
    # events_per_s / episode_p90_s on sim_dv_churn, episode_p50_s on
    # live_ls_flap.
    for name, node_cls in HANDLER_NODES:
        tracer.wrap(node_cls, "receive", f"protocols.{name}.handler")
        tracer.wrap_callbacks(node_cls, "schedule", f"protocols.{name}.timer")
    # Policy evaluation: query_p50_us on sim_ls_read, events_per_s
    # on sim_dv_churn (idrp scope algebra).
    tracer.wrap_leaf(PolicyDatabase, "permitting_term", "policy.database.permitting_term")
    for op in ("intersect", "union", "is_subset_of"):
        tracer.wrap_leaf(ADSet, op, "policy.sets")
    # Read path and synthesis: query_p50_us / query_p99_us /
    # episode_p50_s on sim_ls_read.
    tracer.wrap(base.RoutingProtocol, "find_route", "protocols.find_route")
    tracer.wrap(lshbh.LSHbHNode, "flow_route", "protocols.lshbh.flow_route")
    tracer.wrap(lshbh, "synthesize_route", "core.synthesis")
    tracer.wrap(synthesis, "synthesize_route", "core.synthesis")
    # Data plane: episode_p50_s and wall_s on sim_ls_read.
    def fib_stats(fib: object) -> None:
        tracer.count("traffic.fib.classes", fib.stats.classes)
        tracer.count("traffic.fib.bytes", fib.stats.bytes)

    tracer.wrap(traffic_fib, "compile_fib", "traffic.fib.compile", on_result=fib_stats)
    tracer.wrap(TrafficReplay, "replay", "traffic.replay")
    # Wire codec and live transport: events_per_s and episode_p50_s
    # on live_ls_flap.
    def frame_bytes(frame: object) -> None:
        tracer.count("simul.wire.encode_bytes", len(frame))

    tracer.wrap(live_network, "encode_frame", "simul.wire.encode", on_result=frame_bytes)
    tracer.wrap(live_network, "decode_frame_ex", "simul.wire.decode")
    tracer.wrap(live_network.LiveNetwork, "send", "live.network.send")
    tracer.wrap_async(live_runner, "settle", "live.settle")


IDLE = "live.settle.idle_wait_s"

#: Every per-layer metric: name -> unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "simul.engine.events": "count",
    "simul.engine.busy_s": "s",
    "simul.engine.self_s": "s",
    **{
        f"protocols.{name}.{key}": unit
        for name, _ in HANDLER_NODES
        for key, unit in (
            ("handler_calls", "count"),
            ("handler_busy_s", "s"),
            ("timer_calls", "count"),
            ("timer_busy_s", "s"),
        )
    },
    "protocols.flood_s": "s",
    "protocols.spf_s": "s",
    "protocols.find_route.calls": "count",
    "protocols.find_route.self_s": "s",
    "policy.database.permitting_term.calls": "count",
    "policy.database.permitting_term.busy_s": "s",
    "policy.sets.calls": "count",
    "policy.sets.busy_s": "s",
    "core.synthesis.calls": "count",
    "core.synthesis.busy_s": "s",
    "core.synthesis.us_per_call": "us",
    "protocols.lshbh.flow_route.calls": "count",
    "protocols.lshbh.flow_route.self_s": "s",
    "protocols.lshbh.route_cache_hit_ratio": "ratio",
    "protocols.lshbh.cache_rebuilds": "count",
    "traffic.fib.compile_calls": "count",
    "traffic.fib.compile_busy_s": "s",
    "traffic.fib.classes": "count",
    "traffic.fib.bytes": "bytes",
    "traffic.replay.busy_s": "s",
    "simul.wire.encode_calls": "count",
    "simul.wire.encode_busy_s": "s",
    "simul.wire.encode_bytes": "bytes",
    "simul.wire.decode_calls": "count",
    "simul.wire.decode_busy_s": "s",
    "simul.wire.us_per_frame": "us",
    "live.network.send_self_s": "s",
    "live.loop.lag_p50_ms": "ms",
    "live.loop.lag_p99_ms": "ms",
    "live.settle.idle_wait_s": "s",
    "live.send_retries": "count",
    "live.send_drops": "count",
    "setup.scenario_s": "s",
    "setup.build_s": "s",
    "setup.workload_s": "s",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer(run: Run, tracer: Tracer, untraced_wall_s: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER_UNITS` metric of one traced run."""
    layers = tracer.layers()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def layer(name: str) -> Dict[str, float]:
        return layers.get(name, empty)

    out: Dict[str, float] = {
        "simul.engine.events": tracer.counts.get("simul.engine.events", 0),
        "simul.engine.busy_s": layer("simul.engine")["busy_s"],
        "simul.engine.self_s": layer("simul.engine")["self_s"],
    }
    for name, _ in HANDLER_NODES:
        for kind in ("handler", "timer"):
            row = layer(f"protocols.{name}.{kind}")
            out[f"protocols.{name}.{kind}_calls"] = row["calls"]
            out[f"protocols.{name}.{kind}_busy_s"] = row["busy_s"]
    out["protocols.flood_s"] = run.phases.get("proto.flood", 0.0)
    out["protocols.spf_s"] = run.phases.get("proto.spf", 0.0)
    for name in ("protocols.find_route", "protocols.lshbh.flow_route"):
        out[f"{name}.calls"] = layer(name)["calls"]
        out[f"{name}.self_s"] = layer(name)["self_s"]
    for name in ("policy.database.permitting_term", "policy.sets", "core.synthesis"):
        out[f"{name}.calls"] = layer(name)["calls"]
        out[f"{name}.busy_s"] = layer(name)["busy_s"]
    out["core.synthesis.us_per_call"] = _per_call_us(layer("core.synthesis"))
    flow_routes = layer("protocols.lshbh.flow_route")["calls"]
    out["protocols.lshbh.route_cache_hit_ratio"] = (
        1.0 - layer("core.synthesis")["calls"] / flow_routes if flow_routes else 0.0
    )
    out["protocols.lshbh.cache_rebuilds"] = run.cache_rebuilds
    compile_ = layer("traffic.fib.compile")
    out["traffic.fib.compile_calls"] = compile_["calls"]
    out["traffic.fib.compile_busy_s"] = compile_["busy_s"]
    out["traffic.fib.classes"] = tracer.counts.get("traffic.fib.classes", 0)
    out["traffic.fib.bytes"] = tracer.counts.get("traffic.fib.bytes", 0)
    out["traffic.replay.busy_s"] = layer("traffic.replay")["busy_s"]
    encode, decode = layer("simul.wire.encode"), layer("simul.wire.decode")
    out["simul.wire.encode_calls"] = encode["calls"]
    out["simul.wire.encode_busy_s"] = encode["busy_s"]
    out["simul.wire.encode_bytes"] = tracer.counts.get("simul.wire.encode_bytes", 0)
    out["simul.wire.decode_calls"] = decode["calls"]
    out["simul.wire.decode_busy_s"] = decode["busy_s"]
    out["simul.wire.us_per_frame"] = (
        1e6 * (encode["busy_s"] + decode["busy_s"]) / encode["calls"] if encode["calls"] else 0.0
    )
    out["live.network.send_self_s"] = layer("live.network.send")["self_s"]
    lag_ok = len(run.lag) >= 1000
    out["live.loop.lag_p50_ms"] = 1e3 * percentile(run.lag, 50) if lag_ok else 0.0
    out["live.loop.lag_p99_ms"] = 1e3 * percentile(run.lag, 99) if lag_ok else 0.0
    out[IDLE] = run.idle_wait_s
    out["live.send_retries"] = run.send_retries
    out["live.send_drops"] = run.send_drops
    for i, name in enumerate(("scenario_s", "build_s", "workload_s")):
        out[f"setup.{name}"] = median(parts[i] for parts in run.setup)
    # Layer times are raw seconds of the traced run; put them in
    # reference-host seconds like every other time the benchmark reports.
    # (Set-up parts already are; idle waits are fixed and never scaled.)
    speed = median(run.speeds)
    for key, unit in PER_LAYER_UNITS.items():
        if unit in ("s", "ms", "us") and not key.startswith("setup.") and key != IDLE:
            out[key] *= speed
    window = layer(WINDOW)
    out["trace.unattributed_frac"] = window["self_s"] / window["busy_s"]
    out["trace.overhead_frac"] = run.wall_s / untraced_wall_s - 1.0
    return out


def _per_call_us(row: Dict[str, float]) -> float:
    return 1e6 * row["busy_s"] / row["calls"] if row["calls"] else 0.0

