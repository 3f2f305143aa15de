"""The live asyncio/UDP substrate: lifecycle, timers, crash/restart.

The same protocol code that runs in the discrete-event engine runs here
over real loopback sockets; these tests pin the transport contract (the
clock, the timer semantics, the node lifecycle) and the headline
behaviours: a live run converges to the same routes as a sim run, and a
killed-and-restarted AD relearns the internet, honouring the
non-volatile state carried across a stateless restart.
"""

import asyncio

import pytest

from repro.faults.plan import FaultPlan, LinkFault, NodeFault, link_flap_plan
from repro.live import (
    LiveClock,
    LiveNetwork,
    NodeState,
    fidelity_report,
    format_report,
    run_live,
    settle,
)
from repro.policy.flows import FlowSpec
from repro.policy.generators import open_policies
from repro.protocols.registry import make_protocol
from repro.simul.runner import converge, run_with_failures
from repro.simul.transport import TimerHandle
from repro.workloads.scenarios import reference_scenario

from .helpers import mk_graph

#: Fast-but-safe live timing for tests: 2 ms per protocol unit, settle
#: after 50 ms of silence, give up after a minute of wall clock.
TIME_SCALE = 0.002
SETTLE = dict(time_scale=TIME_SCALE, idle_window_s=0.05, timeout_s=60.0)


def ring8():
    """Eight transit ADs in a ring: every link is flap/crash-safe."""
    return mk_graph(
        [(i, "Rt") for i in range(8)],
        [(i, (i + 1) % 8) for i in range(8)],
    )


def _live_protocol(graph):
    policies = open_policies(graph).policies
    return make_protocol("plain-ls", graph, policies, substrate="live")


def _sim_routes(graph):
    """Converged sim forwarding as ground truth for the live run."""
    proto = make_protocol("plain-ls", graph.copy(),
                          open_policies(graph).policies.copy())
    converge(proto.build())
    return proto


def _all_pairs(graph):
    ads = sorted(graph.ad_ids())
    return [FlowSpec(src=s, dst=d) for s in ads for d in ads if s != d]


# ------------------------------------------------------------------ clock


def test_live_timer_fires_and_cancel_after_fire_is_harmless():
    async def scenario():
        clock = LiveClock(asyncio.get_running_loop(), time_scale=0.001)
        fired = []
        handle = clock.call_later(5.0, fired.append, "a")
        assert isinstance(handle, TimerHandle)
        assert clock.pending_timers == 1
        await asyncio.sleep(0.05)
        assert fired == ["a"]
        assert clock.pending_timers == 0
        # The transport-wide contract: cancelling a fired timer is a
        # no-op, idempotent, and never corrupts the pending count.
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        assert clock.pending_timers == 0

    asyncio.run(scenario())


def test_live_timer_cancel_before_fire_prevents_firing():
    async def scenario():
        clock = LiveClock(asyncio.get_running_loop(), time_scale=0.001)
        fired = []
        handle = clock.call_later(5.0, fired.append, "a")
        handle.cancel()
        assert clock.pending_timers == 0
        await asyncio.sleep(0.02)
        assert fired == []

    asyncio.run(scenario())


def test_live_clock_runs_in_protocol_units():
    async def scenario():
        clock = LiveClock(asyncio.get_running_loop(), time_scale=0.001)
        await asyncio.sleep(0.02)
        assert clock.now >= 15.0  # ~20 units elapsed, generous margin

    asyncio.run(scenario())


# ------------------------------------------------------------------ smoke


def test_smoke_8ads_converges_to_sim_routes():
    graph = ring8()
    proto = _live_protocol(graph.copy())
    result = run_live(proto, **SETTLE)
    assert result.quiesced
    assert result.initial.messages > 0

    reference = _sim_routes(graph)
    for flow in _all_pairs(graph):
        assert proto.find_route(flow) == reference.find_route(flow), flow


def test_smoke_8ads_link_flap_episodes():
    graph = ring8()
    proto = _live_protocol(graph.copy())
    plan = FaultPlan((LinkFault(10.0, 0, 1, up=False),
                      LinkFault(20.0, 0, 1, up=True)))
    result = run_live(proto, plan, **SETTLE)
    assert result.quiesced
    assert [ep.label for ep in result.episodes] == [
        "link 0-1 down", "link 0-1 up",
    ]
    # Both episodes cost something: the flap was actually noticed.
    assert all(ep.result.messages > 0 for ep in result.episodes)
    reference = _sim_routes(graph)
    for flow in _all_pairs(graph):
        assert proto.find_route(flow) == reference.find_route(flow), flow


def test_lifecycle_states_after_close():
    graph = ring8()
    proto = _live_protocol(graph.copy())
    run_live(proto, **SETTLE)
    network = proto.network
    assert isinstance(network, LiveNetwork)
    states = network.lifecycle_states()
    assert set(states) == set(graph.ad_ids())
    assert all(state is NodeState.STOPPED for state in states.values())


def test_send_to_non_neighbor_rejected():
    async def scenario():
        graph = ring8()
        proto = _live_protocol(graph)
        network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
        proto.build(network=network)
        await network.start()
        try:
            await settle(network, idle_window_s=0.05, timeout_s=60.0)
            from repro.protocols.egp import NRAck

            with pytest.raises(ValueError, match="not neighbour"):
                network.send(0, 4, NRAck(seq=1))
        finally:
            await network.close()

    asyncio.run(scenario())


# -------------------------------------------------------------- crash/restart


def test_stateless_restart_reconverges_and_inherits_nonvolatile():
    async def scenario():
        graph = ring8()
        proto = _live_protocol(graph)
        network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
        proto.build(network=network)
        await network.start()
        assert await settle(network, idle_window_s=0.05, timeout_s=60.0)

        victim = 3
        old_node = network.nodes[victim]
        old_seq = old_node._seq
        assert old_seq > 0  # it originated at least one LSA

        proto.crash_node(victim, retain_state=False)
        assert network.is_crashed(victim)
        assert await settle(network, idle_window_s=0.05, timeout_s=60.0)

        proto.restore_node(victim)
        assert not network.is_crashed(victim)
        assert await settle(network, idle_window_s=0.05, timeout_s=60.0)

        new_node = network.nodes[victim]
        # The process was replaced wholesale...
        assert new_node is not old_node
        # ...but the NVRAM seq register survived (inherit_nonvolatile),
        # so its post-restart LSAs are not rejected as stale replays.
        assert new_node._seq > old_seq
        return graph, proto

    graph, proto = asyncio.run(scenario())
    reference = _sim_routes(graph)
    for flow in _all_pairs(graph):
        assert proto.find_route(flow) == reference.find_route(flow), flow


def test_node_fault_plan_drives_crash_restart():
    graph = ring8()
    proto = _live_protocol(graph.copy())
    plan = FaultPlan((NodeFault(10.0, 5, up=False, retain_state=False),
                      NodeFault(40.0, 5, up=True, retain_state=False)))
    result = run_live(proto, plan, **SETTLE)
    assert result.quiesced
    assert not proto.is_crashed(5)
    reference = _sim_routes(graph)
    for flow in _all_pairs(graph):
        assert proto.find_route(flow) == reference.find_route(flow), flow


# ---------------------------------------------------------------- fidelity


def test_fidelity_small_scenario_routes_identical():
    report = fidelity_report(
        protocol="plain-ls",
        scenario="small",
        seed=0,
        flaps=2,
        time_scale=TIME_SCALE,
        timeout_s=120.0,
    )
    assert report.live_quiesced
    assert report.routes_identical, format_report(report)
    assert report.pairs_compared == report.ads * (report.ads - 1)
    # One initial episode plus down+up per flap, on both substrates.
    assert len(report.sim_times) == 1 + 2 * report.flaps
    assert len(report.live_times) == len(report.sim_times)
    assert "IDENTICAL" in format_report(report)


#: ECMA runs one QOS table (the E1 "ecma(1 qos)" cell): its three-table
#: run carries 3x the frames and alone would take most of the live
#: smoke job's 30 s budget.
DV_POINTS = [("idrp", {}), ("ecma", {"qos_classes": ("default",)})]


@pytest.mark.parametrize("name, options", DV_POINTS, ids=["idrp", "ecma-1qos"])
def test_dv_flap_episodes_settle_to_sim_tables(name, options):
    """A DV node answers a link change only from its trigger-delayed
    flush timer, so settle() must count the change itself as activity:
    otherwise it returns before the flush, every episode reads 0 frames,
    and a frame sent after close() raises."""
    scn = reference_scenario(seed=0)
    plan = link_flap_plan(scn.graph, flaps=3, seed=0)
    proto = make_protocol(name, scn.graph, scn.policies, substrate="live", **options)
    result = run_live(proto, plan, time_scale=0.005, idle_window_s=0.05,
                      timeout_s=60.0)
    assert result.quiesced
    assert len(result.episodes) == 6
    assert all(ep.result.events > 0 for ep in result.episodes)

    twin_scn = reference_scenario(seed=0)
    twin = make_protocol(name, twin_scn.graph, twin_scn.policies, **options)
    run_with_failures(twin.build(), plan)
    attr = "table" if name == "ecma" else "loc"
    for ad_id in scn.graph.ad_ids():
        assert (getattr(proto.network.node(ad_id), attr)
                == getattr(twin.network.node(ad_id), attr)), ad_id


# ------------------------------------------------------------------ misuse


def test_run_live_rejects_prebuilt_protocol():
    graph = ring8()
    policies = open_policies(graph).policies
    proto = make_protocol("plain-ls", graph, policies)
    proto.build()
    with pytest.raises(RuntimeError, match="already built"):
        run_live(proto)


def test_sim_only_machinery_raises_on_live():
    async def scenario():
        graph = ring8()
        network = LiveNetwork(graph, time_scale=TIME_SCALE)
        with pytest.raises(NotImplementedError):
            network.set_channel(None)
        with pytest.raises(NotImplementedError):
            network.set_ingress(None)

    asyncio.run(scenario())


def test_converge_refuses_live_substrate():
    graph = ring8()
    proto = _live_protocol(graph)

    async def scenario():
        network = LiveNetwork(proto.graph, time_scale=TIME_SCALE)
        proto.build(network=network)
        with pytest.raises(RuntimeError, match="live"):
            proto.converge()
        await network.close()

    asyncio.run(scenario())
