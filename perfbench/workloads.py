"""The benchmark's three workloads, their inputs and their oracles.

Every workload is closed-loop with one caller: a perturbation (one link
fail or repair) is applied only after the previous episode quiesced,
and queries are issued back to back.  A run is a fixed list of
*passes*; each pass builds one internet of a fixed corpus, converges
it, and plays its fixed panel of link flaps and flow reads in an order
shuffled by the run's seed (README.md says why the seed does not pick
the panel).

Time is measured in *windows*: initial convergence, and each episode
from its perturbation through quiescence and the reads that follow.
Set-up is timed separately; oracle work runs between windows and is
never timed.  Raw seconds are converted to reference-host seconds with
:func:`host_speed` probes.  With a :class:`~tracing.Tracer` the same
code runs with wrappers installed inside the windows only.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import heapq
import random
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adgraph.failures import safe_failure_candidates
from repro.core.evaluation import sample_flows
from repro.live import runner as live_runner
from repro.live.network import LiveNetwork
from repro.policy.flows import FlowSpec
from repro.protocols.registry import make_protocol
from repro.simul import runner as sim_runner
from repro.simul.profiling import PhaseProfiler
from repro.traffic import fib as traffic_fib
from repro.traffic.replay import TrafficReplay
from repro.traffic.workload import FlowWorkload, WorkloadSpec, zipf_workload
from repro.workloads.scenarios import reference_scenario, scaled_scenario

from tracing import Tracer

#: Live substrate settings (the E15/E16 values).
LIVE_TIME_SCALE = 0.005
LIVE_IDLE_WINDOW_S = 0.05
LIVE_SETTLE_TIMEOUT_S = 60.0
#: Loop-lag probe period of traced live runs (wall seconds).
LAG_PROBE_S = 0.005
#: Each pass builds its inputs this many times; setup_s is the median.
SETUP_REPEATS = 3
#: Seconds :func:`reference_work` takes on the reference host (a 2-CPU
#: x86-64 container at its faster speed), the unit of :func:`host_speed`.
REFERENCE_S = 0.0004
#: A timing is scaled by the median of the probes this close to its own.
SPEED_NEIGHBOURS = 3


@dataclass(frozen=True)
class PassSpec:
    """One internet of a run: protocol, internet, episodes and reads."""

    protocol: str
    ads: int  # 63 selects the reference internet
    scenario: int  # seed of the internet itself (fixed, see README)
    episodes: int
    flows: int  # sampled flows read after every episode
    classes: int = 0  # zipf classes compiled into the FIB (sim_ls_read)
    zipf_flows: int = 0
    legacy_sample: int = 0  # classes checked against the legacy forwarder


class PassClock:
    """Raw seconds measured during one pass.

    A host-speed probe is taken before every build and every window;
    each timing is filed under the latest probe.  When the pass ends
    (:meth:`Run.add`) every timing is scaled by the median of the
    probes within :data:`SPEED_NEIGHBOURS` of its own, which follows
    the host's drift over seconds without the jitter of one probe.
    """

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.setup: List[Tuple[int, Tuple[float, float, float]]] = []
        self.episodes: List[Tuple[int, float]] = []
        self.queries: List[Tuple[int, float]] = []
        #: Windowed wall seconds that run program code.
        self.busy: List[Tuple[int, float]] = []
        #: The control-plane part of ``busy``.
        self.control: List[Tuple[int, float]] = []
        #: Live settle idle windows: fixed waits, never scaled.
        self.idle = 0.0

    def probe(self) -> None:
        self.probes.append(host_speed())

    def file(self, column: List[Tuple[int, object]], value: object) -> None:
        column.append((len(self.probes) - 1, value))

    def speeds(self) -> List[float]:
        probes, k = self.probes, SPEED_NEIGHBOURS
        return [median(probes[max(0, i - k):i + k + 1]) for i in range(len(probes))]


@dataclass
class Run:
    """Everything one run of one workload measured.

    Times are reference-host seconds; ``raw_*`` keep the unscaled
    figures for the record.
    """

    workload: str
    seed: int
    #: Per build: (scenario_s, build_s, workload_s).
    setup: List[Tuple[float, float, float]] = field(default_factory=list)
    wall_s: float = 0.0
    control_s: float = 0.0
    control_events: int = 0
    episodes: List[float] = field(default_factory=list)
    queries: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    passes: List[Dict[str, object]] = field(default_factory=list)
    #: Seconds the live settles spent in their idle window.
    idle_wait_s: float = 0.0
    send_retries: int = 0
    send_drops: int = 0
    cache_rebuilds: int = 0
    lag: List[float] = field(default_factory=list)
    phases: Dict[str, float] = field(default_factory=dict)
    #: Every host-speed probe of the run.
    speeds: List[float] = field(default_factory=list)
    raw_episodes: List[float] = field(default_factory=list)
    raw_queries: List[float] = field(default_factory=list)
    raw_wall_s: float = 0.0
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def add(self, clock: PassClock) -> None:
        """Fold one pass's raw timings in, in reference-host seconds."""
        speed = clock.speeds()
        self.speeds += clock.probes
        self.setup += [tuple(speed[i] * t for t in parts) for i, parts in clock.setup]
        self.episodes += [speed[i] * t for i, t in clock.episodes]
        self.queries += [speed[i] * t for i, t in clock.queries]
        self.wall_s += sum(speed[i] * t for i, t in clock.busy) + clock.idle
        self.control_s += sum(speed[i] * t for i, t in clock.control)
        self.idle_wait_s += clock.idle
        self.raw_episodes += [t for _, t in clock.episodes]
        self.raw_queries += [t for _, t in clock.queries]
        self.raw_wall_s += sum(t for _, t in clock.busy) + clock.idle

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def note(self, *items: object) -> None:
        """Fold a result into the run's results digest."""
        self._digest.update(repr(items).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]


# -------------------------------------------------------------- host speed


def reference_work() -> int:
    """A fixed slice of interpreter work: dict, heap and tuple traffic,
    the operations the engine and the protocol handlers are made of."""
    table: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []
    for i in range(1500):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + 1
        if i & 3 == 0:
            heapq.heappush(heap, (key, i))
    while heap:
        heapq.heappop(heap)
    return len(table)


def host_speed() -> float:
    """How fast the host runs Python right now, relative to the
    reference host: :data:`REFERENCE_S` over the best of three timings
    of :func:`reference_work`.

    The host this benchmark was tuned on changes speed by up to 2x
    within a minute, and the probe follows those shifts: over 120 s of
    one repeated ``sim_ls_read`` episode, 15-second medians of the raw
    time ranged from 0.16 s to 0.27 s, while the scaled time stayed
    within +-5%.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        reference_work()
        best = min(best, perf_counter() - t0)
    return REFERENCE_S / best


# ------------------------------------------------------------------ inputs


def derive(*labels: object) -> int:
    """A seed for one input stream, from labels (stable across hosts)."""
    text = ":".join(str(x) for x in labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def flap_plan(graph, episodes: int, panel: int, order: int) -> List[Tuple[int, int, bool]]:
    """``episodes`` link changes over the pass's flap panel.

    The panel -- ``episodes / 2`` non-bridge links, or every one if the
    internet has fewer -- is fixed by ``panel``; ``order`` shuffles it,
    and a short panel is played again.  Each link fails and is then
    repaired, so at most one link is down and the internet stays
    connected.
    """
    candidates = safe_failure_candidates(graph)
    links = random.Random(panel).sample(candidates, min(len(candidates), (episodes + 1) // 2))
    random.Random(order).shuffle(links)
    changes = [(a, b, up) for a, b in links for up in (False, True)]
    return [changes[i % len(changes)] for i in range(episodes)]


def build_scenario(spec: PassSpec):
    if spec.ads == 63:
        return reference_scenario(seed=spec.scenario)
    return scaled_scenario(spec.ads, seed=spec.scenario)


@dataclass
class World:
    """A pass's built inputs: internet, protocol, substrate, plans."""

    scn: object
    protocol: object
    network: object
    plan: List[Tuple[int, int, bool]]
    flows: List[FlowSpec]  # read after every episode
    workload: Optional[FlowWorkload] = None
    replay: Optional[TrafficReplay] = None


def set_up(clock: PassClock, spec: PassSpec, panel: int, order: int, live: bool = False) -> World:
    """Build a pass's inputs :data:`SETUP_REPEATS` times, timing each
    build in three parts; the last build is the one played.

    ``panel`` fixes what the pass plays (flapped links, queried flows,
    zipf classes); ``order`` shuffles the flaps and the queries.
    """
    for _ in range(SETUP_REPEATS):
        clock.probe()
        t0 = perf_counter()
        scn = build_scenario(spec)
        t1 = perf_counter()
        if live:
            protocol = make_protocol(spec.protocol, scn.graph, scn.policies, substrate="live")
            network = LiveNetwork(scn.graph, time_scale=LIVE_TIME_SCALE)
            protocol.build(network=network)
        else:
            protocol = make_protocol(spec.protocol, scn.graph, scn.policies)
            network = protocol.build()
        t2 = perf_counter()
        flows = sample_flows(scn.graph, spec.flows, seed=derive(panel, "flows"))
        random.Random(derive(order, "flows")).shuffle(flows)
        world = World(
            scn,
            protocol,
            network,
            flap_plan(scn.graph, spec.episodes, derive(panel, "flaps"), derive(order, "flaps")),
            flows,
        )
        if spec.classes:
            world.workload = zipf_workload(
                scn.graph,
                WorkloadSpec(flows=spec.zipf_flows, pairs=spec.classes, seed=derive(panel, "zipf")),
            )
            world.replay = TrafficReplay(world.workload, scn.graph)
        t3 = perf_counter()
        clock.file(clock.setup, (t1 - t0, t2 - t1, t3 - t2))
    return world


# ----------------------------------------------------------------- oracles


def route_ok(graph, flow: FlowSpec, route: Optional[Sequence[int]]) -> bool:
    """A returned route is loop-free, joins the flow's endpoints and
    uses only links that are up.  ``None`` (no legal route) passes."""
    if route is None:
        return True
    if route[0] != flow.src or route[-1] != flow.dst:
        return False
    if len(set(route)) != len(route):
        return False
    for a, b in zip(route, route[1:]):
        link = graph.link_if_exists(a, b)
        if link is None or not link.up:
            return False
    return True


def verdict_mismatches(fib, legacy: TrafficReplay, sample: Sequence[int], protocol) -> int:
    """Sampled classes whose compiled verdict differs from the legacy
    per-packet forwarder's."""
    compiled = fib.class_verdicts()
    expected = legacy.replay_legacy(protocol)
    return sum(1 for i, c in enumerate(sample) if compiled[c] != expected[i])


def read_routes(
    clock: PassClock, protocol, flows: Sequence[FlowSpec]
) -> List[Optional[Tuple[int, ...]]]:
    """Query every flow back to back, timing each ``find_route``."""
    routes = []
    for flow in flows:
        t0 = perf_counter()
        routes.append(protocol.find_route(flow))
        clock.file(clock.queries, perf_counter() - t0)
    return routes


def check_routes(run: Run, protocol, flows, routes, loops_before: int, where: str) -> None:
    """Count the queries of one episode; a bad route fails its query.

    A hop-by-hop walk that meets a forwarding loop answers ``None`` and
    bumps ``forwarding_loops``, so loops are counted from that counter.
    """
    run.attempted += len(flows)
    for flow, route in zip(flows, routes):
        if not route_ok(protocol.graph, flow, route):
            run.fail(f"{where}: bad route {route} for {flow.src}->{flow.dst}")
    for _ in range(protocol.forwarding_loops - loops_before):
        run.fail(f"{where}: forwarding loop")


def _pass_record(spec: PassSpec, scn, classes: int) -> Dict[str, object]:
    return {
        "protocol": spec.protocol,
        "scenario": scn.name,
        "ads": scn.graph.num_ads,
        "links": scn.graph.num_links,
        "terms": scn.policies.num_terms,
        "classes": classes,
        "episodes": 0,
        "events": 0,
        "messages": 0,
        "frames": 0,
        "queries": 0,
    }


def _window(tracer: Optional[Tracer]):
    return tracer.window() if tracer is not None else nullcontext()


# ------------------------------------------------------------- sim passes


def sim_pass(run: Run, spec: PassSpec, panel: int, order: int, tracer: Optional[Tracer]) -> None:
    """One simulator internet: converge, then one episode per flap.

    With ``spec.classes`` the episode also reads: route queries over
    the sampled flows, ``compile_fib`` over the zipf classes, replay
    (``sim_ls_read``).  Without, the episode ends at quiescence and the
    sampled routes are read and checked between windows
    (``sim_dv_churn``).
    """
    clock = PassClock()
    world = set_up(clock, spec, panel, order)
    profiler = PhaseProfiler() if tracer is not None else None
    world.network.set_profiler(profiler)
    try:
        _play_sim(run, clock, spec, world, panel, tracer)
    finally:
        run.add(clock)
    if spec.protocol == "ls-hbh":
        run.cache_rebuilds += world.protocol.cache_rebuilds()
    if profiler is not None:
        for name, seconds in profiler.seconds.items():
            run.phases[name] = run.phases.get(name, 0.0) + seconds


def _play_sim(
    run: Run, clock: PassClock, spec: PassSpec, world: World, panel: int,
    tracer: Optional[Tracer],
) -> None:
    scn, protocol, network = world.scn, world.protocol, world.network
    workload, replay = world.workload, world.replay
    reads = workload is not None
    record = _pass_record(spec, scn, workload.num_classes if reads else 0)
    run.passes.append(record)
    if reads:
        rng = random.Random(derive(panel, "legacy"))
        sample = sorted(rng.sample(range(workload.num_classes), spec.legacy_sample))
        legacy = TrafficReplay(
            FlowWorkload(
                WorkloadSpec(),
                [workload.classes[c] for c in sample],
                array("i", range(len(sample))),
                array("l", [1] * len(sample)),
            ),
            scn.graph,
        )
    gc.collect()
    clock.probe()
    start = perf_counter()
    with _window(tracer):
        initial = sim_runner.converge(network)
    elapsed = perf_counter() - start
    clock.file(clock.busy, elapsed)
    clock.file(clock.control, elapsed)
    run.control_events += initial.events
    record["events"] += initial.events
    run.attempted += 1
    if not initial.quiesced:
        run.fail(f"{scn.name}: initial convergence did not quiesce")
        return
    flows = world.flows
    for episode, (a, b, up) in enumerate(world.plan):
        if tracer is not None:
            tracer.episode = len(run.episodes) + len(clock.episodes)
        loops_before = protocol.forwarding_loops
        clock.probe()
        e0 = perf_counter()
        with _window(tracer):
            network.set_link_status(a, b, up)
            events = network.run(raise_on_limit=False)
            e1 = perf_counter()
            if reads:
                routes = read_routes(clock, protocol, flows)
                fib = traffic_fib.compile_fib(protocol, workload.classes)
                summary = replay.replay(fib)
        e2 = perf_counter()
        clock.file(clock.episodes, e2 - e0)
        clock.file(clock.busy, e2 - e0)
        clock.file(clock.control, e1 - e0)
        run.control_events += events
        record["episodes"] += 1
        record["events"] += events
        run.attempted += 1
        where = f"{scn.name} episode {episode} ({a}-{b} {'up' if up else 'down'})"
        if network.sim.hit_event_limit:
            run.fail(f"{where}: did not quiesce")
            return
        if not reads:
            routes = read_routes(clock, protocol, flows)
        check_routes(run, protocol, flows, routes, loops_before, where)
        record["queries"] += len(flows)
        run.note(events, routes)
        if reads:
            bad = verdict_mismatches(fib, legacy, sample, protocol)
            if bad:
                run.fail(f"{where}: {bad} FIB verdict(s) differ from replay_legacy")
            run.note(bytes(fib.class_verdicts()), summary.verdict_flows)
    record["messages"] = network.metrics.snapshot(network.sim.now).total_messages


# ------------------------------------------------------------- live pass


async def _lag_probe(run: Run, state: Dict[str, int]) -> None:
    """Event-loop lag samples, kept only when a sleep started and ended
    inside the same measured window."""
    loop = asyncio.get_running_loop()
    while True:
        window = state["window"]
        t0 = loop.time()
        await asyncio.sleep(LAG_PROBE_S)
        if state["open"] and state["window"] == window:
            run.lag.append(loop.time() - t0 - LAG_PROBE_S)


async def live_pass(
    run: Run, spec: PassSpec, panel: int, order: int, tracer: Optional[Tracer]
) -> None:
    """One live internet: start, settle, then one settled episode per flap.

    After every episode the live routes over the sampled flows are read
    and compared with a simulator twin that saw the same link changes.
    """
    clock = PassClock()
    world = set_up(clock, spec, panel, order, live=True)
    scn, protocol, network = world.scn, world.protocol, world.network
    record = _pass_record(spec, scn, 0)
    run.passes.append(record)
    twin = make_protocol(spec.protocol, scn.graph.copy(), scn.policies.copy())
    twin_network = twin.build()
    sim_runner.converge(twin_network)
    profiler = PhaseProfiler() if tracer is not None else None
    network.set_profiler(profiler)
    state = {"window": 0, "open": 0}
    probe = None
    if tracer is not None:
        probe = asyncio.get_running_loop().create_task(_lag_probe(run, state))
    gc.collect()

    async def settled(where: str, change: Optional[Tuple[int, int, bool]]) -> bool:
        """Start the network (``change`` is None) or apply one link
        change, then settle: one window.  Its latency ends at the
        network's last activity, so the fixed idle window and poll
        quantum drop out."""
        frames = network.frames_received
        state["window"] += 1
        state["open"] = 1
        clock.probe()
        started = perf_counter()
        try:
            with _window(tracer):
                if change is None:
                    await network.start()
                else:
                    network.set_link_status(*change)
                try:
                    await live_runner.settle(network, LIVE_IDLE_WINDOW_S, LIVE_SETTLE_TIMEOUT_S)
                    quiesced = True
                except live_runner.SettleTimeout:
                    quiesced = False
                idle = network.idle_for
                end = perf_counter()
        finally:
            state["open"] = 0
        latency = end - idle - started
        clock.file(clock.busy, latency)
        clock.file(clock.control, latency)
        clock.idle += idle
        if change is not None:
            clock.file(clock.episodes, latency)
        received = network.frames_received - frames
        run.control_events += received
        record["frames"] += received
        run.attempted += 1
        if not quiesced:
            run.fail(f"{where}: did not settle within {LIVE_SETTLE_TIMEOUT_S:g}s")
        return quiesced

    try:
        quiesced = await settled(f"{scn.name} initial convergence", None)
        if not quiesced:
            return
        flows = world.flows
        for episode, (a, b, up) in enumerate(world.plan):
            where = f"{scn.name} episode {episode} ({a}-{b} {'up' if up else 'down'})"
            if tracer is not None:
                tracer.episode = len(run.episodes) + len(clock.episodes)
            quiesced = await settled(where, (a, b, up))
            record["episodes"] += 1
            if not quiesced:
                return
            loops_before = protocol.forwarding_loops
            routes = read_routes(clock, protocol, flows)
            check_routes(run, protocol, flows, routes, loops_before, where)
            record["queries"] += len(flows)
            twin_network.set_link_status(a, b, up)
            twin_network.run(raise_on_limit=False)
            expected = [twin.find_route(flow) for flow in flows]
            if routes != expected:
                run.fail(f"{where}: live routes digest differs from the simulator's")
            run.note(routes)
        record["messages"] = network.metrics.snapshot(network.clock.now).total_messages
        run.send_retries += network.metrics.live_send_retries
        run.send_drops += network.metrics.live_send_drops
        run.cache_rebuilds += protocol.cache_rebuilds()
        if profiler is not None:
            for name, seconds in profiler.seconds.items():
                run.phases[name] = run.phases.get(name, 0.0) + seconds
    finally:
        run.add(clock)
        if probe is not None:
            probe.cancel()
            try:
                await probe
            except asyncio.CancelledError:
                pass
        await network.close()


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """A named cycle of passes and the substrate that runs them.

    ``pass_seconds`` is what one pass takes on a 2-CPU x86-64 host; a
    run of ``--seconds`` plays ``round(seconds / pass_seconds)`` passes
    (at least one cycle), so the work of a run depends on its arguments
    only, never on the speed of the host it runs on.
    """

    name: str
    why: str
    passes: Tuple[PassSpec, ...]
    pass_seconds: float
    smoke: Tuple[PassSpec, ...]
    live: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim_ls_read",
            "read path over converged ls-hbh state: route queries, compile_fib, replay",
            passes=tuple(
                PassSpec("ls-hbh", 100, scenario, 25, flows=40, classes=24,
                         zipf_flows=20_000, legacy_sample=12)
                for scenario in range(4)
            ),
            pass_seconds=3.75,
            smoke=(PassSpec("ls-hbh", 25, 0, 100, flows=10, classes=8, zipf_flows=1000,
                            legacy_sample=4),),
        ),
        Workload(
            "sim_dv_churn",
            "DV update path: idrp and ecma flaps run to quiescence, no reads in the window",
            passes=tuple(
                PassSpec(protocol, ads, scenario, 36, flows=200)
                for scenario in range(2)
                for protocol, ads in (("idrp", 200), ("ecma", 63))
            ),
            pass_seconds=7.5,
            smoke=(PassSpec("idrp", 25, 0, 50, flows=10), PassSpec("ecma", 25, 0, 50, flows=10)),
        ),
        Workload(
            "live_ls_flap",
            "ls-hbh flaps settled over loopback UDP: wire codec and event loop",
            passes=(PassSpec("ls-hbh", 63, 0, 50, flows=30),),
            pass_seconds=15.0,
            smoke=(PassSpec("ls-hbh", 25, 0, 100, flows=10),),
            live=True,
        ),
    )
}


def plan_passes(workload: Workload, seconds: float, smoke: bool = False) -> List[PassSpec]:
    """The passes a run of ``seconds`` plays, in order."""
    cycle = workload.smoke if smoke else workload.passes
    count = len(cycle) if smoke else max(len(cycle), round(seconds / workload.pass_seconds))
    return [cycle[i % len(cycle)] for i in range(count)]


def play_passes(run: Run, passes: Sequence[PassSpec], tracer: Optional[Tracer] = None) -> None:
    """Play ``passes`` in order.  Pass ``i``'s panel is fixed by the
    workload name and ``i``; its order comes from the run's seed."""
    panels = [derive(run.workload, i) for i in range(len(passes))]
    orders = [derive(run.seed, run.workload, i) for i in range(len(passes))]
    if WORKLOADS[run.workload].live:
        async def main() -> None:
            for args in zip(passes, panels, orders):
                await live_pass(run, *args, tracer)

        asyncio.run(main())
    else:
        for args in zip(passes, panels, orders):
            sim_pass(run, *args, tracer)
