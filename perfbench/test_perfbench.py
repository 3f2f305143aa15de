"""The benchmark's own tests: smoke-size runs and oracle fault injection.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run as bench  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER_UNITS  # noqa: E402
from stats import percentile  # noqa: E402
from tracing import load_spans  # noqa: E402

from repro.policy.flows import FlowSpec  # noqa: E402
from repro.protocols.base import RoutingProtocol  # noqa: E402
from repro.traffic.fib import CompiledFIB  # noqa: E402
from repro.workloads.scenarios import small_scenario  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(name):
    result, record = bench.measure(name, SEED, 0, trace=False, smoke=True)
    assert result["failed"] == 0 and result["correct"]
    assert record["fail_frac"] == 0
    assert record["episodes"] >= 100
    assert result["metrics"].keys() == bench.END_TO_END_UNITS.keys()
    for key, entry in result["metrics"].items():
        assert entry["unit"] == bench.END_TO_END_UNITS[key]
        assert entry["value"] > 0, key


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_run_emits_every_per_layer_metric(name):
    result, record = bench.measure(name, SEED, 0, trace=True, smoke=True)
    assert result["failed"] == 0 and result["correct"]
    metrics = result["metrics"]
    assert metrics.keys() == PER_LAYER_UNITS.keys()
    for key, entry in metrics.items():
        assert entry["unit"] == PER_LAYER_UNITS[key]
    assert 0 <= metrics["trace.unattributed_frac"]["value"] < 1
    if name == "live_ls_flap":
        assert metrics["simul.wire.encode_calls"]["value"] > 0
        assert metrics["simul.engine.events"]["value"] == 0
    else:
        assert metrics["simul.engine.events"]["value"] > 0
        assert metrics["simul.wire.encode_calls"]["value"] == 0
    # The spans written at exit agree with the derived handler count.
    header, columns = load_spans(os.path.join(bench.OUT, f"{name}-seed{SEED}.spans"))
    names = header["names"]
    handler = "protocols.ls-hbh.handler" if name != "sim_dv_churn" else "protocols.idrp.handler"
    calls = sum(1 for i in columns["s_name"] if names[i] == handler)
    key = handler.replace(".handler", ".handler_calls")
    assert calls == metrics[key]["value"] > 0


def _first_route_corrupted(monkeypatch):
    """Make the first non-trivial route answer revisit its source."""
    orig = RoutingProtocol.find_route
    done = []

    def corrupt(self, flow, *args, **kwargs):
        route = orig(self, flow, *args, **kwargs)
        if not done and route is not None and len(route) > 1:
            done.append(route)
            return route[:1] + route
        return route

    monkeypatch.setattr(RoutingProtocol, "find_route", corrupt)
    return done


@pytest.mark.parametrize("name", ["sim_ls_read", "sim_dv_churn"])
def test_oracle_counts_a_corrupted_route(monkeypatch, name):
    done = _first_route_corrupted(monkeypatch)
    run = bench.play(name, SEED, 0, smoke=True)
    assert done
    assert run.failed == 1
    assert "bad route" in run.failures[0]


def test_live_oracle_counts_a_corrupted_route(monkeypatch):
    done = _first_route_corrupted(monkeypatch)
    run = bench.play("live_ls_flap", SEED, 0, smoke=True)
    assert done
    # The bad answer fails its query and the sim-vs-live digest check.
    assert run.failed == 2
    assert "bad route" in run.failures[0]
    assert "digest" in run.failures[1]


def test_oracle_counts_corrupted_fib_verdicts(monkeypatch):
    orig = CompiledFIB.class_verdicts

    def flipped(self, *args, **kwargs):
        verdicts = orig(self, *args, **kwargs)
        for i, v in enumerate(verdicts):
            verdicts[i] = (v + 1) % 6
        return verdicts

    monkeypatch.setattr(CompiledFIB, "class_verdicts", flipped)
    run = bench.play("sim_ls_read", SEED, 0, smoke=True)
    assert run.failed == len(run.episodes) > 0
    assert all("replay_legacy" in f for f in run.failures)


def test_route_oracle_rejects_loops_dead_links_and_wrong_endpoints():
    scn = small_scenario(seed=0)
    graph = scn.graph
    a, b = next((link.a, link.b) for link in graph.links())
    flow = FlowSpec(src=a, dst=b)
    assert workloads.route_ok(graph, flow, (a, b))
    assert workloads.route_ok(graph, flow, None)
    assert not workloads.route_ok(graph, flow, (a, b, a, b))
    assert not workloads.route_ok(graph, flow, (b, a))
    graph.set_link_status(a, b, False)
    assert not workloads.route_ok(graph, flow, (a, b))


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_ls_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
