"""Golden identity oracle for the distance-vector family.

Every DV design point (ECMA, IDRP, BGP-2, the path-vector source-routed
variant, the topology-vector variant, and IDRP with two policy classes,
which takes the non-universal class-set path) is run to quiescence on
two fixed internets and then through a 12-change link-flap plan, one
isolated episode per change.  The per-episode event counts, the total
messages and bytes, and a sha256 over every node's routing state are
pinned to the values this code produced before its handlers were
optimised.  Any change to what a DV node sends or selects moves at
least one of them.
"""

import hashlib

import pytest

from repro.faults.plan import link_flap_plan
from repro.protocols.ecma import ECMANode
from repro.protocols.registry import make_protocol
from repro.simul.runner import converge
from repro.workloads.scenarios import reference_scenario, scaled_scenario

#: name -> (protocol, make_protocol options)
CASES = {
    "ecma": ("ecma", {}),
    "idrp": ("idrp", {}),
    "bgp2": ("bgp2", {}),
    "pv-src": ("pv-src", {}),
    "topo-vector-src": ("topo-vector-src", {}),
    "idrp-2cls": ("idrp", {"route_classes": 2}),
}

SCENARIOS = {
    "ref0": lambda: reference_scenario(seed=0),
    "scaled50": lambda: scaled_scenario(50, seed=0),
}

#: (case, scenario) -> (per-episode events, messages, bytes, state sha256
#: prefix).  Episode 0 is initial convergence; 1..12 the flap plan.
GOLDEN = {
    ('bgp2', 'ref0'): ((5422, 119, 132, 15, 26, 374, 212, 313, 185, 240, 168, 115, 91), 4800, 323512, '040e484aa012b9dc'),
    ('bgp2', 'scaled50'): ((3125, 75, 73, 65, 61, 211, 123, 0, 17, 104, 92, 65, 67), 2405, 168545, '888ab9bfdb4585a6'),
    ('ecma', 'ref0'): ((8968, 782, 100, 1575, 326, 1437, 288, 1275, 491, 106, 18, 981, 210), 11738, 4427619, '501e346e495f7662'),
    ('ecma', 'scaled50'): ((3508, 628, 152, 773, 154, 328, 161, 908, 179, 249, 79, 245, 80), 4946, 1428729, '37619215cc19ebef'),
    ('idrp', 'ref0'): ((5095, 168, 140, 14, 25, 785, 210, 519, 182, 179, 161, 135, 96), 4779, 297367, 'db954b5e8f5df9f6'),
    ('idrp', 'scaled50'): ((3078, 59, 60, 62, 59, 387, 130, 0, 17, 99, 88, 64, 66), 2400, 162541, '7dd257f5dba252a4'),
    ('idrp-2cls', 'ref0'): ((5389, 252, 175, 14, 25, 2014, 222, 1707, 210, 179, 157, 181, 143), 6340, 1609099, '8e528e641eab4565'),
    ('idrp-2cls', 'scaled50'): ((3196, 59, 60, 62, 59, 389, 132, 0, 17, 133, 99, 73, 67), 2489, 829436, 'c37508c21dbcb3b1'),
    ('pv-src', 'ref0'): ((5095, 168, 140, 14, 25, 785, 210, 519, 182, 179, 161, 135, 96), 4779, 297367, 'db954b5e8f5df9f6'),
    ('pv-src', 'scaled50'): ((3078, 59, 60, 62, 59, 387, 130, 0, 17, 99, 88, 64, 66), 2400, 162541, '7dd257f5dba252a4'),
    ('topo-vector-src', 'ref0'): ((4878, 79, 72, 10, 21, 332, 177, 440, 179, 2, 12, 212, 118), 3927, 233207, '0c957498cba47c03'),
    ('topo-vector-src', 'scaled50'): ((2861, 44, 45, 44, 44, 133, 127, 0, 17, 71, 63, 61, 63), 2000, 134182, '046b823ad47e4539'),
}


def _set_digest(allowed):
    return (allowed.mode.value, tuple(sorted(allowed.members)))


def state_digest(protocol):
    """sha256 over every node's table (ECMA) or Loc-RIB (path vectors)."""
    h = hashlib.sha256()
    for ad_id in sorted(protocol.graph.ad_ids()):
        node = protocol.network.node(ad_id)
        if isinstance(node, ECMANode):
            rows = sorted(
                (dest, qos.value, e.metric, e.hops, e.contains_up, e.next_hop)
                for (dest, qos), e in node.table.items()
            )
        else:
            rows = sorted(
                (dest, qos.value, cls, e.via, e.path, e.metric, _set_digest(e.allowed))
                for (dest, qos, cls), e in node.loc.items()
            )
        h.update(repr((ad_id, rows)).encode())
    return h.hexdigest()[:16]


def fingerprint(case, scenario):
    name, options = CASES[case]
    scn = SCENARIOS[scenario]()
    protocol = make_protocol(name, scn.graph, scn.policies, **options)
    network = protocol.build()
    events = [converge(network).events]
    for fault in link_flap_plan(scn.graph, flaps=6, seed=0):
        network.set_link_status(fault.a, fault.b, fault.up)
        events.append(network.run(raise_on_limit=False))
        assert not network.sim.hit_event_limit
    snap = network.metrics.snapshot(network.sim.now)
    return (tuple(events), snap.total_messages, snap.total_bytes, state_digest(protocol))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_dv_identity(case, scenario):
    assert fingerprint(case, scenario) == GOLDEN[(case, scenario)]
