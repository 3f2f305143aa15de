"""Quality of Service classes.

The paper's IGP discussion (Section 3) and the ECMA proposal both support
multiple Qualities of Service, each effectively selecting a different link
metric for the shortest-path computation; IGRP's composite metric also
covers *bandwidth*, whose composition along a path is not additive but
**bottleneck** (a path is as fast as its narrowest link).

We model a small fixed set of QOS classes, each bound to the link metric
it optimises and to that metric's composition rule.  Protocols build one
routing table (or run one computation) per QOS class in use; the
link-state route servers support both compositions, while the DV-era
protocols honestly do not support bottleneck metrics (their updates
compose additively), which is part of the Section 3 critique.
"""

from __future__ import annotations

import enum
from typing import Tuple


class MetricComposition(enum.Enum):
    """How a link metric accumulates along a path."""

    #: Path value = sum of link values; smaller is better (delay, cost).
    ADDITIVE = "additive"
    #: Path value = min of link values; larger is better (bandwidth).
    BOTTLENECK = "bottleneck"


class QOS(enum.Enum):
    """A Quality of Service class and the link metric it optimises."""

    #: Best-effort: minimise hop-weighted delay.
    DEFAULT = "default"
    #: Interactive traffic: minimise delay (same metric as DEFAULT but
    #: tracked as a distinct class so per-QOS table replication is visible).
    LOW_DELAY = "low_delay"
    #: Bulk traffic: minimise monetary cost.
    LOW_COST = "low_cost"
    #: Throughput-hungry traffic: maximise the bottleneck bandwidth.
    HIGH_BANDWIDTH = "high_bandwidth"

    #: Members key every per-class routing table; Enum's own hash runs
    #: in Python on each lookup, the identity hash runs in C.  Equality
    #: is identity either way.
    __hash__ = object.__hash__

    @property
    def metric(self) -> str:
        """Name of the link metric this QOS class optimises."""
        if self is QOS.LOW_COST:
            return "cost"
        if self is QOS.HIGH_BANDWIDTH:
            return "bandwidth"
        return "delay"

    @property
    def composition(self) -> MetricComposition:
        """How this class's metric accumulates along a path."""
        if self is QOS.HIGH_BANDWIDTH:
            return MetricComposition.BOTTLENECK
        return MetricComposition.ADDITIVE

    @property
    def is_bottleneck(self) -> bool:
        return self.composition is MetricComposition.BOTTLENECK

    @classmethod
    def all_classes(cls) -> Tuple["QOS", ...]:
        """All QOS classes in definition order."""
        return tuple(cls)

    @classmethod
    def additive_classes(cls) -> Tuple["QOS", ...]:
        """Classes whose metric composes additively (DV-expressible)."""
        return tuple(q for q in cls if not q.is_bottleneck)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Each class's position in ``value`` order: sorts tables by class
#: without a Python-level ``value`` lookup per key.
VALUE_RANK = {q: i for i, q in enumerate(sorted(QOS, key=lambda q: q.value))}
