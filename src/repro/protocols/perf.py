"""Simulator-core performance feature toggles.

The speed program (ROADMAP item 2) replaces two from-scratch recompute
paths with delta-aware ones:

* ``incremental_spf`` — :class:`repro.protocols.spf.IncrementalSPFState`
  repairs the SPF tree from the edge deltas between two LSDB versions
  instead of re-running Dijkstra, falling back to the full run whenever
  the repair cannot be proven exact (zero-weight edges, unavailable
  delta logs, changes touching a large fraction of the graph).
* ``delta_view`` — :meth:`repro.protocols.flooding.LSNode.local_view`
  applies per-LSA deltas to the cached believed-internet graph and
  policy database instead of rebuilding both, invalidating to a full
  rebuild on any structural surprise (cross-owner terms, origin level
  changes, pending-delta overflow).

Both are **pure optimisations**: equivalence to the retained full
recompute oracles is enforced by hypothesis suites, and all committed
experiment outputs stay byte-identical either way (the determinism gate
is the referee).  A :class:`PerfConfig` travels from the protocol driver
to every node at build time, exactly like
:class:`~repro.protocols.hardening.HardeningConfig` — but unlike the
robustness configs it defaults **on**: the fast paths are the production
code, and ``perf="none"`` is the A/B lever that recovers the legacy
recompute for benchmarking and differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

from repro.protocols.features import feature_names

#: The individually toggleable feature names, in canonical order.
FEATURES: Tuple[str, ...] = ("incremental_spf", "delta_view")


@dataclass(frozen=True)
class PerfConfig:
    """Which delta-recompute fast paths are enabled."""

    incremental_spf: bool = True
    delta_view: bool = True

    @property
    def any_enabled(self) -> bool:
        return self.incremental_spf or self.delta_view

    @property
    def enabled(self) -> Tuple[str, ...]:
        """Enabled feature names, in canonical order."""
        return tuple(f for f in FEATURES if getattr(self, f))

    def __str__(self) -> str:
        return "+".join(self.enabled) if self.any_enabled else "none"


#: Every fast path on: the default production configuration.
FAST = PerfConfig()

#: Every fast path off: the legacy from-scratch recompute baseline.
LEGACY = PerfConfig(incremental_spf=False, delta_view=False)


def perf_from(
    value: Union[None, str, Iterable[str], PerfConfig],
) -> PerfConfig:
    """Normalize a user-facing perf spec into a config.

    Accepts a ready config or the :mod:`~repro.protocols.features`
    grammar.  Unlike the robustness configs, ``None``, ``""`` and
    ``"fast"`` mean every fast path (the default); ``"legacy"``, like
    ``"none"``/``"off"``, means the from-scratch recompute.
    """
    if isinstance(value, PerfConfig):
        return value
    if value is None or value in ("", "fast"):
        return FAST
    if value == "legacy":
        return LEGACY
    names = feature_names(value, FEATURES, "perf")
    return PerfConfig(**{f: f in names for f in FEATURES})
