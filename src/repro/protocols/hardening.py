"""Robustness features the protocols can enable, individually toggleable.

The base protocols assume a lossless control channel, as the paper's
qualitative design discussion does.  Under real impairments (see
:mod:`repro.faults`) they need the classic trio of hardening mechanisms,
each independently switchable so E11 can ablate what every one buys:

* ``dedup`` -- suppress duplicate control messages by sequence number
  (LS flooding already dedups by LSA sequence; this extends the idea to
  EGP reachability updates and ORWG setup packets);
* ``retransmit`` -- ack + bounded retransmission timers on the messages
  whose loss otherwise wedges the protocol (EGP updates, ORWG route
  setup, LS topology-exchange on link-up);
* ``refresh`` -- periodic re-origination of LSAs for a bounded burst
  after every change, so a lost flood heals instead of persisting as a
  stale LSDB entry.

A :class:`HardeningConfig` travels from the protocol driver to every
node at build time; nodes consult ``self.hardening`` at each decision
point and fall back to the exact legacy behaviour when a feature is off,
which is what keeps unhardened runs byte-identical to the pre-faults
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple, Union

from repro.protocols.features import feature_names

#: The individually toggleable feature names, in canonical order.
FEATURES: Tuple[str, ...] = ("dedup", "retransmit", "refresh")


@dataclass(frozen=True)
class HardeningConfig:
    """Which robustness features are on, and their timer parameters.

    Timer values are in simulated time units; link delays in generated
    internets are 3--30 units, so the defaults sit comfortably above one
    round trip without dragging out convergence.
    """

    dedup: bool = False
    retransmit: bool = False
    refresh: bool = False
    #: Ack wait before a retransmission (about two worst-case RTTs).
    retransmit_timeout: float = 60.0
    #: Retransmissions before giving a message up for lost.
    max_retries: int = 3
    #: Gap between periodic LSA re-originations.
    refresh_interval: float = 40.0
    #: Re-originations after each change (bounded, so runs quiesce).
    refresh_count: int = 2

    @property
    def any_enabled(self) -> bool:
        return self.dedup or self.retransmit or self.refresh

    @property
    def enabled(self) -> Tuple[str, ...]:
        """Enabled feature names, in canonical order."""
        return tuple(f for f in FEATURES if getattr(self, f))

    def __str__(self) -> str:
        return "+".join(self.enabled) if self.any_enabled else "none"


#: No hardening: the exact legacy protocol behaviour.
SOFT = HardeningConfig()

#: Every feature on, default timers.
HARDENED = HardeningConfig(dedup=True, retransmit=True, refresh=True)


def hardening_from(
    value: Union[None, str, Iterable[str], HardeningConfig],
) -> HardeningConfig:
    """Normalize a user-facing hardening spec into a config.

    Accepts a ready config or the :mod:`~repro.protocols.features`
    grammar (``"off"``, ``"all"``, ``+``-joined names, an iterable).
    """
    if isinstance(value, HardeningConfig):
        return value
    names = feature_names(value, FEATURES, "hardening")
    return HardeningConfig(**dict.fromkeys(names, True)) if names else SOFT
