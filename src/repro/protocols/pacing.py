"""Update pacing, hold-down, and flap damping: overload defenses.

Bounded ingress queues (:mod:`repro.simul.ingress`) make control-plane
overload *possible*; this module gives every protocol the classic
defenses against causing it.  Three individually toggleable features,
expressed in each family's native currency — per-destination
announcements for the DV family (DV/ECMA/EGP/IDRP and its variants),
per-LSA origination for the LS family (SPF/LS-HbH/ORWG and the topology
variants):

* ``pace`` — a minimum interval between successive update batches to
  the same neighbours (BGP's MinRouteAdvertisementInterval): triggered
  flushes and LSA originations are deferred until the interval since
  the previous one has elapsed, so a burst of topology events coalesces
  into one announcement carrying the final state.
* ``holddown`` — a timer armed by *bad news* (a link or route going
  down) that delays the reaction; a flap whose up-leg arrives within
  the window produces one announcement of the settled state instead of
  two of transient states.
* ``damp`` — per-route (DV) or per-link (LS) flap damping in the
  BGP-style penalty model: every loss adds ``penalty``; the accumulated
  figure-of-merit decays exponentially with ``half_life``; crossing
  ``suppress_threshold`` suppresses the route/link (advertised as
  withdrawn/down) until decay brings it under ``reuse_threshold``.
  Decay is strictly monotone and suppression is always eventually
  lifted once flapping stops.

A :class:`PacingConfig` travels from the protocol driver to every node
at build time, exactly like
:class:`~repro.protocols.hardening.HardeningConfig`; nodes fall back to
the exact legacy code path when a feature is off, which keeps unpaced
runs byte-identical to the pre-pacing simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Tuple, Union

from repro.protocols.features import feature_names

#: The individually toggleable feature names, in canonical order.
FEATURES: Tuple[str, ...] = ("pace", "holddown", "damp")


@dataclass(frozen=True)
class PacingConfig:
    """Which overload defenses are on, and their timer parameters.

    Times are in simulated units (link delays run 3--30); the defaults
    are deliberately a few triggered-update delays wide so pacing
    visibly batches without stalling honest convergence.
    """

    pace: bool = False
    holddown: bool = False
    damp: bool = False
    #: Minimum gap between successive update batches to the neighbours.
    min_advert_interval: float = 8.0
    #: How long bad news is held before the reaction is announced.
    holddown_time: float = 20.0
    #: Penalty added per flap (route loss / link down).
    penalty: float = 1.0
    #: Figure-of-merit at which a route/link is suppressed.
    suppress_threshold: float = 3.0
    #: Figure-of-merit below which a suppressed route/link is reusable.
    reuse_threshold: float = 1.0
    #: Exponential decay half-life of the accumulated penalty.
    half_life: float = 120.0

    def __post_init__(self) -> None:
        if self.min_advert_interval <= 0:
            raise ValueError("min advertisement interval must be > 0")
        if self.holddown_time <= 0:
            raise ValueError("hold-down time must be > 0")
        if self.penalty <= 0 or self.half_life <= 0:
            raise ValueError("damping penalty and half-life must be > 0")
        if not 0 < self.reuse_threshold < self.suppress_threshold:
            raise ValueError(
                "need 0 < reuse_threshold < suppress_threshold "
                f"(got {self.reuse_threshold} / {self.suppress_threshold})"
            )

    @property
    def any_enabled(self) -> bool:
        return self.pace or self.holddown or self.damp

    @property
    def enabled(self) -> Tuple[str, ...]:
        """Enabled feature names, in canonical order."""
        return tuple(f for f in FEATURES if getattr(self, f))

    def __str__(self) -> str:
        return "+".join(self.enabled) if self.any_enabled else "none"


#: No pacing: the exact legacy protocol behaviour.
UNPACED = PacingConfig()

#: Every defense on, default timers.
FULL = PacingConfig(pace=True, holddown=True, damp=True)


def pacing_from(
    value: Union[None, str, Iterable[str], PacingConfig],
) -> PacingConfig:
    """Normalize a user-facing pacing spec into a config.

    Accepts a ready config or the :mod:`~repro.protocols.features`
    grammar (``"off"``, ``"all"``, ``+``-joined names, an iterable).
    """
    if isinstance(value, PacingConfig):
        return value
    names = feature_names(value, FEATURES, "pacing")
    return PacingConfig(**dict.fromkeys(names, True)) if names else UNPACED


class _DampState:
    """Penalty accounting for one damped key."""

    __slots__ = ("penalty", "stamp", "suppressed")

    def __init__(self) -> None:
        self.penalty = 0.0
        self.stamp = 0.0
        self.suppressed = False


class FlapDamper:
    """BGP-style exponential-decay flap damping over arbitrary keys.

    The decayed penalty is computed lazily from ``(value, timestamp)``
    pairs, so no timers are needed to model decay; callers that want to
    react the moment a suppression lifts schedule a check at
    :meth:`reuse_delay`.
    """

    def __init__(self, config: PacingConfig) -> None:
        self.config = config
        self._states: Dict[Hashable, _DampState] = {}
        #: Flaps recorded (route losses / link downs seen by this damper).
        self.flaps = 0
        #: Transitions into the suppressed state.
        self.suppressions = 0

    def _decayed(self, state: _DampState, now: float) -> float:
        dt = now - state.stamp
        if dt <= 0:
            return state.penalty
        return state.penalty * 0.5 ** (dt / self.config.half_life)

    def penalty_of(self, key: Hashable, now: float) -> float:
        """Current (decayed) figure-of-merit for ``key``."""
        state = self._states.get(key)
        return 0.0 if state is None else self._decayed(state, now)

    def record_flap(self, key: Hashable, now: float) -> bool:
        """Charge one flap to ``key``; returns True if it newly suppresses."""
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _DampState()
        state.penalty = self._decayed(state, now) + self.config.penalty
        state.stamp = now
        self.flaps += 1
        if not state.suppressed and state.penalty >= self.config.suppress_threshold:
            state.suppressed = True
            self.suppressions += 1
            return True
        return False

    def is_suppressed(self, key: Hashable, now: float) -> bool:
        """Whether ``key`` is currently suppressed (lifting it if decayed)."""
        state = self._states.get(key)
        if state is None or not state.suppressed:
            return False
        if self._decayed(state, now) <= self.config.reuse_threshold:
            state.suppressed = False
            return False
        return True

    def reuse_delay(self, key: Hashable, now: float) -> float:
        """Time until ``key``'s penalty decays to the reuse threshold."""
        current = self.penalty_of(key, now)
        if current <= self.config.reuse_threshold:
            return 0.0
        return self.config.half_life * math.log2(
            current / self.config.reuse_threshold
        )

    def suppressed_keys(self, now: float) -> Tuple[Hashable, ...]:
        return tuple(
            k for k in self._states if self.is_suppressed(k, now)
        )


#: Floor on re-advertisement check spacing, so a key that keeps being
#: re-penalized while suppressed cannot busy-loop the scheduler.
REUSE_TICK_MIN = 1.0


class OverloadDefenseMixin:
    """Pacing/hold-down/damping hooks shared by the protocol node classes.

    Mixed into each family's node base; every method is a no-op straight
    line back to the legacy code path when the corresponding feature is
    off, which is what keeps all-off runs byte-identical.  State is
    created lazily (class-attribute defaults, instance attributes on
    first use), so node constructors stay untouched.
    """

    #: Stamped by the driver at build time (like ``hardening``).
    pacing: PacingConfig = UNPACED
    _damper = None
    _last_flush = None
    _holddown_until = 0.0
    _suppression_announced = None
    #: Announcements replaced by withdrawals because of suppression.
    suppressed_announcements = 0
    #: Flushes/originations deferred by pace or hold-down.
    paced_deferrals = 0

    # ---- update pacing + hold-down -----------------------------------

    def _pacing_defers_flush(self) -> "float | None":
        """Seconds to defer this update batch, or ``None`` to send now.

        Called at the top of a flush/origination.  Proceeding (``None``)
        also timestamps the batch for the next MRAI computation.
        """
        if not self.pacing.any_enabled:
            return None
        earliest = self.now
        if self.pacing.pace and self._last_flush is not None:
            earliest = max(
                earliest, self._last_flush + self.pacing.min_advert_interval
            )
        if self.pacing.holddown:
            earliest = max(earliest, self._holddown_until)
        if earliest > self.now:
            self.paced_deferrals += 1
            return earliest - self.now
        if self.pacing.pace:
            self._last_flush = self.now
        return None

    def _enter_holddown(self) -> None:
        """Bad news arrived: delay the reaction to coalesce a flap.

        An already-armed timer is *not* extended: under sustained
        flapping an extending hold-down would starve announcements for
        the whole storm, leaving every neighbour stale.  Bad news is
        thus delayed at most one ``holddown_time`` from the first loss.
        """
        if self.pacing.holddown and self.now >= self._holddown_until:
            self._holddown_until = self.now + self.pacing.holddown_time

    # ---- flap damping -------------------------------------------------

    def _damp_loss(self, key: Hashable) -> bool:
        """Charge one flap for a lost route/link.

        Returns True when the key newly crosses the suppress threshold;
        a re-advertisement check is armed for when decay lifts it.
        """
        if not self.pacing.damp:
            return False
        if self._damper is None:
            self._damper = FlapDamper(self.pacing)
        if self._damper.record_flap(key, self.now):
            self._arm_reuse_check(key)
            return True
        return False

    def _damp_suppressed(self, key: Hashable) -> bool:
        if self._damper is None:
            return False
        return self._damper.is_suppressed(key, self.now)

    def _suppress_withdraw_once(self, key: Hashable) -> bool:
        """Whether a suppressed key's withdrawal is still unannounced.

        DV-family flushes withdraw a suppressed route exactly once and
        then fall *silent* about it: repeating the withdrawal every
        flush would trip the neighbours' re-offer rule each time and
        ping-pong forever.  Call once per flush decision, before the
        per-neighbour loop.
        """
        if self._suppression_announced is None:
            self._suppression_announced = set()
        if key in self._suppression_announced:
            return False
        self._suppression_announced.add(key)
        return True

    def _arm_reuse_check(self, key: Hashable) -> None:
        delay = max(self._damper.reuse_delay(key, self.now), REUSE_TICK_MIN)
        self.schedule(delay, self._reuse_check, key)

    def _reuse_check(self, key: Hashable) -> None:
        if self._damper is None:
            return
        if self._damper.is_suppressed(key, self.now):
            # Re-penalized while suppressed; wait out the fresh decay.
            self._arm_reuse_check(key)
            return
        if self._suppression_announced is not None:
            self._suppression_announced.discard(key)
        self._on_reuse(key)

    def _on_reuse(self, key: Hashable) -> None:
        """Suppression lifted: re-advertise.  Overridden per family."""
