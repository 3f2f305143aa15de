"""Set predicates used inside Policy Terms.

Policy Terms name *sets* of ADs (permitted sources, destinations,
previous/next hops).  :class:`ADSet` is a small immutable predicate type
supporting "everyone", explicit inclusion, and explicit exclusion, plus a
wire-size estimate for the message byte accounting.

:class:`TimeWindow` models the paper's time-of-day policies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable

from repro.adgraph.ad import ADId


class _SetMode(enum.Enum):
    ALL = "all"
    INCLUDE = "include"
    EXCLUDE = "exclude"


@dataclass(frozen=True)
class ADSet:
    """An immutable predicate over AD ids.

    Construct via :meth:`everyone`, :meth:`of`, or :meth:`excluding`.
    """

    mode: _SetMode
    members: FrozenSet[ADId] = field(default_factory=frozenset)

    @classmethod
    def everyone(cls) -> "ADSet":
        """The universal set (matches any AD); one shared value."""
        return _EVERYONE

    @classmethod
    def of(cls, ads: Iterable[ADId]) -> "ADSet":
        """Exactly the given ADs."""
        return cls(_SetMode.INCLUDE, frozenset(ads))

    @classmethod
    def excluding(cls, ads: Iterable[ADId]) -> "ADSet":
        """Every AD except the given ones."""
        return cls(_SetMode.EXCLUDE, frozenset(ads))

    def matches(self, ad_id: ADId) -> bool:
        """Whether ``ad_id`` is in the set."""
        if self.mode is _SetMode.ALL:
            return True
        if self.mode is _SetMode.INCLUDE:
            return ad_id in self.members
        return ad_id not in self.members

    @property
    def is_universal(self) -> bool:
        return self.mode is _SetMode.ALL or (
            self.mode is _SetMode.EXCLUDE and not self.members
        )

    @property
    def is_finite(self) -> bool:
        """Whether the set enumerates exactly the ADs it admits.

        Finite (INCLUDE) sets can back an exact-match index: a traversal
        can only match the set via one of its listed members.  ALL and
        EXCLUDE sets are cofinite -- they admit every AD not listed -- so
        they can never be bucketed by member.
        """
        return self.mode is _SetMode.INCLUDE

    def size_bytes(self) -> int:
        """Estimated encoded size: 1 tag byte + 2 bytes per listed AD."""
        return 1 + 2 * len(self.members)

    # ------------------------------------------------------------ algebra
    #
    # ADSets are finite (INCLUDE) or cofinite (ALL/EXCLUDE) sets, which are
    # closed under intersection and union.  IDRP uses this to propagate
    # allowed-source scopes through path-vector advertisements without
    # enumerating the whole internet.
    #
    # ALL and EXCLUDE(empty) are the same predicate but distinct values
    # (and distinct on the wire).  Every result is built as if ALL were
    # first normalised to EXCLUDE(empty), so an identity operand returns
    # the other one normalised -- ``X & everyone`` is ``X._as_exclude()``,
    # never ``X`` itself when ``X`` is ALL.

    def _as_exclude(self) -> "ADSet":
        """Normalise ALL to EXCLUDE(empty) for the algebra."""
        if self.mode is _ALL:
            return _EXCLUDE_NONE
        return self

    def intersect(self, other: "ADSet") -> "ADSet":
        """Set intersection (stays finite/cofinite)."""
        am, bm = self.mode, other.mode
        if bm is _ALL or (bm is _EXCLUDE and not other.members):
            return self._as_exclude()
        if am is _ALL or (am is _EXCLUDE and not self.members):
            return other._as_exclude()
        if am is _INCLUDE and bm is _INCLUDE:
            return ADSet(_INCLUDE, self.members & other.members)
        if am is _INCLUDE:
            return ADSet(_INCLUDE, self.members - other.members)
        if bm is _INCLUDE:
            return ADSet(_INCLUDE, other.members - self.members)
        return ADSet(_EXCLUDE, self.members | other.members)

    def union(self, other: "ADSet") -> "ADSet":
        """Set union (stays finite/cofinite)."""
        am, bm = self.mode, other.mode
        if bm is _INCLUDE and not other.members:
            return self._as_exclude()
        if am is _INCLUDE and not self.members:
            return other._as_exclude()
        if am is _ALL or bm is _ALL:
            return _EXCLUDE_NONE
        if am is _INCLUDE and bm is _INCLUDE:
            return ADSet(_INCLUDE, self.members | other.members)
        if am is _INCLUDE:
            return ADSet(_EXCLUDE, other.members - self.members)
        if bm is _INCLUDE:
            return ADSet(_EXCLUDE, self.members - other.members)
        return ADSet(_EXCLUDE, self.members & other.members)

    def is_subset_of(self, other: "ADSet") -> bool:
        """Whether every AD this set admits is admitted by ``other``."""
        am, bm = self.mode, other.mode
        if bm is _ALL:
            return True
        if am is _INCLUDE:
            if bm is _INCLUDE:
                return self.members <= other.members
            return self.members.isdisjoint(other.members)
        if bm is _INCLUDE:
            return False  # a cofinite set never fits in a finite one
        if am is _ALL:
            return not other.members
        return other.members <= self.members

    @classmethod
    def none(cls) -> "ADSet":
        """The empty set; one shared value."""
        return _NONE

    @property
    def is_empty(self) -> bool:
        """Whether the set is certainly empty (cofinite sets never are)."""
        return self.mode is _SetMode.INCLUDE and not self.members

    def plausible_size(self) -> float:
        """Cardinality: exact for finite sets, ``inf`` for cofinite ones."""
        if self.mode is _SetMode.INCLUDE:
            return float(len(self.members))
        return float("inf")

    def __contains__(self, ad_id: ADId) -> bool:
        return self.matches(ad_id)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.mode is _SetMode.ALL:
            return "*"
        sign = "" if self.mode is _SetMode.INCLUDE else "!"
        return sign + "{" + ",".join(str(m) for m in sorted(self.members)) + "}"


_ALL, _INCLUDE, _EXCLUDE = _SetMode.ALL, _SetMode.INCLUDE, _SetMode.EXCLUDE
_EVERYONE = ADSet(_ALL)
_NONE = ADSet(_INCLUDE, frozenset())
_EXCLUDE_NONE = ADSet(_EXCLUDE, frozenset())


@dataclass(frozen=True)
class TimeWindow:
    """A daily time window ``[start_hour, end_hour)`` with wraparound.

    ``TimeWindow(22, 6)`` matches hours 22,23,0..5.  Equal endpoints make
    the window universal (always matches), which is the default.
    """

    start_hour: int = 0
    end_hour: int = 0

    def __post_init__(self) -> None:
        for h in (self.start_hour, self.end_hour):
            if not 0 <= h < 24:
                raise ValueError(f"hour {h} out of range [0, 24)")

    @classmethod
    def always(cls) -> "TimeWindow":
        return cls(0, 0)

    @property
    def is_universal(self) -> bool:
        return self.start_hour == self.end_hour

    def matches(self, hour: int) -> bool:
        """Whether the given hour of day falls inside the window."""
        if not 0 <= hour < 24:
            raise ValueError(f"hour {hour} out of range [0, 24)")
        if self.is_universal:
            return True
        if self.start_hour < self.end_hour:
            return self.start_hour <= hour < self.end_hour
        return hour >= self.start_hour or hour < self.end_hour

    def size_bytes(self) -> int:
        """Encoded size: two hour bytes."""
        return 2
