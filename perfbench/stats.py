"""Percentiles under the benchmark's sample-count rule."""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: int) -> float:
    """Nearest-rank ``pct``-th percentile of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it, so a run too small to support a tail figure fails
    loudly instead of reporting one.
    """
    n = len(samples)
    if n * (100 - pct) < MIN_BEYOND * 100:
        raise ValueError(
            f"p{pct} needs {math.ceil(MIN_BEYOND * 100 / (100 - pct))} samples, got {n}"
        )
    rank = math.ceil(n * pct / 100)
    return sorted(samples)[rank - 1]
