"""Summary statistics shared by the load process and the tests (stdlib only)."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.  The tail metric takes the
# highest one that leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(sorted_values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of ascending values and the count strictly beyond its rank."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_values[rank - 1]), n - rank


def tail_percentile(guaranteed_samples: int) -> float:
    """Highest ladder percentile that keeps TAIL_MIN_BEYOND samples beyond it.

    The choice is made from the sample count every run is guaranteed to
    reach, so that runs which happen to collect more samples still report
    the same percentile.  With too few samples for any rung the maximum
    (percentile 100) is reported, and the beyond-count shows the shortfall.
    """
    for pct in TAIL_LADDER:
        if guaranteed_samples - max(1, math.ceil(pct / 100.0 * guaranteed_samples)) >= TAIL_MIN_BEYOND:
            return pct
    return 100.0


def tail(values, guaranteed_samples: int) -> dict:
    """Tail of single-run times: value, the percentile used and samples beyond it."""
    ordered = sorted(values)
    pct = tail_percentile(guaranteed_samples)
    value, beyond = nearest_rank(ordered, pct)
    return {"value": value, "percentile": pct, "beyond": beyond, "samples": len(ordered)}
