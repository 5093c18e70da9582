"""Order statistics used by every report of the benchmark."""


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values):
    """Sample count, median and quartiles of ``values``."""
    return {
        "n": len(values),
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
    }


def p90_resolved(count):
    """The 90th percentile is reported as resolved only when at least ten
    samples lie beyond it."""
    return count >= 100


def median(values):
    return quantile(values, 0.5)
