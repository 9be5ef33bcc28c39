"""The benchmark's own arithmetic: quantiles, support, ledger rows.

Everything run.py reports is derived here from the raw samples fgr_ledger
prints, so the rules are testable on their own (test_ledger_math.py).
"""

import math

# A percentile is reported only when at least this many samples lie beyond
# it; otherwise the ledger marks it unsupported.
MIN_BEYOND = 10

# ROADMAP gate: the layer calls must account for all but this share of the
# fgr:: call they decompose.
UNACCOUNTED_GATE = 0.10


def nearest_rank(values, q):
    """The nearest-rank q-quantile: the ceil(q·n)-th smallest sample."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(count, q):
    """How many of `count` samples lie strictly above the nearest rank."""
    return count - max(1, math.ceil(q * count - 1e-9))


def percentile(values, q):
    """(value, sample count, supported) for the nearest-rank q-quantile."""
    return nearest_rank(values, q), len(values), beyond(len(values), q) >= MIN_BEYOND


def median(values):
    return nearest_rank(values, 0.5)


def unaccounted(wall, parts):
    """Wall time of an fgr:: call not covered by the layer calls in it."""
    return wall - sum(parts)


def unaccounted_warning(wall, parts):
    """A warning line when the unaccounted share exceeds the gate, else None."""
    rest = unaccounted(wall, parts)
    if wall > 0 and rest > UNACCOUNTED_GATE * wall:
        return (f"fgr.unaccounted_s = {rest:.4f} s is {rest / wall:.1%} of the "
                f"{wall:.4f} s call (gate {UNACCOUNTED_GATE:.0%})")
    return None


class Failures:
    """Counts operations attempted and failed across every source of a run.

    An operation that errors, is refused, times out or returns a wrong
    answer is one failure; a run that produced no result at all counts as
    one failed attempt, so error_rate is never 0/0.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, failed, reasons=()):
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError("inconsistent counts")
        self.attempted += attempted
        self.failed += failed
        self.reasons.extend(reasons)

    def fail(self, reason):
        self.add(1, 1, [reason])

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0


# Computed (not measured) bytes each kernel moves, from array sizes alone:
# cache misses beyond the model and write-allocate traffic are ignored.
def csr_bytes(n, nnz):
    return 8 * (n + 1) + 16 * nnz  # int64 row_ptr, int64 col_idx, f64 values


def spmm_pass_bytes(n, nnz, k):
    """One W·N pass with an n×k operand: the CSR, one gathered k-row per
    nonzero, and three streamed n×k buffers (two read, one written)."""
    return csr_bytes(n, nnz) + 8 * k * (nnz + 3 * n)


def spmv_bytes(n, nnz):
    return csr_bytes(n, nnz) + 8 * (nnz + 2 * n)


def bw_frac(bytes_moved, seconds, triad_gbps):
    """Achieved bytes/s as a share of the STREAM-triad bandwidth."""
    return bytes_moved / seconds / 1e9 / triad_gbps
