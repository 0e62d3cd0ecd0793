"""Exact counts of determinant-1 non-negative integer matrices by trace.

For a trace m >= 3 the count is

    n(m) = sum over a in [1, m-1] of d(a*(m-a) - 1)

where d is the number-of-divisors function: the trace fixes d = m - a, and
the determinant relation forces b*c = a*d - 1, so b runs over the divisors
of a*(m-a) - 1.  Three routes give the counts, each as one histogram
{m: n(m)} over the traces 3..max_trace: the formula (``n_by_formula``),
building every matrix (``n_by_enumeration``) and walking the binary tree of
words in L and R, pruning on the monotone trace (``count_words_by_trace``).
``CensusTable.build(check=True)`` compares the three histograms.
``CensusTable.to_csv`` is the one view of the growth of N(m): its last two
columns are N/(m^2 log m) and N/(m^2 log log m), reported and never
judged, since the growth statements hide unspecified constants.

Each route does its work once through a symmetry, which its docstring
states and proves.  The routes stay independent: only the formula reads a
divisor table (``_divisor_counts``, built once per call), the enumeration
checks every matrix it builds against the determinant, and the word walk
multiplies letters.  Table rows are assembled in deterministic order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate
from operator import add

__all__ = [
    "divisor_count",
    "MAX_SIEVE_LIMIT",
    "n_by_formula",
    "n_by_enumeration",
    "N_of",
    "count_words_by_trace",
    "CensusMismatch",
    "CensusRow",
    "CensusTable",
]


# Largest sieve the library will allocate.  Building it peaks at the table
# it keeps, about 76 MiB (tracemalloc at 10**6: 7.6 MiB held, 7.9 MiB at
# the peak with one block's counts in flight, scaled tenfold; a fresh
# process that builds it reads a ru_maxrss of 90 MiB) and takes about
# 1.1-1.5 s on a 2-vCPU Xeon VM.  A larger request is refused with
# ValueError before anything is allocated, rather than ending in
# MemoryError or exhausting the host.
MAX_SIEVE_LIMIT = 10**7
# Largest census trace: a trace-m census reads a sieve of m*m // 4 entries,
# which fits under the cap exactly when m*m <= 4 * MAX_SIEVE_LIMIT + 3.
_MAX_TRACE = math.isqrt(4 * MAX_SIEVE_LIMIT + 3)


def divisor_count(n: int) -> int:
    """Number of positive divisors, by trial division (one-off queries)."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"divisor_count needs an integer n >= 1, got {n!r}")
    count = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            count += 1 if i * i == n else 2
        i += 1
    return count


# Counters per block of the sieve: a bytearray this long and the list of
# its doubled counts are all that building the table holds besides the table.
_SIEVE_BLOCK = 1 << 14
# Maps a byte counter v to v + 1, and 255 to itself, so that a counter which
# would wrap stays at 255, where the sieve's guard sees it.
_PLUS_ONE = bytes(range(1, 256)) + b"\xff"


def _divisor_counts(limit: int) -> list[int]:
    """Divisor counts for every n in [1, limit]: entry n is d(n), entry 0 is 0.

    Each pair of divisors i < j with i*j = n adds 2 to n's count, and a
    square i*i adds 1 more.  The pairs are counted in byte counters, one
    block of ``_SIEVE_BLOCK`` consecutive n at a time: for each i, one
    slice of the block's multiples of i from i*i + i on goes through
    ``bytes.translate`` with the +1 table, so that each i costs one C-level
    pass per block.  One ``map(add, ...)`` then writes twice each count
    into the table, and the squares get their 1 at the end.  No counter can
    wrap: every n <= 10**7 has at most 448 divisors, so at most 224 pairs,
    and a byte holds 254 before it reaches the saturated 255, which the
    build refuses with OverflowError.  Memory is O(limit); for a census up
    to trace m the arguments reach roughly m*m/4, so the table for m = 300
    holds ~22500 entries.
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(
            f"sieve limit {limit} exceeds the cap of {MAX_SIEVE_LIMIT} entries "
            f"(traces above {_MAX_TRACE})"
        )
    tau = [0] * (limit + 1)
    for lo in range(1, limit + 1, _SIEVE_BLOCK):
        hi = min(lo + _SIEVE_BLOCK, limit + 1)
        pairs = bytearray(hi - lo)
        # the pair i < j = n // i lies in the block from n = i*i + i on,
        # at the block's first multiple of i past that
        for i in range(1, math.isqrt(hi - 1) + 1):
            start = max(i * i + i, lo + (-lo) % i) - lo
            pairs[start::i] = pairs[start::i].translate(_PLUS_ONE)
        if 255 in pairs:
            raise OverflowError(f"a divisor-pair counter in [{lo}, {hi}) passed 254")
        tau[lo:hi] = map(add, pairs, pairs)
    for i in range(1, math.isqrt(limit) + 1):
        tau[i * i] += 1
    return tau


def _is_int(value) -> bool:
    """An int that is not a bool, as ``ribbon._is_int``: this module imports
    no other module of the package, so the census command loads it alone."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_trace(m: int) -> None:
    """The one gate for a census trace, asked before anything is allocated
    for it: m is an int, not a bool, with 3 <= m <= _MAX_TRACE, the largest
    trace whose sieve fits under ``MAX_SIEVE_LIMIT``."""
    if not _is_int(m):
        raise ValueError(f"trace {m!r} is not an integer")
    if m <= 2:
        raise ValueError(f"trace {m} rejected: the count is only finite for traces >= 3")
    if m > _MAX_TRACE:
        raise ValueError(f"trace {m} exceeds the cap of {_MAX_TRACE} (a sieve of {MAX_SIEVE_LIMIT} entries)")


def n_by_formula(max_trace: int) -> dict[int, int]:
    """Histogram of matrix counts per trace in [3, max_trace], by the
    divisor-sum formula.

    The summand is unchanged under a <-> m-a, so each a < m - a counts
    twice and the centre a = m/2 of an even m once.  One table of
    max_trace**2 // 4 entries serves every trace: the largest index read,
    (m // 2) ** 2 - 1, is below m*m/4, and the least, m - 2, is at least 1.
    """
    _require_trace(max_trace)
    tau = _divisor_counts(max_trace * max_trace // 4)
    counts = {}
    for m in range(3, max_trace + 1):
        total = 2 * sum(tau[a * (m - a) - 1] for a in range(1, (m + 1) // 2))
        if m % 2 == 0:
            total += tau[(m // 2) ** 2 - 1]
        counts[m] = total
    return counts


def n_by_enumeration(max_trace: int) -> dict[int, int]:
    """Histogram of matrix counts per trace in [3, max_trace], by building
    every matrix.

    Swapping a <-> d and transposing (b <-> c) both keep the trace and the
    determinant, so each orbit of a matrix (a, b, c, d) has exactly one
    member with a <= d and b <= c, which the walk builds and weighs by the
    orbit's size.  From ad - bc = 1 that member has gcd(a, b) = 1,
    b*b <= a*d - 1 and d = a^-1 (mod b), so for each a <= max_trace // 2
    and each b coprime to it with b*b <= a*(max_trace - a) - 1, d steps
    through its progression mod b, from the least d >= a with
    a*d >= b*b + 1 to the trace bound, with c = (a*d - 1) / b growing by a
    at each step.  An orbit has 4 members unless a = d or b = c, which halve
    it; both at once would need a*a - b*b = 1 with b >= 1.  Every quadruple
    built is checked against the determinant.  The walk reads no sieve.
    """
    _require_trace(max_trace)
    counts = [0] * (max_trace + 1)
    for a in range(1, max_trace // 2 + 1):
        d_max = max_trace - a
        for b in range(1, math.isqrt(a * d_max - 1) + 1):
            if math.gcd(a, b) != 1:
                continue
            low = max(a, -(-(b * b + 1) // a))
            d = low + (pow(a, -1, b) - low) % b
            c = (a * d - 1) // b
            while d <= d_max:
                if a * d - b * c != 1:
                    raise AssertionError(f"enumeration produced a bad matrix ({a},{b},{c},{d})")
                counts[a + d] += (1 if c == b else 2) * (1 if a == d else 2)
                d += b
                c += a
    return {m: counts[m] for m in range(3, max_trace + 1)}


def N_of(m: int) -> int:
    """Cumulative count over traces 3..m, the last row's N of the census
    table to m; the empty sum, 0, at m = 2.  An m that is not an int, is a
    bool or is below 2 is refused, and an m >= 3 goes through the table's
    trace gate."""
    if not _is_int(m) or m < 2:
        raise ValueError(f"N is defined for integers m >= 2, got {m!r}")
    if m == 2:
        return 0
    return CensusTable.build(m).rows[-1].N


def count_words_by_trace(max_trace: int) -> dict[int, int]:
    """Histogram of word counts per trace in [3, max_trace] by tree search.

    Swapping L and R maps (a, b, c, d) to (d, c, b, a), keeps the trace and
    takes the subtree below L onto the one below R, so the walk descends
    from L alone and counts each node twice.  From a node of trace
    t = a + d the L child has trace t + c and the R child t + b, and
    appending letters never lowers the trace.  Below L lies the spine
    L^j = (1, j, 0, 1), all of trace 2, whose R children L^j R =
    (1 + j, j, 1, 1) of trace j + 2 seed the stack.  Each node popped walks
    its own L-chain (t += c, b += a, d += c), counting every link and
    pushing its R child.  Along the chain c stays fixed and, off the spine,
    a, c >= 1, so t and b only grow: once t + b passes the bound, no later
    link has an R child within it, and the rest of the chain is just the
    traces t, t + c, t + 2c, ... up to the bound, counted by one range with
    no pushes.  A pushed node has c + d >= 2 in its c, so c = 1 only on the
    seed chains, whose tails are runs of every trace from t to the bound:
    each marks its start in a difference list, and one running sum at the
    end adds all of them into the histogram.  The spine, whose trace stays
    2, is the one branch the trace bound cannot end; listing it directly
    replaces the length cap, since every other word has trace at least its
    length + 1, and the trace bound alone ends each remaining branch.
    Distinct words have distinct matrices and the walk reads no sieve, so
    this is an independent oracle for the divisor-based counts.
    """
    _require_trace(max_trace)
    counts = [0] * (max_trace + 1)
    starts = [0] * (max_trace + 1)
    stack = [(1 + j, j, 1, 1) for j in range(1, max_trace - 1)]
    while stack:
        a, b, c, d = stack.pop()
        t = a + d
        while t + b <= max_trace:
            counts[t] += 1
            stack.append((a + b, b, c + d, d))
            t += c
            b += a
            d += c
        if c == 1:
            starts[t] += 1
        else:
            for u in range(t, max_trace + 1, c):
                counts[u] += 1
    counts = list(map(add, counts, accumulate(starts)))
    return {m: 2 * counts[m] for m in range(3, max_trace + 1)}


class CensusMismatch(Exception):
    """Raised when the three counting routes disagree at some trace."""

    def __init__(self, trace: int, formula: int, enumeration: int, words: int):
        self.trace = trace
        self.formula = formula
        self.enumeration = enumeration
        self.words = words
        super().__init__(
            f"census mismatch at trace {trace}: formula={formula} "
            f"enumeration={enumeration} word-search={words}"
        )


CensusRow = namedtuple("CensusRow", "m n N")


class CensusTable:
    """Rows n(m), N(m) for 3 <= m <= m_max with optional triple cross-check."""

    def __init__(self, rows: list[CensusRow]):
        self.rows = rows

    @classmethod
    def build(cls, m_max: int, *, check: bool = False) -> "CensusTable":
        counts = n_by_formula(m_max)
        if check:
            enum_counts = n_by_enumeration(m_max)
            word_counts = count_words_by_trace(m_max)
            for m, n in counts.items():
                if not (n == enum_counts[m] == word_counts[m]):
                    raise CensusMismatch(m, n, enum_counts[m], word_counts[m])
        return cls(list(map(CensusRow, counts, counts.values(), accumulate(counts.values()))))

    def to_csv(self) -> str:
        """CSV with header m,n,N,ratio_mlogm,ratio_mloglogm and one row per trace."""
        lines = ["m,n,N,ratio_mlogm,ratio_mloglogm"]
        for r in self.rows:
            m = r.m
            mlogm = r.N / (m * m * math.log(m))
            mloglogm = r.N / (m * m * math.log(math.log(m)))
            lines.append(f"{m},{r.n},{r.N},{mlogm:.12g},{mloglogm:.12g}")
        return "\n".join(lines) + "\n"

