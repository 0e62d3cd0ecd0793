"""Exact counts of determinant-1 non-negative integer matrices by trace.

For a trace m >= 3 the count is

    n(m) = sum over a in [1, m-1] of d(a*(m-a) - 1)

where d is the number-of-divisors function: the trace fixes d = m - a, and
the determinant relation forces b*c = a*d - 1, so b runs over the divisors
of a*(m-a) - 1.  The same counts are reproduced two more ways: by building
every matrix (``n_by_enumeration``) and by walking the binary tree of words
in L and R, pruning on the monotone trace (``count_words_by_trace``).  The
three routes are compared by ``CensusTable.build(check=True)``.
``CensusTable.to_csv`` is the one view of the growth of N(m): its last two
columns are N/(m^2 log m) and N/(m^2 log log m), reported and never
judged, since the growth statements hide unspecified constants.

Each route does its work once through a symmetry, which its docstring
states and proves.  The routes stay independent: only the formula reads the
divisor sieve (``DivisorSieve``, built once and then read-only), the
enumeration checks every matrix it builds against the determinant, and the
word walk multiplies letters.  Table rows are assembled in deterministic
order.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "divisor_count",
    "MAX_SIEVE_LIMIT",
    "DivisorSieve",
    "n_by_formula",
    "n_by_enumeration",
    "N_of",
    "count_words_by_trace",
    "CensusMismatch",
    "CensusRow",
    "CensusTable",
]


# Largest sieve the library will allocate.  Building it peaks at the table
# it keeps, about 76 MiB (tracemalloc at 10**6: 7.6 MiB at the peak and
# held, scaled tenfold; a fresh process that builds it reads a ru_maxrss of
# 91 MiB) and takes about 6-7 s on a 2-vCPU Xeon VM.  A larger request is
# refused with ValueError before anything is allocated, rather than ending
# in MemoryError or exhausting the host.
MAX_SIEVE_LIMIT = 10**7
# Largest census trace: a trace-m census reads a sieve of m*m // 4 entries,
# which fits under the cap exactly when m*m <= 4 * MAX_SIEVE_LIMIT + 3.
_MAX_TRACE = math.isqrt(4 * MAX_SIEVE_LIMIT + 3)


def divisor_count(n: int) -> int:
    """Number of positive divisors, by trial division (one-off queries)."""
    if n < 1:
        raise ValueError(f"divisor_count needs n >= 1, got {n}")
    count = 0
    i = 1
    while i * i <= n:
        if n % i == 0:
            count += 1 if i * i == n else 2
        i += 1
    return count


class DivisorSieve:
    """Divisor-count table for every n in [1, limit].

    Each pair of divisors i <= j with i*j = n adds 2 to n's count, or 1
    when i = j.  Memory is O(limit); for a census up to trace m the
    arguments reach roughly m*m/4, so the table for m = 300 holds ~22500
    entries.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError(f"sieve limit must be >= 1, got {limit}")
        if limit > MAX_SIEVE_LIMIT:
            raise ValueError(
                f"sieve limit {limit} exceeds the cap of {MAX_SIEVE_LIMIT} entries "
                f"(traces above {_MAX_TRACE})"
            )
        self.limit = limit
        tau = [0] * (limit + 1)
        for i in range(1, math.isqrt(limit) + 1):
            tau[i * i] += 1
            for j in range(i * i + i, limit + 1, i):
                tau[j] += 2
        self._tau = tau

    def divisor_count(self, n: int) -> int:
        """Number of positive divisors, read from the table."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside sieve range [1, {self.limit}]")
        return self._tau[n]


def _require_trace(m: int) -> None:
    """The one gate for a census trace, asked before anything is allocated
    for it: 3 <= m <= _MAX_TRACE, the largest trace whose sieve fits under
    ``MAX_SIEVE_LIMIT``."""
    if m <= 2:
        raise ValueError(f"trace {m} rejected: the count is only finite for traces >= 3")
    if m > _MAX_TRACE:
        raise ValueError(f"trace {m} exceeds the cap of {_MAX_TRACE} (a sieve of {MAX_SIEVE_LIMIT} entries)")


def _sieve_for(m: int, sieve: DivisorSieve | None) -> DivisorSieve:
    need = max(1, (m * m) // 4)
    if sieve is not None:
        if sieve.limit < need:
            raise ValueError(f"sieve limit {sieve.limit} too small for trace {m} (needs {need})")
        return sieve
    return DivisorSieve(need)


def n_by_formula(m: int, sieve: DivisorSieve | None = None) -> int:
    """Count of trace-m elements via the divisor-sum formula.

    The summand is unchanged under a <-> m-a, so each a < m - a counts
    twice and the centre a = m/2 of an even m once.
    """
    _require_trace(m)
    # _sieve_for checks the largest index read, (m // 2) ** 2 - 1 < m*m/4;
    # the least, m - 2, is at least 1
    tau = _sieve_for(m, sieve)._tau
    total = 2 * sum(tau[a * (m - a) - 1] for a in range(1, (m + 1) // 2))
    if m % 2 == 0:
        total += tau[(m // 2) ** 2 - 1]
    return total


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
    """Cumulative count over traces 3..m; the empty sum, 0, at m = 2."""
    if m < 2:
        raise ValueError(f"N is defined for m >= 2, got {m}")
    sieve = _sieve_for(m, None)
    return sum(n_by_formula(j, sieve) for j in range(3, m + 1))


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
    no pushes.  The spine, whose trace stays 2, is the one branch the trace
    bound cannot end; listing it directly replaces the length cap, since
    every other word has trace at least its length + 1, and the trace bound
    alone ends each remaining branch.  Distinct words have
    distinct matrices and the walk reads no sieve, so this is an
    independent oracle for the divisor-based counts.
    """
    _require_trace(max_trace)
    counts = [0] * (max_trace + 1)
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
        for u in range(t, max_trace + 1, c):
            counts[u] += 1
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
        _require_trace(m_max)
        sieve = _sieve_for(m_max, None)
        if check:
            word_counts = count_words_by_trace(m_max)
            enum_counts = n_by_enumeration(m_max)
        rows: list[CensusRow] = []
        running = 0
        for m in range(3, m_max + 1):
            n_formula = n_by_formula(m, sieve)
            if check:
                n_enum = enum_counts[m]
                n_words = word_counts[m]
                if not (n_formula == n_enum == n_words):
                    raise CensusMismatch(m, n_formula, n_enum, n_words)
            running += n_formula
            rows.append(CensusRow(m, n_formula, running))
        return cls(rows)

    def to_csv(self) -> str:
        """CSV with header m,n,N,ratio_mlogm,ratio_mloglogm and one row per trace."""
        lines = ["m,n,N,ratio_mlogm,ratio_mloglogm"]
        for r in self.rows:
            m = r.m
            mlogm = r.N / (m * m * math.log(m))
            mloglogm = r.N / (m * m * math.log(math.log(m)))
            lines.append(f"{m},{r.n},{r.N},{mlogm:.12g},{mloglogm:.12g}")
        return "\n".join(lines) + "\n"

