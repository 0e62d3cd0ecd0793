import math
import tracemalloc

import pytest

from systolic import census, words
from systolic.census import (
    CensusMismatch,
    CensusTable,
    DivisorSieve,
    N_of,
    count_words_by_trace,
    divisor_count,
    n_by_enumeration,
    n_by_formula,
)

from _oracles import (
    brute_force_matrices,
    brute_force_trace_count,
    full_range_enumeration,
    length_capped_word_counts,
    sieve_divisors,
    two_root_word_counts,
)


def test_divisor_count_examples():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(5) == 2
    with pytest.raises(ValueError):
        divisor_count(0)


def test_sieve_matches_trial_division():
    # limits 1 and 2 run the pair loop for i = 1 only; the perfect square
    # 3025 = 55**2 makes its last i count the limit itself as i*i
    for limit in (1, 2, 3000, 3025):
        sieve = DivisorSieve(limit)
        for n in range(1, limit + 1):
            assert sieve.divisor_count(n) == divisor_count(n)
        for n in (0, limit + 1):
            with pytest.raises(ValueError):
                sieve.divisor_count(n)
    for limit in (0, census.MAX_SIEVE_LIMIT + 1):  # refused before any table is built
        with pytest.raises(ValueError, match="sieve limit"):
            DivisorSieve(limit)
    with pytest.raises(ValueError, match="too small for trace 60"):
        n_by_formula(60, DivisorSieve(10))


def test_sieve_peak_memory_is_the_table_it_keeps():
    # the cap on the sieve bounds the host's memory only if building it
    # allocates no more than the one table it keeps
    tracemalloc.start()
    try:
        sieve = DivisorSieve(10**5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sieve.limit == 10**5
    assert peak <= 1.5 * held, (peak, held)


def test_sieve_divisors_are_exact():
    sieve = DivisorSieve(3000)
    for n in range(1, 3001):
        divs = sieve_divisors(sieve, n)
        assert divs == [d for d in range(1, n + 1) if n % d == 0]
        assert sieve.divisor_count(n) == len(divs)
    with pytest.raises(ValueError):
        sieve_divisors(sieve, 3001)


def test_spot_values():
    assert n_by_formula(3) == 2
    assert n_by_formula(4) == 6
    assert n_by_formula(5) == 8
    assert N_of(2) == 0
    assert N_of(4) == 8
    assert N_of(5) == 16


def test_counts_match_bruteforce_search():
    enumerated = n_by_enumeration(14)
    assert sorted(enumerated) == list(range(3, 15))
    for m in range(3, 15):
        expected = brute_force_trace_count(m)
        assert n_by_formula(m) == expected
        assert enumerated[m] == expected


def test_traces_two_and_below_are_rejected():
    # trace 2 is the infinite family of letter powers: no count exists
    for fn in (n_by_formula, n_by_enumeration):
        for bad in (0, 1, 2):
            with pytest.raises(ValueError):
                fn(bad)
    with pytest.raises(ValueError, match="^trace 2 rejected: the count is only finite for traces >= 3$"):
        count_words_by_trace(2)
    with pytest.raises(ValueError, match="m >= 2"):
        N_of(1)


def test_every_census_route_refuses_a_trace_above_the_cap_before_allocating(monkeypatch):
    # the cap is the largest trace whose sieve of m*m // 4 entries fits under
    # MAX_SIEVE_LIMIT; the two routes that read no sieve are refused at it too,
    # before their lists of max_trace entries are made
    cap = census._MAX_TRACE
    assert cap == 6324
    assert cap * cap // 4 <= census.MAX_SIEVE_LIMIT < (cap + 1) * (cap + 1) // 4

    class NoSieve:
        def __init__(self, limit):
            raise AssertionError(f"a sieve of {limit} entries was built")

    monkeypatch.setattr(census, "DivisorSieve", NoSieve)
    for route, m in (
        (n_by_formula, cap + 1),
        (CensusTable.build, cap + 1),
        (count_words_by_trace, 10**8),
        (n_by_enumeration, 10**9),
    ):
        with pytest.raises(ValueError, match=f"^trace {m} exceeds the cap of {cap} "):
            route(m)
    census._require_trace(cap)


def test_enumerated_matrices_are_exactly_the_bruteforce_set():
    for m in range(3, 12):
        _, mats = full_range_enumeration(m, with_matrices=True)
        assert set(mats) == brute_force_matrices(m)


def test_enumerated_matrices_roundtrip_through_words():
    sieve = DivisorSieve(40 * 40 // 4)
    for m in range(3, 41):
        count, mats = full_range_enumeration(m, sieve, with_matrices=True)
        assert count == len(mats)
        for mat in mats:
            w = words.word_of_matrix(mat)
            assert words.matrix_of(w) == mat
            assert len(w) <= m - 1


def test_trace_four_matrices_are_the_length_three_words():
    _, mats = full_range_enumeration(4, with_matrices=True)
    found = {words.word_of_matrix(mat) for mat in mats}
    assert found == {"LLR", "LRL", "RLL", "RRL", "RLR", "LRR"}


def test_halved_routes_match_the_full_range_oracles():
    # a <-> m-a halves the formula, a <-> d with the transpose quarters the
    # enumeration, and L <-> R halves the walk; m = 3..120 takes both
    # parities, so the weight-1 centre a = m/2 too
    sieve = DivisorSieve(120 * 120 // 4)
    full_walk = two_root_word_counts(120)
    enumerated = n_by_enumeration(120)
    for m in range(3, 121):
        full = full_range_enumeration(m, sieve)
        assert full == sum(divisor_count(a * (m - a) - 1) for a in range(1, m))
        assert n_by_formula(m, sieve) == full
        assert enumerated[m] == full
        assert count_words_by_trace(m) == {t: full_walk[t] for t in range(3, m + 1)}


def test_progression_walk_matches_the_divisor_list_oracle_at_every_bound():
    # the walk's bounds depend on max_trace (a <= max_trace // 2, the isqrt
    # cap on b, the stop at d > max_trace - a), so every bound is walked
    # on its own and each of its rows compared with the oracle's count
    sieve = DivisorSieve(150 * 150 // 4)
    full = {m: full_range_enumeration(m, sieve) for m in range(3, 151)}
    for bound in range(3, 151):
        assert n_by_enumeration(bound) == {m: full[m] for m in range(3, bound + 1)}, bound


def test_chain_walk_matches_the_length_capped_and_two_root_walks():
    # the L-chain walk drops the length cap and seeds its stack from the
    # spine L^j; both oracles keep the cap, one of them walks both roots.
    # An oracle's histogram at bound m is its bound-150 one cut to m (the
    # cap 149 cuts no word of trace <= m), so each oracle walks once
    capped = length_capped_word_counts(150)
    assert capped == two_root_word_counts(150)
    for m in range(3, 151):
        assert count_words_by_trace(m) == {t: capped[t] for t in range(3, m + 1)}, m


def test_word_search_matches_formula():
    counts = count_words_by_trace(60)
    sieve = DivisorSieve(60 * 60 // 4)
    for m in range(3, 61):
        assert counts[m] == n_by_formula(m, sieve)


def test_partial_sums_strictly_increase():
    table = CensusTable.build(80)
    prev = 0
    for row in table.rows:
        assert row.n >= 1  # witness L^(m-2) R
        assert row.N == prev + row.n
        assert row.N > prev
        prev = row.N


def test_check_mode_catches_corruption(monkeypatch):
    # 224 = 15*15 - 1 (the centre a = d = 15, counted once) and
    # 160 = 7*23 - 1 (a = 7 with its mirror a = 23, counted twice) feed only
    # the trace-30 row; setting either divisor count to 2, as for a prime,
    # is read only by the formula: the enumeration and the word search
    # build their matrices.  The table builds its own sieve, so the poison
    # goes in through the class it builds from.
    for poisoned in (224, 160):

        class PoisonedSieve(DivisorSieve):
            def __init__(self, limit):
                super().__init__(limit)
                self._tau[poisoned] = 2

        monkeypatch.setattr(census, "DivisorSieve", PoisonedSieve)
        with pytest.raises(CensusMismatch) as exc:
            CensusTable.build(30, check=True)
        assert exc.value.trace == 30
        assert exc.value.formula < exc.value.enumeration == exc.value.words


def test_csv_shape():
    table = CensusTable.build(50)
    lines = table.to_csv().strip().split("\n")
    assert lines[0] == "m,n,N,ratio_mlogm,ratio_mloglogm"
    assert len(lines) == 1 + 48
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "2" and first[2] == "2"
    for line in lines[1:]:
        _, _, _, ratio_mlogm, ratio_mloglogm = line.split(",")
        assert float(ratio_mlogm) > 0 and float(ratio_mloglogm) > 0
    # the m = 5 row: N(5) = 16 divided by m^2 log m and by m^2 log log m
    mlogm = 16 / (25 * math.log(5))
    mloglogm = 16 / (25 * math.log(math.log(5)))
    assert lines[3] == f"5,8,16,{mlogm:.12g},{mloglogm:.12g}"
