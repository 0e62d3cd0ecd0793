import math
import re
import tracemalloc

import pytest

from systolic import census, words
from systolic.census import (
    CensusMismatch,
    CensusTable,
    N_of,
    count_words_by_trace,
    divisor_count,
    n_by_enumeration,
    n_by_formula,
)

from _oracles import (
    brute_force_matrices,
    brute_force_trace_count,
    divisor_list,
    full_range_enumeration,
    length_capped_word_counts,
    two_root_word_counts,
)


def test_divisor_count_examples():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(5) == 2
    # a float would count the integers that divide it, and a bool reads as 0 or 1
    for n in (0, -3, 2.5, 4.0, True, "4"):
        with pytest.raises(ValueError, match=f"^divisor_count needs an integer n >= 1, got {re.escape(repr(n))}$"):
            divisor_count(n)


def test_sieve_matches_trial_division():
    # limits 1 and 2 run the pair loop for i = 1 only; the perfect square
    # 3025 = 55**2 makes its last i count the limit itself as i*i.  The
    # limits around one and three blocks end the table just before, at and
    # just past a block's end (the block's end, 2**14 = 128**2, is a square
    # too), so the later blocks start their progressions mid-stride.  The
    # reference tallies every divisor of every n, so it shares no pair rule
    # with the sieve; trial division checks it at the block edges.
    block = census._SIEVE_BLOCK
    top = 3 * block + 1
    every = [0] * (top + 1)
    for i in range(1, top + 1):
        for j in range(i, top + 1, i):
            every[j] += 1
    for n in (1, block - 1, block, block + 1, 2 * block, 2 * block + 1, top):
        assert every[n] == divisor_count(n), n
    for limit in (1, 2, 3000, 3025, block - 1, block, block + 1, top - 2, top - 1, top):
        assert census._divisor_counts(limit) == every[: limit + 1], limit


def test_sieve_at_the_cap_counts_every_pair_in_a_byte():
    # the most divisors of any n <= MAX_SIEVE_LIMIT is 448, at 8648640: 224
    # pairs, below the 255 at which a byte counter is refused.  720720, with
    # 240 divisors, is more than a byte could count one divisor at a time
    tau = census._divisor_counts(census.MAX_SIEVE_LIMIT)
    most = max(tau)
    assert most == 448 == divisor_count(8648640)
    assert tau.index(most) == 8648640
    for centre in (720720, 8648640):
        for n in range(centre - 2, centre + 3):
            assert tau[n] == divisor_count(n), n
    assert tau[720720] == 240


def test_sieve_refuses_a_pair_counter_that_would_wrap(monkeypatch):
    # the guard reads the saturated byte, so a table that saturates at once
    # stands in for a number with more pairs than a byte holds
    monkeypatch.setattr(census, "_PLUS_ONE", b"\xff" * 256)
    with pytest.raises(OverflowError, match=r"^a divisor-pair counter in \[1, 11\) passed 254$"):
        census._divisor_counts(10)


def test_sieve_peak_memory_is_the_table_it_keeps():
    # the cap on the sieve bounds the host's memory only if building it
    # allocates no more than the one table it keeps
    tracemalloc.start()
    try:
        tau = census._divisor_counts(10**5)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tau) == 10**5 + 1
    assert peak <= 1.5 * held, (peak, held)


def test_sieve_divisors_are_exact():
    tau = census._divisor_counts(3000)
    for n in range(1, 3001):
        divs = divisor_list(n)
        assert divs == [d for d in range(1, n + 1) if n % d == 0]
        assert tau[n] == len(divs)
    with pytest.raises(ValueError):
        divisor_list(0)


def test_spot_values():
    assert n_by_formula(3) == {3: 2}
    assert n_by_formula(5) == {3: 2, 4: 6, 5: 8}
    assert N_of(2) == 0
    assert N_of(4) == 8
    assert N_of(5) == 16


def test_counts_match_bruteforce_search():
    formula = n_by_formula(14)
    enumerated = n_by_enumeration(14)
    assert list(formula) == sorted(enumerated) == list(range(3, 15))
    for m in range(3, 15):
        expected = brute_force_trace_count(m)
        assert formula[m] == expected
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


def test_enumeration_refuses_a_matrix_off_the_determinant(monkeypatch):
    # a wrong modular inverse starts d off its progression mod b; the walk's
    # own determinant check, not a histogram compared later, notices it at
    # the first such quadruple: a = 1, b = 2 steps from d = 6, c = 2
    monkeypatch.setattr(census, "pow", lambda a, e, m: 0, raising=False)
    with pytest.raises(AssertionError, match=r"^enumeration produced a bad matrix \(1,2,2,6\)$"):
        n_by_enumeration(10)


def test_every_census_route_refuses_a_trace_above_the_cap_before_allocating(monkeypatch):
    # the cap is the largest trace whose sieve of m*m // 4 entries fits under
    # MAX_SIEVE_LIMIT; the two routes that read no sieve are refused at it too,
    # before their lists of max_trace entries are made
    cap = census._MAX_TRACE
    assert cap == 6324
    assert cap * cap // 4 <= census.MAX_SIEVE_LIMIT < (cap + 1) * (cap + 1) // 4

    def no_table(limit):
        raise AssertionError(f"a divisor table of {limit} entries was built")

    monkeypatch.setattr(census, "_divisor_counts", no_table)
    for route, m in (
        (n_by_formula, cap + 1),
        (CensusTable.build, cap + 1),
        (N_of, cap + 1),
        (count_words_by_trace, 10**8),
        (n_by_enumeration, 10**9),
    ):
        with pytest.raises(ValueError, match=f"^trace {m} exceeds the cap of {cap} "):
            route(m)
    census._require_trace(cap)


def test_every_census_route_refuses_a_non_integer_trace_before_allocating(monkeypatch):
    # a float, a numeral or a bool would size a list or a sieve; each is
    # refused by the gate's type test, with no sieve built
    def no_table(limit):
        raise AssertionError(f"a divisor table of {limit} entries was built")

    monkeypatch.setattr(census, "_divisor_counts", no_table)
    for m in (5.5, True, "7"):
        for route in (n_by_formula, n_by_enumeration, count_words_by_trace, CensusTable.build):
            with pytest.raises(ValueError, match=f"^trace {m!r} is not an integer$"):
                route(m)
        with pytest.raises(ValueError, match=f"^N is defined for integers m >= 2, got {m!r}$"):
            N_of(m)


def test_enumerated_matrices_are_exactly_the_bruteforce_set():
    for m in range(3, 12):
        _, mats = full_range_enumeration(m, with_matrices=True)
        assert set(mats) == brute_force_matrices(m)


def test_enumerated_matrices_roundtrip_through_words():
    for m in range(3, 41):
        count, mats = full_range_enumeration(m, with_matrices=True)
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
    # parities, so the weight-1 centre a = m/2 too.  The formula is run at
    # every bound, so each reads a table of the least size it asks for
    full = {m: full_range_enumeration(m) for m in range(3, 121)}
    full_walk = two_root_word_counts(120)
    enumerated = n_by_enumeration(120)
    for m in range(3, 121):
        assert full[m] == sum(divisor_count(a * (m - a) - 1) for a in range(1, m))
        assert enumerated[m] == full[m]
        assert n_by_formula(m) == {t: full[t] for t in range(3, m + 1)}, m
        assert count_words_by_trace(m) == {t: full_walk[t] for t in range(3, m + 1)}


def test_progression_walk_matches_the_divisor_list_oracle_at_every_bound():
    # the walk's bounds depend on max_trace (a <= max_trace // 2, the isqrt
    # cap on b, the stop at d > max_trace - a), so every bound is walked
    # on its own and each of its rows compared with the oracle's count
    full = {m: full_range_enumeration(m) for m in range(3, 151)}
    for bound in range(3, 151):
        assert n_by_enumeration(bound) == {m: full[m] for m in range(3, bound + 1)}, bound


def test_chain_walk_matches_the_length_capped_and_two_root_walks():
    # the L-chain walk drops the length cap and seeds its stack from the
    # spine L^j; both oracles keep the cap, one of them walks both roots.
    # An oracle's histogram at bound m is its bound-150 one cut to m (the
    # cap 149 cuts no word of trace <= m), so each oracle walks once.  Every
    # bound m takes the step-1 tails of the seed chains L^j R, which start
    # below m for j < m - 2 and at m for the last seed, j = m - 2
    capped = length_capped_word_counts(150)
    assert capped == two_root_word_counts(150)
    for m in range(3, 151):
        assert count_words_by_trace(m) == {t: capped[t] for t in range(3, m + 1)}, m


def test_word_search_matches_formula():
    assert count_words_by_trace(60) == n_by_formula(60)


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
    # build their matrices.  The formula builds its own divisor table, so
    # the poison goes in through the function it builds it with.
    divisor_counts = census._divisor_counts
    for poisoned in (224, 160):

        def poisoned_counts(limit, poisoned=poisoned):
            tau = divisor_counts(limit)
            tau[poisoned] = 2
            return tau

        monkeypatch.setattr(census, "_divisor_counts", poisoned_counts)
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
