import math
import random
from fractions import Fraction

import pytest

from systolic import census, ribbon, words
from systolic.words import (
    UniMat,
    canonical,
    geodesic_length,
    is_letter_power,
    matrix_of,
    star,
    trace_of,
    word_of_matrix,
)

from _oracles import (
    GOLDEN_RATIO,
    all_words,
    equivalence_class,
    insert_letter,
    log_phi_ceil,
    matmul,
    phi_power_floor,
    phi_trace_ceiling,
    random_word,
)


def test_generator_products_match_hand_computation():
    assert matrix_of("") == (1, 0, 0, 1)
    assert matrix_of("LR") == (2, 1, 1, 1)
    assert matrix_of("RL") == (1, 1, 1, 2)
    assert matrix_of("LLL") == (1, 3, 0, 1)


def test_trace_examples():
    assert trace_of("") == 2
    assert trace_of("LR") == 3
    for k in range(3, 16):
        assert trace_of("L" * (k - 2) + "R") == k


def test_matmul_matches_word_concatenation():
    rng = random.Random(1)
    for _ in range(200):
        u, v = random_word(rng, 12), random_word(rng, 12)
        assert matmul(matrix_of(u), matrix_of(v)) == matrix_of(u + v)


def test_unimat_validation():
    with pytest.raises(ValueError, match=r"^matrix \(1, 1, 1, 1\) does not have determinant 1$"):
        UniMat(1, 1, 1, 1)  # det 0
    with pytest.raises(ValueError, match="^matrix entry b=-1 is negative$"):
        UniMat(2, -1, 1, 1)
    with pytest.raises(ValueError, match=r"^matrix entry a=1\.0 is not an integer$"):
        UniMat(1.0, 0, 0, 1)  # type: ignore[arg-type]
    with pytest.raises(ValueError, match="^matrix entry d=True is not an integer$"):
        UniMat(a=1, b=0, c=0, d=True)
    # entries are checked in order, each for its type and then its sign
    with pytest.raises(ValueError, match="^matrix entry a=-1 is negative$"):
        UniMat(-1, "x", 0, 1)  # type: ignore[arg-type]


def test_unimat_replace_checks_entries():
    # a named tuple's _replace builds through _make, which must check too
    assert UniMat(1, 0, 0, 1)._replace(b=3) == UniMat(1, 3, 0, 1)
    with pytest.raises(ValueError, match="does not have determinant 1"):
        UniMat(1, 0, 0, 1)._replace(c=2, b=3)


def test_unimat_parse():
    assert UniMat.parse("2,1,1,1") == UniMat(2, 1, 1, 1)
    with pytest.raises(ValueError):
        UniMat.parse("2,1,1")
    with pytest.raises(ValueError):
        UniMat.parse("2,1,1,x")


def test_word_validation():
    with pytest.raises(ValueError):
        trace_of("LXR")
    with pytest.raises(ValueError, match="must be a string"):
        words.check_word(5)  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        matrix_of("lr")


def test_check_word_names_the_first_bad_letter():
    long_word = "L" * (10**6 - 1) + "x"
    for word, text in [
        ("LLRxRLyL", "invalid letter 'x' at position 3: words use only L and R"),
        ("LRλR", "invalid letter 'λ' at position 2: words use only L and R"),
        (long_word, "invalid letter 'x' at position 999999: words use only L and R"),
    ]:
        with pytest.raises(ValueError) as exc:
            words.check_word(word)
        assert str(exc.value) == text
    for word in ("", "L", "RRLRL", "L" * 10**6):
        words.check_word(word)


def test_geodesic_length_values():
    # frozen from an independent high-precision evaluation of 2*arccosh(t/2)
    assert geodesic_length(2) == 0.0
    assert geodesic_length(3) == pytest.approx(1.9248473002384139, rel=1e-12)
    assert geodesic_length(20) == pytest.approx(5.986445692252762, rel=1e-12)
    with pytest.raises(ValueError, match="^trace 1 is below 2"):
        geodesic_length(1)
    for t in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match=f"^trace {t!r} is not an integer$"):
            geodesic_length(t)
    traces = [2, 3, 5, 100, 2**40, 2**60, 2**200]
    lengths = [geodesic_length(t) for t in traces]
    assert lengths == sorted(lengths)
    assert geodesic_length(2**60) == pytest.approx(2 * math.log(2**60), rel=1e-12)


def test_star_examples_and_involution():
    assert star("LLR") == "LRR"
    assert star("") == ""
    rng = random.Random(2)
    for _ in range(200):
        w = random_word(rng, 15)
        assert star(star(w)) == w
        # star is matrix transposition, hence trace-preserving
        a, b, c, d = matrix_of(w)
        assert matrix_of(star(w)) == (a, c, b, d)


def test_equivalent_examples():
    assert canonical("RL") == canonical("LR")
    assert canonical("LLR") == canonical("LRR")  # via star
    assert canonical("") == canonical("")
    assert canonical("LL") != canonical("LR")
    assert canonical("L") != canonical("LL")


def test_canonical_examples():
    assert canonical("RL") == "LR"
    assert canonical("") == ""
    assert canonical("RRL") == "LLR"


def test_equivalence_soundness_exhaustive_to_14():
    # traces agree across every class, canonical is a class invariant, and
    # equal canonicals happen exactly within a class
    # both functions are pure, so each is computed once per word
    trace_cache = {w: trace_of(w) for w in all_words(14)}
    canon_cache = {w: canonical(w) for w in all_words(14)}
    for w in all_words(14):
        cls = equivalence_class(w)
        canon = canon_cache[w]
        assert canon in cls
        assert canon == min(cls)
        t = trace_cache[w]
        for v in cls:
            assert trace_cache[v] == t
            assert canon_cache[v] == canon


def test_word_of_matrix_examples():
    assert word_of_matrix(UniMat(2, 1, 1, 1)) == "LR"
    assert word_of_matrix(UniMat(1, 0, 0, 1)) == ""
    # a letter power is the trace-2 remainder alone, spelled by the one tail
    for b in range(201):
        assert word_of_matrix(UniMat(1, b, 0, 1)) == "L" * b
        assert word_of_matrix(UniMat(1, 0, b, 1)) == "R" * b
    with pytest.raises(ValueError):
        word_of_matrix((2, 1, 1, 1))  # type: ignore[arg-type]


def test_the_int_rule_has_one_home_and_one_copy():
    # ribbon reads words' rule; census, loaded alone by its command, keeps
    # a copy that must agree with it
    assert ribbon._is_int is words._is_int
    table = [0, 1, -1, 2**70, True, False, 1.0, "1", None, Fraction(1)]
    assert [census._is_int(v) for v in table] == [words._is_int(v) for v in table]
    assert [words._is_int(v) for v in table] == [True] * 4 + [False] * 6


def test_roundtrip_exhaustive_to_10():
    for w in all_words(10):
        assert word_of_matrix(matrix_of(w)) == w


def test_roundtrip_sampled_len_40():
    rng = random.Random(3)
    for _ in range(2000):
        w = random_word(rng, 40)
        assert word_of_matrix(matrix_of(w)) == w


def test_insert_letter_examples():
    assert insert_letter("", 0, "R") == "R"
    assert (trace_of(""), trace_of(insert_letter("", 0, "R"))) == (2, 2)
    assert insert_letter("LR", 0, "L") == "LLR"
    assert (trace_of("LR"), trace_of(insert_letter("LR", 0, "L"))) == (3, 4)
    for pos in range(6):
        assert (trace_of("LLLLL"), trace_of(insert_letter("LLLLL", pos, "R"))) == (2, 7)
    with pytest.raises(ValueError):
        insert_letter("LR", 3, "L")
    with pytest.raises(ValueError):
        insert_letter("LR", 0, "LL")


def test_insertion_monotonicity_exhaustive_to_9():
    for w in all_words(9):
        for pos in range(len(w) + 1):
            for letter in "LR":
                before, after = trace_of(w), trace_of(insert_letter(w, pos, letter))
                assert after >= before, (w, pos, letter)


def test_insertion_monotonicity_sampled_long_words():
    rng = random.Random(4)
    for _ in range(2000):
        w = random_word(rng, 30)
        pos = rng.randint(0, len(w))
        letter = rng.choice("LR")
        before, after = trace_of(w), trace_of(insert_letter(w, pos, letter))
        assert after >= before, (w, pos, letter)


def test_phi_power_floor_against_float():
    # doubles drift above the true power around n = 36, hence the small range
    for n in range(0, 26):
        assert phi_power_floor(n) == math.floor(GOLDEN_RATIO**n), n


def test_phi_power_floor_high_precision():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    phi = (1 + mp.sqrt(5)) / 2
    for n in range(0, 140):
        assert phi_power_floor(n) == int(mp.floor(phi**n))


def test_log_phi_ceil():
    assert log_phi_ceil(1) == 0
    assert log_phi_ceil(2) == 2
    assert log_phi_ceil(4) == 3
    assert log_phi_ceil(11) == 5
    assert log_phi_ceil(19) == 7
    for m in range(2, 200):
        h = log_phi_ceil(m)
        assert GOLDEN_RATIO**h >= m - 1e-9
        assert GOLDEN_RATIO ** (h - 1) < m


def test_trace_bounds_exhaustive_to_12():
    # upper bound floor(phi^n) + 1 with exact integers, lower bound n + 1
    # for anything that is not a letter power, and max trace realized by the
    # alternating words
    ceilings = [phi_trace_ceiling(n) for n in range(13)]
    max_by_len = [0] * 13
    for w in all_words(12):
        t = trace_of(w)
        n = len(w)
        assert t <= ceilings[n], w
        if not is_letter_power(w):
            assert t >= n + 1, w
        max_by_len[n] = max(max_by_len[n], t)
    for n in range(1, 13):
        maximizer = "LR" * (n // 2) if n % 2 == 0 else "R" + "LR" * (n // 2)
        assert max_by_len[n] == trace_of(maximizer), n


def test_is_letter_power():
    assert is_letter_power("")
    assert is_letter_power("LLLL")
    assert is_letter_power("RR")
    assert not is_letter_power("LRL")
