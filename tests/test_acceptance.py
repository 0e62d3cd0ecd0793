"""Acceptance suite: one test per release criterion, each printing a
PASS line (run with -s to watch them stream by).

The heavyweight constructions are built once per session and shared.
"""

import json
import math
import random
import time

import pytest

from systolic import builder, census, ribbon, scanner, words
from systolic.cli import main as cli_main

from _oracles import (
    all_words,
    brute_force_trace_count,
    degree,
    forbidden_set_bound,
    insert_letter,
    log_phi_ceil,
    naive_cycle_classes,
    phi_trace_ceiling,
    random_word,
    small_complete_corpus,
)

FLOORS = (5, 8, 12, 16, 20)

_built: dict[int, tuple[ribbon.CubicRibbonGraph, builder.BuildReport, str]] = {}
_build_seconds: dict[int, float] = {}


def built(k: int):
    if k not in _built:
        t0 = time.perf_counter()
        _built[k] = builder.build(builder.SeedSpec(k=k))
        _build_seconds[k] = time.perf_counter() - t0
    return _built[k]


def _announce(number: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_criterion_01_census_triple_oracle():
    t0 = time.perf_counter()
    table = census.CensusTable.build(300, check=True)  # raises on any mismatch
    elapsed = time.perf_counter() - t0
    by_m = {row.m: row for row in table.rows}
    for m, expected in ((3, 2), (4, 6), (5, 8)):
        assert by_m[m].n == expected == brute_force_trace_count(m)
    assert elapsed < 60.0, f"census check took {elapsed:.1f}s"
    _announce(1, "census triple oracle to trace 300", f"{elapsed:.1f}s")


def test_criterion_02_word_matrix_roundtrip():
    mismatches = 0
    for w in all_words(14):
        if words.word_of_matrix(words.matrix_of(w)) != w:
            mismatches += 1
    rng = random.Random(2026)
    for _ in range(10_000):
        w = random_word(rng, 40)
        if words.word_of_matrix(words.matrix_of(w)) != w:
            mismatches += 1
    assert mismatches == 0
    _announce(2, "word/matrix roundtrip (exhaustive 14, 10^4 samples to 40)")


def test_criterion_03_trace_bound_suite():
    # exhaustive sweep over all words of length <= 18 with exact-integer
    # comparisons only: trace <= floor(phi^len) + 1, trace >= len + 1 off
    # the letter-power classes, and the per-length maximum realized by the
    # alternating words
    max_len = 18
    ceilings = [phi_trace_ceiling(n) for n in range(max_len + 1)]
    max_by_len = [2] * (max_len + 1)
    violations = 0
    # stack rows: a, b, c, d, length, is_letter_power
    stack = [(1, 0, 0, 1, 0, True)]
    while stack:
        a, b, c, d, n, pure = stack.pop()
        if n == max_len:
            continue
        for na, nb, nc, nd, still_pure in (
            (a, a + b, c, c + d, pure and c == 0),
            (a + b, b, c + d, d, pure and b == 0),
        ):
            t = na + nd
            m = n + 1
            if t > ceilings[m]:
                violations += 1
            if not still_pure and t < m + 1:
                violations += 1
            if t > max_by_len[m]:
                max_by_len[m] = t
            stack.append((na, nb, nc, nd, m, still_pure))
    assert violations == 0
    for n in range(1, max_len + 1):
        maximizer = "LR" * (n // 2) if n % 2 == 0 else "R" + "LR" * (n // 2)
        assert max_by_len[n] == words.trace_of(maximizer)
        assert max_by_len[n] <= ceilings[n]

    for w in all_words(12):
        base = words.trace_of(w)
        for pos in range(len(w) + 1):
            for letter in "LR":
                assert words.trace_of(insert_letter(w, pos, letter)) >= base
    _announce(3, "trace bounds exhaustive to 18, insertion monotone to 12")


def test_criterion_04_end_to_end_floors():
    t0 = time.perf_counter()
    for k in FLOORS:
        graph, report, _ = built(k)
        assert graph.is_complete()
        assert all(degree(graph, v) == 3 for v in range(graph.num_vertices))
        result = scanner.certify(graph, k)
        assert result.passed, f"k={k}: {result.findings()[:3]}"
        assert report.max_forbidden_set <= forbidden_set_bound(k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"floors took {elapsed:.1f}s"
    sizes = {k: built(k)[0].num_vertices for k in FLOORS}
    _announce(4, "floors 5/8/12/16/20 certify", f"{elapsed:.1f}s, sizes {sizes}")


def test_criterion_05_structural_identities():
    for k in FLOORS:
        graph, _, _ = built(k)
        v = graph.num_vertices
        assert graph.num_edges() == 3 * v // 2
        face_list = ribbon.faces(graph)
        assert sum(len(f) for f in face_list) == 3 * v
        comps = ribbon.genus_closed(graph)
        # Euler identity, recomputed from an independent component split
        assert sum(2 - 2 * c.genus for c in comps) == len(face_list) - v // 2
        assert sum(c.num_cusps for c in comps) == len(face_list)
        bound = sum(
            ribbon.beineke_harary_lower_bound(len(c.vertices), 3 * len(c.vertices) // 2, c.girth)
            for c in comps
        )
        genus_sum = sum(c.genus for c in comps)
        assert bound <= genus_sum
        assert min(c.girth for c in comps) == ribbon.girth(graph) >= log_phi_ceil(k - 1)
    _announce(5, "structural identities on all constructions")


def test_criterion_06_systole_formula_and_gap():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    gaps = {}
    for k in (5, 20):
        graph, _, _ = built(k)
        rep = scanner.report(graph)
        exact = 2 * mp.acosh(mp.mpf(rep.systole_trace) / 2)
        assert abs(rep.systole_length - float(exact)) <= 1e-12 * float(exact)
        assert rep.systole_trace >= k
        if k == 20:
            assert rep.systole_length >= 5.986
        gaps[k] = rep.systole_gap
        print(
            f"  k={k}: systole trace {rep.systole_trace}, length {rep.systole_length:.12g}, "
            f"genus {rep.genus_sum}, measured gap C = "
            f"log(g) - log log(g) - sys = {rep.systole_gap:.6f}"
        )
    _announce(6, "systole length formula to 12 digits; k=20 length >= 5.986",
              f"gap C at 20: {gaps[20]:.4f}")


def test_criterion_07_planted_spectrum_and_feasibility():
    word = builder.word_for_trace(11)
    spec = builder.SeedSpec(k=10, plants=(builder.Plant(word, 3),))
    graph, _, _ = builder.build(spec)
    assert scanner.certify(graph, 10).passed
    spectrum = dict(scanner.bottom_spectrum(graph, 11))
    assert spectrum.get(11, 0) >= 3

    # the multiplicity budget sum(m_i * (k_i - 1)) <= 2 N(k-2) + 4k - 4 is
    # enforced with no slack: 17 copies of 10 vertices fit in 172, 18 do not
    budget = builder.seed_size_bound(10)
    assert budget == 172
    builder.SeedSpec(k=10, plants=(builder.Plant(word, 17),)).validate()
    with pytest.raises(builder.SeedSpecError):
        builder.SeedSpec(k=10, plants=(builder.Plant(word, 18),)).validate()
    _announce(7, "planted trace-11 spectrum multiplicity >= 3; budget exact")


def test_criterion_08_scanner_oracle_equivalence():
    graphs = list(small_complete_corpus())
    assert graphs and all(g.num_vertices <= 8 for g in graphs)
    for g in graphs:
        pruned = scanner.low_trace_cycles(g, 10)
        naive = naive_cycle_classes(g, 9, 10)
        assert pruned == naive
    _announce(8, "pruned scan equals naive enumeration", f"{len(graphs)} graphs")


def test_criterion_09_determinism(tmp_path, capsys):
    out = {}
    for tag in ("first", "second"):
        crg = tmp_path / f"{tag}.crg"
        rep = tmp_path / f"{tag}.json"
        assert cli_main([
            "construct", "--k", "8", "--seed", "42",
            "-o", str(crg), "--report", str(rep),
        ]) == 0
        out[tag] = (crg.read_bytes(), rep.read_bytes())
    capsys.readouterr()
    assert out["first"] == out["second"]

    reports = []
    for threads in ("1", "2"):
        assert cli_main([
            "report", str(tmp_path / "first.crg"), "--json", "--threads", threads,
        ]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    json.loads(reports[0])  # well-formed machine output
    _announce(9, "byte-identical outputs across runs and thread counts")
