import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from systolic import builder, ribbon, scanner, words
from systolic.scanner import (
    bottom_spectrum,
    canonical_walk,
    certify,
    low_trace_cycles,
    report,
    systole,
)

from _oracles import (
    all_darts_enumerate,
    circuit_graph,
    complete,
    cyclic_word_class,
    dart_major_enumerate,
    deepening_first_classes,
    edges,
    deepening_probe_bound,
    free_group_word,
    label_closing_walks,
    log_phi_ceil,
    naive_cycle_classes,
    naive_walk_classes,
    random_complete_graph,
    relabeled,
    small_complete_corpus,
    spanning_forest_slots,
    theta_graph,
    walk_word,
)


def test_walk_word_on_a_face():
    g = theta_graph(twisted=True)
    face = ribbon.faces(g)[0]
    assert walk_word(g, face) == "L" * len(face)
    backwards = tuple(g.pair_table()[d] for d in reversed(face))
    assert walk_word(g, backwards) == "R" * len(face)


def test_canonical_walk_is_rotation_and_reversal_invariant():
    g = theta_graph(twisted=False)
    classes = low_trace_cycles(g, 6)
    assert classes
    for cls in classes:
        darts = cls.witness
        for i in range(len(darts)):
            rotated = darts[i:] + darts[:i]
            assert canonical_walk(rotated, g) == darts
        reversed_walk = tuple(g.pair_table()[d] for d in reversed(darts))
        assert canonical_walk(reversed_walk, g) == darts
        every_rotation = [
            seq[i:] + seq[:i] for seq in (darts, reversed_walk) for i in range(len(darts))
        ]
        assert darts == min(every_rotation)


def test_two_vertex_classes_match_bruteforce():
    # closed walks of <= 2 darts at trace bound 3, on both pairings
    g = theta_graph(twisted=False)
    got = low_trace_cycles(g, 3)
    assert got == naive_cycle_classes(g, 2, 3)
    assert got and all(cls.trace == 3 and len(cls.word) == 2 for cls in got)
    g = theta_graph(twisted=True)  # every 2-walk is a face here
    assert low_trace_cycles(g, 3) == naive_cycle_classes(g, 2, 3) == []


def test_scanner_matches_naive_oracle_on_small_graphs():
    for g in list(small_complete_corpus())[:25]:
        fast = low_trace_cycles(g, 8)
        assert fast == naive_cycle_classes(g, 7, 8)


def test_witness_walks_reproduce_their_trace():
    for g in (theta_graph(False), theta_graph(True)):
        for cls in low_trace_cycles(g, 12):
            word = walk_word(g, cls.witness)
            assert words.canonical(word) == cls.word
            assert words.trace_of(word) == cls.trace


def test_letter_powers_and_proper_powers_are_excluded():
    for g in (theta_graph(False), theta_graph(True)):
        for cls in low_trace_cycles(g, 12):
            assert not words.is_letter_power(cls.word)
            n = len(cls.word)
            for p in range(1, n):
                assert not (n % p == 0 and cls.word == cls.word[:p] * (n // p))


def test_low_trace_cycles_preconditions():
    with pytest.raises(ValueError, match="3-regular"):
        low_trace_cycles(ribbon.CubicRibbonGraph(2), 5)
    with pytest.raises(ValueError, match="bound"):
        low_trace_cycles(theta_graph(False), 2)
    with pytest.raises(ValueError, match="floor 2 is below 3"):
        certify(theta_graph(False), 2)
    # the scan has no free-slot mode: every entry refuses a partial graph
    seed = circuit_graph(["LLLR"] * 5)
    for scan in (
        lambda: low_trace_cycles(seed, 5),
        lambda: systole(seed),
        lambda: bottom_spectrum(seed, 5),
        lambda: certify(seed, 5),
        lambda: certify(seed, 3),  # refused by faces, with no scan
        lambda: report(seed),
    ):
        with pytest.raises(ValueError, match="3-regular"):
            scan()


def test_every_scan_route_asks_the_one_gate_before_it_scans(monkeypatch):
    # a floor or bound is an int, not a bool, of at least 3; each refusal
    # comes before the step tables of a scan are built
    theta = theta_graph(False)
    assert certify(theta, 3).passed  # one face of 6 edges, and no scan at k = 3
    assert report(theta, spectrum_max=-5) == report(theta, spectrum_max=2) == report(theta)

    def no_tables(g):
        raise AssertionError("the scan built its step tables")

    monkeypatch.setattr(scanner, "_edge_major_tables", no_tables)
    with pytest.raises(AssertionError, match="step tables"):
        low_trace_cycles(theta, 3)
    for value in (2, 3.5, 4.5, True, "5"):
        reason = "is below 3" if value == 2 else "is not an integer"
        for route in (low_trace_cycles, bottom_spectrum, certify):
            with pytest.raises(ValueError, match=reason):
                route(theta, value)
    # below 3 a spectrum_max asks for the systole alone, so only the type is refused
    for value in (3.5, True, "5"):
        with pytest.raises(ValueError, match=f"^spectrum_max {value!r} is not an integer$"):
            report(theta, spectrum_max=value)
    with pytest.raises(ValueError, match=r"^floor 3\.5 is not an integer$"):
        certify(theta, 3.5)  # the systole of theta has trace 3: no pass at a floor of 3.5


def test_empty_graph_has_the_distinguished_no_cycle_result():
    empty = ribbon.CubicRibbonGraph(0)
    assert low_trace_cycles(empty, 5) == []
    with pytest.raises(ValueError, match="no essential"):
        systole(empty)
    with pytest.raises(ValueError, match="empty"):
        report(empty)


def test_systole_equals_spectrum_minimum():
    for g in (theta_graph(False), theta_graph(True)):
        res = systole(g)
        spectrum = bottom_spectrum(g, res.trace + 4)
        assert spectrum
        assert res.trace == spectrum[0][0]
        assert words.geodesic_length(res.trace) == pytest.approx(2 * math.acosh(res.trace / 2), rel=1e-12)


def test_systole_values_on_the_two_vertex_graphs():
    # derived by the naive oracle: the straight pairing closes an LR square
    # at once, the twisted one needs a longer mixed walk
    assert systole(theta_graph(False)).trace == 3
    naive = naive_cycle_classes(theta_graph(True), 8, 50)
    assert min(cls.trace for cls in naive) == systole(theta_graph(True)).trace == 6


def test_spectrum_is_invariant_under_relabeling():
    g, _, _ = builder.build(builder.SeedSpec(k=5, rng_seed=2))
    perm = [(v * 7 + 3) % g.num_vertices for v in range(g.num_vertices)]
    h = relabeled(g, perm)
    assert bottom_spectrum(g, 8) == bottom_spectrum(h, 8)
    assert systole(g).trace == systole(h).trace
    assert [c.word for c in low_trace_cycles(g, 8)] == [c.word for c in low_trace_cycles(h, 8)]


def test_spectrum_below_systole_is_empty():
    g, _, _ = builder.build(builder.SeedSpec(k=8))
    assert bottom_spectrum(g, 7) == []


def test_certify_passes_on_builds_and_fails_on_counterexamples():
    g, _, _ = builder.build(builder.SeedSpec(k=5))
    assert certify(g, 5).passed

    bad = theta_graph(twisted=False)  # carries an LR square of trace 3
    res = certify(bad, 5)
    assert not res.passed
    assert res.short_cycles and res.short_cycles[0].trace == 3
    assert any("trace 3" in f for f in res.findings())

    shortfaces = theta_graph(twisted=True)  # every face has 2 edges
    res = certify(shortfaces, 7)
    assert not res.passed
    assert res.short_faces
    assert any("face with 2 edges" in f for f in res.findings())
    # faces one edge short of the floor fail the face check alone
    res = certify(shortfaces, 3)
    assert not res.passed and not res.short_cycles and res.short_faces


def _is_seed_circuit_power(g, darts):
    """All darts seed-flagged and the sequence a proper power: a walk that
    goes round one seed circuit more than once."""
    seed = g.seed_table()
    return all(seed[d] for d in darts) and any(
        darts == darts[i:] + darts[:i] for i in range(1, len(darts))
    )


def test_word_major_scan_matches_the_dart_major_oracle():
    rng = random.Random(11)
    graphs = [
        theta_graph(False),
        theta_graph(True),
        *small_complete_corpus(),
        *(random_complete_graph(rng, 14) for _ in range(100)),
    ]
    cases = [(g, bound) for g in graphs for bound in (3, 6, 10, 13)]
    k8, _, _ = builder.build(builder.SeedSpec(k=8))
    cases.append((k8, 12))
    for k in range(5, 17):
        g, _, _ = builder.build(builder.SeedSpec(k=k))
        cases += [(g, k - 1), (g, k + 3)]
    # planted seed circuits: three of trace 12 and two letter powers L^9
    plants = (builder.Plant(builder.word_for_trace(12), 3), builder.Plant("L" * 9, 2))
    planted, _, _ = builder.build(builder.SeedSpec(k=8, plants=plants))
    cases += [(planted, 7), (planted, 11)]
    # seed circuits that are letter powers of five darts, at the bounds
    # where they first fit in the dart cap (6) and just miss it (5)
    letter_powers = complete(circuit_graph(["L" * 5] * 4), 5)
    cases += [(letter_powers, bound) for bound in (4, 5, 6)]
    closures = seed_powers = 0
    for g, bound in cases:
        got = scanner._enumerate(g, bound)
        assert got == all_darts_enumerate(g, bound)
        assert got == dart_major_enumerate(g, bound, bound - 1, range(len(g.pair_table())))
        closures += len(got)
        seed_powers += sum(_is_seed_circuit_power(g, darts) for darts in got)
    assert closures
    # the small corpus has a seed circuit short enough to close twice
    assert seed_powers


def _chain_shapes(events, bound):
    """Which shapes of chain the closing walks (start label, word) show.  A
    walk closes on a chain when its word's last letter extends a node
    whose other child is over the bound (see ``scanner._enumerate``)."""
    shapes = set()
    on_chain = set()
    for s, word in events:
        if len(word) < 2:
            continue
        p = words.matrix_of(word[:-1])
        other = p.b if word[-1] == "L" else p.c  # the other child's trace step
        if p.a + p.d + other <= bound:
            continue
        m = words.matrix_of(word)
        on_chain.add((s, word))
        shapes.add(word[-1] + "-chain")
        if len(word) == bound - 1:
            shapes.add("at the length cap")
        elif m.a + m.d == bound:
            shapes.add("at the bound below the length cap")
    for s, word in on_chain:
        for more in range(1, bound):
            if (s, word + word[-1] * more) in on_chain:
                shapes.add("closes twice")
    return shapes


def test_chain_finish_matches_the_oracles_on_every_chain_shape(monkeypatch):
    # the scan finishes single-letter chains of the word tree in one pass;
    # its closing walks must be exactly those of a level-by-level walk
    events = []
    real = scanner._record

    def spy(found, g, orig, steps, mat, closing):
        closing = tuple(closing)
        word = words.word_of_matrix(words.UniMat(*mat))
        events.extend((s, word) for s in closing)
        real(found, g, orig, steps, mat, closing)

    monkeypatch.setattr(scanner, "_record", spy)
    rng = random.Random(28)
    graphs = [
        theta_graph(False),
        theta_graph(True),
        *list(small_complete_corpus())[::4],
        *(random_complete_graph(rng, 10) for _ in range(20)),
    ]
    shapes = set()
    for g in graphs:
        for bound in range(3, 14):
            events.clear()
            got = scanner._enumerate(g, bound)
            assert got == all_darts_enumerate(g, bound)
            assert got == dart_major_enumerate(g, bound, bound - 1, range(len(g.pair_table())))
            _, step_l, step_r = scanner._edge_major_tables(g)
            want = label_closing_walks(step_l, step_r, bound)
            assert sorted(events) == want
            shapes |= _chain_shapes(want, bound)
    assert shapes == {
        "L-chain",
        "R-chain",
        "at the length cap",
        "at the bound below the length cap",
        "closes twice",
    }


def test_chains_are_finished_without_level_gathers(monkeypatch):
    # the scan's work, as the indices it gathers through itemgetter; a
    # scan that walks every chain level by level gathers 47,684 here
    gathered = []
    real = scanner.itemgetter

    def counting(*idx):
        gathered.append(1 if isinstance(idx[0], slice) else len(idx))
        return real(*idx)

    g, _, _ = builder.build(builder.SeedSpec(k=16))
    monkeypatch.setattr(scanner, "itemgetter", counting)
    found = scanner._enumerate(g, 18)
    assert len(found) == 49
    assert sum(gathered) == 27545


def _flagged_graphs(st):
    """Random complete graphs with seed flags: seed circuits completed by a
    random matching, seed edges chosen so that no vertex gets three seed
    slots (paths, circuits, loops), or any edge set at all."""

    @st.composite
    def flagged_graphs(draw):
        mode = draw(st.sampled_from(["circuits", "paths", "any"]))
        if mode == "circuits":
            shape = draw(st.lists(st.text("LR", min_size=2, max_size=4), min_size=1, max_size=3))
            if sum(map(len, shape)) % 2:
                shape[0] += "L"
            g = circuit_graph(shape)
            pair = g.pair_table()
            free = [s for s in draw(st.permutations(range(len(pair)))) if pair[s] < 0]
            for a, b in zip(free[::2], free[1::2]):
                g.add_edge(a, b)
            return g
        n = 2 * draw(st.integers(1, 6))
        slots = draw(st.permutations(range(3 * n)))
        flags = draw(st.lists(st.booleans(), min_size=3 * n // 2, max_size=3 * n // 2))
        g = ribbon.CubicRibbonGraph(n)
        seed_slots = [0] * n
        for a, b, flag in zip(slots[::2], slots[1::2], flags):
            if flag and mode == "paths":
                flag = seed_slots[a // 3] + 1 + (a // 3 == b // 3) <= 2 and seed_slots[b // 3] < 2
            if flag:
                seed_slots[a // 3] += 1
                seed_slots[b // 3] += 1
            g.add_edge(a, b, seed=flag)
        return g

    return flagged_graphs()


def test_seed_aware_scan_matches_the_all_darts_oracle_under_any_flagging():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_flagged_graphs(st), st.integers(3, 13))
    def check(g, bound):
        every_dart = all_darts_enumerate(g, bound)
        assert scanner._enumerate(g, bound) == every_dart
        assert low_trace_cycles(g, bound) == scanner._group_classes(every_dart)
        seed = g.seed_table()
        triple = any(all(seed[s : s + 3]) for s in range(0, len(seed), 3))
        seen.add("three seed slots" if triple else "seed edges" if any(seed) else "no seed")

    seen: set[str] = set()
    check()
    assert seen == {"three seed slots", "seed edges", "no seed"}


def test_scan_matches_the_all_darts_oracle_under_any_edge_labelling(monkeypatch):
    # the least-edge start rule holds for any order of the edges and any
    # choice of each edge's lower dart, not only for the library's labels
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_flagged_graphs(st), st.integers(3, 13), st.data())
    def check(g, bound, data):
        pair = g.pair_table()
        edges = data.draw(st.permutations([(s, p) for s, p in enumerate(pair) if p > s]))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        orig = [x for (s, p), flip in zip(edges, flips) for x in ((p, s) if flip else (s, p))]
        label = {s: x for x, s in enumerate(orig)}
        step_l = tuple(label[ribbon.succ(pair[s])] for s in orig)
        step_r = tuple(label[ribbon.pred(pair[s])] for s in orig)
        monkeypatch.setattr(scanner, "_edge_major_tables", lambda h: (orig, step_l, step_r))
        assert scanner._enumerate(g, bound) == all_darts_enumerate(g, bound)
        flipped.append(any(flips))

    flipped: list[bool] = []
    check()
    assert any(flipped)


def test_scan_depth_is_not_limited_by_the_recursion_limit():
    # 378 is the class count of the same scan with the default limit
    code = """
import sys
from systolic import builder, scanner
g, _, _ = builder.build(builder.SeedSpec(k=5))
sys.setrecursionlimit(80)
print(len(scanner.low_trace_cycles(g, 100)))
"""
    src = os.path.dirname(os.path.dirname(scanner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 378


def test_probe_bound_bounds_the_systole():
    for g in [theta_graph(False), theta_graph(True), *small_complete_corpus()]:
        assert scanner._probe_bound(g) >= deepening_first_classes(g, 3)[0].trace


def _systole_corpus():
    k5, k8 = (builder.build(builder.SeedSpec(k=k))[0] for k in (5, 8))
    rng = random.Random(7)
    return [
        theta_graph(False),
        theta_graph(True),
        *small_complete_corpus(),
        k5,
        k8,
        _disjoint_union(k5, theta_graph(True)),
        *(random_complete_graph(rng, 12) for _ in range(100)),
    ]


def test_probe_bound_matches_the_deepening_oracle():
    graphs = _systole_corpus()
    bounds = [scanner._probe_bound(g) for g in graphs]
    assert bounds == [deepening_probe_bound(g) for g in graphs]
    assert len(set(bounds)) > 3


def test_first_classes_match_the_deepening_oracle():
    probe_overshoots = False
    for g in _systole_corpus():
        s = deepening_first_classes(g, 3)[0].trace
        for start in (3, max(3, s - 1), s, s + 2):
            assert scanner._first_classes(g, start) == deepening_first_classes(g, start)
        probe_overshoots = probe_overshoots or scanner._probe_bound(g) > s
    # the scan at the probe bound is cut back to the systole's trace
    assert probe_overshoots


def test_primitive_walks_with_power_words_are_kept():
    # three primitive 4-dart walks read LRLR = (LR)^2, trace 7; the bare LR
    # walk does not close, so their geodesics are primitive
    lrlr = ribbon.CubicRibbonGraph(4)
    for a, b in ((0, 11), (1, 3), (2, 8), (4, 10), (5, 6), (7, 9)):
        lrlr.add_edge(a, b)
    shortest = systole(lrlr)
    assert (shortest.trace, shortest.word, shortest.multiplicity) == (7, "LRLR", 3)
    # against the walk oracle, filtered by its own primitivity test: a
    # sequence is a proper power iff a proper rotation leaves it unchanged
    kept_power_word = False
    for g in [lrlr, *list(small_complete_corpus())[:40]]:
        by_word: dict[str, list[tuple[int, ...]]] = {}
        for darts, word in naive_walk_classes(g, 9, 10).items():
            rotations = (darts[i:] + darts[:i] for i in range(1, len(darts)))
            if not words.is_letter_power(word) and darts not in rotations:
                by_word.setdefault(word, []).append(darts)
        expected = sorted(
            (words.trace_of(w), w, len(ds), min(ds)) for w, ds in by_word.items()
        )
        got = [(c.trace, c.word, c.multiplicity, c.witness) for c in low_trace_cycles(g, 10)]
        assert got == expected
        kept_power_word = kept_power_word or any(
            len(w) % p == 0 and w == w[:p] * (len(w) // p)
            for _, w, _, _ in got
            for p in range(1, len(w))
        )
    assert kept_power_word


def test_spectrum_multiplicities_count_free_homotopy_classes():
    # the surface retracts onto the graph, so its free homotopy classes are
    # the conjugacy classes of the free group pi_1 of the graph: read each
    # primitive essential walk of the naive oracle as a word in the
    # generators off a spanning forest; the words are cyclically reduced,
    # distinct walk classes give distinct classes up to rotation and
    # inversion, and each trace's count is the scanner's multiplicity
    pytest.importorskip("networkx")
    k8, _, _ = builder.build(builder.SeedSpec(k=8))
    cases = [(g, 10) for g in small_complete_corpus()] + [(k8, 12)]
    counted = 0
    for g, bound in cases:
        tree = spanning_forest_slots(g)
        classes, by_trace = set(), {}
        for darts, word in naive_walk_classes(g, bound - 1, bound).items():
            rotations = (darts[i:] + darts[:i] for i in range(1, len(darts)))
            if words.is_letter_power(word) or darts in rotations:
                continue
            free = free_group_word(g, darts, tree)
            assert free and all(b != (a[0], -a[1]) for a, b in zip(free, free[1:] + free[:1]))
            classes.add(cyclic_word_class(free))
            t = words.trace_of(word)
            by_trace[t] = by_trace.get(t, 0) + 1
            counted += 1
        assert len(classes) == sum(by_trace.values())
        assert bottom_spectrum(g, bound) == sorted(by_trace.items())
    assert counted


def test_report_contents():
    g, _, _ = builder.build(builder.SeedSpec(k=5))
    rep = report(g, spectrum_max=7)
    assert rep.vertices == 20 and rep.edges == 30
    assert rep.systole_trace == 5
    assert rep.girth >= log_phi_ceil(4)
    assert isinstance(rep.bh_bound, Fraction)
    assert rep.bh_ok and rep.bh_bound <= rep.genus_sum
    assert rep.spectrum[0][0] == 5
    assert rep.systole_gap == pytest.approx(
        math.log(rep.genus_sum) - math.log(math.log(rep.genus_sum)) - rep.systole_length
    )
    payload = rep.to_json_dict()
    assert set(payload) == {
        "components",
        "girth",
        "systole",
        "spectrum",
        "beineke_harary",
        "asymptotics",
    }
    assert payload["systole"]["word"] == "LLLR"
    text = rep.to_text()
    assert "systole: trace 5" in text


def _disjoint_union(*parts):
    g = ribbon.CubicRibbonGraph(sum(h.num_vertices for h in parts))
    offset = 0
    for h in parts:
        for a, b in edges(h):
            g.add_edge(a + offset, b + offset)
        offset += len(h.pair_table())
    return g


def test_report_on_disconnected_graph():
    rep = report(_disjoint_union(theta_graph(False), theta_graph(True)))
    assert len(rep.components) == 2
    assert rep.bh_bound <= rep.genus_sum


def test_report_work_in_ribbon_is_linear_on_many_components():
    # one girth sweep serves every component: 4x the theta components cost
    # 4x the lines of ``ribbon`` that report executes (a count of work that
    # does not depend on the machine), where a search over all V roots per
    # component costs 16x
    def ribbon_lines(copies):
        g = ribbon.CubicRibbonGraph(2 * copies)
        for i in range(copies):
            for a, b in ((0, 3), (1, 4), (2, 5)):
                g.add_edge(6 * i + a, 6 * i + b)
        count = 0

        def local(frame, event, arg):
            nonlocal count
            count += event == "line"
            return local

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == ribbon.__file__ else None)
        try:
            report(g)
        finally:
            sys.settrace(previous)
        return count

    small, large = ribbon_lines(250), ribbon_lines(1000)
    assert large <= 4.5 * small, (small, large)


def test_report_handles_zero_genus():
    rep = report(theta_graph(twisted=True))
    assert rep.genus_sum == 0
    assert rep.log_genus is None and rep.systole_gap is None
    assert rep.systole_trace == 6 and rep.systole_word == "LLRR"
    assert "gap" not in rep.to_text()
    assert rep.to_json_dict()["asymptotics"]["log_genus"] is None


def test_certified_build_is_empty_under_the_naive_oracle():
    # independent certification of a real artifact: brute-force walk
    # enumeration on the completed graph finds nothing below the floor
    g, _, _ = builder.build(builder.SeedSpec(k=8))
    assert naive_cycle_classes(g, 7, 7) == []
    assert scanner.low_trace_cycles(g, 7) == []


def test_report_matches_the_separate_systole_spectrum_and_girth_route():
    k5, k8 = (builder.build(builder.SeedSpec(k=k))[0] for k in (5, 8))
    # the first component's girth exceeds the global girth
    mixed = _disjoint_union(k5, theta_graph(True))
    graphs = [theta_graph(False), theta_graph(True), k5, k8, mixed]
    for g in graphs:
        shortest = systole(g)
        s = shortest.trace
        for spectrum_max in (None, 0, s - 1, s, s + 2):
            rep = report(g, spectrum_max=spectrum_max)
            assert (rep.systole_trace, rep.systole_length, rep.systole_word) == (
                shortest.trace,
                words.geodesic_length(shortest.trace),
                shortest.word,
            )
            assert list(rep.spectrum) == bottom_spectrum(g, max(spectrum_max or 0, s))
            assert rep.girth == ribbon.girth(g)


def test_report_scans_once_when_the_spectrum_reaches_the_systole(monkeypatch):
    g, _, _ = builder.build(builder.SeedSpec(k=5))
    s = systole(g).trace
    scan = scanner.low_trace_cycles
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return scan(*args, **kwargs)

    monkeypatch.setattr(scanner, "low_trace_cycles", counting)
    for spectrum_max in (s, s + 2):
        calls.clear()
        report(g, spectrum_max=spectrum_max)
        assert calls == [(spectrum_max,)]
    # below the systole: the scan at 3 finds nothing, the probe scans no
    # whole graph, and one scan at the probe bound finishes
    u = scanner._probe_bound(g)
    for run in (lambda: report(g, spectrum_max=None), lambda: systole(g)):
        calls.clear()
        run()
        assert calls == [(3,), (u,)]
