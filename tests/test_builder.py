import ast
import glob
import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import systolic
from systolic import builder, census, ribbon, scanner, words
from systolic.builder import (
    Plant,
    SeedSpec,
    SeedSpecError,
    build,
    forbidden_reach,
    make_seed,
    seed_size_bound,
    word_for_trace,
)

from _oracles import (
    SeedPreconditionError,
    check_seed_graph,
    circuit_graph,
    circuit_word,
    complete,
    degree,
    edges,
    floor_checked_build,
    forbidden_set_bound,
    free_slots_of,
    naive_forbidden_reach,
    seed_edges,
    stack_forbidden_reach,
    theta_graph,
)


def test_padding_words():
    assert word_for_trace(5) == "LLLR" and words.trace_of(word_for_trace(5)) == 5
    assert builder._parity_word(5) == "LLLRR" and words.trace_of(builder._parity_word(5)) == 8
    for k in range(3, 20):
        assert words.trace_of(word_for_trace(k)) == k
        assert len(word_for_trace(k)) == k - 1
        assert words.trace_of(builder._parity_word(k)) == 2 * k - 2
        assert len(builder._parity_word(k)) == k
    with pytest.raises(ValueError, match="trace 2 is below 3"):
        word_for_trace(2)
    # a float or numeral would spell "L" * (t - 2) and fail there; a bool reads as 0 or 1
    for t in (5.5, "5", True):
        with pytest.raises(ValueError, match=f"^trace {t!r} is not an integer$"):
            word_for_trace(t)


def test_seed_size_bound_values():
    assert seed_size_bound(5) == 2 * census.N_of(3) + 16 == 20
    assert seed_size_bound(3) == 8  # N below trace 3 is empty
    assert seed_size_bound(8) == 2 * 30 + 28


def test_spec_accepts_and_rejects_plants():
    SeedSpec(k=5, plants=(Plant("LLLR", 2),)).validate()
    with pytest.raises(SeedSpecError, match="trace 3"):
        SeedSpec(k=5, plants=(Plant("LR", 1),)).validate()
    # a letter-power circuit is admissible once it is long enough
    SeedSpec(k=5, plants=(Plant("LLLLL", 1),)).validate()
    SeedSpec(k=5, plants=(Plant("RRRRR", 1),)).validate()
    with pytest.raises(SeedSpecError):
        SeedSpec(k=5, plants=(Plant("LLLL", 1),)).validate()
    with pytest.raises(SeedSpecError):
        SeedSpec(k=5, plants=(Plant("LLLLL", 1),), strict_seed_trace=True).validate()
    with pytest.raises(SeedSpecError, match="positive"):
        SeedSpec(k=5, plants=(Plant("LLLR", 0),)).validate()
    with pytest.raises(SeedSpecError, match="non-empty"):
        SeedSpec(k=5, plants=(Plant("", 1),)).validate()
    with pytest.raises(SeedSpecError):
        SeedSpec(k=2).validate()
    with pytest.raises(SeedSpecError, match="64 bits"):
        SeedSpec(k=5, rng_seed=-1).validate()


def test_spec_rejects_values_of_the_wrong_type():
    # each would build (or fail later with a bare TypeError): a float or
    # bool size, a bool seed or multiplicity, which builds as 0 or 1 but
    # reads true in the report JSON, a non-bool strictness flag, a plant
    # that is not a Plant, and plants in a list, which leaves the spec and
    # its report unhashable; a plant word that is not a str or has a letter
    # other than L and R is refused with the word check's own text
    wrong = [
        SeedSpec(k=5, size=24.0),
        SeedSpec(k=5, size="min"),
        SeedSpec(k=5, size=True),
        SeedSpec(k=5, rng_seed=True),
        SeedSpec(k=5, rng_seed=1.0),
        SeedSpec(k=5, strict_seed_trace=1),
        SeedSpec(k=5, plants=(Plant("LLLLR", True),)),
        SeedSpec(k=5, plants=(("LLLLR", 1),)),
        SeedSpec(k=5, plants=[Plant("LLLLR", 1)]),
        SeedSpec(k=5, plants=(Plant(123, 1),)),
        SeedSpec(k=5, plants=(Plant("LXR", 1),)),
    ]
    for spec in wrong:
        with pytest.raises(SeedSpecError):
            spec.validate()
        with pytest.raises(SeedSpecError):
            builder.build(spec)
    texts = [
        "plants must be a tuple of Plant, not a list",
        "word must be a string, got int",
        "invalid letter 'X' at position 1: words use only L and R",
    ]
    for spec, text in zip(wrong[-3:], texts):
        with pytest.raises(SeedSpecError, match=f"^{re.escape(text)}$"):
            spec.validate()
    good = SeedSpec(k=5, size=26, rng_seed=2**64 - 1, strict_seed_trace=True, plants=(Plant("LLLLR", 2),))
    assert make_seed(good).num_vertices == good.validate()[0] == 26


def test_plant_budget_is_enforced_exactly():
    # at k=10 the admissible budget is 2*N(8) + 36 = 172 vertices
    assert seed_size_bound(10) == 172
    word = word_for_trace(11)  # 10 vertices per copy
    SeedSpec(k=10, plants=(Plant(word, 17),)).validate()  # 170 <= 172
    with pytest.raises(SeedSpecError, match="budget"):
        SeedSpec(k=10, plants=(Plant(word, 18),)).validate()  # 180 > 172


def test_plant_budget_is_checked_before_any_trace(monkeypatch):
    # a plant too long for the budget is refused on its length alone: its
    # trace, a product over every letter, is never computed
    def no_trace(word):
        raise AssertionError(f"trace of a {len(word)}-letter plant computed")

    monkeypatch.setattr(words, "trace_of", no_trace)
    with pytest.raises(SeedSpecError, match="budget"):
        SeedSpec(k=5, plants=(Plant("L" * 21 + "R", 1),)).validate()  # 22 > 20


def test_make_seed_minimum_for_k5():
    g = make_seed(SeedSpec(k=5))
    assert g.num_vertices == 20
    for v in range(20):
        assert degree(g, v) == 2
        assert len(free_slots_of(g, v)) == 1
    assert edges(g) == seed_edges(g)
    comps = g.components()
    assert len(comps) == 5
    for comp in comps:
        word = circuit_word(g, comp[0])
        assert words.canonical(word) == words.canonical("LLLR")


def test_circuit_word_reads_a_circuit_as_it_was_wired():
    # the oracle leaves each vertex by its paired departure slot, as
    # _install_circuit wires it, and starts at the given vertex's letter;
    # reading against the wiring would give LRR, LLR, LLRRR and LRLRR
    for word in ("LLR", "LRR", "LLLRR", "LLRLR"):
        assert circuit_word(circuit_graph([word]), 0) == word


def test_make_seed_size_resolution():
    # bound 88 is not reachable with circuits of 7 plus at most one of 8
    g = make_seed(SeedSpec(k=8))
    assert g.num_vertices == 92
    words_seen = sorted(
        circuit_word(g, comp[0]) for comp in g.components()
    )
    assert len(words_seen) == 13
    assert sum(len(w) for w in words_seen) == 92
    parity = [w for w in words_seen if len(w) == 8]
    assert len(parity) == 1  # 12 bulk circuits and one parity circuit


def test_make_seed_explicit_size_validation():
    make_seed(SeedSpec(k=5, size=24))
    with pytest.raises(SeedSpecError, match="even"):
        SeedSpec(k=5, size=21).validate()
    with pytest.raises(SeedSpecError, match="below"):
        SeedSpec(k=5, size=16).validate()
    with pytest.raises(SeedSpecError, match="not reachable"):
        make_seed(SeedSpec(k=5, size=22))  # 22 = 4a + 5b has no admissible split
    # the size cap is checked before parity, and the floor cap covers the
    # least admissible count of a floor when no size is given
    SeedSpec(k=5, size=builder.MAX_VERTICES).validate()
    with pytest.raises(SeedSpecError, match="size 1000001 exceeds the cap of 1000000 vertices"):
        SeedSpec(k=5, size=builder.MAX_VERTICES + 1).validate()
    with pytest.raises(SeedSpecError, match="floor 400 exceeds the cap"):
        SeedSpec(k=400).validate()


def test_every_spec_that_validates_builds():
    # validate lays the seed out, so it refuses exactly the specs that
    # make_seed refuses, the seed has the size it returns, the padding fills
    # the rest, and the least size it finds is the least explicit size it
    # accepts; every seed laid out meets the completion's preconditions,
    # which the completion itself does not check
    plantings = [(k, ()) for k in range(3, 13)] + [
        (5, (Plant("LLLLR", 2),)),
        (6, (Plant("L" * 6, 1), Plant("LLLLR", 1))),
        (10, (Plant(word_for_trace(11), 17),)),
        (12, (Plant(word_for_trace(13), 3), Plant(word_for_trace(20), 2))),
    ]
    for k, plants in plantings:
        bound = seed_size_bound(k)
        planted = sum(p.multiplicity * len(p.word) for p in plants)
        accepted = {}
        for size in [None, *range(bound - 4, bound + 60)]:
            spec = SeedSpec(k=k, plants=plants, size=size)
            try:
                n, n_padding, use_parity = spec.validate()
            except SeedSpecError:
                with pytest.raises(SeedSpecError):
                    make_seed(spec)
                continue
            assert size in (None, n) and n == planted + n_padding * (k - 1) + use_parity * k
            seed = make_seed(spec)
            assert seed.num_vertices == n, (k, plants, size)
            check_seed_graph(seed, k)
            accepted[size] = n
        assert accepted.pop(None) == min(accepted.values()), (k, plants)


def test_shuffle_draws_as_random_shuffle():
    # the layout's own Fisher-Yates gives the permutation that CPython's
    # shuffle gives for the same seed, so every seed-layout byte stays as
    # it was; this fails only on an interpreter whose shuffle changed
    import random

    for rng_seed in (0, 1, 7, 12345, 2**32, 2**64 - 1):
        for n in (0, 1, 2, 3, 10, 257, 1000, 10**5):
            want, got = list(range(n)), list(range(n))
            random.Random(rng_seed).shuffle(want)
            builder._shuffle(got, random.Random(rng_seed))
            assert got == want, (rng_seed, n)


def test_shuffle_is_pinned_by_literal_ids():
    # the pin rests on the Mersenne Twister stream alone, not on shuffle
    import random

    ids = list(range(10**5))
    builder._shuffle(ids, random.Random(0))
    assert ids[:8] == [74921, 6849, 99252, 14859, 14403, 24051, 23134, 28153]
    assert sorted(ids) == list(range(10**5))


def test_max_floor_is_the_last_floor_under_the_vertex_cap():
    # exact on both sides: the least admissible count of MAX_FLOOR fits, the
    # next floor's does not, and the count grows with k; seed_size_bound
    # refuses 385 itself, so its count is spelled out
    assert builder.MAX_FLOOR == 384
    assert seed_size_bound(384) == 2 * census.N_of(382) + 4 * 384 - 4 == 998292 <= builder.MAX_VERTICES
    assert 2 * census.N_of(383) + 4 * 385 - 4 == 1002104 > builder.MAX_VERTICES
    SeedSpec(k=builder.MAX_FLOOR).validate()
    with pytest.raises(SeedSpecError, match="floor 385 exceeds the cap"):
        SeedSpec(k=builder.MAX_FLOOR + 1).validate()


# each refused floor with the gate's text: too small, of the wrong type
# (5.0 comes after valid calls at 5 whose cache entries it must not reach)
# and above the cap
_REFUSED_FLOORS = [
    (2, "floor k=2 must be an integer >= 3"),
    (-5, "floor k=-5 must be an integer >= 3"),
    (3.5, "floor k=3.5 must be an integer >= 3"),
    ("5", "floor k='5' must be an integer >= 3"),
    (True, "floor k=True must be an integer >= 3"),
    (5.0, "floor k=5.0 must be an integer >= 3"),
    (builder.MAX_FLOOR + 1, "floor 385 exceeds the cap of 384, the last floor that fits in 1000000 vertices"),
]


def test_every_floor_route_asks_the_one_gate_before_it_allocates(monkeypatch):
    g = circuit_graph(["LLLR"])
    # valid calls at 5 fill the caches that 5.0 must not be served from
    forbidden_reach(g, 0, 5)
    build(SeedSpec(k=5))

    routes = {
        "seed_size_bound": seed_size_bound,
        "SeedSpec.validate": lambda k: SeedSpec(k=k).validate(),
        "make_seed": lambda k: make_seed(SeedSpec(k=k)),
        "build": lambda k: build(SeedSpec(k=k)),
        "forbidden_reach": lambda k: forbidden_reach(g, 0, k),
    }
    # the tree of floor 385 would hold 501051 nodes, several MiB in its
    # lists alone; a refusal allocates next to nothing
    tracemalloc.start()
    try:
        for k, text in _REFUSED_FLOORS:
            for name, route in routes.items():
                tracemalloc.reset_peak()
                with pytest.raises(SeedSpecError, match=f"^{re.escape(text)}$"):
                    route(k)
                    pytest.fail(f"{name} accepted the floor {k!r}")
                assert tracemalloc.get_traced_memory()[1] < 1 << 20, (name, k)
    finally:
        tracemalloc.stop()
    SeedSpec(k=builder.MAX_FLOOR).validate()

    # a valid build reads its size bound off the tree and builds no divisor table
    def no_table(limit):
        raise AssertionError(f"a divisor table of {limit} entries was built")

    monkeypatch.setattr(census, "_divisor_counts", no_table)
    builder._admissible_tree.cache_clear()
    assert build(SeedSpec(k=5))[1].vertices == seed_size_bound(5)


def test_the_size_bounds_rest_on_the_size_of_the_admissible_tree():
    # the tree holds the empty word, L^j and R^j for 1 <= j <= k - 2 and one
    # word per matrix of trace 3..k - 2, and the least admissible count is
    # the least even count above two full forbidden sets
    for k in range(3, 61):
        nodes = len(builder._admissible_tree(k)[0])
        assert nodes == census.N_of(max(k - 2, 2)) + 2 * k - 3 == forbidden_set_bound(k), k
        assert seed_size_bound(k) == 2 * census.N_of(max(k - 2, 2)) + 4 * k - 4, k


def test_install_circuit_refuses_one_letter_and_an_id_count_off_the_word():
    # SeedSpec.validate refuses a word under two letters before make_seed
    # wires it, so the guard is reached here directly; it refuses before
    # any edge is added
    for ids, word in (([0], "L"), ([0, 1], "LRL"), ([0, 1, 2], "LR")):
        g = ribbon.CubicRibbonGraph(3)
        with pytest.raises(SeedSpecError, match=f"^circuit {word!r} needs two or more letters and one id per letter$"):
            builder._install_circuit(g, ids, word)
        assert g.num_edges() == 0, word


def test_word_for_trace_refuses_a_word_longer_than_any_seed():
    # checked before the word is spelled: 10**12 - 1 letters would not fit
    # in the suite's address-space limit
    with pytest.raises(ValueError, match="^trace 1000000000000 needs 999999999999 letters, above the cap"):
        word_for_trace(10**12)
    word = word_for_trace(builder.MAX_VERTICES + 1)
    assert len(word) == builder.MAX_VERTICES
    assert word == "L" * (builder.MAX_VERTICES - 1) + "R"


def test_forbidden_reach_on_a_hand_circuit():
    # one LLLR circuit with ids 0..3: every vertex is reachable within the
    # trace <= 3, length <= 3 budget of floor 5
    g = circuit_graph(["LLLR"])
    reach = forbidden_reach(g, 0, 5)
    assert reach.members == {0, 1, 2, 3}
    assert len(reach.members) <= forbidden_set_bound(5)


def test_forbidden_reach_budget_cuts():
    # a long letter-power circuit: only length <= k - 2 runs stay forbidden
    g = circuit_graph(["L" * 12])
    reach = forbidden_reach(g, 0, 5)
    assert 0 in reach.members
    assert len(reach.members) <= forbidden_set_bound(5)
    far = {v for v in range(12) if v not in reach.members}
    assert far  # the far side of the circuit is out of reach


def _check_reach_against_oracle(g, x, k):
    assert forbidden_reach(g, x, k).members == naive_forbidden_reach(g, x, k)


SEED_SHAPES = (["LLLR"] * 3, ["LR"] * 4, ["LLL", "LLR"], ["L" * 12])


def test_forbidden_reach_matches_the_path_oracle_on_seeds():
    for shape in SEED_SHAPES:
        g = circuit_graph(shape)
        for k in (3, 4, 5, 7):
            for x in g.degree2_vertices():
                _check_reach_against_oracle(g, x, k)


def _recorded_reach_calls(monkeypatch, specs):
    """(graph copy, x, k) of every forbidden_reach call of the builds at the
    given (k, rng_seed) pairs."""
    calls = []
    real = builder.forbidden_reach

    def recording(g, x, k, *plan):
        calls.append((g.copy(), x, k))
        return real(g, x, k, *plan)

    with monkeypatch.context() as m:
        m.setattr(builder, "forbidden_reach", recording)
        for k, rng_seed in specs:
            build(SeedSpec(k=k, rng_seed=rng_seed))
    return calls


def test_forbidden_reach_matches_the_path_oracle_mid_completion(monkeypatch):
    calls = _recorded_reach_calls(monkeypatch, ((3, 0), (4, 5), (5, 0), (6, 1), (7, 2)))
    assert len(calls) > 50  # 70 calls across the five builds
    for g, x, k in calls:
        _check_reach_against_oracle(g, x, k)


def test_tree_replay_matches_the_stack_search_oracle(monkeypatch):
    calls = _recorded_reach_calls(monkeypatch, ((3, 0), (4, 5), (5, 0), (6, 1), (7, 2), (10, 0)))
    assert len(calls) > 100
    for shape in SEED_SHAPES:
        g = circuit_graph(shape)
        calls += [(g, x, k) for k in (3, 4, 5, 7) for x in g.degree2_vertices()]
    for g, x, k in calls:
        assert forbidden_reach(g, x, k).members == stack_forbidden_reach(g, x, k)


def test_the_completion_keeps_its_step_tables_in_step(monkeypatch):
    # at every call of four builds, each of which takes a Case-2 swap, the
    # live plan's step tables equal tables composed afresh from the pair
    # table, and its members equal those of the one-call route and of the
    # stack-search oracle; the first three builds swap at their last step,
    # so the tables are compared with the finished graph's as well, and the
    # fourth swaps first with four free slots left, so later calls read the
    # swap's writes
    calls, plans = [], []
    real = builder.forbidden_reach

    def checking(g, x, k, plan):
        plans.append(plan)
        fresh = builder._reach_plan(g.pair_table(), k)
        live = real(g, x, k, plan)
        calls.append((plan[0] == fresh[0], live.members == real(g, x, k).members == stack_forbidden_reach(g, x, k)))
        return live

    monkeypatch.setattr(builder, "forbidden_reach", checking)
    for spec, swaps in (
        (SeedSpec(k=4, rng_seed=5), 1),
        (SeedSpec(k=16, rng_seed=6), 1),
        (SeedSpec(k=10, rng_seed=0), 1),
        (SeedSpec(k=6, size=40, rng_seed=15), 2),
    ):
        graph, report, _ = build(spec)
        assert report.case2 == swaps
        assert plans[-1][0] == builder._reach_plan(graph.pair_table(), spec.k)[0]
    assert len(calls) > 400
    assert calls == [(True, True)] * len(calls)


def test_each_reach_call_returns_its_own_set():
    # calls through one live plan, as the completion makes them, hand over
    # the set each replay filled: a later call or the caller's edits to one
    # result leave every other result as it was
    g = make_seed(SeedSpec(k=10))
    plan = builder._reach_plan(g.pair_table(), 10)
    x, y = 0, g.num_vertices - 1
    want_x, want_y = stack_forbidden_reach(g, x, 10), stack_forbidden_reach(g, y, 10)
    assert want_x != want_y
    first = forbidden_reach(g, x, 10, plan).members
    second = forbidden_reach(g, y, 10, plan).members
    assert first is not second
    assert first == want_x and second == want_y
    second.clear()
    second.add(x)
    assert first == want_x
    first.clear()
    again = forbidden_reach(g, x, 10, plan).members
    assert again is not first and again == want_x


def test_forbidden_reach_matches_the_path_oracle_on_partial_graphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def partial_graphs(draw):
        n = draw(st.integers(1, 10))
        slots = draw(st.permutations(range(3 * n)))
        edges = draw(st.integers(0, 3 * n // 2))
        g = ribbon.CubicRibbonGraph(n)
        for a, b in zip(slots[: 2 * edges : 2], slots[1 : 2 * edges : 2]):
            g.add_edge(a, b)
        return g

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(partial_graphs(), st.integers(3, 8))
    def check(g, k):
        hypothesis.assume(g.degree2_vertices())
        for x in g.degree2_vertices():
            _check_reach_against_oracle(g, x, k)

    check()


def test_admissible_tree_is_lazy_bounded_and_not_limited_by_the_recursion_limit():
    code = """
import sys
from fractions import Fraction
from systolic import builder
print(builder._admissible_tree.cache_info().currsize)
sys.setrecursionlimit(80)
print(len(builder._admissible_tree(60)[0]))
print(builder.build(builder.SeedSpec(k=10))[1].output_sha)
"""
    src = os.path.dirname(os.path.dirname(builder.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    cached, nodes, sha = done.stdout.split()
    assert cached == "0"  # importing the builder builds no tree
    assert int(nodes) == len(builder._admissible_tree(60)[0])
    assert sha == build(SeedSpec(k=10))[1].output_sha
    for k in range(3, 13):
        letter, parent, end = builder._admissible_tree(k)
        g = circuit_graph(["L" * (k - 1)] * 2)
        pair = g.pair_table()
        succ, pred = ribbon.turn_tables(len(pair))
        steps, tab, plan_parent, plan_end, at = builder._reach_plan(pair, k)
        assert steps == ([pair[s] for s in succ], [pair[s] for s in pred])
        assert all(tab[i] is steps[t] for i, t in enumerate(letter))
        assert (plan_parent, plan_end) == (parent, end)
        assert len(at) == len(letter)
        assert all(parent[i] < i < end[i] <= end[parent[i]] for i in range(1, len(letter)))
    info = builder._admissible_tree.cache_info()
    assert info.currsize <= info.maxsize <= 8


def test_forbidden_reach_requires_degree_two():
    # the input contract: x a vertex of the graph of degree 2, and a floor
    # that passes the gate;
    # x = -1 must not wrap around to the last vertex of the slot table
    g = circuit_graph(["LLLR"])
    assert forbidden_reach(g, 3, 5).members == {0, 1, 2, 3}
    for x in (-1, 4):
        with pytest.raises(ValueError, match=f"^vertex {x} outside 0..3$"):
            forbidden_reach(g, x, 5)
    # True would be read as vertex 1 and land in the members
    for x in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=f"^vertex {x!r} is not an integer$"):
            forbidden_reach(g, x, 5)
    with pytest.raises(SeedSpecError, match="^floor k=2 must be an integer >= 3$"):
        forbidden_reach(g, 0, 2)
    sparse = ribbon.CubicRibbonGraph(3)
    sparse.add_edge(0, 3)
    for x, degree in ((0, 1), (2, 0)):
        with pytest.raises(ValueError, match=f"^vertex {x} has degree {degree}, expected 2$"):
            forbidden_reach(sparse, x, 5)
    g.add_edge(free_slots_of(g, 0)[0], free_slots_of(g, 2)[0])
    with pytest.raises(ValueError, match="^vertex 0 has degree 3, expected 2$"):
        forbidden_reach(g, 0, 5)


def test_complete_minimum_k5_with_floor_checks(monkeypatch):
    seed = make_seed(SeedSpec(k=5))
    before = ribbon.serialize(seed)
    done = floor_checked_build(monkeypatch, lambda: complete(seed, 5))
    assert ribbon.serialize(seed) == before  # input untouched
    assert done.is_complete()
    assert done.num_edges() == 30
    assert edges(seed) == seed_edges(done)  # original circuits preserved
    assert not seed.is_complete()  # input untouched
    assert scanner.certify(done, 5).passed


def test_complete_rejects_bad_seeds():
    # the library completes only the seeds that make_seed lays out; a seed
    # built outside it is refused by the oracle check, which the test
    # helper complete runs first
    g = circuit_graph(["LLLR"] * 5)
    bad = g.copy()
    bad.add_edge(free_slots_of(bad, 0)[0], free_slots_of(bad, 7)[0])
    with pytest.raises(SeedPreconditionError, match="^vertex 0 has degree 3; a seed is 2-regular$"):
        check_seed_graph(bad, 5)
    open_circuit = ribbon.CubicRibbonGraph(20)
    for a, b in edges(g):
        if (a, b) != (3 * 18 + 1, 3 * 19 + 0):
            open_circuit.add_edge(a, b, seed=True)  # 18 and 19 end a path
    with pytest.raises(SeedPreconditionError, match="^vertex 18 has degree 1; a seed is 2-regular$"):
        check_seed_graph(open_circuit, 5)
    # the first four circuits meet the floor; the error names the first
    # failing circuit by its least vertex, 16
    with pytest.raises(
        SeedPreconditionError,
        match="^circuit through vertex 16 carries 'LLR' with trace 4, below the floor 5$",
    ):
        check_seed_graph(circuit_graph(["LLLR"] * 4 + ["LLR", "LLR"]), 5)
    with pytest.raises(SeedPreconditionError, match="below the admissible bound"):
        check_seed_graph(circuit_graph(["LLLR"] * 4), 5)
    with pytest.raises(SeedPreconditionError, match="trace 3"):
        check_seed_graph(circuit_graph(["LR"] * 10), 5)
    with pytest.raises(SeedPreconditionError, match="odd"):
        check_seed_graph(circuit_graph(["LLLR", "LLLLR"] * 3), 5)
    unflagged = ribbon.CubicRibbonGraph(20)
    base = circuit_graph(["LLLR"] * 5)
    for a, b in edges(base):
        unflagged.add_edge(a, b)  # same circuits, no seed flags
    with pytest.raises(SeedPreconditionError, match="seed"):
        check_seed_graph(unflagged, 5)


def test_letter_power_seed_allowed_but_not_in_strict_mode(monkeypatch):
    g = circuit_graph(["L" * 5] * 4)
    done = floor_checked_build(monkeypatch, lambda: complete(g, 5))
    assert scanner.certify(done, 5).passed
    with pytest.raises(
        SeedPreconditionError, match="^circuit through vertex 0 carries 'LLLLL' with trace 2, below the floor 5$"
    ):
        complete(g, 5, strict_seed_trace=True)


def test_iteration_accounting():
    spec = SeedSpec(k=5)
    graph, report, _ = build(spec)
    assert report.iterations == report.case1 + report.case2
    assert report.iterations == 3 * graph.num_vertices // 2 - len(seed_edges(graph))
    assert report.max_forbidden_set <= forbidden_set_bound(5)
    assert report.vertices == 20 and report.edges == 30


_COMPONENT = dict(vertices=(0, 1), genus=1, cusp_lengths=(6,), girth=2)
_CYCLE = dict(word="LLR", trace=5, multiplicity=2, witness=(0, 4, 8))
_CERTIFICATE = dict(
    passed=False, floor=6, short_cycles=(scanner.CycleClass(**_CYCLE),), short_faces=((0, 1, 2, 3, 4),)
)
_SURFACE = dict(
    vertices=2, edges=3, components=(ribbon.ComponentSurface(**_COMPONENT),), genus_sum=1, girth=2,
    systole_trace=3, systole_length=words.geodesic_length(3), systole_word="LR", spectrum=((3, 2),),
    bh_bound=Fraction(1, 2), bh_ok=True, log_genus=None, log_log_genus=None, systole_gap=None,
)
_SPEC = dict(k=5, plants=(Plant("LLLR", 2),), size=40, rng_seed=3, strict_seed_trace=True)
_BUILD = dict(
    spec=SeedSpec(**_SPEC), iterations=9, case1=8, case2=1, max_forbidden_set=7, vertices=20, edges=30,
    output_sha="ab",
)

# Each record class: its fields by keyword, fields of an unequal record,
# and the fields that have defaults, with them.
RECORDS = {
    "UniMat": (words.UniMat, dict(a=2, b=1, c=1, d=1), dict(a=1, b=1, c=0, d=1), {}),
    "ComponentSurface": (ribbon.ComponentSurface, _COMPONENT, dict(_COMPONENT, girth=3), {}),
    "CycleClass": (scanner.CycleClass, _CYCLE, dict(_CYCLE, multiplicity=3), {}),
    "CertificationResult": (scanner.CertificationResult, _CERTIFICATE, dict(_CERTIFICATE, floor=7), {}),
    "SurfaceReport": (scanner.SurfaceReport, _SURFACE, dict(_SURFACE, bh_bound=Fraction(1, 3)), {}),
    "Plant": (Plant, dict(word="LLLR", multiplicity=2), dict(word="LLLR", multiplicity=3), {}),
    "SeedSpec": (
        SeedSpec, _SPEC, dict(_SPEC, k=6), dict(plants=(), size=None, rng_seed=0, strict_seed_trace=False)
    ),
    "ForbiddenReach": (
        builder.ForbiddenReach, dict(members=frozenset({0, 1})), dict(members=frozenset({0})), {}
    ),
    "BuildReport": (builder.BuildReport, _BUILD, dict(_BUILD, iterations=10), {}),
    "CensusTable": (
        census.CensusTable, dict(rows=(census.CensusRow(3, 2, 2),)), dict(rows=(census.CensusRow(3, 2, 3),)), {}
    ),
}


@pytest.mark.parametrize("cls, fields, other, defaults", RECORDS.values(), ids=list(RECORDS))
def test_record_classes_are_immutable_values(cls, fields, other, defaults):
    # equality and hash read the fields as one tuple, so set and dict
    # orders hold, and repr prints them by name: each is the named tuple's
    # own, with no override in the record class
    assert not {"__eq__", "__ne__", "__hash__", "__repr__"} & set(vars(cls))
    rec = cls(**fields)
    assert [getattr(rec, name) for name in fields] == list(fields.values())
    assert rec == cls(*fields.values()) and not rec != cls(**fields)
    assert rec != cls(**other) and not rec == cls(**other)
    # a record compares equal only to a record of its own class
    assert rec.__eq__(None) is NotImplemented and rec.__ne__(None) is NotImplemented
    assert hash(rec) == hash(tuple(fields.values()))
    assert repr(rec) == f"{cls.__name__}({', '.join(f'{name}={value!r}' for name, value in fields.items())})"
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
    with pytest.raises(AttributeError):
        rec.note = "no such field"
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert cls(**required) == cls(**dict(required, **defaults))
    for name in required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != name})


CASE_TWO_SHAS = {
    (3, 0): "e9c23840c0ac66a5121f9a6e977d2f5052c625fd19207d9c53423d0dd0f1d098",
    (4, 5): "f733732b97f411ea83735bd36342b4d6fe04d024d43de26644cc0cec69c4d2ba",
}


def test_case_two_swap_occurs_and_certifies(monkeypatch):
    # frozen layout seeds that force the swap branch at least once
    for (k, rng_seed), sha in CASE_TWO_SHAS.items():
        spec = SeedSpec(k=k, rng_seed=rng_seed)
        graph, report, _ = floor_checked_build(monkeypatch, lambda: build(spec))
        assert report.case2 >= 1
        assert report.output_sha == sha
        assert scanner.certify(graph, k).passed
    # one swap in a larger completion: layout 6 of the k=16 builds
    _, report, _ = build(SeedSpec(k=16, rng_seed=6))
    assert report.case2 == 1
    assert report.output_sha == "b85c3e1001cf89b85e0b8a777eeb27fc6a2bd75e1c0be33ca46565350223ca04"


def test_completion_computes_the_degree_two_frontier_once(monkeypatch):
    counts = dict.fromkeys(["degree2_vertices", "components", "copy", "forbidden_reach"], 0)

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("degree2_vertices", "components", "copy"):
        counting(ribbon.CubicRibbonGraph, name)
    counting(builder, "forbidden_reach")
    for rng_seed in (0, 5):  # layout 5 of k=4 takes a Case-2 swap
        _, report, _ = build(SeedSpec(k=4, rng_seed=rng_seed))
        # make_seed's layout leaves every vertex at degree 2, so the
        # frontier starts as all of them: no degree scan and no union-find
        assert counts["degree2_vertices"] == counts["components"] == 0
        # the loop pairs the free slots it tracks, and forbidden_reach reads
        # its input's degree and free slot off the pair table, so no step
        # rescans the vertices; build completes its fresh seed without
        # copying it
        assert counts["forbidden_reach"] >= report.iterations
        assert counts["copy"] == 0
    assert report.case2 >= 1


def test_complete_leaves_a_case_two_input_untouched():
    seed = make_seed(SeedSpec(k=4, rng_seed=5))
    before = ribbon.serialize(seed)
    done = complete(seed, 4)
    assert ribbon.serialize(seed) == before
    assert hashlib.sha256(ribbon.serialize(done).encode("ascii")).hexdigest() == CASE_TWO_SHAS[(4, 5)]


def test_completion_invariants_hold_under_python_O():
    # the invariants are typed errors, not asserts that -O strips
    code = f"""
import sys
from fractions import Fraction
from systolic import builder
if sys.flags.optimize != 1:
    sys.exit("not running under -O")
_, report, _ = builder.build(builder.SeedSpec(k=4, rng_seed=5))
if report.output_sha != {CASE_TWO_SHAS[(4, 5)]!r}:
    sys.exit("sha changed under -O: " + report.output_sha)
seed = builder.make_seed(builder.SeedSpec(k=5))
try:
    builder._non_seed_edge(seed, 0)
except builder.CompletionError as exc:
    if "0 non-seed edges" not in str(exc):
        sys.exit("unexpected message: " + str(exc))
else:
    sys.exit("no CompletionError for a vertex without a non-seed edge")
try:
    builder._install_circuit(builder.CubicRibbonGraph(1), [0], "L")
except builder.SeedSpecError:
    pass
else:
    sys.exit("a one-letter circuit was wired")
"""
    src = os.path.dirname(os.path.dirname(builder.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_completion_errors_carry_a_bounded_message():
    # the message names the invariant and at most eight free slots, so it
    # does not grow with the graph, which rides along as an attribute
    shapes = []
    for k in (5, 40):  # 20 and 6124 vertices
        seed = make_seed(SeedSpec(k=k))
        with pytest.raises(builder.CompletionError) as info:
            builder._non_seed_edge(seed, 0)
        assert info.value.graph is seed
        assert "CRG 1" not in str(info.value)
        shapes.append(re.sub(r"\d+", "0", str(info.value)))
    assert shapes[0] == shapes[1]


def test_no_bare_asserts_under_src():
    # python -O strips asserts, so an invariant must be an explicit raise
    src = os.path.dirname(builder.__file__)
    hits = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        name = os.path.basename(path)
        hits += [f"{name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not hits


def test_every_export_resolves_once():
    # a name deleted from a module must also leave every __all__ that lists it
    modules = [systolic] + [
        importlib.import_module(f"systolic.{m.name}") for m in pkgutil.iter_modules(systolic.__path__)
    ]
    for module in modules:
        exports = getattr(module, "__all__", [])
        assert len(exports) == len(set(exports)), module.__name__
        assert [e for e in exports if not hasattr(module, e)] == [], module.__name__


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # the benchmark's tracer wraps these names and counts these results, so
    # deleting or renaming one breaks ``perfbench/run.py --trace 1``
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    for module_name, owner_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"systolic.{module_name}")
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        assert callable(getattr(owner, attr)), (module_name, owner_name, attr)
    counters = {counter for *_, counter in tracer.TARGETS} - {None}
    assert counters == {tracer._members, tracer._classes, tracer._word_nodes}
    g = circuit_graph(["LLLR"])
    assert tracer._members(forbidden_reach(g, 0, 5)) == {"members": 4}
    found = scanner.low_trace_cycles(theta_graph(twisted=False), 3)
    assert tracer._classes(found) == {"classes": 1, "empty": 0}
    assert tracer._word_nodes(census.count_words_by_trace(5)) == {"word_nodes": 16}


def test_builder_does_not_import_the_scanner():
    # the scanner certifies the builder's output, so it must not be its helper
    with open(builder.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name for alias in node.names}
    assert not {name for name in imported if "scanner" in name}


def test_plants_at_full_budget_leave_no_padding(monkeypatch):
    # 4 copies of a 5-vertex circuit exactly fill the k=5 budget of 20
    spec = SeedSpec(k=5, plants=(Plant("LLLLR", 4),))
    seed = make_seed(spec)
    assert seed.num_vertices == 20
    assert len(seed.components()) == 4  # no padding circuits at all
    graph, _, _ = floor_checked_build(monkeypatch, lambda: build(spec))
    assert scanner.certify(graph, 5).passed


def test_k3_floor_builds_and_certifies():
    graph, report, _ = build(SeedSpec(k=3))
    assert graph.num_vertices == 8
    result = scanner.certify(graph, 3)
    assert result.passed
    assert all(len(f) >= 3 for f in ribbon.faces(graph))


def test_build_is_deterministic():
    a = ribbon.serialize(build(SeedSpec(k=5, rng_seed=9))[0])
    b = ribbon.serialize(build(SeedSpec(k=5, rng_seed=9))[0])
    assert a == b
    ra = build(SeedSpec(k=5, rng_seed=9))[1]
    rb = build(SeedSpec(k=5, rng_seed=9))[1]
    assert ra == rb


def test_build_report_contents():
    spec = SeedSpec(k=5, plants=(Plant("LLLLR", 2),), rng_seed=3)
    graph, report, crg = build(spec)
    payload = report.to_json_dict()
    # the JSON is the report's own fields, and its spec the spec's
    assert list(payload) == list(builder.BuildReport._fields)
    assert list(payload["spec"]) == list(SeedSpec._fields)
    assert payload["spec"] == {
        "k": 5,
        "plants": [{"word": "LLLLR", "multiplicity": 2}],
        "size": "min",
        "rng_seed": 3,
        "strict_seed_trace": False,
    }
    assert crg == ribbon.serialize(graph)
    assert payload["output_sha"] == report.output_sha == hashlib.sha256(crg.encode()).hexdigest()
    json.dumps(payload)  # schema must be JSON-serializable as is


def test_randomized_specs_certify_and_honor_plants(monkeypatch):
    import random

    rng = random.Random(99)
    for k in (4, 5, 6):
        for rng_seed in range(4):
            plants = []
            used = 0
            budget = seed_size_bound(k)
            for _ in range(rng.randint(0, 3)):
                word = word_for_trace(rng.randint(k, k + 6))
                mult = rng.randint(1, 2)
                if used + mult * len(word) <= budget:
                    plants.append(Plant(word, mult))
                    used += mult * len(word)
            spec = SeedSpec(k=k, plants=tuple(plants), rng_seed=rng_seed)
            graph, report, _ = floor_checked_build(monkeypatch, lambda: build(spec))
            assert scanner.certify(graph, k).passed
            assert report.max_forbidden_set <= forbidden_set_bound(k)
            want: dict[int, int] = {}
            for p in plants:
                t = words.trace_of(p.word)
                want[t] = want.get(t, 0) + p.multiplicity
            if want:
                spectrum = dict(scanner.bottom_spectrum(graph, max(want)))
                for t, mult in want.items():
                    assert spectrum.get(t, 0) >= mult


def test_planted_circuits_survive_completion():
    word = word_for_trace(11)
    spec = SeedSpec(k=10, plants=(Plant(word, 3),))
    graph, _, _ = build(spec)
    # the original circuits are exactly the seed edges of the completion;
    # plants occupy ids 0..29 in planting order
    seed_only = ribbon.CubicRibbonGraph(graph.num_vertices)
    for a, b in seed_edges(graph):
        seed_only.add_edge(a, b)
    for copy in range(3):
        circuit = circuit_word(seed_only, copy * 10)
        assert words.canonical(circuit) == words.canonical(word)
