import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from systolic import builder, ribbon
from systolic.ribbon import (
    CrgParseError,
    CubicRibbonGraph,
    beineke_harary_lower_bound,
    deserialize,
    faces,
    genus_closed,
    girth,
    pred,
    serialize,
    succ,
)

from _oracles import (
    all_roots_girth,
    degree,
    edges,
    free_slots,
    per_token_serialize,
    random_complete_graph,
    relabeled,
    seed_edges,
    small_complete_corpus,
    theta_graph,
    turn_letter,
)


def test_slot_arithmetic():
    # slot 1 of vertex 2 is 3 * 2 + 1 = 7
    assert succ(7) == 8 and succ(8) == 6 and succ(6) == 7
    assert pred(7) == 6 and pred(6) == 8


def test_turn_letter_convention():
    assert turn_letter(0, 1) == "L"
    assert turn_letter(0, 2) == "R"
    # every slot has exactly the two non-backtracking exits
    for s in range(6):
        assert {turn_letter(s, succ(s)), turn_letter(s, pred(s))} == {"L", "R"}
    with pytest.raises(ValueError):
        turn_letter(0, 0)
    with pytest.raises(ValueError):
        turn_letter(0, 4)


def test_add_and_remove_edges():
    with pytest.raises(ValueError, match="negative vertex count"):
        CubicRibbonGraph(-1)
    g = CubicRibbonGraph(2)
    g.add_edge(0, 3)
    assert degree(g, 0) == 1 and degree(g, 1) == 1
    assert g.pair_table()[0] == 3 and g.pair_table()[3] == 0
    with pytest.raises(ValueError):
        g.add_edge(0, 4)  # slot 0 occupied
    with pytest.raises(ValueError, match="slot 3 is already paired"):
        g.add_edge(4, 3)  # the second slot occupied
    with pytest.raises(ValueError, match="outside"):
        g.add_edge(1, 6)
    # a bool would be stored as a slot id; a float is no index
    for s in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=f"^slot {s!r} is not an integer$"):
            g.add_edge(s, 4)
        with pytest.raises(ValueError, match=f"^slot {s!r} is not an integer$"):
            g.add_edge(4, s)
        with pytest.raises(ValueError, match=f"^slot {s!r} is not an integer$"):
            g.remove_edge(s, 3)
    assert g.pair_table() == [3, -1, -1, 0, -1, -1]
    with pytest.raises(ValueError):
        g.add_edge(1, 1)
    before = serialize(g := g.copy())
    g.remove_edge(0, 3)
    g.add_edge(0, 3)
    assert serialize(g) == before
    with pytest.raises(ValueError):
        g.remove_edge(1, 4)  # not present


def test_seed_edges_cannot_be_removed():
    g = CubicRibbonGraph(2)
    g.add_edge(0, 3, seed=True)
    g.add_edge(1, 4)
    with pytest.raises(ValueError):
        g.remove_edge(0, 3)
    g.remove_edge(1, 4)
    assert seed_edges(g) == [(0, 3)]


def test_faces_of_the_two_vertex_graphs():
    straight = theta_graph(twisted=False)
    fs = faces(straight)
    assert sorted(len(f) for f in fs) == [6]
    twisted = theta_graph(twisted=True)
    fs = faces(twisted)
    assert sorted(len(f) for f in fs) == [2, 2, 2]
    with pytest.raises(ValueError):
        faces(CubicRibbonGraph(2))


def test_faces_partition_the_darts():
    for g in small_complete_corpus():
        fs = faces(g)
        darts = [d for f in fs for d in f]
        assert sorted(darts) == list(range(3 * g.num_vertices))


def test_face_cycles_read_all_left_turns():
    for g in (theta_graph(False), theta_graph(True)):
        pair = g.pair_table()
        for f in faces(g):
            for i, d in enumerate(f):
                assert turn_letter(pair[d], f[(i + 1) % len(f)]) == "L"
            # reversal duality: the same cycle backwards turns R everywhere
            rev = tuple(pair[d] for d in reversed(f))
            for i, d in enumerate(rev):
                assert turn_letter(pair[d], rev[(i + 1) % len(rev)]) == "R"


def test_genus_of_the_two_vertex_graphs():
    (comp,) = genus_closed(theta_graph(twisted=True))
    assert comp.genus == 0 and comp.num_cusps == 3
    (comp,) = genus_closed(theta_graph(twisted=False))
    assert comp.genus == 1 and comp.num_cusps == 1


def test_euler_identity_on_corpus():
    # genus_closed checks no parity: each component's vertex count and
    # Euler characteristic are even on every graph, the small corpus and a
    # batch of random matchings, some of them disconnected
    rng = random.Random(38)
    graphs = [*small_complete_corpus(), *(random_complete_graph(rng, 12) for _ in range(200))]
    disconnected = 0
    for g in graphs:
        comps = genus_closed(g)
        disconnected += len(comps) > 1
        for c in comps:
            assert len(c.vertices) % 2 == 0
            assert 2 - 2 * c.genus == c.num_cusps - len(c.vertices) // 2
        total_faces = len(faces(g))
        lhs = sum(2 - 2 * c.genus for c in comps)
        assert lhs == total_faces - g.num_vertices // 2
        assert sum(len(c.vertices) for c in comps) == g.num_vertices
        assert sum(c.num_cusps for c in comps) == total_faces
    assert disconnected > 0


def test_girth_examples():
    assert girth(theta_graph(False)) == 2
    loop = CubicRibbonGraph(1)
    loop.add_edge(0, 1)
    assert girth(loop) == 1
    path = CubicRibbonGraph(2)
    path.add_edge(0, 3)
    assert girth(path) is None
    assert girth(CubicRibbonGraph(3)) is None


def test_girth_on_simple_cubic_graphs_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    checked = 0
    for g in small_complete_corpus():
        G = nx.MultiGraph()
        G.add_nodes_from(range(g.num_vertices))
        for a, b in edges(g):
            G.add_edge(a // 3, b // 3)
        if any(u == v for u, v in G.edges()) or G.number_of_edges() != len(set(map(frozenset, G.edges()))):
            continue  # loops and parallels are covered by the frozen examples
        assert girth(g) == nx.girth(nx.Graph(G)), edges(g)
        checked += 1
    assert checked >= 5


def _random_partial_graph(rng: random.Random, max_vertices: int) -> CubicRibbonGraph:
    """A random matching of a random share of the slots, loops and parallel
    pairs included."""
    n = rng.randint(1, max_vertices)
    slots = rng.sample(range(3 * n), 2 * rng.randint(0, 3 * n // 2))
    g = CubicRibbonGraph(n)
    for a, b in zip(slots[::2], slots[1::2]):
        g.add_edge(a, b)
    return g


def test_girth_on_multigraphs_and_components_against_networkx():
    nx = pytest.importorskip("networkx")

    def oracle(G):
        if nx.number_of_selfloops(G):
            return 1
        if any(G.number_of_edges(u, v) > 1 for u, v in G.edges()):
            return 2
        h = nx.girth(nx.Graph(G))
        return None if h == float("inf") else h

    rng = random.Random(13)
    graphs = [random_complete_graph(rng, 24) for _ in range(60)]
    graphs += [_random_partial_graph(rng, 16) for _ in range(120)]
    seen = set()
    for g in graphs:
        G = nx.MultiGraph()
        G.add_nodes_from(range(g.num_vertices))
        G.add_edges_from((a // 3, b // 3) for a, b in edges(g))
        comps = g.components()
        want = [oracle(G.subgraph(vs)) for vs in comps]
        assert girth(g) == oracle(G), edges(g)
        assert ribbon._girths(g, comps) == want, edges(g)
        if g.is_complete():
            assert [c.girth for c in genus_closed(g)] == want, edges(g)
        seen.update(h if h is None else min(h, 3) for h in want)
    assert seen == {None, 1, 2, 3}  # acyclic, loop, parallel pair and simple cases all ran


def test_least_vertex_girth_matches_the_all_roots_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @st.composite
    def partial_graphs(draw):
        # a random matching of some of the slots of up to 30 vertices; by
        # mode, pairs that would make a loop, or a loop or parallel edge, are
        # dropped so that longer girths occur
        n = draw(st.integers(1, 30))
        slots = draw(st.permutations(range(3 * n)))
        m = draw(st.integers(0, 3 * n // 2))
        mode = draw(st.sampled_from(["any", "no loops", "simple"]))
        g = CubicRibbonGraph(n)
        joined = set()
        for a, b in zip(slots[: 2 * m : 2], slots[1 : 2 * m : 2]):
            ends = frozenset((a // 3, b // 3))
            if (mode != "any" and len(ends) == 1) or (mode == "simple" and ends in joined):
                continue
            joined.add(ends)
            g.add_edge(a, b)
        return g

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(partial_graphs())
    def check(g):
        assert girth(g) == all_roots_girth(g), edges(g)
        # one sweep over the components, in either order of the groups
        comps = g.components()
        want = [all_roots_girth(g, vs) for vs in comps]
        assert ribbon._girths(g, comps) == want, edges(g)
        assert ribbon._girths(g, comps[::-1]) == want[::-1], edges(g)
        seen.update(h if h is None else min(h, 4) for h in want)

    check()
    assert seen == {None, 1, 2, 3, 4}  # acyclic, loop, parallel pair, triangle and longer all ran


def test_least_vertex_girth_matches_the_oracle_on_corpus_and_builds():
    graphs = list(small_complete_corpus())
    graphs += [builder.build(builder.SeedSpec(k=k))[0] for k in (10, 20, 30)]
    for g in graphs:
        assert girth(g) == all_roots_girth(g), edges(g)
        want = [all_roots_girth(g, comp) for comp in g.components()]
        assert [c.girth for c in genus_closed(g)] == want, edges(g)


def test_girth_restricted_to_component():
    g = CubicRibbonGraph(3)
    g.add_edge(0, 1)  # loop at vertex 0
    g.add_edge(3, 6)  # slot 0 of vertex 1 to slot 0 of vertex 2
    g.add_edge(4, 7)
    assert girth(g) == 1
    assert ribbon._girths(g, g.components()) == [1, 2]
    # complete, with interleaved ids: a theta graph on vertices 0 and 5, K4 on 1..4
    g = CubicRibbonGraph(6)
    for a, b in ((0, 15), (1, 16), (2, 17), (3, 7), (4, 9), (5, 12), (6, 10), (8, 13), (11, 14)):
        g.add_edge(a, b)
    assert [(c.vertices, c.girth) for c in genus_closed(g)] == [((0, 5), 2), ((1, 2, 3, 4), 3)]


def _completed(g: CubicRibbonGraph, rng: random.Random) -> CubicRibbonGraph:
    """g with its free slots paired by a uniformly random perfect matching."""
    slots = free_slots(g)
    rng.shuffle(slots)
    for a, b in zip(slots[::2], slots[1::2]):
        g.add_edge(a, b)
    return g


def test_girth_reads_no_slot_after_a_loop():
    # a loop is the least possible girth, so once the search from vertex 0
    # has read its three slots, no level of any later root may be expanded
    # and no later root of its group is drawn; a theta graph on vertices
    # 1000 and 1001 is a second group, which still gets its own girth
    class CountingList(list):
        reads = 0

        def __getitem__(self, index):
            self.reads += 1
            return super().__getitem__(index)

    g = CubicRibbonGraph(1002)
    g.add_edge(0, 1)
    for i in range(3):
        g.add_edge(3000 + i, 3003 + i)
    _completed(g, random.Random(3))
    g._pair = pair = CountingList(g.pair_table())
    assert girth(g) == 1
    assert pair.reads <= 3, pair.reads

    drawn = []

    def counted_roots():
        for v in range(1000):
            drawn.append(v)
            yield v

    assert ribbon._girths(g, (counted_roots(), [1000, 1001])) == [1, 2]
    assert drawn == [0]


def test_girth_peak_memory_is_linear_in_the_vertex_count():
    # two lists of V entries, shared by every root; the turn tables are a
    # cache that `faces` and the scan fill for the same graph anyway
    g = _completed(CubicRibbonGraph(20_000), random.Random(4))
    ribbon.turn_tables(len(g.pair_table()))
    tracemalloc.start()
    try:
        h = girth(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h is not None
    assert peak <= 3 * sys.getsizeof(g.pair_table()), (peak, sys.getsizeof(g.pair_table()))


def test_turn_tables_hold_one_int_per_slot():
    # succ and pred index the same slot ids, so the two tables share one
    # int object per slot (32 bytes under tracemalloc) instead of making
    # one per entry (64 bytes per slot)
    n = 3 * 20_011  # a slot count that no other test caches
    tracemalloc.start()
    try:
        left, right = ribbon.turn_tables(n)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert left == tuple(map(succ, range(n))) and right == tuple(map(pred, range(n)))
    tables = sys.getsizeof(left) + sys.getsizeof(right)
    assert held <= tables + 40 * n, (held, tables)


def test_vertex_table_maps_each_slot_to_its_vertex():
    for v in (0, 1, 2, 7):
        vertex = ribbon.vertex_table(3 * v)
        assert len(vertex) == 3 * v
        assert vertex == tuple(s // 3 for s in range(3 * v))
        assert ribbon.vertex_table(3 * v) is vertex
    # a vertex's three slots share its one int object, small-int cache or not
    vertex = ribbon.vertex_table(3 * 1000)
    assert vertex[2997] is vertex[2998] is vertex[2999] == 999


def test_beineke_harary_examples():
    assert beineke_harary_lower_bound(2, 3, 2) == 0
    assert beineke_harary_lower_bound(14, 21, 6) == 1
    assert beineke_harary_lower_bound(3, 4, 3) == Fraction(1, 6)
    assert isinstance(beineke_harary_lower_bound(3, 4, 3), Fraction)
    with pytest.raises(ValueError):
        beineke_harary_lower_bound(2, 3, 0)
    with pytest.raises(ValueError, match="p >= 1"):
        beineke_harary_lower_bound(0, 1, 3)


def test_serialize_roundtrip():
    for g in (theta_graph(False), theta_graph(True)):
        assert deserialize(serialize(g)) == g
    g = CubicRibbonGraph(3)
    g.add_edge(0, 5, seed=True)
    g.add_edge(1, 6)
    text = serialize(g)
    assert "SEED" in text and "0.0-1.2" in text
    assert deserialize(text) == g
    assert serialize(deserialize(text)) == text
    # a graph compares only with a graph, and its repr gives its size
    assert g.__eq__(text) is NotImplemented and g != text
    assert repr(g) == "CubicRibbonGraph(V=3, E=2)"
    # the parsed pair table holds no spare capacity
    for n in (1, 3, 10, 100):
        parsed = deserialize(serialize(CubicRibbonGraph(n)))
        assert sys.getsizeof(parsed.pair_table()) == sys.getsizeof([-1] * (3 * n))


def test_serialize_matches_the_per_token_oracle_and_round_trips():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @st.composite
    def partial_graphs(draw):
        # a random matching of some or (for even n) all of the slots of up
        # to 10 vertices, each edge flagged as a seed edge or not
        n = draw(st.integers(0, 10))
        slots = draw(st.permutations(range(3 * n)))
        m = draw(st.integers(0, 3 * n // 2) | st.just(3 * n // 2))
        g = CubicRibbonGraph(n)
        for a, b in zip(slots[: 2 * m : 2], slots[1 : 2 * m : 2]):
            g.add_edge(a, b, seed=draw(st.booleans()))
        return g

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(partial_graphs())
    def check(g):
        text = serialize(g)
        assert text == per_token_serialize(g)
        assert deserialize(text) == g
        seen.add((g.num_vertices > 0, not g.is_complete(), "\nSEED\n" in text))

    check()
    # empty graphs, free slots, complete graphs, and seed sections all ran
    assert {(False, False, False), (True, True, True), (True, False, True), (True, True, False)} <= seen


def test_serialize_format_shape():
    g = theta_graph(False)
    assert serialize(g) == "CRG 1\n2\n0: 1.0 1.1 1.2\n1: 0.0 0.1 0.2\n"


def test_deserialize_errors():
    good = serialize(theta_graph(False))

    with pytest.raises(CrgParseError, match="header"):
        deserialize("CRG 2\n0\n")
    with pytest.raises(CrgParseError, match="vertex count"):
        deserialize("CRG 1\nxx\n")
    with pytest.raises(CrgParseError, match="missing vertex count"):
        deserialize("CRG 1\n")
    with pytest.raises(CrgParseError, match="pairs with itself"):
        deserialize("CRG 1\n1\n0: 0.0 - -\n")
    # a loop (two distinct slots of one vertex) is legal, not a self-pair
    loop = deserialize("CRG 1\n1\n0: 0.1 0.0 -\n")
    assert loop.pair_table()[0] == 1
    # slot pointed to twice: 0.0 -> 1.0 and 0.1 -> 1.0
    with pytest.raises(CrgParseError, match="paired twice|pair back"):
        deserialize("CRG 1\n2\n0: 1.0 1.0 -\n1: 0.0 - -\n")
    # asymmetric: partner is marked free (also the odd-paired-slot-count case)
    with pytest.raises(CrgParseError, match="pair back"):
        deserialize("CRG 1\n2\n0: 1.0 - -\n1: - - -\n")
    with pytest.raises(CrgParseError, match="outside"):
        deserialize("CRG 1\n1\n0: 3.0 - -\n")
    with pytest.raises(CrgParseError, match="expected"):
        deserialize("CRG 1\n2\n0: - - -\n")
    with pytest.raises(CrgParseError, match="SEED"):
        deserialize(good + "JUNK\n")
    with pytest.raises(CrgParseError, match="not an edge"):
        deserialize(good + "SEED\n0.0-1.1\n")
    with pytest.raises(CrgParseError, match="duplicate"):
        deserialize(good + "SEED\n0.0-1.0\n0.0-1.0\n")
    with pytest.raises(CrgParseError, match="LF"):
        deserialize(good.replace("\n", "\r\n"))
    with pytest.raises(CrgParseError, match="ASCII"):
        deserialize(good + "SEED\n0.0–1.0\n")

    # every slot, count and SEED spelling but serialize's own is an error
    # on its line, even where int() would read the same number
    second = "1: 0.0 0.1 0.2\n"  # good's vertex 1; 0.i pairs 1.i, and 1.2 is the last slot

    def rejected(text, line):
        with pytest.raises(CrgParseError) as info:
            deserialize(text)
        assert info.value.line == line, (text, str(info.value))

    for token in ("1.00", "+1.0", "0_1.0", "01.0", "1.0.", "1."):
        rejected(f"CRG 1\n2\n0: {token} 1.1 1.2\n" + second, 3)
    rejected("CRG 1\n2\n0: 1.0 1.1 1.2\n1: -0.0 0.1 0.2\n", 4)
    for line in ("0:\t1.0 1.1 1.2", "0: 1.0  1.1 1.2", "0: 1.0 1.1 1.2 ", " 0: 1.0 1.1 1.2", "0:1.0 1.1 1.2"):
        rejected(f"CRG 1\n2\n{line}\n" + second, 3)
    for count in ("02", "+2", " 2", "2 ", "-0", "2_0", "", "9" * 5000):
        rejected(f"CRG 1\n{count}\n0: 1.0 1.1 1.2\n" + second, 2)
    rejected("CRG 1\n0", 2)  # no newline at the end
    rejected(good + "SEED\n", 5)  # an empty SEED section
    rejected(good + "SEED\n1.0-0.0\n", 6)  # high slot first
    rejected(good + "SEED\n0.1-1.1\n0.0-1.0\n", 7)  # out of order
    rejected(good + "SEED\n0.0-1.0\n0.1-1.1\n0.0-1.0\n", 8)  # repeated after a later edge
    # '-' is never a slot on a SEED line: not beside the last slot, whose
    # index is -1 from the end (1.2 pairs 0.2), nor beside a free slot,
    # whose partner is -1
    for seed_line in ("0.2--", "-0.2", "--1.2", "-1.2", "-", "0.2-1.2-", "0.2-1.2-1.2"):
        rejected(good + "SEED\n" + seed_line + "\n", 6)
    rejected("CRG 1\n2\n0: - 1.1 1.2\n1: - 0.1 0.2\nSEED\n0.0--\n", 6)
    seeded = good + "SEED\n0.0-1.0\n0.1-1.1\n"
    assert serialize(deserialize(seeded)) == seeded


def test_deserialize_refuses_a_vertex_count_above_the_cap(monkeypatch):
    # the cap is checked once the count has its lines and before the slot
    # tokens are built or any vertex line is read, so these empty vertex
    # lines are never looked at; builder refuses seeds by the same cap
    class Reached(Exception):
        pass

    def no_tokens(n):
        raise Reached(n)

    monkeypatch.setattr(ribbon, "_slot_tokens", no_tokens)
    cap = ribbon.MAX_VERTICES
    assert builder.MAX_VERTICES is cap
    with pytest.raises(Reached):  # at the cap the parse goes on
        deserialize(f"CRG 1\n{cap}\n" + "\n" * cap)
    with pytest.raises(CrgParseError) as info:
        deserialize(f"CRG 1\n{cap + 1}\n" + "\n" * (cap + 1))
    assert str(info.value) == f"line 2: vertex count {cap + 1} exceeds the cap of {cap} vertices"


def test_the_constructor_refuses_a_count_that_is_not_an_int_or_above_the_cap():
    # the graph's lists are allocated here, so this is where the count is
    # checked: a bool would build a graph of 0 or 1 vertices, and 10**8
    # vertices ask for lists of 3 * 10**8 slots
    cap = ribbon.MAX_VERTICES
    for n in (True, 2.0, "2"):
        with pytest.raises(ValueError, match=f"^vertex count {n!r} is not an integer$"):
            CubicRibbonGraph(n)
    for n in (cap + 1, 10**8):
        with pytest.raises(ValueError, match=f"^vertex count {n} exceeds the cap of {cap} vertices$"):
            CubicRibbonGraph(n)


def test_parse_error_carries_line_number():
    try:
        deserialize("CRG 1\n2\n0: 1.0 1.1 1.2\n1: 0.0 0.1 bogus\n")
    except CrgParseError as exc:
        assert exc.line == 4
        assert "line 4" in str(exc)
    else:
        pytest.fail("expected CrgParseError")


def test_relabeled_permutes_vertices():
    g = theta_graph(True)
    h = relabeled(g, [1, 0])
    assert h.pair_table()[3] == 0  # slot 1.0 pairs 0.0
    assert sorted(len(f) for f in faces(h)) == [2, 2, 2]
    with pytest.raises(ValueError):
        relabeled(g, [0, 0])


def test_components():
    g = CubicRibbonGraph(4)
    g.add_edge(0, 3)
    g.add_edge(6, 9)
    assert g.components() == [[0, 1], [2, 3]]


def test_components_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(29)
    graphs = [random_complete_graph(rng, 24) for _ in range(200)]
    graphs += [_random_partial_graph(rng, 16) for _ in range(200)]
    graphs += list(small_complete_corpus())
    seen = set()
    for g in graphs:
        G = nx.MultiGraph()
        G.add_nodes_from(range(g.num_vertices))
        G.add_edges_from((a // 3, b // 3) for a, b in edges(g))
        want = sorted(sorted(c) for c in nx.connected_components(G))
        assert g.components() == want, edges(g)
        cases = {
            "isolated": any(G.degree(v) == 0 for v in G),
            "loop": nx.number_of_selfloops(G) > 0,
            "parallel": any(G.number_of_edges(u, v) > 1 for u, v in G.edges() if u != v),
            "split": len(want) > 1,
        }
        seen |= {case for case, occurs in cases.items() if occurs}
    assert seen == {"isolated", "loop", "parallel", "split"}


def test_serialize_roundtrip_fuzzed_partial_graphs():
    rng = random.Random(11)
    for _ in range(60):
        g = CubicRibbonGraph(rng.randint(1, 9))
        free = free_slots(g)
        rng.shuffle(free)
        while len(free) >= 2:
            a, b = free.pop(), free.pop()
            if rng.random() < 0.3:
                continue  # leave some slots free
            g.add_edge(a, b, seed=rng.random() < 0.5)
        text = serialize(g)
        again = deserialize(text)
        assert again == g
        assert serialize(again) == text
