"""Seeding and greedy completion of trace-floor-certified cubic graphs.

The input is a disjoint union of oriented circuits, one per planted word
plus uniform padding circuits, each vertex carrying one free slot.  The
completion repeatedly adds an edge between two free slots while keeping the
invariant that every cycle either has trace at least k or is a left-turn
cycle with at least k edges:

* Case 1: if some ordered pair of degree-2 vertices (x, y) has no forbidden
  path from x to y, their free slots are joined.  A new cycle through the
  new edge is a path from x plus one closing turn, so a non-forbidden path
  (trace or length at least k - 1) closes to trace or length at least k.
* Case 2: otherwise every degree-2 vertex lies in every forbidden set, so
  the vertices outside F(x) and F(y) all have degree 3 and each owns exactly
  one non-seed edge.  Some partner w' across such an edge avoids the
  intersection of the two forbidden sets; removing ww' and joining x to w'
  and y to w adds a net edge without creating a short cycle.

A forbidden path starts at the free slot of its degree-2 source: its word
counts the turn at the source and at every interior vertex but not at the
endpoint, so closing an edge appends exactly one letter.  Paths are
forbidden when they have at most k - 2 edges and trace at most
max(k - 2, 2); every trace is at least 2, so at k = 3 that bound admits
exactly the pure letter-power runs.

Everything is deterministic: vertices are scanned in ascending id, the
random seed only shuffles which ids the padding circuits receive, so equal
seeds reproduce equal graphs byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import random
from collections import namedtuple

from . import ribbon, words
from .ribbon import MAX_VERTICES, CubicRibbonGraph, _is_int

__all__ = [
    "MAX_VERTICES",
    "MAX_FLOOR",
    "SeedSpecError",
    "CompletionError",
    "Plant",
    "SeedSpec",
    "word_for_trace",
    "seed_size_bound",
    "make_seed",
    "ForbiddenReach",
    "forbidden_reach",
    "BuildReport",
    "build",
]


# Largest floor whose least admissible count fits under MAX_VERTICES (that of
# 385 is 1002104); ``_require_floor`` checks it before _admissible_tree builds
# its tree, which seed_size_bound counts.
MAX_FLOOR = 384


class SeedSpecError(ValueError):
    """The requested seed is not realizable as specified."""


class CompletionError(RuntimeError):
    """A completion invariant failed.  The message names the invariant, the
    number of free slots and at most the first eight of them, so its length
    does not grow with the graph, which is attached as ``graph``."""

    def __init__(self, note: str, graph: CubicRibbonGraph):
        free = [s for s, p in enumerate(graph.pair_table()) if p < 0]
        shown = ", ".join(map(str, free[:8])) + (", ..." if len(free) > 8 else "")
        super().__init__(f"{note} ({len(free)} free slots: {shown})")
        self.graph = graph


def word_for_trace(t: int) -> str:
    """L^(t-2) R, the canonical circuit word with trace exactly t.  It is
    the one gate for a planted trace: t must be an int, not a bool, at
    least 3, and its t - 1 letters are checked against ``MAX_VERTICES``
    before it is spelled, since no longer circuit fits in any seed."""
    if not _is_int(t):
        raise ValueError(f"trace {t!r} is not an integer")
    if t < 3:
        raise ValueError(f"trace {t} is below 3")
    if t - 1 > MAX_VERTICES:
        raise ValueError(f"trace {t} needs {t - 1} letters, above the cap of {MAX_VERTICES} vertices")
    return "L" * (t - 2) + "R"


def _parity_word(k: int) -> str:
    """Parity-fixing circuit: L^(k-2) R R, trace 2k - 2 on k vertices."""
    return "L" * (k - 2) + "RR"


def _require_floor(k) -> None:
    """The one gate for a floor: raise SeedSpecError unless k is an int, not
    a bool, with 3 <= k <= ``MAX_FLOOR``.  Every route that allocates for a
    floor asks it first; ``_admissible_tree`` asks it before its tree, and
    ``seed_size_bound`` and ``forbidden_reach`` through it."""
    if not _is_int(k) or k < 3:
        raise SeedSpecError(f"floor k={k!r} must be an integer >= 3")
    if k > MAX_FLOOR:
        raise SeedSpecError(
            f"floor {k} exceeds the cap of {MAX_FLOOR}, the last floor that fits in {MAX_VERTICES} vertices"
        )


def seed_size_bound(k: int) -> int:
    """Least admissible vertex count, 2 N(k-2) + 4k - 4 (N(1) is empty).

    It is the least even count above two full forbidden sets, read off the
    tree of ``_admissible_tree(k)``: it has exactly N(max(k-2, 2)) + 2k - 3
    nodes, the empty word, L^j and R^j for 1 <= j <= k - 2, and one word per
    matrix of trace 3..k - 2; a word of trace t has at most t - 1 letters,
    so the length cap cuts only letter powers.  The tree's floor gate and
    its cache serve the bound, which ``SeedSpec.validate`` reads."""
    return 2 * len(_admissible_tree(k)[0]) + 2


class Plant(namedtuple("Plant", "word multiplicity")):
    """A word to plant as ``multiplicity`` disjoint circuits."""

    __slots__ = ()


class SeedSpec(
    namedtuple("SeedSpec", "k plants size rng_seed strict_seed_trace", defaults=((), None, 0, False))
):
    """Everything needed to lay out a seed: floor k, planted circuits (a
    tuple of Plant, default none), target size (None, the default, means
    the smallest realizable), the rng_seed that shuffles the padding's ids
    (default 0) and strict_seed_trace, the floor rule's letter-power switch:
    when True a planted letter power must reach trace k like any other word
    (default False)."""

    __slots__ = ()

    def validate(self) -> tuple[int, int, bool]:
        """Raise SeedSpecError unless the spec can be laid out, and return
        the layout it proves realizable: (size, bulk padding circuits,
        parity circuit?).  It is the one gate for the spec's fields and the
        only route that decides a seed's size: the floor
        (``_require_floor``), each plant's word and multiplicity, the vertex
        budget over all plants, each plant's floor rule and the target size.
        The budget and the size both read ``seed_size_bound(k)``, the least
        admissible count.

        Padding uses circuits of k - 1 vertices plus at most one of k
        vertices, so the residue r = size - planted modulo k - 1 decides
        realizability.  The minimum search scans even sizes upward from the
        admissible bound, which is even and, by the budget, no smaller than
        the plants.  It always succeeds: stepping an even size by 2 makes
        r mod (k - 1) reach 0, or 1 with r >= k, within k - 1 steps, well
        inside its range."""
        k = self.k
        _require_floor(k)
        if not _is_int(self.rng_seed) or not 0 <= self.rng_seed < 2**64:
            raise SeedSpecError(f"rng_seed {self.rng_seed!r} must be an integer that fits in 64 bits")
        if not isinstance(self.strict_seed_trace, bool):
            raise SeedSpecError(f"strict_seed_trace {self.strict_seed_trace!r} must be a bool")
        if not (self.size is None or _is_int(self.size)):
            raise SeedSpecError(f"size {self.size!r} must be an integer or None")
        if not isinstance(self.plants, tuple):
            raise SeedSpecError(f"plants must be a tuple of Plant, not a {type(self.plants).__name__}")
        for plant in self.plants:
            if not isinstance(plant, Plant):
                raise SeedSpecError(f"plant {plant!r} is not a Plant")
            try:
                words.check_word(plant.word)
            except ValueError as exc:
                raise SeedSpecError(str(exc)) from None
            if not plant.word:
                raise SeedSpecError("planted words must be non-empty")
            if not _is_int(plant.multiplicity) or plant.multiplicity < 1:
                raise SeedSpecError(f"multiplicity {plant.multiplicity!r} must be a positive integer")
        # the budget reads only lengths: check it before any plant's trace,
        # whose product grows quadratically with the word
        bound, planted = seed_size_bound(k), sum(p.multiplicity * len(p.word) for p in self.plants)
        if planted > bound:
            raise SeedSpecError(
                f"planted circuits need {planted} vertices, above the "
                f"admissible budget 2*N({k - 2}) + 4*{k} - 4 = {bound}"
            )
        # the floor rule: trace at least k or, unless strict, a letter power
        # of k or more edges (a legal cusp cycle)
        for word, _ in self.plants:
            trace = words.trace_of(word)
            if trace < k and (self.strict_seed_trace or len(word) < k or not words.is_letter_power(word)):
                raise SeedSpecError(
                    f"planted word {word!r} has trace {trace}, below the floor {k}"
                    + ("" if self.strict_seed_trace else f", and is not a letter power of length >= {k}")
                )
        if self.size is not None:
            if self.size > MAX_VERTICES:
                raise SeedSpecError(f"size {self.size} exceeds the cap of {MAX_VERTICES} vertices")
            if self.size % 2:
                raise SeedSpecError(f"size {self.size} must be even")
            if self.size < bound:
                raise SeedSpecError(f"size {self.size} is below the least admissible count {bound}")
        for size in (self.size,) if self.size is not None else range(bound, bound + 4 * k + 6, 2):
            r = size - planted
            if r % (k - 1) == 0:
                return size, r // (k - 1), False
            if r >= k and (r - k) % (k - 1) == 0:
                return size, (r - k) // (k - 1), True
        raise SeedSpecError(
            f"size {self.size} is not reachable: plants occupy {planted} vertices and "
            f"padding adds circuits of {k - 1} vertices plus at most one of {k}"
        )

    def to_json_dict(self) -> dict:
        size = "min" if self.size is None else self.size
        return dict(self._asdict(), plants=[p._asdict() for p in self.plants], size=size)


def _install_circuit(g: CubicRibbonGraph, ids: list[int], word: str) -> None:
    """Wire one oriented circuit over fresh vertices, letter i at ids[i].

    Every vertex is entered at slot 0 and left at slot 1 for an L, slot 2
    for an R, so the edge after letter i joins that slot of ids[i] to slot
    0 of ids[i + 1] (cyclically); this is the least (arrival, departure)
    routing and leaves one free slot everywhere.
    """
    n = len(word)
    if n != len(ids) or n < 2:
        raise SeedSpecError(f"circuit {word!r} needs two or more letters and one id per letter")
    for v, letter, w in zip(ids, word, ids[1:] + ids[:1]):
        g.add_edge(3 * v + (1 if letter == "L" else 2), 3 * w, seed=True)


def _shuffle(ids: list[int], rng: random.Random) -> None:
    """Shuffle ids in place by Fisher-Yates: for i from the last index down
    to 1, swap ids[i] with ids[j] for j drawn uniformly below i + 1, as
    ``rng.getrandbits((i + 1).bit_length())`` drawn again while it exceeds
    i.  This is the draw that CPython's ``Random.shuffle`` makes, but written
    here so that the layout rests only on the Mersenne Twister's output for
    an integer seed, the stream behind Python's reproducibility promise for
    ``random()``, and not on ``shuffle``, which that promise leaves out."""
    for i in range(len(ids) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = rng.getrandbits(bits)
        while j > i:
            j = rng.getrandbits(bits)
        ids[i], ids[j] = ids[j], ids[i]


def make_seed(spec: SeedSpec) -> CubicRibbonGraph:
    """Disjoint oriented circuits realizing the layout that ``spec.validate``
    returns, installed from one list: each planted copy in order on the
    consecutive ids 0, 1, ..., then the padding circuits on the remaining
    ids, which the spec's rng seed shuffles."""
    size, n_padding, use_parity = spec.validate()
    circuits = [p.word for p in spec.plants for _ in range(p.multiplicity)]
    planted = sum(map(len, circuits))
    padding_ids = list(range(planted, size))
    _shuffle(padding_ids, random.Random(spec.rng_seed))
    circuits += [word_for_trace(spec.k)] * n_padding + [_parity_word(spec.k)] * use_parity
    ids = [*range(planted), *padding_ids]
    g = CubicRibbonGraph(size)
    at = 0
    for word in circuits:
        _install_circuit(g, ids[at : at + len(word)], word)
        at += len(word)
    return g


class ForbiddenReach(namedtuple("ForbiddenReach", "members")):
    """Endpoints of forbidden paths out of the free slot of one vertex, the
    frozenset ``members``; the completion reads only ``members``, and so
    does the benchmark tracer's member counter."""

    __slots__ = ()


@functools.lru_cache(maxsize=4, typed=True)
def _admissible_tree(k: int):
    """Preorder arrays (letter, parent, subtree end) of the words of at most
    k - 2 letters and trace at most max(k - 2, 2), R subtrees before L;
    letter 0 is L and 1 is R, the index of the node's step table in a
    ``_reach_plan``.  Node 0 is the empty word, its own parent.  Each word's
    length and matrix live only on the build stack, to prune; the tree
    depends on k alone, so it is cached per k and type, after the floor
    gate."""
    _require_floor(k)
    max_trace = max(k - 2, 2)
    letter, parent = [], []
    stack = [(0, 0, 0, 1, 0, 0, 1)]
    while stack:
        lt, up, n, a, b, c, d = stack.pop()
        i = len(letter)
        letter.append(lt)
        parent.append(up)
        if n < k - 2:
            # pushed L then R, so the R subtree is laid out first
            if a + c + d <= max_trace:
                stack.append((0, i, n + 1, a, a + b, c, c + d))
            if a + b + d <= max_trace:
                stack.append((1, i, n + 1, a + b, b, c + d, d))
    end, open_nodes = [len(letter)] * len(letter), [0]
    for i in range(1, len(letter)):
        while open_nodes[-1] != parent[i]:
            end[open_nodes.pop()] = i
        open_nodes.append(i)
    return tuple(letter), tuple(parent), tuple(end)


def _reach_plan(pair: list[int], k: int):
    """The plan ``forbidden_reach`` replays: the step tables (L, R), where
    L is ``pair`` after the slot successor and R ``pair`` after the
    predecessor (a free slot reads -1), each ``_admissible_tree(k)`` node's
    table (L or R, by its letter), the tree's parent and subtree-end arrays,
    and an arrival buffer of one slot per node.  The tables follow ``pair``
    only as long as whoever pairs or frees a slot s rewrites ``L[pred[s]]``
    and ``R[succ[s]]``."""
    letter, parent, end = _admissible_tree(k)
    succ, pred = ribbon.turn_tables(len(pair))
    steps = (list(map(pair.__getitem__, succ)), list(map(pair.__getitem__, pred)))
    return steps, tuple(map(steps.__getitem__, letter)), parent, end, [0] * len(letter)


def forbidden_reach(g: CubicRibbonGraph, x: int, k: int, _plan=None) -> ForbiddenReach:
    """Every vertex reachable by a forbidden path: a replay of
    ``_admissible_tree(k)`` from x's free slot (x is reached by the empty
    path, node 0).  Node i arrives at ``tab[i][at[parent[i]]]``, its table
    read at its parent's arrival slot, and a node that meets a free slot
    skips its subtree.  The completion passes its live ``_reach_plan`` as
    ``_plan``, kept in step with the graph, so its calls cost only the
    replay; any other call first composes a plan for itself, which costs
    O(V) time and memory per call.  x's degree and free slot are read
    straight off the pair table, and no matrix arithmetic is done.  Raises
    ValueError unless x is an int, not a bool, naming a vertex of the graph
    with degree 2, then, when it composes its own plan, SeedSpecError
    unless k passes the floor gate."""
    pair = g.pair_table()
    if not _is_int(x):
        raise ValueError(f"vertex {x!r} is not an integer")
    if not 0 <= x < len(pair) // 3:
        raise ValueError(f"vertex {x} outside 0..{len(pair) // 3 - 1}")
    free = [s for s in range(3 * x, 3 * x + 3) if pair[s] < 0]
    if len(free) != 1:
        raise ValueError(f"vertex {x} has degree {3 - len(free)}, expected 2")
    _, tab, parent, end, at = _plan or _reach_plan(pair, k)
    n = len(tab)
    at[0] = free[0]
    reached = {x}
    add = reached.add
    i = 1
    while i < n:
        p = tab[i][at[parent[i]]]
        if p < 0:
            i = end[i]
            continue
        at[i] = p
        add(p // 3)
        i += 1
    return ForbiddenReach(frozenset(reached))


def _require(ok: bool, g: CubicRibbonGraph, note: str) -> None:
    """Raise CompletionError unless the invariant holds."""
    if not ok:
        raise CompletionError(note, g)


def _non_seed_edge(g: CubicRibbonGraph, v: int) -> tuple[int, int]:
    """The unique non-seed edge at a degree-3 vertex, as (slot at v, partner slot)."""
    pair, seed = g.pair_table(), g.seed_table()
    out = [(s, pair[s]) for s in range(3 * v, 3 * v + 3) if pair[s] >= 0 and not seed[s]]
    _require(len(out) == 1, g, f"vertex {v} has {len(out)} non-seed edges, expected 1")
    return out[0]


def _run_completion(g: CubicRibbonGraph, k: int) -> tuple[int, int, int]:
    """Complete the seed g in place; returns the step counts (Case 1 joins,
    Case 2 swaps) and the largest forbidden set seen.  g must be a seed
    that ``make_seed`` laid out for the floor k, whose ``SeedSpec.validate``
    proved it realizable; the seed is not checked again here."""
    case1 = case2 = max_forbidden_set = 0
    pair = g.pair_table()
    succ, pred = ribbon.turn_tables(len(pair))
    plan = _reach_plan(pair, k)
    left, right = plan[0]
    # make_seed's layout leaves one free slot per vertex, so the frontier is
    # the ascending free slots, in vertex order.  Each step pairs the slots of x
    # and y; a swap frees one slot at w and at w' and pairs it again at once.
    free = [s for s, p in enumerate(pair) if p < 0]
    while free:
        reaches: dict[int, frozenset[int]] = {}
        for sx in free:
            fx = reaches[sx] = forbidden_reach(g, sx // 3, k, plan).members
            max_forbidden_set = max(max_forbidden_set, len(fx))
            # x is in F(x), so sx itself is never the partner
            sy = next((s for s in free if s // 3 not in fx), None)
            if sy is not None:
                # Case 1: the first x, in ascending order, with a partner outside F(x).
                g.add_edge(sx, sy)
                changed = (sx, sy)
                case1 += 1
                break
        else:
            # Case 2: every ordered degree-2 pair is mutually forbidden.
            sx, sy = free[0], free[1]
            fx, fy = reaches[sx], reaches[sy]
            union = fx | fy
            inter = fx & fy
            outside = [v for v in range(g.num_vertices) if v not in union]
            for v in outside:
                full = min(pair[3 * v : 3 * v + 3]) >= 0
                _require(full, g, f"degree-2 vertex {v} escaped both forbidden sets")
            partners = sorted({_non_seed_edge(g, v)[1] // 3 for v in outside})
            candidates = [v for v in partners if v not in inter]
            _require(bool(candidates), g, "no swap partner outside the intersection")
            w_prime = candidates[0]
            slot_wp, slot_w = _non_seed_edge(g, w_prime)
            _require(slot_w // 3 in outside, g, f"swap partner {w_prime} not paired into the outside set")
            first, second = (sx, sy) if w_prime not in fx else (sy, sx)
            g.remove_edge(slot_wp, slot_w)
            g.add_edge(first, slot_wp)
            g.add_edge(second, slot_w)
            changed = (sx, sy, slot_wp, slot_w)
            case2 += 1
        # keep the plan's step tables in step with every slot whose partner changed
        for s in changed:
            left[pred[s]] = right[succ[s]] = pair[s]
        free.remove(sx)
        free.remove(sy)
    _require(g.is_complete(), g, "completion left free slots")
    return case1, case2, max_forbidden_set


class BuildReport(
    namedtuple("BuildReport", "spec iterations case1 case2 max_forbidden_set vertices edges output_sha")
):
    """What ``build`` did: the spec, the Case 1 joins and Case 2 swaps, the
    largest forbidden set seen, the graph's size and ``output_sha``, the
    sha256 of its .crg text."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return dict(self._asdict(), spec=self.spec.to_json_dict())


def build(spec: SeedSpec) -> tuple[CubicRibbonGraph, BuildReport, str]:
    """Lay out the seed for a spec and complete it in place; returns the
    graph, its report and its .crg text, which ``output_sha`` digests, for
    the caller to write as is."""
    done = make_seed(spec)
    case1, case2, max_forbidden_set = _run_completion(done, spec.k)
    crg = ribbon.serialize(done)
    report = BuildReport(
        spec=spec,
        iterations=case1 + case2,
        case1=case1,
        case2=case2,
        max_forbidden_set=max_forbidden_set,
        vertices=done.num_vertices,
        edges=done.num_edges(),
        output_sha=hashlib.sha256(crg.encode("ascii")).hexdigest(),
    )
    return done, report, crg
