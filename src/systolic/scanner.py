"""Enumeration of low-trace cycle classes and surface certification.

A cycle is a closed non-backtracking walk: at each vertex the walk leaves
through the cyclic successor (an L turn) or predecessor (an R turn) of the
slot it arrived on, so a walk is a sequence of darts and each step carries a
letter.  Cycle classes are identified up to rotation and reversal of the
dart sequence; two vertex-disjoint cycles carrying the same word therefore
count separately, which is what planted-multiplicity accounting needs.

Only complete (3-regular) graphs are scanned: every entry point that scans
raises ValueError on a graph with free slots.  The search walks the tree of
words once, on an explicit stack with no recursion.  A node holds the
word's matrix and length and the vector of live start darts with the
current dart of each, so one letter steps every walk that reads the word
at once.  The word of a closing walk is recovered
from its matrix by unique factorization over L and R, and its darts by
replaying the word.
It prunes on two exact facts: appending a letter never lowers the trace,
and a word that is not a pure letter power has trace at least its length
plus one.  Pure letter powers (the faces and their reversals) are
peripheral and excluded from results; walks whose dart sequence is a
proper power are excluded as well, since their geodesics are iterates of
shorter ones.  A primitive walk whose word happens to be a proper power is
kept: it is primitive in the surface group, so its geodesic is a primitive
one of that trace.  Multiplicities are exact: the cusped surface retracts
onto the graph, so its free homotopy classes are those of closed walks that
never turn back, up to rotation and reversal, and each class carries its own
geodesic.

The starts rest on one rule, which holds for any labelling.  The darts
are relabelled edge by edge, and a closed walk crosses its least edge, so
the walk or its reversal starts at that edge's lower dart and never steps
below it.  So the tree walk starts from the lower dart of every edge and
drops a walk once it steps below its start.  Non-seed edges take the low
labels, so walks started on seed edges die as soon as they leave them: the
seed flags change the cost of a scan, never its answer, and a hostile file
cannot hide a class.

The systole comes from a probe that walks from dart 0 alone in order of
trace, which bounds it from above, and one full scan at that bound.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import eq, ge, itemgetter

from . import ribbon, words
from .ribbon import CubicRibbonGraph

__all__ = [
    "CycleClass",
    "canonical_walk",
    "low_trace_cycles",
    "systole",
    "bottom_spectrum",
    "CertificationResult",
    "certify",
    "SurfaceReport",
    "report",
]


@dataclass(frozen=True)
class CycleClass:
    """All cycle classes carrying one word class, with a concrete witness."""

    word: str  # canonical representative of the word class
    trace: int
    length: float  # hyperbolic length 2*arccosh(trace/2)
    multiplicity: int  # number of distinct cycle classes carrying the word
    witness: tuple[int, ...]  # canonical dart sequence of one of them

    def sort_key(self):
        return (self.trace, self.word, self.witness)


def canonical_walk(darts: tuple[int, ...], g: CubicRibbonGraph) -> tuple[int, ...]:
    """Least rotation of the dart sequence or of its reversal, which flips
    every dart to its partner and reverses the order."""
    pair = g.pair_table()
    return words.least_rotation(darts, tuple(pair[d] for d in reversed(darts)))


def _is_proper_power(darts: tuple[int, ...]) -> bool:
    n = len(darts)
    for p in range(1, n):
        if n % p == 0 and darts == darts[:p] * (n // p):
            return True
    return False


def _edge_major_tables(
    g: CubicRibbonGraph,
) -> tuple[list[int], tuple[int, ...], tuple[int, ...]]:
    """Darts relabelled edge-major: edge i carries labels 2i (its low slot)
    and 2i + 1.  Returns the slot of each label and the L and R step tables
    over labels: the label after each label along an L turn (succ of its
    partner) and along an R turn (pred of its partner).

    Any order of the edges and any choice of lower dart is sound.  Non-seed
    edges come first, so that walks started on seed edges die as soon as
    they leave them, and each group runs by descending low slot, which
    stepped fewer darts than ascending on seed-0 and planted builds."""
    pair = g.pair_table()
    seed = g.seed_table()
    lows = [s for s in range(len(pair) - 1, -1, -1) if pair[s] > s]
    order = [s for s in lows if not seed[s]] + [s for s in lows if seed[s]]
    orig = [x for s in order for x in (s, pair[s])]
    label = [0] * len(orig)
    for x, s in enumerate(orig):
        label[s] = x
    succ, pred = ribbon.turn_tables(len(pair))
    return (
        orig,
        tuple([label[succ[pair[s]]] for s in orig]),
        tuple([label[pred[pair[s]]] for s in orig]),
    )


def _enumerate(g: CubicRibbonGraph, max_trace: int) -> dict[tuple[int, ...], str]:
    """Closed-walk classes of a complete graph with word trace <= max_trace,
    as {canonical dart sequence: canonical word}.  Walks stop at
    max_trace - 1 darts: a word that is not a letter power has at most
    trace - 1 letters, and letter powers are dropped.

    The starts rest on one rule that holds for any labelling.  The darts
    are relabelled edge-major, and a closed walk crosses its least edge,
    so the walk or its reversal starts at that edge's lower dart and never
    steps below it.  So the scan starts from the lower dart of every edge
    and drops a start once its walk steps onto a label below it.  Seed
    edges take the highest labels, so a walk started on one lives only
    along seed edges: the seed flags change the cost, never the answer,
    and a hostile file cannot hide a class.

    One walk of the tree of words carries, per node, the matrix (a, b, c,
    d) and length of the word with the tuple of start darts still alive and
    the current dart of each; a letter steps them all at once.  At a node
    where some walks close, the word is the unique factorization of the
    matrix, and each closing walk's darts are replayed from its start
    along the word and mapped back to slots.  The nodes wait on one
    explicit stack.
    """
    found: dict[tuple[int, ...], str] = {}
    max_len = max_trace - 1
    orig, step_l, step_r = _edge_major_tables(g)
    starts = tuple(range(0, len(orig), 2))
    stack = [(starts, starts, 1, 0, 0, 1, 1)] if starts else []
    while stack:
        st, cur, a, b, c, d, n = stack.pop()
        # itemgetter of one index returns a bare dart; a slice keeps a tuple
        get = itemgetter(*cur) if len(cur) > 1 else itemgetter(slice(cur[0], cur[0] + 1))
        for step, na, nb, nc, nd in ((step_l, a, a + b, c, c + d), (step_r, a + b, b, c + d, d)):
            tr = na + nd
            if tr > max_trace:
                continue
            e = get(step)
            if any(map(eq, e, st)):
                word = words.word_of_matrix(words.UniMat(na, nb, nc, nd))
                cw = None
                for d0, x in zip(st, e):
                    if x != d0:
                        continue
                    darts = [orig[d0]]
                    for letter in word[:-1]:
                        d0 = (step_l if letter == "L" else step_r)[d0]
                        darts.append(orig[d0])
                    canon = canonical_walk(tuple(darts), g)
                    if canon not in found:
                        cw = cw or words.canonical(word)
                        found[canon] = cw
            if n >= max_len:
                continue
            # a non-letter-power at the bound can only close above it
            if tr == max_trace and nb > 0 and nc > 0:
                continue
            keep = tuple(map(ge, e, st))
            if any(keep):
                stack.append((tuple(compress(st, keep)), tuple(compress(e, keep)), na, nb, nc, nd, n + 1))
    return found


def _group_classes(raw: dict[tuple[int, ...], str]) -> list[CycleClass]:
    by_word: dict[str, list[tuple[int, ...]]] = {}
    for canon_darts, word in raw.items():
        if words.is_letter_power(word) or _is_proper_power(canon_darts):
            continue
        by_word.setdefault(word, []).append(canon_darts)
    out = []
    for word, walks in by_word.items():
        t = words.trace_of(word)
        out.append(
            CycleClass(
                word=word,
                trace=t,
                length=words.geodesic_length(t),
                multiplicity=len(walks),
                witness=min(walks),
            )
        )
    out.sort(key=CycleClass.sort_key)
    return out


def low_trace_cycles(g: CubicRibbonGraph, bound: int) -> list[CycleClass]:
    """All cycle classes with word trace <= bound, letter powers excluded.

    The walk is iterative, so no bound is limited by the Python recursion
    depth.
    """
    if not g.is_complete():
        raise ValueError("graph is not 3-regular: scan the completed graph")
    if bound < 3:
        raise ValueError(f"bound {bound} is below 3, the least essential trace")
    return _group_classes(_enumerate(g, bound))


def _probe_bound(g: CubicRibbonGraph) -> int:
    """Least trace of an essential class through dart 0, an upper bound for
    the systole trace, from one walk of the word tree from dart 0 alone.

    Walks leave a heap in order of max(trace, darts + 1), the least scan
    bound that finds them.  An essential walk of trace T has at most T - 1
    darts, so the first closure popped that is not a letter power has the
    least trace; it is primitive, since a proper power repeats a prefix
    that closes, is no letter power either and was popped first.  It ends:
    every key is passed after finitely many pops, and the orbit of (dart 0,
    L) under the alternating (dart, next-turn) permutation closes into a
    walk reading (LR)^(p/2) of trace L_p, the p-th Lucas number.
    """
    orig, step_l, step_r = _edge_major_tables(g)
    x0 = orig.index(0)
    heap = [(2, 0, x0, 1, 0, 0, 1)]  # (key, darts, dart label, a, b, c, d)
    while True:
        _, n, e, a, b, c, d = heapq.heappop(heap)
        if e == x0 and b and c:  # a closed walk, not a letter power
            return a + d
        heapq.heappush(heap, (max(a + c + d, n + 2), n + 1, step_l[e], a, a + b, c, c + d))
        heapq.heappush(heap, (max(a + b + d, n + 2), n + 1, step_r[e], a + b, b, c + d, d))


def _first_classes(g: CubicRibbonGraph, start: int) -> list[CycleClass]:
    """``low_trace_cycles(g, bound)`` at the least bound >= start that finds
    a class: the systole first, then every class up to max(start, systole).

    If the scan at ``start`` finds nothing, the scan at the probe bound U is
    cut to its least trace s.  An essential word of trace t has at most
    t - 1 letters, so that cut is exactly the bound-s scan.
    """
    found = low_trace_cycles(g, start)
    if found:
        return found
    if g.num_vertices == 0:
        # the one complete graph whose every class is peripheral (vacuously)
        raise ValueError("graph has no cycles, so no essential class exists")
    found = low_trace_cycles(g, _probe_bound(g))
    return [cls for cls in found if cls.trace == found[0].trace]


def systole(g: CubicRibbonGraph) -> CycleClass:
    """Shortest essential cycle class: one scan at trace 3 and, if that
    finds nothing, one at the probe bound (see ``_first_classes``).

    Letter-power classes are peripheral (cusp cycles and their reversals);
    everything else has trace at least 3, so essential means trace >= 3.
    """
    return _first_classes(g, 3)[0]


def _spectrum(classes: list[CycleClass]) -> list[tuple[int, int]]:
    spectrum: dict[int, int] = {}
    for cls in classes:
        spectrum[cls.trace] = spectrum.get(cls.trace, 0) + cls.multiplicity
    return sorted(spectrum.items())


def bottom_spectrum(g: CubicRibbonGraph, bound: int) -> list[tuple[int, int]]:
    """Multiset of (trace, multiplicity) over all classes with trace <= bound."""
    return _spectrum(low_trace_cycles(g, bound))


@dataclass(frozen=True)
class CertificationResult:
    passed: bool
    floor: int
    short_cycles: tuple[CycleClass, ...]
    short_faces: tuple[tuple[int, ...], ...]

    def findings(self) -> list[str]:
        out = []
        for cls in self.short_cycles:
            out.append(
                f"cycle class of trace {cls.trace} below floor {self.floor}: "
                f"word {cls.word}, witness darts {list(cls.witness)}"
            )
        for face in self.short_faces:
            out.append(
                f"face with {len(face)} edges (needs >= {self.floor}): "
                f"darts {list(face)}"
            )
        return out


def certify(g: CubicRibbonGraph, k: int) -> CertificationResult:
    """Pass iff no essential cycle class has trace below k and every face
    has at least k edges.  For k = 3 the trace condition is vacuous, since
    essential classes start at trace 3."""
    if not g.is_complete():
        raise ValueError("graph is not 3-regular")
    if k < 3:
        raise ValueError(f"floor {k} is below 3")
    short_cycles = tuple(low_trace_cycles(g, k - 1)) if k >= 4 else ()
    short_faces = tuple(f for f in ribbon.faces(g) if len(f) < k)
    return CertificationResult(
        passed=not short_cycles and not short_faces,
        floor=k,
        short_cycles=short_cycles,
        short_faces=short_faces,
    )


@dataclass(frozen=True)
class SurfaceReport:
    vertices: int
    edges: int
    components: tuple[ribbon.ComponentSurface, ...]
    genus_sum: int
    girth: int
    systole_trace: int
    systole_length: float
    systole_word: str
    spectrum: tuple[tuple[int, int], ...]
    bh_bound: Fraction
    bh_ok: bool
    log_genus: float | None
    log_log_genus: float | None
    systole_gap: float | None

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {"genus": c.genus, "cusps": list(c.cusp_lengths)} for c in self.components
            ],
            "girth": self.girth,
            "systole": {
                "trace": self.systole_trace,
                "length": self.systole_length,
                "word": self.systole_word,
            },
            "spectrum": [{"trace": t, "mult": m} for t, m in self.spectrum],
            "beineke_harary": {
                "bound": float(self.bh_bound),
                "genus": self.genus_sum,
                "ok": self.bh_ok,
            },
            "asymptotics": {
                "log_genus": self.log_genus,
                "log_log_genus": self.log_log_genus,
                "systole_gap": self.systole_gap,
            },
        }

    def to_text(self) -> str:
        lines = [
            f"vertices: {self.vertices}",
            f"edges: {self.edges}",
            f"components: {len(self.components)}",
        ]
        for i, c in enumerate(self.components):
            cusps = " ".join(str(x) for x in c.cusp_lengths)
            lines.append(f"  component {i}: genus {c.genus}, cusps {c.num_cusps} (lengths {cusps})")
        lines.append(f"genus sum: {self.genus_sum}")
        lines.append(f"girth: {self.girth}")
        lines.append(
            f"systole: trace {self.systole_trace}, length {self.systole_length:.12g}, "
            f"word {self.systole_word}"
        )
        spect = " ".join(f"{t}x{m}" for t, m in self.spectrum)
        lines.append(f"spectrum: {spect if spect else '(empty)'}")
        verdict = "ok" if self.bh_ok else "VIOLATED"
        lines.append(f"beineke-harary: bound {self.bh_bound} <= genus {self.genus_sum}: {verdict}")
        if self.log_genus is not None:
            lines.append(
                f"log(genus) = {self.log_genus:.12g}, "
                f"log log(genus) = {self.log_log_genus:.12g}, "
                f"gap log(g) - log log(g) - systole = {self.systole_gap:.12g}"
            )
        return "\n".join(lines) + "\n"


def report(g: CubicRibbonGraph, *, spectrum_max: int | None = None) -> SurfaceReport:
    """Full surface report: topology, girth, systole, bottom spectrum, and
    the exact genus bound check (summed per component on disconnected input).

    One scan at max(3, spectrum_max), or when that finds nothing one scan at
    the probe bound, yields both the systole (its least class) and the
    spectrum up to max(spectrum_max, systole trace).

    Lengths are those of the cusped surface; the compactified surface's
    lengths converge to them as the cusp neighbourhoods grow, but no
    quantitative correction is applied here.
    """
    if g.num_vertices == 0:
        raise ValueError("nothing to report on an empty graph")
    comps = ribbon.genus_closed(g)
    genus_sum = sum(c.genus for c in comps)
    classes = _first_classes(g, max(3, spectrum_max or 3))
    shortest = classes[0]
    spectrum = tuple(_spectrum(classes))
    girths = [ribbon.girth(g, vertices=list(c.vertices)) for c in comps]
    bh_bound = Fraction(0)
    for c, h in zip(comps, girths):
        p = len(c.vertices)
        bh_bound += ribbon.beineke_harary_lower_bound(p, 3 * p // 2, h)
    log_genus = log_log_genus = systole_gap = None
    if genus_sum >= 2:
        log_genus = math.log(genus_sum)
        log_log_genus = math.log(log_genus)
        systole_gap = log_genus - log_log_genus - shortest.length
    return SurfaceReport(
        vertices=g.num_vertices,
        edges=g.num_edges(),
        components=tuple(comps),
        genus_sum=genus_sum,
        girth=min(girths),
        systole_trace=shortest.trace,
        systole_length=shortest.length,
        systole_word=shortest.word,
        spectrum=spectrum,
        bh_bound=bh_bound,
        bh_ok=bh_bound <= genus_sum,
        log_genus=log_genus,
        log_log_genus=log_log_genus,
        systole_gap=systole_gap,
    )
