"""Enumeration of low-trace cycle classes and surface certification.

A cycle is a closed non-backtracking walk: at each vertex the walk leaves
through the cyclic successor (an L turn) or predecessor (an R turn) of the
slot it arrived on, so a walk is a sequence of darts and each step carries a
letter.  Cycle classes are identified up to rotation and reversal of the
dart sequence; two vertex-disjoint cycles carrying the same word therefore
count separately, which is what planted-multiplicity accounting needs.

Only complete (3-regular) graphs are scanned: every entry point that scans
raises ValueError on a graph with free slots.  Pure letter powers (the
faces and their reversals) are peripheral and excluded from results; walks
whose dart sequence is a proper power are excluded as well, since their
geodesics are iterates of shorter ones.  A primitive walk whose word happens
to be a proper power is kept: it is primitive in the surface group, so its
geodesic is a primitive one of that trace.  Multiplicities are exact: the
cusped surface retracts onto the graph, so its free homotopy classes are
those of closed walks that never turn back, up to rotation and reversal, and
each class carries its own geodesic.

``_enumerate`` holds the scan: its pruning, its start rule, which lets the
seed flags change the cost of a scan but never its answer, and its finish of
single-letter chains.  ``_probe_bound`` holds the systole's upper bound.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from collections.abc import Iterable
from itertools import compress
from operator import eq, ge, itemgetter

from . import ribbon, words
from .ribbon import CubicRibbonGraph, _is_int

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


class CycleClass(namedtuple("CycleClass", "word trace multiplicity witness")):
    """All cycle classes carrying one word class, with a concrete witness:
    ``word`` is the canonical representative of the word class, ``trace``
    its trace, ``multiplicity`` the number of distinct cycle classes
    carrying the word and ``witness`` the canonical dart sequence of one of
    them."""

    __slots__ = ()

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

    Non-seed edges come first and each group runs by descending low slot,
    which stepped fewer darts than ascending on seed-0 and planted builds;
    the start rule of ``_enumerate`` holds for any order of the edges and
    any choice of lower dart."""
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


def _getter(idx: tuple[int, ...]) -> itemgetter:
    """Gather at ``idx`` into a sequence of the same length (itemgetter of
    one index returns a bare item; a slice keeps a sequence)."""
    return itemgetter(*idx) if len(idx) > 1 else itemgetter(slice(idx[0], idx[0] + 1))


def _orbit_tables(
    steps: tuple[tuple[int, ...], tuple[int, ...]], letter: int
) -> tuple[list[int], list[list[int]]]:
    """Orbits of the labels under the step table of ``letter`` (0 for L, 1
    for R): the orbit id (least label) of each label, and for each letter
    the orbit id of the label that letter steps to."""
    step = steps[letter]
    ids = [-1] * len(step)
    for x in range(len(step)):
        y = x
        while ids[y] < 0:
            ids[y] = x
            y = step[y]
    return ids, [ids if i == letter else [ids[y] for y in other] for i, other in enumerate(steps)]


def _record(
    found: dict[tuple[int, ...], str],
    g: CubicRibbonGraph,
    orig: list[int],
    steps: tuple[tuple[int, ...], tuple[int, ...]],
    mat: tuple[int, int, int, int],
    closing: Iterable[int],
) -> None:
    """Add to ``found`` the walks from the start labels ``closing`` that
    close on the word of matrix ``mat``: the word is the matrix's unique
    factorization, and each walk's darts are replayed from its start along
    the word and mapped back to slots."""
    word = words.word_of_matrix(words.UniMat(*mat))
    cw = None
    for d0 in closing:
        darts = [orig[d0]]
        for letter in word[:-1]:
            d0 = steps[letter == "R"][d0]
            darts.append(orig[d0])
        canon = canonical_walk(tuple(darts), g)
        if canon not in found:
            cw = cw or words.canonical(word)
            found[canon] = cw


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
    where some walks close, ``_record`` recovers their word and darts.
    The nodes wait on one explicit stack.

    Many subtrees are chains of a single letter, and the scan finishes
    each in one pass.  Take a child (a, b, c, d) of trace t below the
    length cap.  Its R child has trace t + b, and along its L-chain t grows
    by c >= 0 and b by a >= 1, so if t + b > max_trace every R child on
    the chain is over the bound too: the child's subtree is its L-chain
    alone.  With L and R swapped, t + c > max_trace makes it an R-chain.
    If both hold the child is a leaf and is not pushed; that also cuts a
    non-letter-power at the bound, which can only close above it.  A chain
    head is no letter power (L^b has trace 2 and b letters, so 2 + b >
    max_trace puts it at the length cap), so each step along the chain
    adds delta = c (L) or b (R) >= 1 to the trace, and the j-th node of
    the chain is checked exactly when t + j * delta <= max_trace: a word
    that is no letter power has at most trace - 1 letters, so the length
    cap never cuts a chain first.  A walk can close on the chain only if
    its start lies on the orbit of its current label under the chain
    letter's step table (a face for L, a right-turn cycle for R).  One
    pass over the orbit ids picks those walks; each is stepped along the
    chain in Python, dropped at its first label below its start and closed
    at every return to it.  The orbit tables are built from the step
    tables on a letter's first chain, so the rule holds for any labelling.
    """
    found: dict[tuple[int, ...], str] = {}
    max_len = max_trace - 1
    orig, step_l, step_r = _edge_major_tables(g)
    steps = (step_l, step_r)
    orbits = [None, None]  # _orbit_tables of each letter, built on its first chain
    starts = tuple(range(0, len(orig), 2))
    stack = [(starts, starts, 1, 0, 0, 1, 1)] if starts else []
    while stack:
        st, cur, a, b, c, d, n = stack.pop()
        get = _getter(cur)
        get_st = None
        for i, na, nb, nc, nd in ((0, a, a + b, c, c + d), (1, a + b, b, c + d, d)):
            # no child is over the bound: the root's children have trace 2,
            # and a node is pushed only when both its children are within it
            tr = na + nd
            e = get(steps[i])
            if any(map(eq, e, st)):
                _record(found, g, orig, steps, (na, nb, nc, nd), compress(st, map(eq, e, st)))
            if n >= max_len:
                continue
            # a child whose R child (trace tr + nb) and L child (tr + nc)
            # are both over the bound is a leaf, as is any word at the
            # bound that is no letter power; with one over, it heads a chain
            if tr + nb > max_trace:
                if tr + nc > max_trace:
                    continue
                letter, delta = 0, nc
            elif tr + nc > max_trace:
                letter, delta = 1, nb
            else:
                keep = tuple(map(ge, e, st))
                if any(keep):
                    stack.append((tuple(compress(st, keep)), tuple(compress(e, keep)), na, nb, nc, nd, n + 1))
                continue
            # the child heads a chain of its letter: finish it here
            if orbits[letter] is None:
                orbits[letter] = _orbit_tables(steps, letter)
            ids, after = orbits[letter]
            if get_st is None:
                get_st = _getter(st)
            step = steps[letter]
            last = (max_trace - tr) // delta
            for s0, x in compress(zip(st, e), map(eq, get_st(ids), get(after[i]))):
                if x < s0:
                    continue
                for j in range(1, last + 1):
                    x = step[x]
                    if x < s0:
                        break
                    if x == s0:
                        if letter:
                            mat = (na + j * nb, nb, nc + j * nd, nd)
                        else:
                            mat = (na, nb + j * na, nc, nd + j * nc)
                        _record(found, g, orig, steps, mat, (s0,))
    return found


def _group_classes(raw: dict[tuple[int, ...], str]) -> list[CycleClass]:
    by_word: dict[str, list[tuple[int, ...]]] = {}
    for canon_darts, word in raw.items():
        if words.is_letter_power(word) or _is_proper_power(canon_darts):
            continue
        by_word.setdefault(word, []).append(canon_darts)
    out = []
    for word, walks in by_word.items():
        out.append(CycleClass(word=word, trace=words.trace_of(word), multiplicity=len(walks), witness=min(walks)))
    out.sort(key=CycleClass.sort_key)
    return out


def _require_bound(value, what: str) -> None:
    """The one gate for a floor or scan bound, named ``what`` in its
    message: raise ValueError unless value is an int, not a bool, of at
    least 3, the least essential trace.  Every public scan route asks it
    before ``_edge_major_tables`` allocates anything."""
    if not _is_int(value):
        raise ValueError(f"{what} {value!r} is not an integer")
    if value < 3:
        raise ValueError(f"{what} {value} is below 3" + (", the least essential trace" if what == "bound" else ""))


def low_trace_cycles(g: CubicRibbonGraph, bound: int) -> list[CycleClass]:
    """All cycle classes with word trace <= bound, letter powers excluded;
    ``_require_bound`` refuses a bound that is not an int or is below 3.

    The walk is iterative, so no bound is limited by the Python recursion
    depth.
    """
    _require_bound(bound, "bound")
    if not g.is_complete():
        raise ValueError("graph is not 3-regular: scan the completed graph")
    return _group_classes(_enumerate(g, bound))


def _probe_bound(g: CubicRibbonGraph) -> int:
    """Least trace of an essential class through dart 0, an upper bound for
    the systole trace, from one walk of the word tree from dart 0 alone,
    stepping slots through ``ribbon.turn_tables``.

    Walks leave a heap in order of max(trace, darts + 1), the least scan
    bound that finds them.  An essential walk of trace T has at most T - 1
    darts, so the first closure popped that is not a letter power has the
    least trace; it is primitive, since a proper power repeats a prefix
    that closes, is no letter power either and was popped first.  It ends:
    every key is passed after finitely many pops, and the orbit of (dart 0,
    L) under the alternating (dart, next-turn) permutation closes into a
    walk reading (LR)^(p/2) of trace L_p, the p-th Lucas number.  The bound
    reads no dart labels: ties between equal keys may pop in any order, and
    an essential closure's key is its trace.
    """
    pair = g.pair_table()
    left, right = ribbon.turn_tables(len(pair))
    heap = [(2, 0, 0, 1, 0, 0, 1)]  # (key, darts, dart slot, a, b, c, d)
    while True:
        _, n, e, a, b, c, d = heapq.heappop(heap)
        if e == 0 and b and c:  # a closed walk, not a letter power
            return a + d
        heapq.heappush(heap, (max(a + c + d, n + 2), n + 1, left[pair[e]], a, a + b, c, c + d))
        heapq.heappush(heap, (max(a + b + d, n + 2), n + 1, right[pair[e]], a + b, b, c + d, d))


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


class CertificationResult(namedtuple("CertificationResult", "passed floor short_cycles short_faces")):
    """Verdict of ``certify`` at a floor, with the tuples of cycle classes
    and of faces below it."""

    __slots__ = ()

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
    has at least k edges.  ``_require_bound`` refuses a floor that is not an
    int or is below 3, also at k = 3, where the trace condition is vacuous,
    since essential classes start at trace 3, and no scan runs.  A graph
    with free slots is refused by the scan (k >= 4) or by ``faces`` (k = 3)."""
    _require_bound(k, "floor")
    short_cycles = tuple(low_trace_cycles(g, k - 1)) if k >= 4 else ()
    short_faces = tuple(f for f in ribbon.faces(g) if len(f) < k)
    return CertificationResult(
        passed=not short_cycles and not short_faces,
        floor=k,
        short_cycles=short_cycles,
        short_faces=short_faces,
    )


class SurfaceReport(
    namedtuple(
        "SurfaceReport",
        "vertices edges components genus_sum girth systole_trace systole_length systole_word "
        "spectrum bh_bound bh_ok log_genus log_log_genus systole_gap",
    )
):
    """What ``report`` finds: sizes, the ``ribbon.ComponentSurface`` of each
    component, the systole, the (trace, multiplicity) spectrum, the exact
    Beineke-Harary bound (a Fraction) with its verdict, and the asymptotic
    logs, None below genus 2."""

    __slots__ = ()

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

    One ``_first_classes`` call at max(3, spectrum_max) yields both the
    systole (its least class) and the spectrum up to max(spectrum_max,
    systole trace); a spectrum_max of None or below 3 asks for the systole
    alone.  ``_require_bound`` refuses a spectrum_max that is not an int
    before anything is computed.  The systole's length is the one length
    computed.

    Lengths are those of the cusped surface; the compactified surface's
    lengths converge to them as the cusp neighbourhoods grow, but no
    quantitative correction is applied here.
    """
    start = 3 if spectrum_max is None or (_is_int(spectrum_max) and spectrum_max < 3) else spectrum_max
    _require_bound(start, "spectrum_max")
    if g.num_vertices == 0:
        raise ValueError("nothing to report on an empty graph")
    comps = ribbon.genus_closed(g)
    genus_sum = sum(c.genus for c in comps)
    classes = _first_classes(g, start)
    shortest = classes[0]
    systole_length = words.geodesic_length(shortest.trace)
    spectrum = tuple(_spectrum(classes))
    # a sum of Fractions over at least one component, so a Fraction
    bh_bound = sum(
        ribbon.beineke_harary_lower_bound(len(c.vertices), 3 * len(c.vertices) // 2, c.girth) for c in comps
    )
    log_genus = log_log_genus = systole_gap = None
    if genus_sum >= 2:
        log_genus = math.log(genus_sum)
        log_log_genus = math.log(log_genus)
        systole_gap = log_genus - log_log_genus - systole_length
    return SurfaceReport(
        vertices=g.num_vertices,
        edges=g.num_edges(),
        components=tuple(comps),
        genus_sum=genus_sum,
        girth=min(c.girth for c in comps),
        systole_trace=shortest.trace,
        systole_length=systole_length,
        systole_word=shortest.word,
        spectrum=spectrum,
        bh_bound=bh_bound,
        bh_ok=bh_bound <= genus_sum,
        log_genus=log_genus,
        log_log_genus=log_log_genus,
        systole_gap=systole_gap,
    )
