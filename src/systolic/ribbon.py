"""Cubic ribbon graphs: rotation systems, faces, genus, girth, serialization.

A graph on V vertices has 3V slots, three per vertex in the fixed cyclic
order slot0 -> slot1 -> slot2 -> slot0.  Edges pair slots: the pairing is a
fixed-point-free partial involution.  Loops (two slots of one vertex paired
together) and multiple edges are allowed.

Turn convention, fixed module-wide: a walk arriving at a vertex through
slot s and leaving through the cyclic successor of s turns L; leaving
through the predecessor turns R.  The mirrored choice would map every cycle
word w to star(w), which preserves traces, so nothing downstream depends on
the chirality; reversing a closed walk realizes exactly that star duality.

Faces (``faces``) are the closed walks that always turn L; on the surface
obtained by gluing one ideal triangle per vertex they are the cusps.
``_girths`` proves the girth sweep that ``genus_closed`` and ``girth``
share, and ``_slot_tokens`` is the one spelling of a slot in .crg text.
Queries here treat the graph as immutable and are safe under concurrent
reads; mutation happens only while a construction is being assembled.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from collections.abc import Iterable

from .words import _is_int

__all__ = [
    "MAX_VERTICES",
    "succ",
    "pred",
    "turn_tables",
    "vertex_table",
    "CubicRibbonGraph",
    "faces",
    "ComponentSurface",
    "genus_closed",
    "girth",
    "beineke_harary_lower_bound",
    "CrgParseError",
    "serialize",
    "deserialize",
]


# Largest graph a seed spec may ask for, a .crg file may hold or
# ``CubicRibbonGraph`` will allocate.  A graph of 10**6 vertices and its turn
# tables take some hundreds of MB.  A larger size is refused before anything
# is allocated for it, rather than ending in MemoryError or exhausting the
# host.
MAX_VERTICES = 10**6


def succ(s: int) -> int:
    """Cyclic successor of a slot within its vertex."""
    return s - s % 3 + (s % 3 + 1) % 3


def pred(s: int) -> int:
    """Cyclic predecessor of a slot within its vertex."""
    return s - s % 3 + (s % 3 + 2) % 3


@functools.lru_cache(maxsize=4)
def turn_tables(n_slots: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(succ, pred) of every slot below ``n_slots``, a multiple of 3, for hot
    loops to index instead of calling ``succ``/``pred`` per step; cached per
    slot count.  Both tables are filled by slice from one list of slot ids,
    so they share one int object per slot."""
    ids = list(range(n_slots))
    left, right = [0] * n_slots, [0] * n_slots
    left[0::3], left[1::3], left[2::3] = ids[1::3], ids[2::3], ids[0::3]
    right[0::3], right[1::3], right[2::3] = ids[2::3], ids[0::3], ids[1::3]
    return tuple(left), tuple(right)


@functools.lru_cache(maxsize=4)
def vertex_table(n_slots: int) -> tuple[int, ...]:
    """The vertex ``s // 3`` of every slot below ``n_slots``, a multiple of
    3, for hot loops to index instead of dividing per step; cached per slot
    count, like ``turn_tables``.  The table is filled by three slice
    assignments from one list of vertex ids, so each vertex's three slots
    share one int object.  At ``MAX_VERTICES`` it holds 3 * 10**6 entries."""
    ids = list(range(n_slots // 3))
    vertex = [0] * n_slots
    vertex[0::3] = vertex[1::3] = vertex[2::3] = ids
    return tuple(vertex)


class CubicRibbonGraph:
    """Vertices with three cyclically ordered slots and a partial slot pairing.

    Edges added with ``seed=True`` are protected: they can never be removed,
    which is what lets a completion distinguish its original circuits from
    the edges it added later.
    """

    __slots__ = ("_pair", "_seed")

    def __init__(self, num_vertices: int):
        if not _is_int(num_vertices):
            raise ValueError(f"vertex count {num_vertices!r} is not an integer")
        if num_vertices < 0:
            raise ValueError(f"negative vertex count {num_vertices}")
        if num_vertices > MAX_VERTICES:
            raise ValueError(f"vertex count {num_vertices} exceeds the cap of {MAX_VERTICES} vertices")
        self._pair = [-1] * (3 * num_vertices)
        self._seed = [False] * (3 * num_vertices)

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._pair) // 3

    def _check_slot(self, s: int) -> None:
        if not _is_int(s):
            raise ValueError(f"slot {s!r} is not an integer")
        if not 0 <= s < len(self._pair):
            raise ValueError(f"slot {s} outside 0..{len(self._pair) - 1}")

    def pair_table(self) -> list[int]:
        """Raw pairing array (-1 marks a free slot); callers must not mutate."""
        return self._pair

    def seed_table(self) -> list[bool]:
        """Raw seed flag of every slot; callers must not mutate."""
        return self._seed

    def is_complete(self) -> bool:
        return -1 not in self._pair

    def degree2_vertices(self) -> list[int]:
        paired = (p >= 0 for p in self._pair)
        return [v for v, d in enumerate(map(sum, zip(paired, paired, paired))) if d == 2]

    def num_edges(self) -> int:
        return sum(1 for p in self._pair if p >= 0) // 2

    # -- mutation ----------------------------------------------------------

    def add_edge(self, s1: int, s2: int, *, seed: bool = False) -> None:
        self._check_slot(s1)
        self._check_slot(s2)
        if s1 == s2:
            raise ValueError(f"slot {s1} cannot pair with itself")
        if self._pair[s1] >= 0:
            raise ValueError(f"slot {s1} is already paired with {self._pair[s1]}")
        if self._pair[s2] >= 0:
            raise ValueError(f"slot {s2} is already paired with {self._pair[s2]}")
        self._pair[s1] = s2
        self._pair[s2] = s1
        self._seed[s1] = self._seed[s2] = seed

    def remove_edge(self, s1: int, s2: int) -> None:
        self._check_slot(s1)
        self._check_slot(s2)
        if self._pair[s1] != s2:
            raise ValueError(f"slots {s1} and {s2} are not paired")
        if self._seed[s1]:
            raise ValueError(f"edge {s1}-{s2} is a seed edge and cannot be removed")
        self._pair[s1] = self._pair[s2] = -1

    # -- structure ----------------------------------------------------------

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, sorted by first vertex:
        a flood fill labels them from each unlabelled vertex in ascending order."""
        pair = self._pair
        label = [-1] * self.num_vertices
        count = 0
        for root in range(len(label)):
            if label[root] >= 0:
                continue
            label[root] = count
            todo = [root]
            while todo:
                u = todo.pop()
                for p in pair[3 * u : 3 * u + 3]:
                    if p >= 0 and label[p // 3] < 0:
                        label[p // 3] = count
                        todo.append(p // 3)
            count += 1
        comps: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(label):
            comps[c].append(v)
        return comps

    def copy(self) -> "CubicRibbonGraph":
        g = CubicRibbonGraph(self.num_vertices)
        g._pair = list(self._pair)
        g._seed = list(self._seed)
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubicRibbonGraph):
            return NotImplemented
        return self._pair == other._pair and self._seed == other._seed

    def __repr__(self) -> str:
        return f"CubicRibbonGraph(V={self.num_vertices}, E={self.num_edges()})"


def faces(g: CubicRibbonGraph) -> list[tuple[int, ...]]:
    """Left-turn cycles as dart orbits (a dart is its origin slot).

    The face permutation is dart -> succ(pair(dart)); its orbits partition
    the 3V darts, so face lengths always sum to 3V.  Each orbit is returned
    starting at its least dart, orbits sorted by that dart.
    """
    if not g.is_complete():
        raise ValueError("graph is not 3-regular: free slots remain")
    pair = g.pair_table()
    n = len(pair)
    left, _ = turn_tables(n)
    seen = [False] * n
    out: list[tuple[int, ...]] = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = True
            orbit.append(d)
            d = left[pair[d]]
        out.append(tuple(orbit))
    return out


class ComponentSurface(namedtuple("ComponentSurface", "vertices genus cusp_lengths girth")):
    """Topology of the surface carried by one connected component, and the
    girth of the component (a complete component always has a cycle):
    the tuple of its vertices, its genus, the tuple of its cusp lengths and
    its girth."""

    __slots__ = ()

    @property
    def num_cusps(self) -> int:
        return len(self.cusp_lengths)


def genus_closed(g: CubicRibbonGraph) -> list[ComponentSurface]:
    """Per-component genus, cusp data and girth of the glued surface.

    The triangulated surface of a component with V vertices has V triangles,
    3V/2 edges and one point per face of the ribbon structure, so its Euler
    characteristic is (#faces) - V/2 and the genus is (2 - chi) / 2.  A face
    belongs to the component of its least dart.  One girth sweep serves
    every component.

    Both divisions are exact, so nothing is checked.  ``faces`` refuses a
    graph with a free slot, and a complete component pairs each of its 3V
    slots with another of its own, so 3V = 2E and V is even.  The triangles
    are glued along the rotation system, which orients every triangle
    coherently, so the closed surface is orientable and chi = 2 - 2 genus
    is even.
    """
    comps = g.components()
    face_at = {face[0]: len(face) for face in faces(g)}
    out = []
    for vs, h in zip(comps, _girths(g, comps)):
        lengths = sorted(face_at[s] for v in vs for s in range(3 * v, 3 * v + 3) if s in face_at)
        chi = len(lengths) - len(vs) // 2
        out.append(ComponentSurface(tuple(vs), (2 - chi) // 2, tuple(lengths), h))
    return out


def girth(g: CubicRibbonGraph) -> int | None:
    """Length of the shortest cycle of the underlying multigraph, or None:
    the sweep of ``_girths`` with all vertices as one group."""
    return _girths(g, (range(g.num_vertices),))[0]


def _girths(g: CubicRibbonGraph, groups: Iterable[Iterable[int]]) -> list[int | None]:
    """Girth of each group of vertices, or None where it has no cycle.  A
    group is a whole component or a union of components, in ascending
    vertex order.

    A breadth-first search from each vertex of a group in ascending order,
    over arrival slots: the root is left by its three slots and every other
    vertex only by the successor and predecessor of the slot it was entered
    by (read from the cached ``turn_tables``), so no search turns back along
    the edge it came in on, and a loop closes at length 1 and a parallel
    pair at 2 with no special case.  Each search enters only vertices above
    its root: a shortest cycle lies entirely above its least vertex m, so
    the search from m still closes it.  Every length a search reports is
    that of two tree paths joined by an edge outside the tree, which holds a
    cycle, so it is never below the girth.  A search never leaves the
    components of its root, so it stays inside its group.

    Level d, the vertices at distance d from the root, is expanded only
    while 2d + 1 < best, where best restarts at each group.  This is exact:
    the search from a cycle's least vertex closes a cycle of length 2j + 1
    (two vertices at distance j joined) or 2j + 2 (a vertex at distance
    j + 1 reached twice) while it expands level j.  So a cycle of length at
    most 2d is already closed while level d - 1 is expanded, and level d can
    add only the lengths 2d + 1 and 2d + 2.

    A group draws no root after one whose search closes a loop, the least
    possible length.  Every root of every group reuses one stamp list and
    one distance list of V entries.
    """
    pair = g.pair_table()
    n = g.num_vertices
    left, right = turn_tables(len(pair))
    # stamp[v] is the last root whose search entered v, below the current
    # root when v is unvisited; n marks a vertex no search may enter: a
    # finished root, and the entry a free slot's -1 // 3 indexes
    stamp = [-1] * n + [n]
    dist = [0] * n
    out: list[int | None] = []
    for roots in groups:
        best = n + 1  # no cycle is longer than n
        for root in roots:
            stamp[root] = root
            dist[root] = 0
            leave: range | list[int] = range(3 * root, 3 * root + 3)
            d = 0
            while leave and 2 * d + 1 < best:
                # leave: the slots by which level d is left; nxt: those of level e
                nxt: list[int] = []
                add = nxt.append
                e = d + 1
                for s in leave:
                    p = pair[s]
                    w = p // 3
                    t = stamp[w]
                    if t < root:
                        stamp[w] = root
                        dist[w] = e
                        add(left[p])
                        add(right[p])
                    elif t == root and e + dist[w] < best:
                        best = e + dist[w]
                leave = nxt
                d = e
            stamp[root] = n
            if best == 1:
                break  # no cycle is shorter than a loop
        out.append(best if best <= n else None)
    return out


def beineke_harary_lower_bound(p: int, q: int, h: int) -> Fraction:
    """Exact genus lower bound 1 + (1/2)(1 - 2/h)q - p/2 for a connected
    graph with p vertices, q edges and girth h embedded in a surface."""
    # imported here, since only ``report`` asks for the bound
    from fractions import Fraction

    if h < 1:
        raise ValueError(f"girth {h} must be at least 1")
    if p < 1 or q < 1:
        raise ValueError(f"need p >= 1 and q >= 1, got p={p}, q={q}")
    return 1 + Fraction(1, 2) * (1 - Fraction(2, h)) * q - Fraction(p, 2)


# -- text serialization ---------------------------------------------------


class CrgParseError(ValueError):
    """Malformed .crg text; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# Most characters of input text that a parse error quotes.
_QUOTE_LIMIT = 32


def _quote(text: str) -> str:
    """``repr(text)`` for an error message; text longer than _QUOTE_LIMIT
    characters is cut to that many and its full length stated, so that a
    hostile line makes a short message."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _slot_tokens(n: int) -> list[str]:
    """The one spelling of a slot in .crg text: entry s is slot s of an
    n-vertex graph as ``v.i``, and the last entry, which a free slot's -1
    indexes, is ``-``."""
    tok: list[str] = []
    for v in map(str, range(n)):
        tok += (v + ".0", v + ".1", v + ".2")
    tok.append("-")
    return tok


def serialize(g: CubicRibbonGraph) -> str:
    """Canonical .crg text: header, vertex count, one line per vertex with
    its three slot targets in cyclic order, then a SEED section when seed
    edges exist, one line per edge in ascending order of its low slot.  The
    output is byte-exact for equal graphs, and every token is read from
    ``_slot_tokens``."""
    n = g.num_vertices
    pair, seed = g.pair_table(), g.seed_table()
    tok = _slot_tokens(n)
    targets = map(tok.__getitem__, pair)
    lines = ["CRG 1", str(n)]
    lines += [f"{v}: {a} {b} {c}" for v, (a, b, c) in enumerate(zip(targets, targets, targets))]
    seeds = [f"{tok[s]}-{tok[p]}" for s, p in enumerate(pair) if p > s and seed[s]]
    if seeds:
        lines.append("SEED")
        lines += seeds
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> CubicRibbonGraph:
    """Parse .crg text, whose grammar the README's "The .crg format"
    section states.  The parser accepts exactly the texts ``serialize``
    writes, refuses a vertex count above ``MAX_VERTICES`` before any slot
    is allocated, and raises every refusal as a CrgParseError, with its
    line number where it has one."""
    if not text.isascii():
        raise CrgParseError("file is not pure ASCII")
    if "\r" in text:
        raise CrgParseError("carriage returns found; .crg files use LF line endings")
    lines = text.split("\n")
    if lines[0] != "CRG 1":
        raise CrgParseError("missing 'CRG 1' header", 1)
    if lines.pop():
        raise CrgParseError("last line does not end with a newline", len(lines) + 1)
    if len(lines) < 2:
        raise CrgParseError("missing vertex count", 2)
    try:
        n = int(lines[1])
    except ValueError:  # not a number, or more digits than int() converts
        n = -1
    if n < 0 or lines[1] != str(n):
        raise CrgParseError(f"bad vertex count {_quote(lines[1])} (expected a plain decimal)", 2)
    if len(lines) < 2 + n:
        count = lines[1] if len(lines[1]) <= _QUOTE_LIMIT else _quote(lines[1])
        raise CrgParseError(f"expected {count} vertex lines, found {len(lines) - 2}", len(lines))
    if n > MAX_VERTICES:
        raise CrgParseError(f"vertex count {n} exceeds the cap of {MAX_VERTICES} vertices", 2)

    tok = _slot_tokens(n)
    slot_of = {tok[s]: s for s in range(-1, 3 * n)}  # the inverse of tok, '-' -> -1
    pair: list[int] = []
    for v, line in enumerate(lines[2 : 2 + n]):
        head, *targets = line.split(" ")
        if head != f"{v}:" or len(targets) != 3:
            raise CrgParseError(f"expected '{v}: t0 t1 t2', got {_quote(line)}", 3 + v)
        try:
            pair += map(slot_of.__getitem__, targets)
        except KeyError as exc:
            token = exc.args[0]
            raise CrgParseError(f"unknown slot token {_quote(token)} (outside 0.0..{n - 1}.2 and -)", 3 + v) from None
    for s, t in enumerate(pair):
        if t == s:
            raise CrgParseError(f"slot {tok[s]} pairs with itself", 3 + s // 3)
        if t >= 0 and pair[t] != s:
            raise CrgParseError(
                f"slot {tok[s]} pairs {tok[t]} but {tok[t]} does not pair back "
                "(slot paired twice or left free)",
                3 + s // 3,
            )

    g = CubicRibbonGraph(n)
    # a fixed-point-free partial involution by now; the copy drops the spare
    # capacity that growing the list with += left behind
    g._pair = pair[:]
    rest = lines[2 + n :]
    if rest:
        if rest[0] != "SEED":
            raise CrgParseError(f"unexpected content {_quote(rest[0])} (expected SEED or end of file)", 3 + n)
        if len(rest) == 1:
            raise CrgParseError("SEED section lists no edge", 3 + n)
        seed = g._seed
        last = -1
        for lineno, line in enumerate(rest[1:], 4 + n):
            # an unknown token and '-' both read as -1, which fails the
            # chain below on either side, since last is never below -1
            low, _, high = line.partition("-")
            a, b = slot_of.get(low, -1), slot_of.get(high, -1)
            if not last < a < b:
                raise CrgParseError(
                    f"bad seed edge {_quote(line)} (expected u.i-v.j, low slot first, in ascending "
                    "order of the low slot, with no duplicate)",
                    lineno,
                )
            if pair[a] != b:
                raise CrgParseError(f"seed edge {_quote(line)} is not an edge of the graph", lineno)
            seed[a] = seed[b] = True
            last = a
    return g
