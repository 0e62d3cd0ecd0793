"""Independent oracles, small-graph corpora and test-only helpers shared by
the test modules.

Everything here recomputes results through a different route than the
library code it checks: matrix counts by bounded quadruple search, word
classes by listing every rotation of a word and of its star, canonical
dart sequences by the least of every rotation of a walk and of its
reversal, closed walks by composing per-letter dart maps and reading off
fixed points, by walking the word tree once per start dart (also over the scan's own
labels, level by level, to list each closing walk), or by one word-major
walk from every dart with no regard to seed flags, the probe bound by deepening
over that dart-major walk, free homotopy classes by reading each walk as
a word in the free generators off a networkx spanning forest, forbidden
sets by a stack search that does its own matrix arithmetic, and graph
corpora by exhausting perfect matchings over the free slots of fixed
circuit shapes.  The census routes the
library cuts down by symmetry are kept here whole: the word walk from both
roots and the enumeration over every diagonal, which reads the divisors
of each a*(m-a) - 1 by trial division and also lists its matrices, where the
library steps each coprime pair (a, b) along d = a^-1 (mod b).  So is
the word walk from L under a length cap, which the library replaced by a
walk along L-chains from the spine L^j.  So is
girth: a breadth-first search from every vertex over the whole subgraph,
where the library searches only above each root.  So is .crg output
formatted one slot token at a time, where the library reads every line off
one token table.  The
helpers that only tests call live here too: the matrix product, the turn
letter between two slots and the word of a dart sequence, the edge and
seed-edge lists, vertex degrees, the free-slot lists and vertex
relabelling, the word of a seed circuit, letter insertion, divisor lists
by trial division, the
golden-ratio bounds on traces and girth, and the forbidden-set cap.  The
precondition check of a circuit seed built outside ``make_seed`` lives
here as well, with the completion of such a seed: the library's one route
to a completion is ``build``, whose seed ``SeedSpec.validate`` has
proven."""

from __future__ import annotations

import math
import random
from itertools import compress
from operator import eq, ge, itemgetter

from systolic import builder, census, ribbon, scanner, words
from systolic.builder import _install_circuit
from systolic.ribbon import CubicRibbonGraph


def brute_force_trace_count(m: int) -> int:
    """Count determinant-1 non-negative matrices of trace m by direct search."""
    count = 0
    for a in range(0, m + 1):
        d = m - a
        bound = a * d  # b*c = a*d - 1 caps both off-diagonal entries
        for b in range(0, bound + 1):
            for c in range(0, bound + 1):
                if a * d - b * c == 1:
                    count += 1
    return count


def brute_force_matrices(m: int) -> set[tuple[int, int, int, int]]:
    out = set()
    for a in range(0, m + 1):
        d = m - a
        bound = a * d
        for b in range(0, bound + 1):
            for c in range(0, bound + 1):
                if a * d - b * c == 1:
                    out.add((a, b, c, d))
    return out


def two_root_word_counts(max_trace: int) -> dict[int, int]:
    """Histogram of word counts per trace in [3, max_trace] by tree search
    from the empty word, through both L and R."""
    if max_trace < 3:
        raise ValueError(f"max_trace must be >= 3, got {max_trace}")
    counts = {m: 0 for m in range(3, max_trace + 1)}
    max_len = max_trace - 1
    stack = [(1, 0, 0, 1, 0)]
    while stack:
        a, b, c, d, n = stack.pop()
        if n == max_len:
            continue
        for na, nb, nc, nd in ((a, a + b, c, c + d), (a + b, b, c + d, d)):
            t = na + nd
            if t > max_trace:
                continue
            if t >= 3:
                counts[t] += 1
            stack.append((na, nb, nc, nd, n + 1))
    return counts


def length_capped_word_counts(max_trace: int) -> dict[int, int]:
    """Histogram of word counts per trace in [3, max_trace] by tree search.

    Walks the binary tree of words, abandoning a branch once its trace
    exceeds the bound (appending letters never lowers the trace) and capping
    the length at max_trace - 1 (a word that is not a pure letter power has
    trace at least length + 1, and letter powers stay at trace 2).  Swapping
    L and R maps (a, b, c, d) to (d, c, b, a), keeps trace and length and
    takes the subtree below L onto the one below R, so the walk descends
    from L alone and counts each node twice.  From a node of trace
    t = a + d the L child has trace t + c and the R child t + b.  Distinct
    words have distinct matrices and the walk reads no sieve, so this is an
    independent oracle for the divisor-based counts.
    """
    if max_trace < 3:
        raise ValueError(f"max_trace must be >= 3, got {max_trace}")
    counts = {m: 0 for m in range(3, max_trace + 1)}
    max_len = max_trace - 1
    stack = [(1, 1, 0, 1, 1)]  # the word L, of length 1
    while stack:
        a, b, c, d, n = stack.pop()
        if n == max_len:
            continue
        n += 1
        t = a + d
        t_left = t + c
        if t_left <= max_trace:
            if t_left >= 3:
                counts[t_left] += 2
            stack.append((a, a + b, c, c + d, n))
        t_right = t + b  # below L, b >= 1 and t >= 2
        if t_right <= max_trace:
            counts[t_right] += 2
            stack.append((a + b, b, c + d, d, n))
    return counts


def divisor_list(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending.

    n is factored by trial division, so the lists share nothing with the
    library's divisor table.  Each prime power p^i found multiplies the
    divisors found before p, so no factor list is built.
    """
    if n < 1:
        raise ValueError(f"divisor_list needs n >= 1, got {n}")
    out = [1]
    p = 2
    while n > 1:
        if p * p > n:
            p = n  # what is left is prime
        base = out
        q = 1
        while n % p == 0:
            n //= p
            q *= p
            out = out + [d * q for d in base]
        p += 1
    out.sort()
    return out


def full_range_enumeration(m: int, with_matrices: bool = False):
    """Count trace-m elements by constructing them over every diagonal
    (a, m-a), 1 <= a <= m-1, with b over the divisors of a*(m-a) - 1 found
    by trial division; with ``with_matrices`` also list them."""
    if m <= 2:
        raise ValueError(f"trace {m} rejected: the count is only finite for traces >= 3")
    count = 0
    matrices: list[words.UniMat] = []
    for a in range(1, m):
        d = m - a
        k = a * d - 1
        for b in divisor_list(k):
            c = k // b
            if a * d - b * c != 1:
                raise AssertionError(f"enumeration produced a bad matrix ({a},{b},{c},{d})")
            count += 1
            if with_matrices:
                matrices.append(words.UniMat(a, b, c, d))
    if with_matrices:
        return count, matrices
    return count


def forbidden_set_bound(k: int) -> int:
    """Cap N(k-2) + 2k - 3 on the size of any forbidden set."""
    return census.N_of(max(k - 2, 2)) + 2 * k - 3


def matmul(u: words.UniMat, v: words.UniMat) -> words.UniMat:
    """The product u @ v, row by column."""
    return words.UniMat(
        u.a * v.a + u.b * v.c,
        u.a * v.b + u.b * v.d,
        u.c * v.a + u.d * v.c,
        u.c * v.b + u.d * v.d,
    )


def insert_letter(word: str, position: int, letter: str) -> str:
    """Insert one letter; the trace of the result is never below the input's."""
    words.check_word(word)
    words.check_word(letter)
    if len(letter) != 1:
        raise ValueError(f"expected a single letter, got {letter!r}")
    if not 0 <= position <= len(word):
        raise ValueError(f"position {position} outside [0, {len(word)}]")
    return word[:position] + letter + word[position:]


#: (1 + sqrt 5) / 2, the growth base of the maximal trace at a given length.
GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0


def lucas(n: int) -> int:
    """Lucas number: 2, 1, 3, 4, 7, 11, ..."""
    if n < 0:
        raise ValueError("negative index")
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def phi_power_floor(n: int) -> int:
    """Exact floor of GOLDEN_RATIO**n.

    phi^n = lucas(n) - (-1/phi)^n and the correction lies in (-1, 1), so the
    floor is lucas(n) - 1 for even n >= 2 and lucas(n) for odd n.
    """
    if n < 0:
        raise ValueError("negative exponent")
    if n == 0:
        return 1
    ln = lucas(n)
    return ln - 1 if n % 2 == 0 else ln


def phi_trace_ceiling(n: int) -> int:
    """Largest integer trace a word of n letters can have: floor(phi^n) + 1."""
    return phi_power_floor(n) + 1


def log_phi_ceil(m: int) -> int:
    """Smallest h >= 0 with GOLDEN_RATIO**h >= m, for an integer m >= 1.

    Computed with exact integer arithmetic through ``phi_power_floor``
    (phi^h is irrational for h >= 1, so floor comparison is equivalent).
    """
    if m < 1:
        raise ValueError(f"m={m} must be at least 1")
    if m == 1:
        return 0
    h = 1
    while phi_power_floor(h) < m:
        h += 1
    return h


def random_word(rng: random.Random, max_len: int, min_len: int = 0) -> str:
    return "".join(rng.choice("LR") for _ in range(rng.randint(min_len, max_len)))


def all_words(max_len: int):
    """Every word of length <= max_len, in length-then-binary order."""
    for length in range(max_len + 1):
        for bits in range(2**length):
            yield "".join("L" if bits >> i & 1 else "R" for i in range(length))


def rotations(word: str) -> list[str]:
    """All cyclic rotations; the empty word has itself as its only rotation."""
    words.check_word(word)
    if not word:
        return [""]
    return [word[i:] + word[:i] for i in range(len(word))]


def equivalence_class(word: str) -> set[str]:
    """Rotations of the word together with rotations of its star: the class
    that ``words.canonical`` names by its least member, listed in full."""
    return set(rotations(word)) | set(rotations(words.star(word)))


# -- graph helpers ------------------------------------------------------------


def turn_letter(arrival: int, exit_slot: int) -> str:
    """Letter of the turn that enters a vertex at ``arrival`` and leaves at
    ``exit_slot``; exiting by the same slot (backtracking) is not a turn."""
    if arrival // 3 != exit_slot // 3:
        raise ValueError(f"slots {arrival} and {exit_slot} are not at the same vertex")
    if exit_slot == ribbon.succ(arrival):
        return "L"
    if exit_slot == ribbon.pred(arrival):
        return "R"
    raise ValueError(f"exit {exit_slot} backtracks the arrival {arrival}")


def walk_word(g: CubicRibbonGraph, darts: tuple[int, ...]) -> str:
    """Word read along a closed dart sequence (letter i is the turn into
    dart i+1, wrapping at the end)."""
    if not darts:
        raise ValueError("empty walk")
    pair = g.pair_table()
    letters = []
    for i, d in enumerate(darts):
        t = pair[d]
        if t < 0:
            raise ValueError(f"dart {d} has no edge")
        letters.append(turn_letter(t, darts[(i + 1) % len(darts)]))
    return "".join(letters)


def free_slots(g: CubicRibbonGraph) -> list[int]:
    """Every unpaired slot, ascending."""
    return [s for s, p in enumerate(g.pair_table()) if p < 0]


def degree(g: CubicRibbonGraph, v: int) -> int:
    """The number of paired slots of vertex v."""
    return sum(p >= 0 for p in g.pair_table()[3 * v : 3 * v + 3])


def free_slots_of(g: CubicRibbonGraph, v: int) -> list[int]:
    """The unpaired slots of vertex v, ascending."""
    pair = g.pair_table()
    return [s for s in range(3 * v, 3 * v + 3) if pair[s] < 0]


def edges(g: CubicRibbonGraph) -> list[tuple[int, int]]:
    """All edges as (low slot, high slot), sorted."""
    return sorted((s, p) for s, p in enumerate(g.pair_table()) if p > s)


def seed_edges(g: CubicRibbonGraph) -> list[tuple[int, int]]:
    """The edges whose low slot carries the seed flag, sorted."""
    seed = g.seed_table()
    return [e for e in edges(g) if seed[e[0]]]


def relabeled(g: CubicRibbonGraph, perm: list[int]) -> CubicRibbonGraph:
    """New graph with vertex v renamed perm[v]; slot indices ride along."""
    n = g.num_vertices
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a permutation of the vertices")
    h = CubicRibbonGraph(n)
    move = lambda s: 3 * perm[s // 3] + s % 3
    seed = g.seed_table()
    for a, b in edges(g):
        h.add_edge(move(a), move(b), seed=seed[a])
    return h


# -- closed-walk oracle -----------------------------------------------------


def least_rotation(seq, mirror):
    """``words.least_rotation`` as the library once computed it: the least
    of every cyclic rotation of ``seq`` and of ``mirror``, with no regard to
    where the least element's runs start.  An empty ``seq`` is its own."""
    return min((s[i:] + s[:i] for s in (seq, mirror) for i in range(len(s))), default=seq)


def canonical_walk(darts: tuple[int, ...], g: CubicRibbonGraph) -> tuple[int, ...]:
    """``scanner.canonical_walk`` over ``least_rotation``: the least rotation
    of the dart sequence or of its reversal with every dart flipped to its
    partner."""
    pair = g.pair_table()
    return least_rotation(darts, tuple(pair[d] for d in reversed(darts)))


def naive_walk_classes(
    g: CubicRibbonGraph, max_len: int, max_trace: int
) -> dict[tuple[int, ...], str]:
    """All closed-walk classes of <= max_len darts and trace <= max_trace.

    For each word w the per-letter dart maps compose into one map; its fixed
    points are exactly the starting darts of closed walks reading w.  The
    word tree is explored without any trace pruning, and results are
    deduplicated by the scanner's canonical form, computed here over every
    rotation (``canonical_walk``), so the dicts compare key for key.
    """
    pair = g.pair_table()
    n = len(pair)
    step = {
        "L": [ribbon.succ(pair[d]) if pair[d] >= 0 else -1 for d in range(n)],
        "R": [ribbon.pred(pair[d]) if pair[d] >= 0 else -1 for d in range(n)],
    }
    identity = list(range(n))
    found: dict[tuple[int, ...], str] = {}

    def visit(word: str, dmap: list[int]) -> None:
        if word:
            for d0 in range(n):
                if dmap[d0] != d0 or pair[d0] < 0:
                    continue
                if words.trace_of(word) > max_trace:
                    continue
                walk = [d0]
                for ch in word[:-1]:
                    walk.append(step[ch][walk[-1]])
                canon = canonical_walk(tuple(walk), g)
                if canon not in found:
                    found[canon] = words.canonical(word)
        if len(word) < max_len:
            for ch in "LR":
                visit(word + ch, [step[ch][x] if x >= 0 else -1 for x in dmap])

    visit("", identity)
    return found


def dart_major_enumerate(
    g: CubicRibbonGraph, max_trace: int, max_len: int, starts
) -> dict[tuple[int, ...], str]:
    """``all_darts_enumerate`` walked dart by dart: one pruned walk of the
    word tree per start dart, each state (last dart, a, b, c, d, length) on
    its own explicit stack, with the same prune rules and the same
    {canonical dart sequence: canonical word} result."""
    pair = g.pair_table()
    succ, pred = ribbon.turn_tables(len(pair))
    found: dict[tuple[int, ...], str] = {}
    if max_len < 1:
        return found

    for d0 in starts:
        stack = [(d0, 1, 0, 0, 1, 1)]
        while stack:
            last, a, b, c, d, n = stack.pop()
            t = pair[last]
            for e, na, nb, nc, nd in (
                (succ[t], a, a + b, c, c + d),
                (pred[t], a + b, b, c + d, d),
            ):
                tr = na + nd
                if tr > max_trace:
                    continue
                if e == d0:
                    word = words.word_of_matrix(words.UniMat(na, nb, nc, nd))
                    darts = [d0]
                    for letter in word[:-1]:
                        s = pair[darts[-1]]
                        darts.append(succ[s] if letter == "L" else pred[s])
                    canon = canonical_walk(tuple(darts), g)
                    if canon not in found:
                        found[canon] = words.canonical(word)
                if e < d0 or n >= max_len:
                    continue
                # a non-letter-power at the bound can only close above it
                if tr == max_trace and nb > 0 and nc > 0:
                    continue
                stack.append((e, na, nb, nc, nd, n + 1))
    return found


def label_closing_walks(step_l, step_r, max_trace: int) -> list[tuple[int, str]]:
    """Every (start label, word) at which a walk of ``scanner._enumerate``
    closes, sorted, over its label step tables: one walk of the word tree
    per even start label, level by level with no chain rule, dropped once
    it steps below its start, with the scan's trace cut, length cap
    (max_trace - 1 letters) and at-bound cut."""
    out = []
    for s in range(0, len(step_l), 2):
        stack = [(s, "", 1, 0, 0, 1)]
        while stack:
            x, word, a, b, c, d = stack.pop()
            for letter, step, na, nb, nc, nd in (
                ("L", step_l, a, a + b, c, c + d),
                ("R", step_r, a + b, b, c + d, d),
            ):
                tr = na + nd
                if tr > max_trace:
                    continue
                e = step[x]
                if e == s:
                    out.append((s, word + letter))
                if e < s or len(word) + 1 >= max_trace - 1:
                    continue
                if tr == max_trace and nb > 0 and nc > 0:
                    continue
                stack.append((e, word + letter, na, nb, nc, nd))
    return sorted(out)


def all_darts_enumerate(g: CubicRibbonGraph, max_trace: int) -> dict[tuple[int, ...], str]:
    """``scanner._enumerate`` before it relabelled the darts edge by edge.
    Closed-walk classes of a complete graph with word trace <= max_trace,
    as {canonical dart sequence: canonical word}.  Every dart is a start,
    and walks stop at max_trace - 1 darts: a word that is not a letter
    power has at most trace - 1 letters, and letter powers are dropped.

    One walk of the tree of words carries, per node, the matrix (a, b, c,
    d) and length of the word with the tuple of start darts still alive and
    the current dart of each; a letter steps them all at once.  A start is
    dropped once its walk steps onto a dart below it, so each walk comes
    from its least dart only.  At a node where some walks close, the word
    is the unique factorization of the matrix, and each closing walk's
    darts are replayed from its start along the word.  The nodes wait on
    one explicit stack.
    """
    found: dict[tuple[int, ...], str] = {}
    max_len = max_trace - 1
    pair = g.pair_table()
    # the dart after each dart along an L turn (succ of its partner) and
    # along an R turn (pred of its partner)
    step_l = tuple(ribbon.succ(pair[s]) for s in range(len(pair)))
    step_r = tuple(ribbon.pred(pair[s]) for s in range(len(pair)))
    starts = tuple(range(len(pair)))
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
                    darts = [d0]
                    for letter in word[:-1]:
                        darts.append((step_l if letter == "L" else step_r)[darts[-1]])
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
            if all(keep):
                stack.append((st, e, na, nb, nc, nd, n + 1))
            elif any(keep):
                kept = tuple(compress(st, keep)), tuple(compress(e, keep))
                stack.append((*kept, na, nb, nc, nd, n + 1))
    return found


def deepening_probe_bound(g: CubicRibbonGraph) -> int:
    """``scanner._probe_bound`` by iterative deepening: one dart-major scan
    from dart 0 alone per bound 3, 4, ..., each walking the word tree
    afresh, until one finds an essential class."""
    bound = 3
    while not scanner._group_classes(dart_major_enumerate(g, bound, bound - 1, (0,))):
        bound += 1
    return bound


def spanning_forest_slots(g: CubicRibbonGraph) -> set[int]:
    """Low slots of the edges of a spanning forest of g, found by networkx
    on the multigraph of g (each edge keyed by its low slot)."""
    import networkx as nx

    mg = nx.MultiGraph()
    mg.add_nodes_from(range(g.num_vertices))
    mg.add_edges_from((s // 3, p // 3, s) for s, p in edges(g))
    return {key for _, _, key in nx.minimum_spanning_edges(mg, keys=True, data=False)}


def free_group_word(
    g: CubicRibbonGraph, darts: tuple[int, ...], tree: set[int]
) -> tuple[tuple[int, int], ...]:
    """The closed walk as a word in the free generators of pi_1 of g: one
    generator per edge off the spanning forest ``tree``, named by its low
    slot, with exponent +1 when the walk leaves by the low slot and -1
    when it leaves by the high one.  Edges of the forest read nothing."""
    pair = g.pair_table()
    return tuple(
        (min(d, pair[d]), 1 if d < pair[d] else -1)
        for d in darts
        if min(d, pair[d]) not in tree
    )


def cyclic_word_class(word: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Least rotation of a free-group word or of its inverse: the word's
    conjugacy class up to inversion, when the word is cyclically reduced."""
    return least_rotation(word, tuple((x, -e) for x, e in reversed(word)))


def naive_cycle_classes(g, max_len, max_trace):
    """The oracle's answer shaped like low_trace_cycles output."""
    raw = naive_walk_classes(g, max_len, max_trace)
    return scanner._group_classes(raw)


def deepening_first_classes(g: CubicRibbonGraph, start: int):
    """The first non-empty ``low_trace_cycles(g, b)`` for b = start,
    start + 1, ...: the systole search by iterative deepening on the trace,
    one full scan per bound, with no probe.  Loops forever when g has no
    essential class, so call it on non-empty complete graphs only."""
    bound = start
    while True:
        found = scanner.low_trace_cycles(g, bound)
        if found:
            return found
        bound += 1


# -- girth oracle -------------------------------------------------------------


def all_roots_girth(g: CubicRibbonGraph, vertices: list[int] | None = None) -> int | None:
    """Length of the shortest cycle of the underlying multigraph, or None.

    A truncated breadth-first search from every vertex, over edges named by
    their lower slot, so a loop closes at length 1 and a parallel pair at 2
    with no special case.  ``vertices`` restricts the search to the subgraph
    induced on them (a component, say); only their own slots are read, and
    ids outside the graph are ignored.
    """
    pair = g.pair_table()
    n = g.num_vertices
    keep = range(n) if vertices is None else {v for v in vertices if 0 <= v < n}
    adj = {
        v: [
            (p // 3, min(s, p))
            for s in range(3 * v, 3 * v + 3)
            if (p := pair[s]) >= 0 and p // 3 in keep
        ]
        for v in keep
    }
    best: int | None = None
    for src in adj:
        dist = {src: 0}
        via = {src: -1}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                if best is not None and 2 * dist[u] >= best:
                    continue
                for w, eid in adj[u]:
                    if eid == via[u]:
                        continue
                    if w in dist:
                        cand = dist[u] + dist[w] + 1
                        if best is None or cand < best:
                            best = cand
                    else:
                        dist[w] = dist[u] + 1
                        via[w] = eid
                        nxt.append(w)
            frontier = nxt
    return best


# -- serialization oracle ------------------------------------------------------


def per_token_serialize(g: CubicRibbonGraph) -> str:
    """The .crg text formatted one slot token at a time, with the seed
    section read off ``seed_edges(g)``, the sorted edge list filtered by the
    seed flag of each low slot."""

    def token(s: int) -> str:
        return f"{s // 3}.{s % 3}"

    lines = ["CRG 1", str(g.num_vertices)]
    pair = g.pair_table()
    for v in range(g.num_vertices):
        tokens = []
        for i in range(3):
            p = pair[3 * v + i]
            tokens.append("-" if p < 0 else token(p))
        lines.append(f"{v}: {tokens[0]} {tokens[1]} {tokens[2]}")
    seeds = seed_edges(g)
    if seeds:
        lines.append("SEED")
        for a, b in seeds:
            lines.append(f"{token(a)}-{token(b)}")
    return "\n".join(lines) + "\n"


# -- forbidden-path oracle ----------------------------------------------------


def free_slot_path_end(g: CubicRibbonGraph, x: int, word: str) -> int | None:
    """Vertex reached by reading ``word`` from the free slot of x, turn by
    turn, or None when the walk meets a free slot on the way."""
    pair = g.pair_table()
    arrival = free_slots_of(g, x)[0]
    for ch in word:
        exit_slot = ribbon.succ(arrival) if ch == "L" else ribbon.pred(arrival)
        arrival = pair[exit_slot]
        if arrival < 0:
            return None
    return arrival // 3


def naive_forbidden_reach(g: CubicRibbonGraph, x: int, k: int) -> set[int]:
    """x plus the endpoints of every word of 1..k-2 letters with trace at
    most k - 2 or exactly 2 that walks out of x's free slot without meeting
    a free slot; every word is tried whole, with no pruning of prefixes."""
    out = {x}
    for word in all_words(k - 2):
        t = words.trace_of(word)
        if word and (t <= k - 2 or t == 2):
            end = free_slot_path_end(g, x, word)
            if end is not None:
                out.add(end)
    return out


def stack_forbidden_reach(g: CubicRibbonGraph, x: int, k: int) -> set[int]:
    """The members of ``builder.forbidden_reach`` by a depth-first search
    that does its own matrix arithmetic: each path is the state (arrival
    slot, a, b, c, d, length) on an explicit stack, pruned by trace and
    length as it grows, instead of a replay of a precomputed word tree."""
    pair = g.pair_table()
    succ, pred = ribbon.turn_tables(len(pair))
    max_len = k - 2
    max_trace = max(k - 2, 2)
    reached: set[int] = set()
    stack = [(free_slots_of(g, x)[0], 1, 0, 0, 1, 0)]
    while stack:
        t, a, b, c, d, n = stack.pop()
        reached.add(t // 3)
        if n == max_len:
            continue
        for e, na, nb, nc, nd in (
            (succ[t], a, a + b, c, c + d),
            (pred[t], a + b, b, c + d, d),
        ):
            tr = na + nd
            if pair[e] >= 0 and tr <= max_trace:
                stack.append((pair[e], na, nb, nc, nd, n + 1))
    return reached


def floor_checked_build(monkeypatch, run):
    """Return ``run()``, a build or completion, with every graph the
    completion hands ``builder.forbidden_reach`` checked against its floor
    k: ``naive_walk_classes(g, k - 1, k - 1)`` must find no closed walk.
    Free slots end walks, so this is the floor of a partial graph; a letter
    power of up to k - 1 darts is a face below the floor and fails too.
    The completion calls the search once per candidate x on an unchanged
    graph, so each graph state is checked once."""
    real = builder.forbidden_reach
    checked: set[str] = set()

    def checking(g, x, k, *plan):
        text = ribbon.serialize(g)
        if text not in checked:
            checked.add(text)
            bad = naive_walk_classes(g, k - 1, k - 1)
            if bad:
                raise AssertionError(f"floor {k} broken mid-completion: {sorted(bad.items())[:3]}")
        return real(g, x, k, *plan)

    with monkeypatch.context() as m:
        m.setattr(builder, "forbidden_reach", checking)
        result = run()
    if not checked:
        raise AssertionError("the completion never searched for forbidden paths")
    return result


# -- outside seeds --------------------------------------------------------


class SeedPreconditionError(ValueError):
    """A seed graph handed to the completion violates its preconditions."""


def _arrival_slot(pair: list[int], v: int) -> int:
    """The slot by which a circuit through the degree-2 vertex v enters it:
    slot 0 when it is paired, so that the walk leaves by the paired slot 1
    or 2, the direction ``_install_circuit`` wires a circuit; otherwise
    slot 2, so that it leaves by the first paired slot, slot 1."""
    return 3 * v if pair[3 * v] >= 0 else 3 * v + 2


def check_seed_graph(g: CubicRibbonGraph, k: int, strict: bool = False) -> None:
    """Check the completion's preconditions in one pass each: the floor
    (``seed_size_bound`` asks the gate), size, degrees read from the pair
    table, seed flags on every paired slot, then each circuit's word,
    walked once in ascending order of its least vertex.  A circuit meets
    the floor when its trace is at least k or, unless strict, it is a
    letter power of k or more edges."""
    n = g.num_vertices
    bound = builder.seed_size_bound(k)
    if n % 2:
        raise SeedPreconditionError(f"seed has an odd vertex count {n}")
    if n < bound:
        raise SeedPreconditionError(f"seed has {n} vertices, below the admissible bound {bound}")
    pair = g.pair_table()
    for v in range(n):
        degree = (pair[3 * v] >= 0) + (pair[3 * v + 1] >= 0) + (pair[3 * v + 2] >= 0)
        if degree != 2:
            raise SeedPreconditionError(f"vertex {v} has degree {degree}; a seed is 2-regular")
    seed = g.seed_table()
    if not all(seed[s] for s, p in enumerate(pair) if p >= 0):
        raise SeedPreconditionError("seed contains edges not flagged as seed edges")
    succ, pred = ribbon.turn_tables(len(pair))
    seen = [False] * n
    for v in range(n):
        if seen[v]:
            continue
        # v is the least vertex of its circuit; read the circuit from v's
        # letter on, the way ``_install_circuit`` wired it, turning L where
        # the slot after arrival is paired
        first = dart = pair[_arrival_slot(pair, v)]
        letters = []
        while True:
            t = pair[dart]
            seen[t // 3] = True
            left = pair[succ[t]] >= 0
            letters.append("L" if left else "R")
            dart = succ[t] if left else pred[t]
            if dart == first:
                break
        word = "".join(letters)
        trace = words.trace_of(word)
        if not (trace >= k or (not strict and words.is_letter_power(word) and len(word) >= k)):
            raise SeedPreconditionError(
                f"circuit through vertex {v} carries {word!r} with trace {trace}, below the floor {k}"
            )


def complete(seed: CubicRibbonGraph, k: int, *, strict_seed_trace: bool = False) -> CubicRibbonGraph:
    """Complete a circuit seed built outside ``make_seed`` to a 3-regular
    graph preserving the floor k: ``check_seed_graph`` first, then the
    library's completion on a copy, so the input is left untouched."""
    check_seed_graph(seed, k, strict_seed_trace)
    done = seed.copy()
    builder._run_completion(done, k)
    return done


# -- graph corpora ----------------------------------------------------------


def perfect_matchings(items: list[int]):
    """All ways to pair up an even list of slots."""
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for sub in perfect_matchings(rest):
            yield [(first, items[i])] + sub


def circuit_graph(words_list: list[str]) -> CubicRibbonGraph:
    """Disjoint circuits with the given words, ids assigned in order."""
    g = CubicRibbonGraph(sum(len(w) for w in words_list))
    cursor = 0
    for word in words_list:
        _install_circuit(g, list(range(cursor, cursor + len(word))), word)
        cursor += len(word)
    return g


def circuit_word(g: CubicRibbonGraph, start: int) -> str:
    """Word read around the circuit through ``start``, whose vertices all have
    degree 2, from the letter at ``start`` on: the walk enters ``start`` by
    ``_arrival_slot`` and turns L wherever the slot after arrival is
    paired, so a circuit wired by ``_install_circuit`` reads as its word."""
    pair = g.pair_table()
    first = dart = pair[_arrival_slot(pair, start)]
    letters = []
    while True:
        t = pair[dart]
        left = pair[ribbon.succ(t)] >= 0
        letters.append("L" if left else "R")
        dart = ribbon.succ(t) if left else ribbon.pred(t)
        if dart == first:
            return "".join(letters)


def completions_of_shape(words_list: list[str]):
    """Every completion of the shape: one graph per perfect matching of the
    free slots (each vertex of a circuit seed has exactly one)."""
    base = circuit_graph(words_list)
    free = free_slots(base)
    for matching in perfect_matchings(free):
        g = base.copy()
        for a, b in matching:
            g.add_edge(a, b)
        yield g


def small_complete_corpus():
    """Exhaustive complete graphs on <= 8 vertices from fixed circuit shapes."""
    shapes = [
        ["LR"],
        ["LR" * 2],
        ["LR" * 3],
        ["LR" * 4],
        ["LLR", "LLR"],
    ]
    for shape in shapes:
        yield from completions_of_shape(shape)


def random_complete_graph(rng: random.Random, max_vertices: int) -> CubicRibbonGraph:
    """A complete graph on an even number (2..max_vertices) of vertices whose
    edges are a uniformly random perfect matching of all slots."""
    n = 2 * rng.randint(1, max_vertices // 2)
    slots = list(range(3 * n))
    rng.shuffle(slots)
    g = CubicRibbonGraph(n)
    for a, b in zip(slots[::2], slots[1::2]):
        g.add_edge(a, b)
    return g


def theta_graph(twisted: bool) -> CubicRibbonGraph:
    """The two 2-vertex graphs: straight pairing has one face of length 6,
    the twisted pairing has three faces of length 2."""
    g = CubicRibbonGraph(2)
    if twisted:
        for a, b in ((0, 3), (1, 5), (2, 4)):
            g.add_edge(a, b)
    else:
        for a, b in ((0, 3), (1, 4), (2, 5)):
            g.add_edge(a, b)
    return g
