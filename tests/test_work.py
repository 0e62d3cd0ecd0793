"""Work pins: counts of the work a fixed run does, so that a change in work
shows in tier-1 even where the benchmark's time bounds cannot see it.
Timings are not pinned.  A change that moves a pinned count updates the pin
and states the old and new values and the reason."""

from systolic import builder, scanner
from systolic.builder import Plant, SeedSpec, build, word_for_trace

from _oracles import small_complete_corpus


class _CountingTable:
    """A step table of a ``_reach_plan`` that counts its reads: the replay
    reads one entry per tree node it visits, skipped or not."""

    __slots__ = ("table", "counts")

    def __init__(self, table, counts):
        self.table, self.counts = table, counts

    def __getitem__(self, slot):
        self.counts[-1] += 1
        return self.table[slot]


def test_completion_work_at_k20(monkeypatch):
    # per forbidden_reach call of build(SeedSpec(k=20)), the replay's node
    # visits and the size of the set it returns (the benchmark tracer's
    # builder.forbidden_reach.members); each call visits at most the tree's
    # nodes below the root
    visits, members = [], []
    real_plan, real_reach = builder._reach_plan, builder.forbidden_reach

    def counting_plan(pair, k):
        steps, tab, parent, end, at = real_plan(pair, k)
        wrapped = {id(t): _CountingTable(t, visits) for t in steps}
        return steps, tuple(wrapped[id(t)] for t in tab), parent, end, at

    def counting_reach(g, x, k, *plan):
        visits.append(0)
        reach = real_reach(g, x, k, *plan)
        members.append(len(reach.members))
        return reach

    monkeypatch.setattr(builder, "_reach_plan", counting_plan)
    monkeypatch.setattr(builder, "forbidden_reach", counting_reach)
    _, report, _ = build(SeedSpec(k=20))
    assert report.output_sha == "3d1e514e92f3edbe50d5407aac4e740c37a817e2bdbf1b7ad7bcf234ff610277"
    assert (len(visits), sum(visits)) == (551, 104361)
    assert (len(members), sum(members)) == (551, 81781)
    assert max(visits) <= len(builder._admissible_tree(20)[0]) == 549


def _scan_work(monkeypatch, run, graph):
    """(indices gathered, probe pops) of ``run()``: each gather counts its
    indices through ``scanner.itemgetter`` (a one-index slice counts 1) and
    each pop of the probe's heap through ``scanner.heapq``.  No gather holds
    more than one index per edge of ``graph``."""
    gathered, pops = [], [0]
    real_getter, real_pop = scanner.itemgetter, scanner.heapq.heappop

    def counting_getter(*idx):
        gathered.append(1 if isinstance(idx[0], slice) else len(idx))
        return real_getter(*idx)

    def counting_pop(heap):
        pops[0] += 1
        return real_pop(heap)

    with monkeypatch.context() as patch:
        patch.setattr(scanner, "itemgetter", counting_getter)
        patch.setattr(scanner.heapq, "heappop", counting_pop)
        run()
    assert max(gathered) <= graph.num_edges()
    return sum(gathered), pops[0]


def test_scan_work_at_k20(monkeypatch):
    # certify at the floor gathers and never probes; report probes dart 0
    # (670 pops) and deepens to the systole
    g20, _, _ = build(SeedSpec(k=20))
    assert _scan_work(monkeypatch, lambda: scanner.certify(g20, 20), g20) == (49495, 0)
    assert _scan_work(monkeypatch, lambda: scanner.report(g20), g20) == (59717, 670)


def test_scan_work_with_a_planted_trace_far_above_the_systole(monkeypatch):
    # make_seed puts the plant on ids 0, 1, ..., so vertex 0 lies on the
    # trace-90 circuit and the probe bound is 75, far above the systole 30;
    # report scans at 75 with floor 3, so the bound falls to the least
    # trace it has found; with a scan that stayed at 75 it gathered 1,217,164
    g, _, _ = build(SeedSpec(k=30, plants=(Plant(word_for_trace(90), 1),)))
    assert scanner._probe_bound(g) == 75
    found = []
    work = _scan_work(monkeypatch, lambda: found.append(scanner.report(g)), g)
    assert found[0].systole_trace == 30
    assert work == (303068, 13496)


def test_cut_scan_work_on_the_small_corpus(monkeypatch):
    # each complete graph of the small corpus scanned at 14 with floor 3,
    # so the bound falls to the least trace found.  Without the skip of
    # nodes pushed before the bound fell the cut scans gather 8,251, and
    # without the cut at chain nodes 8,356
    cut = full = 0
    for g in small_complete_corpus():
        cut += _scan_work(monkeypatch, lambda: scanner._enumerate(g, 14, 3), g)[0]
        full += _scan_work(monkeypatch, lambda: scanner._enumerate(g, 14), g)[0]
    assert (cut, full) == (8215, 36250)
