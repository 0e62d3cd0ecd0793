"""Work pins: counts of the work a fixed run does, so that a change in work
shows in tier-1 even where the benchmark's time bounds cannot see it.
Timings are not pinned.  A change that moves a pinned count updates the pin
and states the old and new values and the reason."""

from systolic import builder
from systolic.builder import SeedSpec, build


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
    # visits; each call visits at most the tree's nodes below the root
    visits = []
    real_plan, real_reach = builder._reach_plan, builder.forbidden_reach

    def counting_plan(pair, k):
        steps, tab, parent, end, at = real_plan(pair, k)
        wrapped = {id(t): _CountingTable(t, visits) for t in steps}
        return steps, tuple(wrapped[id(t)] for t in tab), parent, end, at

    def counting_reach(g, x, k, *plan):
        visits.append(0)
        return real_reach(g, x, k, *plan)

    monkeypatch.setattr(builder, "_reach_plan", counting_plan)
    monkeypatch.setattr(builder, "forbidden_reach", counting_reach)
    _, report, _ = build(SeedSpec(k=20))
    assert report.output_sha == "3d1e514e92f3edbe50d5407aac4e740c37a817e2bdbf1b7ad7bcf234ff610277"
    assert (len(visits), sum(visits)) == (551, 104361)
    assert max(visits) <= len(builder._admissible_tree(20)[0]) == 549
