"""Golden digests of the command-line outputs, and the script that writes them.

Usage, from the repository root:
    python tests/golden.py                    print every digest as JSON
    python tests/golden.py --only PREFIX      print the entries whose name starts so
    python tests/golden.py --write            rewrite tests/golden.json

Each entry runs one ``systolic`` command in-process through ``cli.main``
(or, with no command, writes its one file from ``disjoint_crg``) and keeps
its exit code and the sha256 of its stdout, its stderr and each file it
writes; no output itself is kept.  The entries cover seed-0 ``--size min``
builds at several floors, ``report`` (text and JSON, with no spectrum
bound, at the floor and at floor + 3), ``verify`` at the floor, one above
it and four above it (a failing scan whose findings cover several traces),
the same at the north star's floors 30 and 40 less the text reports with a
bound and the JSON report at the floor,
``census --max-trace 300 --check``, ``selftest``, two planted specs, the
benchmark's report command, and a disconnected graph whose components have
different girths (``report`` text and JSON, with no spectrum bound and at
8, and a failing ``verify``).  ``test_golden.py`` replays them, so a change
in any output byte fails the suite.  A change that alters an output on
purpose regenerates the file and names each entry it changes.

pytest collects only ``test_*.py``, so this module runs only when imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
FLOORS = (5, 8, 10, 12, 16, 20, 24)
# the north star's larger floors, whose reports are only the text and JSON
# with no spectrum bound and the JSON at floor + 3
NORTH_STAR_FLOORS = (30, 40)


def grid():
    """(name, argv, output files) of every entry, in the order they run.

    An argv item or file name may hold ``{dir}``, the work directory; an
    entry may read the files that an earlier one wrote."""
    for k in FLOORS + NORTH_STAR_FLOORS:
        crg, rep = f"{{dir}}/g{k}.crg", f"{{dir}}/g{k}.json"
        yield (f"construct k={k}",
               ["construct", "--k", str(k), "--size", "min", "--seed", "0", "-o", crg, "--report", rep],
               (crg, rep))
        reports = [(fmt, spectrum) for fmt in ("text", "json") for spectrum in (None, k, k + 3)]
        if k in NORTH_STAR_FLOORS:
            reports = [("text", None), ("json", None), ("json", k + 3)]
        for fmt, spectrum in reports:
            argv = ["report", crg] + ([] if spectrum is None else ["--spectrum-max", str(spectrum)])
            yield (f"report k={k} {fmt} spectrum={spectrum}",
                   argv + (["--json"] if fmt == "json" else []), ())
        for floor in (k, k + 1, k + 4):
            yield f"verify k={k} --k {floor}", ["verify", "--k", str(floor), crg], ()
    # the benchmark's report command; its stdout is the "report" pin
    yield ("report k=16 json spectrum=18", ["report", "{dir}/g16.crg", "--spectrum-max", "18", "--json"], ())
    yield "census 300 check", ["census", "--max-trace", "300", "--check"], ()
    yield "selftest", ["selftest"], ()
    yield "disjoint crg", None, ("{dir}/disjoint.crg",)
    for fmt in ("text", "json"):
        for spectrum in (None, 8):
            argv = ["report", "{dir}/disjoint.crg"] + ([] if spectrum is None else ["--spectrum-max", str(spectrum)])
            yield f"disjoint report {fmt} spectrum={spectrum}", argv + (["--json"] if fmt == "json" else []), ()
    yield "disjoint verify --k 5", ["verify", "--k", "5", "{dir}/disjoint.crg"], ()
    for name, k, plant in (("planted-trace", 10, ["--plant-trace", "11:3"]),
                           ("planted-word", 12, ["--plant", "LLLLLRLLLLLR:2"])):
        crg, rep = f"{{dir}}/{name}.crg", f"{{dir}}/{name}.json"
        yield (f"{name} construct",
               ["construct", "--k", str(k), *plant, "-o", crg, "--report", rep], (crg, rep))
        yield f"{name} report json", ["report", crg, "--spectrum-max", str(k + 2), "--json"], ()
        yield f"{name} verify --k {k + 2}", ["verify", "--k", str(k + 2), crg], ()


def disjoint_crg() -> str:
    """.crg text of three components with girths 2, 4 and 6: a theta graph
    (two vertices joined by three edges) and the seed-0 ``--size min`` builds
    at k=5 and k=8, seed flags kept.  The theta graph takes the first and the
    last vertex, so its component is not a run of consecutive ids."""
    from systolic import builder, ribbon

    theta = ribbon.CubicRibbonGraph(2)
    for a, b in ((0, 3), (1, 4), (2, 5)):
        theta.add_edge(a, b)
    k5, k8 = (builder.build(builder.SeedSpec(k=k))[0] for k in (5, 8))
    n = 2 + k5.num_vertices + k8.num_vertices
    ids = ([0, n - 1], range(1, 1 + k5.num_vertices), range(1 + k5.num_vertices, n - 1))
    union = ribbon.CubicRibbonGraph(n)
    for part, vid in zip((theta, k5, k8), ids):
        pair, seed = part.pair_table(), part.seed_table()
        for s, p in enumerate(pair):
            if p > s:
                union.add_edge(3 * vid[s // 3] + s % 3, 3 * vid[p // 3] + p % 3, seed=seed[s])
    return ribbon.serialize(union)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(workdir: str, only: str = "") -> dict[str, dict]:
    """{name: {"exit", "stdout", "stderr", "file0", ...}} of every entry
    whose name starts with ``only``, run in ``workdir``."""
    from systolic.cli import main

    # a selected entry's inputs come from earlier entries, which run unrecorded
    runs, reads = [], set()
    for name, argv, files in reversed(list(grid())):
        if name.startswith(only) or reads.intersection(files):
            runs.append((name, argv, files))
            reads.update(argv or ())
    out: dict[str, dict] = {}
    for name, argv, files in reversed(runs):
        streams = io.StringIO(), io.StringIO()
        if argv is None:
            code = 0
            with open(files[0].format(dir=workdir), "w", encoding="ascii", newline="\n") as fh:
                fh.write(disjoint_crg())
        else:
            with contextlib.redirect_stdout(streams[0]), contextlib.redirect_stderr(streams[1]):
                code = main([a.format(dir=workdir) for a in argv])
        if not name.startswith(only):
            continue
        entry = {"exit": code,
                 "stdout": _sha(streams[0].getvalue().encode("utf-8")),
                 "stderr": _sha(streams[1].getvalue().encode("utf-8"))}
        for j, path in enumerate(files):
            with open(path.format(dir=workdir), "rb") as fh:
                entry[f"file{j}"] = _sha(fh.read())
        out[name] = entry
    return out


def main(argv: list[str]) -> int:
    only = argv[argv.index("--only") + 1] if "--only" in argv else ""
    with tempfile.TemporaryDirectory() as workdir:
        result = digests(workdir, only)
    text = json.dumps(result, indent=1, sort_keys=True) + "\n"
    if "--write" in argv:
        with open(GOLDEN, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.exit(main(sys.argv[1:]))
