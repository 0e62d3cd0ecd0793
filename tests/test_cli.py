import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from systolic import builder, census, ribbon, scanner, words
from systolic.cli import build_parser, main

from _oracles import circuit_graph, complete, edges, seed_edges, theta_graph
from conftest import TEST_ADDRESS_LIMIT_BYTES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_csv(capsys):
    code, out, err = run(capsys, "census", "--max-trace", "50", "--check")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,n,N,ratio_mlogm,ratio_mloglogm"
    assert len(lines) - 1 == 48
    assert lines[1].startswith("3,2,2,")
    assert lines[3].startswith("5,8,16,")


def test_census_output_file(tmp_path, capsys):
    target = tmp_path / "census.csv"
    code, out, _ = run(capsys, "census", "--max-trace", "12", "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("m,n,N,")


def test_census_check_failure_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    divisor_counts = census._divisor_counts

    def poisoned_counts(limit):
        tau = divisor_counts(limit)
        # 538 = 11*49 - 1 feeds the a = 11 term of trace 60 and no
        # smaller trace, so the formula and the two oracles part there
        tau[538] = 2
        return tau

    monkeypatch.setattr(census, "_divisor_counts", poisoned_counts)
    target = tmp_path / "census.csv"
    code, out, err = run(capsys, "census", "--max-trace", "60", "--check", "-o", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("census check failed: census mismatch at trace 60: formula=")
    assert err.count("\n") == 1
    assert not target.exists()


def test_construct_verify_report_roundtrip(tmp_path, capsys):
    crg = tmp_path / "g.crg"
    rep = tmp_path / "g.json"
    code, out, err = run(
        capsys, "construct", "--k", "5", "--size", "min", "--seed", "7",
        "-o", str(crg), "--report", str(rep),
    )
    assert code == 0
    assert "constructed 20 vertices" in err

    payload = json.loads(rep.read_text())
    assert payload["vertices"] == 20 and payload["edges"] == 30
    assert payload["spec"]["k"] == 5 and payload["spec"]["rng_seed"] == 7

    code, out, err = run(capsys, "verify", "--k", "5", str(crg))
    assert code == 0 and out == ""
    assert "certified" in err

    code, out, _ = run(capsys, "report", str(crg), "--spectrum-max", "8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["systole"]["trace"] == 5
    assert doc["beineke_harary"]["ok"] is True
    assert {row["trace"] for row in doc["spectrum"]} >= {5}


def test_construct_accepts_plants(tmp_path, capsys):
    crg = tmp_path / "p.crg"
    code, _, err = run(
        capsys, "construct", "--k", "10", "--plant-trace", "11:3",
        "--plant", "LLLLLLLLLR:1", "-o", str(crg),
    )
    assert code == 0
    g = ribbon.deserialize(crg.read_text())
    assert scanner.certify(g, 10).passed


# each plant refusal, at --k 5, with the text of the library gate that
# decides it: the command line only parses a plant
_REFUSED_PLANTS = [
    ("--plant", "L:0", "multiplicity 0 must be a positive integer"),
    ("--plant", "LR:2", "has trace 3, below the floor 5"),
    ("--plant-trace", "2:1", "trace 2 is below 3"),
    ("--plant-trace", "0:1", "trace 0 is below 3"),
    ("--plant-trace", "11:0", "multiplicity 0 must be a positive integer"),
    ("--plant-trace", "11:x", "bad integer 'x' in '11:x'"),
    ("--plant-trace", "1000:1", "planted circuits need 999 vertices, above the admissible budget"),
    # 10**6 letters fit under the cap, so this word is spelled before the budget refuses it
    ("--plant-trace", "1000001:1", "planted circuits need 1000000 vertices, above the admissible budget"),
    ("--plant-trace", "1000002:1", "trace 1000002 needs 1000001 letters, above the cap of 1000000 vertices"),
]


def test_construct_usage_errors(tmp_path, capsys):
    crg = tmp_path / "x.crg"
    code, _, err = run(capsys, "construct", "--k", "5", "--size", "banana", "-o", str(crg))
    assert code == 2
    for flag, value, text in _REFUSED_PLANTS:
        code, out, err = run(capsys, "construct", "--k", "5", flag, value, "-o", str(crg))
        assert code == 2 and out == "", value
        assert err.startswith("construct: ") and text in err, err
    # refused by the letter cap before its 10^14-letter word is spelled
    tracemalloc.start()
    try:
        code, _, err = run(
            capsys, "construct", "--k", "5", "--plant-trace", "99999999999999:1", "-o", str(crg)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "needs 99999999999998 letters, above the cap of 1000000 vertices" in err
    assert peak < 1 << 20, peak
    assert not crg.exists()


def test_verify_failure_lists_findings(tmp_path, capsys):
    crg = tmp_path / "theta.crg"
    crg.write_text(ribbon.serialize(theta_graph(False)), newline="\n")
    code, out, err = run(capsys, "verify", "--k", "5", str(crg))
    assert code == 1 and out == ""
    assert "FAIL" in err and "trace 3" in err


def test_verify_fails_one_floor_above_the_systole(tmp_path, capsys):
    crg = tmp_path / "k5.crg"
    code, _, _ = run(capsys, "construct", "--k", "5", "-o", str(crg))
    assert code == 0
    assert run(capsys, "verify", "--k", "5", str(crg))[0] == 0
    code, _, err = run(capsys, "verify", "--k", "6", str(crg))
    assert code == 1
    assert "trace 5" in err


def test_verify_incomplete_graph(tmp_path, capsys):
    g = ribbon.CubicRibbonGraph(2)
    g.add_edge(0, 3)
    crg = tmp_path / "partial.crg"
    crg.write_text(ribbon.serialize(g), newline="\n")
    code, _, err = run(capsys, "verify", "--k", "5", str(crg))
    assert code == 1
    assert "3-regular" in err


def test_verify_refuses_a_floor_below_3(tmp_path, capsys):
    crg = tmp_path / "theta.crg"
    crg.write_text(ribbon.serialize(theta_graph(False)), newline="\n")
    for k in ("2", "0"):
        code, out, err = run(capsys, "verify", "--k", k, str(crg))
        assert (code, out, err) == (2, "", f"error: floor {k} is below 3\n")


def test_empty_graph_is_a_verification_failure(tmp_path, capsys):
    # no vertices certifies nothing: both commands exit 1 like a graph
    # with free slots, and verify prints no certificate
    crg = tmp_path / "empty.crg"
    crg.write_text(ribbon.serialize(ribbon.CubicRibbonGraph(0)), newline="\n")
    assert crg.read_text() == "CRG 1\n0\n"
    code, out, err = run(capsys, "verify", "--k", "1000", str(crg))
    assert (code, out, err) == (1, "", "verify: graph has no vertices\n")
    code, out, err = run(capsys, "report", str(crg), "--json")
    assert (code, out, err) == (1, "", "report: graph has no vertices\n")


def test_malformed_file_is_exit_3(tmp_path, capsys):
    crg = tmp_path / "bad.crg"
    crg.write_text("CRG 1\n2\n0: 1.0 1.0 -\n1: 0.0 - -\n")
    code, _, err = run(capsys, "verify", "--k", "5", str(crg))
    assert code == 3
    assert "malformed" in err
    code, _, err = run(capsys, "report", str(tmp_path / "missing.crg"))
    assert code == 3
    code, _, err = run(capsys, "construct", "--k", "5", "-o", str(tmp_path / "no" / "g.crg"))
    assert code == 3
    assert "cannot read or write file" in err
    latin = tmp_path / "latin.crg"
    latin.write_bytes(b"CRG 1\n2\n0: 1.0 \xe9 -\n")
    code, _, err = run(capsys, "verify", "--k", "5", str(latin))
    assert code == 3
    assert "not pure ASCII" in err


@pytest.mark.parametrize(
    "text, line",
    [
        ("CRG 1\n" + "9" * 5000 + "\n", 2),  # more digits than int() converts
        ("CRG 1\n" + "9" * 4000 + "\n0: - - -\n", 3),  # a count int() reads, with one vertex line
        ("CRG 1\n1\n0: " + "1" * 5000 + "\n", 3),
        ("CRG 1\n1\n0: - - " + "1" * 3000 + ".0\n", 3),
        ("CRG 1\n1\n0: - - -\n" + "X" * 5000 + "\n", 4),
        ("CRG 1\n1\n0: 0.1 0.0 -\nSEED\n0.0-" + "0" * 5000 + ".1\n", 5),
        ("CRG 1\n1\n0: 0.1 0.0 -\nSEED\n0.0-0.1\n0.0-0.1" + " " * 5000 + "\n", 6),
    ],
    ids=["count", "count-lines", "vertex-line", "slot-token", "content", "seed-token", "seed-line"],
)
def test_long_malformed_text_is_quoted_short(tmp_path, capsys, text, line):
    # a parse error quotes a bounded head of the offending text and states
    # its length, so hostile input cannot flood stderr
    crg = tmp_path / "long.crg"
    crg.write_text(text, newline="\n")
    code, out, err = run(capsys, "verify", "--k", "5", str(crg))
    assert (code, out) == (3, "")
    assert err.startswith(f"malformed input file: line {line}: "), err[:200]
    assert err.count("\n") == 1 and len(err.encode()) < 200, err[:200]
    assert " characters)" in err


def test_recover(capsys):
    code, out, _ = run(capsys, "recover", "--matrix", "2,1,1,1")
    assert code == 0 and out == "LR\n"
    code, out, _ = run(capsys, "recover", "--matrix", "1,0,0,1")
    assert code == 0 and out == "\n"
    code, _, err = run(capsys, "recover", "--matrix", "2,1,1")
    assert code == 2
    code, _, err = run(capsys, "recover", "--matrix", "3,1,1,1")
    assert code == 2 and "determinant" in err


def test_selftest(capsys, monkeypatch):
    code, out, err = run(capsys, "selftest")
    assert code == 0 and out == ""
    assert err.count("ok") == 3

    divisor_counts = census._divisor_counts

    def poisoned_counts(limit):
        tau = divisor_counts(limit)
        # 538 = 11*49 - 1 = 2*269 feeds the a = 11 term of trace 60 (and
        # its mirror a = 49); a divisor count of 2, as for a prime, must
        # be noticed by the triple check
        tau[538] = 2
        return tau

    monkeypatch.setattr(census, "_divisor_counts", poisoned_counts)
    code, _, err = run(capsys, "selftest")
    assert code == 1
    assert "FAIL" in err
    assert "census mismatch" in err
    monkeypatch.undo()

    # every other check's FAIL, forced by a poisoned stand-in for the route it
    # checks: the trial-division divisor count, the word of a matrix for a
    # short word and then only for a long one, the scan and the faces
    divisor_count, word_of_matrix, faces = census.divisor_count, words.word_of_matrix, ribbon.faces
    for passed, module, name, poison, failure in (
        (0, census, "divisor_count", lambda n: divisor_count(n) + (n == 900),
         "census triple oracle to trace 60: FAIL: divisor count mismatch at 900"),
        (1, words, "word_of_matrix", lambda m: word_of_matrix(m)[::-1],
         "word/matrix roundtrips: FAIL: roundtrip failed for 'LR'"),
        (1, words, "word_of_matrix", lambda m: (w := word_of_matrix(m)) + "L" * (len(w) > 10),
         "word/matrix roundtrips: FAIL: roundtrip failed for '[LR]{11,}'"),
        (2, scanner, "low_trace_cycles", lambda g, bound: [],
         re.escape("scanner on the two-vertex graphs: FAIL: pruned scan disagrees with brute force on pairing "
                   "((0, 3), (1, 4), (2, 5))")),
        (2, ribbon, "faces", lambda g: faces(g)[:-1],
         "scanner on the two-vertex graphs: FAIL: face lengths sum to [0-5], expected 6"),
    ):
        with monkeypatch.context() as m:
            m.setattr(module, name, poison)
            code, out, err = run(capsys, "selftest")
        assert (code, out) == (1, ""), name
        assert err.count(": ok\n") == passed, err
        assert re.fullmatch(f"(.*: ok\n)*selftest {failure}\n", err), err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus-subcommand"])
    assert exc.value.code == 2


def test_each_command_parses_as_the_parser_of_every_command(capsys):
    # main builds only the subparser that argv[0] names, and the parser of
    # every command for help, no command or an unknown one; either way the
    # help, usage and error text and the exit code are the full parser's
    def outcome(parse, argv):
        try:
            code = parse(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    table = [[name, "-h"] for name in ("census", "construct", "verify", "report", "recover", "selftest")] + [
        ["construct", "--k", "5"],  # a missing required flag
        ["verify", "--k", "five", "g.crg"],  # a bad int
        ["recover", "--matrix", "2,1,1,1", "extra", "more"],  # extra positionals
        [],
        ["bogus"],
        ["--bogus", "construct"],
    ]
    for argv in table:
        full = outcome(build_parser().parse_args, argv)
        assert full[0] == (0 if argv[1:] == ["-h"] else 2) and full[1] + full[2], argv
        assert outcome(main, argv) == full, argv


def test_outputs_are_byte_identical_across_runs_and_threads(tmp_path, capsys):
    out1, out2 = tmp_path / "a.crg", tmp_path / "b.crg"
    rep1, rep2 = tmp_path / "a.json", tmp_path / "b.json"
    for crg, rep in ((out1, rep1), (out2, rep2)):
        assert main([
            "construct", "--k", "5", "--seed", "11", "-o", str(crg), "--report", str(rep),
        ]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert rep1.read_bytes() == rep2.read_bytes()

    texts = []
    for threads in ("1", "3"):
        code, out, _ = run(capsys, "report", str(out1), "--json", "--threads", threads)
        assert code == 0
        texts.append(out)
    assert texts[0] == texts[1]


def _reflagged(g, flagged):
    """A copy of g whose seed edges are exactly ``flagged``."""
    h = ribbon.CubicRibbonGraph(g.num_vertices)
    for a, b in edges(g):
        h.add_edge(a, b, seed=(a, b) in flagged)
    return h


def _seed_path(g, length):
    """Edges of a path from vertex 0 that never revisits a vertex."""
    pair = g.pair_table()
    path, visited, v = set(), {0}, 0
    while len(path) < length:
        s = next(s for s in range(3 * v, 3 * v + 3) if pair[s] // 3 not in visited)
        path.add((min(s, pair[s]), max(s, pair[s])))
        v = pair[s] // 3
        visited.add(v)
    return path


def test_seed_flags_never_change_an_answer(tmp_path, capsys):
    # the scan reads the SEED section only to choose its starts, so verify
    # and report give the same bytes and exit code with the section removed
    builds = {k: builder.build(builder.SeedSpec(k=k))[0] for k in (5, 8, 12)}
    k8 = builds[8]
    third_slot = next(e for e in edges(k8) if e[0] // 3 == 0 and e not in seed_edges(k8))
    three_seed_slots = _reflagged(k8, {*seed_edges(k8), third_slot})
    assert all(three_seed_slots.seed_table()[:3])
    letter_powers = complete(circuit_graph(["L" * 5] * 4), 5)
    cases = [
        *((g, k) for k, g in builds.items()),
        (_reflagged(k8, _seed_path(k8, 6)), 8),
        (three_seed_slots, 8),
        (letter_powers, 5),
    ]
    crg = tmp_path / "g.crg"
    for g, k in cases:
        text = ribbon.serialize(g)
        assert "\nSEED\n" in text
        runs = []
        for variant in (text, text[: text.index("SEED\n")]):
            crg.write_text(variant, newline="\n")
            runs.append([
                run(capsys, "verify", "--k", str(k), str(crg)),
                run(capsys, "verify", "--k", str(k + 1), str(crg)),
                run(capsys, "report", str(crg), "--json"),
            ])
        assert runs[0] == runs[1]
        assert [code for code, _, _ in runs[0]] == [0, 1, 0]


def test_construct_serializes_once_and_writes_the_hashed_bytes(tmp_path, capsys, monkeypatch):
    calls = []
    original = ribbon.serialize

    def counting(g):
        calls.append(1)
        return original(g)

    monkeypatch.setattr(ribbon, "serialize", counting)
    crg, rep = tmp_path / "g.crg", tmp_path / "g.json"
    code, _, _ = run(capsys, "construct", "--k", "6", "--seed", "3", "-o", str(crg), "--report", str(rep))
    assert code == 0
    assert len(calls) == 1
    report = json.loads(rep.read_text())
    assert hashlib.sha256(crg.read_bytes()).hexdigest() == report["output_sha"]


def test_construct_reproduces_the_benchmark_pins(tmp_path, capsys):
    # the digests that the benchmark gates its construct workload on, read
    # as they are: a byte change in the .crg or --report output fails here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "pins.json"), encoding="ascii") as fh:
        pinned = json.load(fh)["construct"]
    assert sorted(pinned, key=int) == [str(layout) for layout in range(8)]
    for layout, want in pinned.items():
        crg, rep = tmp_path / f"{layout}.crg", tmp_path / f"{layout}.json"
        code, _, _ = run(capsys, "construct", "--k", "16", "--size", "min", "--seed", layout,
                         "-o", str(crg), "--report", str(rep))
        assert code == 0
        assert hashlib.sha256(crg.read_bytes()).hexdigest() == want["crg"], layout
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == want["report"], layout


def test_census_reproduces_the_benchmark_pin(capsys):
    # the digest that the benchmark gates its census workload on, read as
    # it is: a byte change in the checked trace-300 CSV fails here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "pins.json"), encoding="ascii") as fh:
        pinned = json.load(fh)["census"]
    code, out, err = run(capsys, "census", "--max-trace", "300", "--check")
    assert code == 0, err
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == pinned


def _fresh_python(cwd, *args, preexec_fn=None):
    """``python *args`` in a new interpreter that imports ``systolic`` from
    this source tree, so that no module the tests have loaded carries over."""
    src = os.path.dirname(os.path.dirname(scanner.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env=env, capture_output=True, text=True, preexec_fn=preexec_fn, timeout=60,
    )


def _run_under_an_address_space_limit(tmp_path, argv):
    """``systolic *argv`` in a child process limited to 1 GiB of address space."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return _fresh_python(tmp_path, "-m", "systolic.cli", *argv, preexec_fn=limit)


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--k", "200000", "-o", "x.crg"],
        ["census", "--max-trace", "1000000"],
        ["construct", "--k", "5", "--size", "2000000000", "-o", "x.crg"],
        ["construct", "--k", "1000", "-o", "x.crg"],
    ],
)
def test_oversized_sieves_exit_two_under_an_address_space_limit(tmp_path, argv):
    # the sieve and graph-size caps refuse before allocating, so a 1 GiB
    # limit is never hit
    done = _run_under_an_address_space_limit(tmp_path, argv)
    assert done.returncode == 2, done.stderr
    assert "exceeds the cap" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "x.crg").exists()


def test_crg_over_the_vertex_cap_exits_three_under_an_address_space_limit(tmp_path):
    # a well-formed file one vertex over the cap (about 14 MB) is refused
    # before its slot tables are allocated, so a 1 GiB limit is never hit
    n = ribbon.MAX_VERTICES + 1
    (tmp_path / "big.crg").write_text(f"CRG 1\n{n}\n" + "".join(f"{v}: - - -\n" for v in range(n)))
    for argv in (["verify", "--k", "5", "big.crg"], ["report", "big.crg"]):
        done = _run_under_an_address_space_limit(tmp_path, argv)
        assert done.returncode == 3, done.stderr
        assert done.stderr == f"malformed input file: line 2: vertex count {n} exceeds the cap of {n - 1} vertices\n"
        assert done.stdout == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--k", "385"],
        ["construct", "--k", "385", "--plant-trace", "7:1"],
    ],
)
def test_floors_above_the_cap_exit_two_before_the_tree_is_built(tmp_path, capsys, argv):
    # the floor cap is checked before the forbidden-word tree, which for
    # k = 385 would hold 501051 nodes, several MiB in its lists alone
    target = tmp_path / "x.crg"
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "-o", str(target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2, err
    assert err == "construct: floor 385 exceeds the cap of 384, the last floor that fits in 1000000 vertices\n"
    assert out == ""
    assert not target.exists()
    assert peak < 1 << 20, peak


def test_a_floor_below_three_is_refused_before_the_plant_budget(tmp_path, capsys):
    target = tmp_path / "x.crg"
    code, out, err = run(capsys, "construct", "--k", "-5", "--plant-trace", "5:1", "-o", str(target))
    assert code == 2
    assert err == "construct: floor k=-5 must be an integer >= 3\n"
    assert "budget" not in err
    assert out == "" and not target.exists()


def test_every_test_runs_under_an_address_space_limit():
    # the suite's conftest lowers the soft limit at session start, so a
    # runaway allocation fails its test instead of exhausting the host
    resource = pytest.importorskip("resource")
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= TEST_ADDRESS_LIMIT_BYTES
    with pytest.raises(MemoryError):
        bytearray(TEST_ADDRESS_LIMIT_BYTES)


@pytest.mark.parametrize(
    "matrix",
    # L^(10^12), spelled whole; L^(10^12) R, peeled one letter at a time
    ["1,1000000000000,0,1", "1000000000001,1000000000000,1,1"],
)
def test_huge_words_exit_two_under_an_address_space_limit(tmp_path, matrix):
    # the word cap refuses both long before memory or the timeout runs out
    done = _run_under_an_address_space_limit(tmp_path, ["recover", "--matrix", matrix])
    assert done.returncode == 2, done.stderr
    assert f"more than {words.MAX_WORD_LETTERS} letters" in done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout == ""


def test_fuzzed_crg_text_never_raises(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    crg = tmp_path / "g.crg"
    assert main(["construct", "--k", "5", "-o", str(crg)]) == 0
    base = crg.read_text()
    alphabet = "0123456789.-: \nSEEDCRG"
    edit = st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.integers(0, len(base)),
        st.sampled_from(alphabet),
    )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(edit, min_size=1, max_size=4))
    def check(edits):
        text = base
        for op, at, ch in edits:
            at = min(at, len(text))
            if op == "insert":
                text = text[:at] + ch + text[at:]
            elif op == "replace":
                text = text[:at] + ch + text[at + 1 :]
            else:
                text = text[:at] + text[at + 1 :]
        crg.write_text(text)
        # the parser accepts exactly serialize's texts, and both commands
        # end every other text with exit 3, never with a usage error or a
        # traceback
        try:
            graph = ribbon.deserialize(text)
        except ribbon.CrgParseError:
            codes = {3}
        else:
            assert ribbon.serialize(graph) == text
            codes = {0, 1}
        assert main(["verify", "--k", "3", str(crg)]) in codes
        assert main(["report", str(crg)]) in codes
        capsys.readouterr()

    check()


# Run by a fresh interpreter: ``cli.main(sys.argv[1:])`` (nothing for an
# empty argv), then one JSON line with the exit code, the loaded
# ``systolic.*`` modules and which of ``_STDLIB`` were loaded, read before
# the script imports json for that line.
_STDLIB = ("dataclasses", "fractions", "json")
_FOOTPRINT = f"""
import contextlib, io, sys
import systolic, systolic.cli
argv = sys.argv[1:]
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = systolic.cli.main(argv)
stdlib = [m for m in {_STDLIB!r} if m in sys.modules]
import json
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("systolic.")), stdlib]))
"""


# id -> (argv, the systolic modules loaded, which of _STDLIB are loaded);
# the README's start-up table states the same, checked by test_readme.py
SUBCOMMAND_IMPORTS = {
    "import": ([], {"cli"}, set()),
    "census": (["census", "--max-trace", "20"], {"cli", "census"}, set()),
    "recover": (["recover", "--matrix", "2,1,1,1"], {"cli", "words"}, set()),
    "verify": (["verify", "--k", "5", "g.crg"], {"cli", "ribbon", "scanner", "words"}, set()),
    "report": (["report", "g.crg", "--json"], {"cli", "ribbon", "scanner", "words"}, {"fractions", "json"}),
    "construct": (["construct", "--k", "5", "-o", "out.crg"], {"cli", "builder", "ribbon", "words"}, set()),
    "construct-report": (
        ["construct", "--k", "5", "-o", "out.crg", "--report", "out.json"],
        {"cli", "builder", "ribbon", "words"},
        {"json"},
    ),
    "selftest": (["selftest"], {"cli", "census", "ribbon", "scanner", "words"}, set()),
}


@pytest.mark.parametrize("argv, loaded, stdlib", SUBCOMMAND_IMPORTS.values(), ids=list(SUBCOMMAND_IMPORTS))
def test_each_subcommand_imports_only_the_modules_it_runs(tmp_path, argv, loaded, stdlib):
    # a one-shot process pays for every module it imports: census loads
    # census alone, verify and report never load the builder or the census,
    # construct loads neither the scanner nor the census (its size bound
    # is read off the builder's own tree), and recover needs only words; no
    # command loads dataclasses, only report loads fractions, and only the
    # commands that write JSON load json
    (tmp_path / "g.crg").write_text(ribbon.serialize(builder.build(builder.SeedSpec(k=5))[0]))
    done = _fresh_python(tmp_path, "-c", _FOOTPRINT, *argv)
    assert done.returncode == 0, done.stderr
    code, modules, stdlib_loaded = json.loads(done.stdout)
    assert code == (0 if argv else None)
    assert set(modules) == {f"systolic.{name}" for name in loaded}
    assert set(stdlib_loaded) == stdlib


def test_package_exports_resolve_lazily_to_their_home_objects(tmp_path):
    # PEP 562: a fresh ``import systolic`` loads no library module and lists
    # every export; reading a name imports its home module and caches the
    # very object that module holds; any other name is an AttributeError
    code = """
import importlib, json, sys
import systolic
report = {"loaded": sorted(m for m in sys.modules if m.startswith("systolic.")),
          "listed": sorted(set(systolic.__all__) - set(dir(systolic))),
          "eager": sorted(set(systolic.__all__) & set(vars(systolic))), "wrong": []}
for name in systolic.__all__:
    value = getattr(systolic, name)
    home = importlib.import_module(value.__module__)
    if not (value.__module__.startswith("systolic.") and value is getattr(home, name)
            and vars(systolic)[name] is value and getattr(systolic, name) is value):
        report["wrong"].append(name)
star = {}
exec("from systolic import *", star)
report["star"] = sorted(set(systolic.__all__) - set(star))
report["unknown"] = hasattr(systolic, "no_such_name")
try:
    systolic.no_such_name
except AttributeError as exc:
    report["message"] = str(exc)
print(json.dumps(report))
"""
    done = _fresh_python(tmp_path, "-c", code)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "loaded": [], "listed": [], "eager": [], "wrong": [], "star": [], "unknown": False,
        "message": "module 'systolic' has no attribute 'no_such_name'",
    }


@pytest.mark.parametrize(
    "content",
    [
        b"CRG 1\n2\n0: 1.0 1.0 -\n1: 0.0 - -\n",
        b"CRG 1\n2\n0: 1.0 \xe9 -\n",
        b"CRG 1\n" + b"9" * 5000 + b"\n",  # more digits than int() converts
    ],
    ids=["malformed", "non-ascii", "huge-count"],
)
def test_hostile_crg_exits_three_in_a_fresh_process(tmp_path, content):
    # the parse error is recognised without importing ribbon up front; an
    # in-process test cannot see a fault there, since pytest has long
    # loaded every module
    (tmp_path / "bad.crg").write_bytes(content)
    for argv in (["verify", "--k", "5", "bad.crg"], ["report", "bad.crg", "--json"]):
        done = _fresh_python(tmp_path, "-m", "systolic.cli", *argv)
        assert done.returncode == 3, done.stderr
        assert "malformed input file" in done.stderr
        assert "Traceback" not in done.stderr
        assert done.stdout == ""
