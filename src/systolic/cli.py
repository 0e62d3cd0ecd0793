"""Command line interface.

Subcommands: census, construct, verify, report, recover, selftest.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 malformed
input file or a file that cannot be read or written.  Machine output goes
to stdout or the -o path; everything else goes to stderr.  All randomness
flows from --seed (default 0), and repeated invocations with equal flags
produce byte-identical output.

Each subcommand imports the library modules it runs, and no others: at
small sizes a one-shot command spends about as long importing as working.

The command line parses and the library decides: a flag's text becomes an
int or a word here, and every rule on its value (a plant's trace,
multiplicity and vertex budget, a floor, a scan bound) is checked by the
library's one gate for it, whose ValueError ends in exit 2.
"""

from __future__ import annotations

import argparse
import sys

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BADFILE = 3


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _load_graph(args) -> ribbon.CubicRibbonGraph | None:
    """The graph of ``args.file`` for verify and report to scan, or None
    once the reason it cannot be scanned is printed (exit 1): a scan needs
    a 3-regular graph with at least one vertex."""
    from . import ribbon

    # latin-1 decodes every byte, so non-ASCII input reaches deserialize's check
    with open(args.file, "r", encoding="latin-1", newline="") as fh:
        graph = ribbon.deserialize(fh.read())
    if graph.num_vertices and graph.is_complete():
        return graph
    problem = "is not 3-regular" if graph.num_vertices else "has no vertices"
    print(f"{args.command}: graph {problem}", file=sys.stderr)
    return None


def _json_text(obj) -> str:
    # imported here, since only report --json and construct --report write JSON
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_census(args) -> int:
    from . import census

    try:
        table = census.CensusTable.build(args.max_trace, check=args.check)
    except census.CensusMismatch as exc:
        print(f"census check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    _write_output(table.to_csv(), args.output)
    return EXIT_OK


def _parse_plants(args) -> tuple[builder.Plant, ...]:
    from . import builder

    plants: list[builder.Plant] = []
    for text in args.plant or []:
        word, _, mult = text.partition(":")
        plants.append(builder.Plant(word=word, multiplicity=_int(mult, text)))
    for text in args.plant_trace or []:
        trace_s, _, mult = text.partition(":")
        trace, multiplicity = _int(trace_s, text), _int(mult, text)
        plants.append(builder.Plant(word=builder.word_for_trace(trace), multiplicity=multiplicity))
    return tuple(plants)


def _int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad integer {text!r} in {context!r}") from None


def _cmd_construct(args) -> int:
    try:
        size = None if args.size == "min" else int(args.size)
    except ValueError:
        print(f"--size must be an integer or 'min', got {args.size!r}", file=sys.stderr)
        return EXIT_USAGE
    from . import builder

    try:
        spec = builder.SeedSpec(
            k=args.k, plants=_parse_plants(args), size=size, rng_seed=args.seed,
            strict_seed_trace=args.strict_seed_trace,
        )
        _, report, crg = builder.build(spec)
    except ValueError as exc:
        print(f"construct: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(crg, args.output)
    if args.report:
        _write_output(_json_text(report.to_json_dict()), args.report)
    print(
        f"constructed {report.vertices} vertices, {report.edges} edges "
        f"({report.case1} direct joins, {report.case2} swaps)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import scanner

    if (graph := _load_graph(args)) is None:
        return EXIT_VERIFY
    result = scanner.certify(graph, args.k)
    if result.passed:
        print(
            f"certified: no essential cycle class below trace {args.k}; "
            f"all faces have >= {args.k} edges",
            file=sys.stderr,
        )
        return EXIT_OK
    for finding in result.findings():
        print(f"FAIL: {finding}", file=sys.stderr)
    return EXIT_VERIFY


def _cmd_report(args) -> int:
    from . import scanner

    if (graph := _load_graph(args)) is None:
        return EXIT_VERIFY
    rep = scanner.report(graph, spectrum_max=args.spectrum_max)
    text = _json_text(rep.to_json_dict()) if args.json else rep.to_text()
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_recover(args) -> int:
    from . import words

    try:
        word = words.word_of_matrix(words.UniMat.parse(args.matrix))
    except ValueError as exc:
        print(f"recover: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(word + "\n")
    return EXIT_OK


def _selftest_census() -> str | None:
    from . import census

    try:
        census.CensusTable.build(60, check=True)
    except census.CensusMismatch as exc:
        return str(exc)
    for n, count in enumerate(census._divisor_counts(60 * 60 // 4)[1:], 1):
        if count != census.divisor_count(n):
            return f"divisor count mismatch at {n}"
    return None


def _selftest_words() -> str | None:
    import random

    from . import words

    rng = random.Random(0)
    for length in range(11):
        for bits in range(2**length):
            word = "".join("L" if bits >> i & 1 else "R" for i in range(length))
            if words.word_of_matrix(words.matrix_of(word)) != word:
                return f"roundtrip failed for {word!r}"
    for _ in range(500):
        word = "".join(rng.choice("LR") for _ in range(rng.randint(0, 40)))
        if words.word_of_matrix(words.matrix_of(word)) != word:
            return f"roundtrip failed for {word!r}"
    return None


def _naive_cycle_classes(g, max_len: int, max_trace: int):
    """Brute-force closed-walk classes: follow every letter sequence from
    every dart and keep the ones that come back to their start."""
    import itertools

    from . import ribbon, scanner, words

    pair = g.pair_table()
    turn = {"L": ribbon.succ, "R": ribbon.pred}
    found: dict[tuple[int, ...], str] = {}
    for length in range(1, max_len + 1):
        for letters in itertools.product("LR", repeat=length):
            word = "".join(letters)
            if words.trace_of(word) > max_trace:
                continue
            for d0 in range(len(pair)):
                walk = [d0]
                for ch in letters:
                    walk.append(turn[ch](pair[walk[-1]]))
                if walk.pop() != d0:
                    continue
                canon = scanner.canonical_walk(tuple(walk), g)
                found.setdefault(canon, words.canonical(word))
    return scanner._group_classes(found)


def _selftest_scanner() -> str | None:
    from . import ribbon, scanner

    for pairing in (((0, 3), (1, 4), (2, 5)), ((0, 3), (1, 5), (2, 4))):
        g = ribbon.CubicRibbonGraph(2)
        for a, b in pairing:
            g.add_edge(a, b)
        fast = scanner.low_trace_cycles(g, 8)
        if fast != _naive_cycle_classes(g, 7, 8):
            return f"pruned scan disagrees with brute force on pairing {pairing}"
        total = sum(len(f) for f in ribbon.faces(g))
        if total != 6:
            return f"face lengths sum to {total}, expected 6"
    return None


def _cmd_selftest(args) -> int:
    for name, fn in (
        ("census triple oracle to trace 60", _selftest_census),
        ("word/matrix roundtrips", _selftest_words),
        ("scanner on the two-vertex graphs", _selftest_scanner),
    ):
        if failure := fn():
            print(f"selftest {name}: FAIL: {failure}", file=sys.stderr)
            return EXIT_VERIFY
        print(f"selftest {name}: ok", file=sys.stderr)
    return EXIT_OK


_THREADS = {"--threads": dict(type=int, metavar="N", help="accepted for compatibility; no effect")}
# name -> (help, handler, {flags: keywords} in help order)
_COMMANDS = {
    "census": ("count matrices by trace, as CSV", _cmd_census, {
        "--max-trace": dict(type=int, required=True, metavar="M"),
        "--check": dict(action="store_true", help="cross-check three counting routes"),
        "-o --output": dict(metavar="PATH"),
    }),
    "construct": ("build a certified graph from a seed spec", _cmd_construct, {
        "--k": dict(type=int, required=True, help="trace floor"),
        "--plant": dict(action="append", metavar="WORD:MULT"),
        "--plant-trace": dict(action="append", metavar="T:MULT"),
        "--size": dict(default="min", metavar="N|min"),
        "--seed": dict(type=int, default=0, help="layout seed (default 0)"),
        "--strict-seed-trace": dict(action="store_true", help="reject letter-power plants even when long enough"),
        "-o --output": dict(required=True, metavar="FILE.crg"),
        "--report": dict(metavar="FILE.json"),
    }),
    "verify": ("exit 0 iff the graph certifies at floor K", _cmd_verify, {
        "--k": dict(type=int, required=True), **_THREADS, "file": dict(metavar="FILE.crg"),
    }),
    "report": ("genus, girth, systole and spectrum of a graph", _cmd_report, {
        "file": dict(metavar="FILE.crg"),
        "--spectrum-max": dict(type=int, metavar="T"),
        "--json": dict(action="store_true"),
        **_THREADS,
        "-o --output": dict(metavar="PATH"),
    }),
    "recover": ("factor a matrix back into its word", _cmd_recover, {"--matrix": dict(required=True, metavar="a,b,c,d")}),
    "selftest": ("run the built-in oracle suites", _cmd_selftest, {}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone with the same text."""
    parser = argparse.ArgumentParser(
        prog="systolic",
        description="Construct and certify cubic ribbon graphs with a floor on the systole trace.",
    )
    # a lone subparser's usage line still names every choice
    metavar = None if command is None else "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        text, fn, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        for flags, keywords in arguments.items():
            p.add_argument(*flags.split(), **keywords)
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"cannot read or write file: {exc}", file=sys.stderr)
        return EXIT_BADFILE
    except ValueError as exc:
        # a CrgParseError exists only once the ribbon module has loaded
        ribbon = sys.modules.get(f"{__package__}.ribbon")
        if ribbon is not None and isinstance(exc, ribbon.CrgParseError):
            print(f"malformed input file: {exc}", file=sys.stderr)
            return EXIT_BADFILE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
