"""One benchmark segment in a fresh process.

Usage: python3 perfbench/worker.py JOB_JSON

The job (written by run.py) names the repository root, the monotonic clock
reading taken just before this process was started, the input files with
their expected SHA-256, and a list of operations.  Each operation is one
``systolic`` argument vector with the expected exit code and the expected
digests of its outputs (files, or the captured ``stdout`` / ``stderr``).

Set-up is everything up to the first operation: interpreter start,
``import systolic`` and the input digest checks.  One calibrate() follows
it, to scale it by.  With ``"setup_only"`` the worker stops there.  Otherwise, with ``"warmup"``, it runs the first
operation once untimed, then runs the operations in turn, each one call of
``systolic.cli.main`` timed on its own, until ``seconds`` have passed and
every operation has run at least once.  Outputs are checked after every
call.  With ``"trace"`` the tracer wraps each timed call and the per-layer
metrics of each call are returned.  The result is printed as one JSON line.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The work mixes what the pipeline does most: an integer stack walk over a
    binary tree of 2x2 matrices, and dict/list/set traffic over a fixed
    cubic permutation graph.  It never changes, so the ratio of an
    operation's time to it cancels how fast the shared host runs at that
    moment but keeps every change to the program.
    """
    start = time.perf_counter()
    nodes, stack = 0, [(1, 0, 0, 1, 0)]
    while stack:
        a, b, c, d, depth = stack.pop()
        if depth == 139:
            continue
        for na, nb, nc, nd in ((a, a + b, c, c + d), (a + b, b, c + d, d)):
            if na + nd <= 140:
                nodes += 1
                stack.append((na, nb, nc, nd, depth + 1))
    n = 3000
    succ = {v: ((v * 7 + 1) % n, (v * 11 + 5) % n, (v * 13 + 8) % n) for v in range(n)}
    reached = 0
    for source in range(0, n, 250):
        seen, frontier = {source}, [source]
        while frontier:
            frontier = [w for v in frontier for w in succ[v] if w not in seen and not seen.add(w)]
        reached += len(seen)
    if (nodes, reached) != (55066, 18000):
        raise RuntimeError(f"calibration work went wrong: {nodes} nodes, {reached} reached")
    return time.perf_counter() - start


def run_op(cli, op: dict, tracer) -> tuple[float, list[str], dict | None]:
    """One call of cli.main: (wall seconds, errors, --report JSON or None)."""
    streams = {"stdout": io.StringIO(), "stderr": io.StringIO()}
    for path in op["outputs"]:
        if path not in streams and os.path.exists(path):
            os.remove(path)
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(streams["stdout"]), contextlib.redirect_stderr(streams["stderr"]):
            start = time.perf_counter()
            code = cli.main(op["argv"])
            wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    errors = []
    if code != op["exit"]:
        errors.append(f"{op['argv'][0]}: exit code {code}, expected {op['exit']}: "
                      f"{streams['stderr'].getvalue().strip()[-300:]}")
    digests = {}
    for path, expected in op["outputs"].items():
        got = sha256_text(streams[path].getvalue()) if path in streams else (
            sha256_file(path) if os.path.exists(path) else "missing")
        digests[path] = got
        if got != expected:
            errors.append(f"{op['argv'][0]}: {os.path.basename(path)} has sha {got}, pinned {expected}")
    build_report = None
    if op.get("build_report"):
        with open(op["build_report"], encoding="ascii") as fh:
            build_report = json.load(fh)
        if build_report["output_sha"] != digests.get(op["crg"]):
            errors.append("construct --report output_sha differs from the .crg digest")
    return wall_s, errors, build_report


def run(job: dict) -> dict:
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import systolic
    from systolic import cli

    if os.path.dirname(os.path.dirname(os.path.abspath(systolic.__file__))) != os.path.abspath(src):
        raise RuntimeError(f"imported systolic from {systolic.__file__}, not from {src}")
    errors = []
    for path, expected in job["inputs"]:
        got = sha256_file(path) if os.path.exists(path) else "missing"
        if got != expected:
            errors.append(f"input {os.path.basename(path)} has sha {got}, pinned {expected}")
    setup_s = time.monotonic() - job["t0"]
    result = {"setup_s": setup_s, "setup_cal_s": calibrate(), "errors": errors, "attempted": 0, "failed": 0,
              "times": [], "layers": []}
    if job.get("setup_only") or errors:
        return result

    tracer = None
    if job.get("trace"):
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    ops = job["ops"]

    def attempt(index: int, timed: bool) -> None:
        cal_s = calibrate()
        if tracer is not None:
            tracer.spans.clear()
        wall_s, op_errors, build_report = run_op(cli, ops[index], tracer if timed else None)
        result["attempted"] += 1
        if op_errors:
            result["failed"] += 1
            errors.extend(op_errors)
        elif timed:
            result["times"].append([index, wall_s, cal_s])
            if tracer is not None:
                result["layers"].append([index, cal_s, layer_metrics(tracer.spans, build_report)])

    if job.get("warmup"):
        attempt(0, timed=False)
    deadline = time.monotonic() + job["seconds"]
    done = 0
    while done < len(ops) or time.monotonic() < deadline:
        attempt(done % len(ops), timed=True)
        done += 1
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and job.get("spans"):
        tracer.write_spans(job["spans"])
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
