"""Pipeline benchmark for systolic: construct, verify, report and census.

Usage:
    python3 perfbench/run.py --workload construct|verify|report|census|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload is a fixed list of
``systolic`` commands, run as a closed loop with one client: the next
command starts when the previous one has ended.  A run is SEGMENTS worker
processes (worker.py) one after the other, each measuring for 1/SEGMENTS of
``--seconds`` (default: ``run_seconds`` of BENCHMARK.json).  A worker
imports ``systolic`` from ``src/``, runs the first command once as warm-up
and then calls ``systolic.cli.main`` in-process for each command in turn,
timing every call, until its share of the time has passed and every command
has run.  One process generates all the load.

Workloads (flags as given):
    construct  construct --k 16 --size min --seed L -o ... --report ...
               for the layouts L = 0..7; builder only, no scanner code
    verify     verify --k 24 --threads 2 g24.crg     one deep scan, all pruning
    report     report g16.crg --spectrum-max 18 --json --threads 2
               15 scans that find closures: systole deepening plus spectrum
    census     census --max-trace 300 --check       word-tree walk and sieve
The sizes keep one command below a second, so that a run holds tens of
timed calls and every worker samples many moments of the host.
The command set does not depend on ``--seed``; the seed rotates the order
of the construct layouts.  Picking the layout or the graph from the seed
moves the time by up to a factor of two, which would swamp the bounds.
g16.crg and g24.crg are the layout-0 ``--size min`` graphs.  They are built
once per checkout into .bench_build/perfbench/, outside every timed call
and every set-up measurement, and each worker checks their digest first.

Every output is gated against the digests in pins.json, produced by commit
293f660: each construct .crg (equal to its output_sha) and --report JSON,
the report JSON, the census CSV, and the verify exit code and message.
Since a verify that passes finds nothing, each verify run also makes one
control call in its own process: ``verify --k 25`` on g24, whose systole
trace is 24, must exit 1 and print the pinned findings (a trace-24 class
found at the deepest level of the scan, and a 24-edge face).  A nonzero or
unexpected exit, an exception or a digest mismatch fails the operation.

Timing on a shared host: the reference host (a 2-vCPU virtual machine on a
shared physical host) runs the same Python code up to 1.6 times slower for
stretches of seconds to minutes, CPU time included and with no steal time
recorded, and set-up time moves with it.  Neither longer runs nor CPU time
make raw times steady enough to judge a 25 % bound.  So each worker runs
calibrate(), a fixed piece of pure-Python work, just before every call and
divides the call's wall time by its time.  A change to the program shows in
that ratio in full, while the host's speed largely cancels out.  Scaled by
CAL_REF_S, the ratio reads as seconds at the reference host's faster speed.
Set-up is scaled the same way.  The summary line also prints the raw times.

--trace 0 prints the end-to-end metrics:
    norm_pass_s   seconds for one pass over the workload's commands: the sum,
                  over its commands, of the median of that command's calls,
                  each call's wall time scaled by CAL_REF_S / calibrate()
    setup_s       median, over every worker plus SETUP_PROBES set-up-only
                  processes before each worker, of the time from process
                  start to the first command (interpreter, ``import
                  systolic``, input digest checks), each scaled by
                  CAL_REF_S / one calibrate() run right after it
    peak_rss_mib  median over the workers of their ru_maxrss
    ok_share      1 - fail_share, the share of operations that succeeded
--trace 1 runs traced calls only and prints the per-layer metrics of
tracer.py, summed over one pass (times: per-command medians, scaled as for
norm_pass_s); the spans of the last traced call go to
.bench_build/perfbench/spans/.  Count metrics must repeat exactly across
the traced calls of a command and across traced runs of the same source
tree, or the run is not correct.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import add_ratios
from worker import sha256_file

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("construct", "verify", "report", "census")
SEGMENTS = 4
SETUP_PROBES = 3
BUILD_TIMEOUT_S = 300  # building one input graph, once per checkout
RUN_LIMIT_S = 150  # the measuring part of a run, whatever the program does
# calibrate() in worker.py takes about this long on the reference host
# (2-vCPU Xeon virtual machine, Python 3.11.7) in its faster phases
CAL_REF_S = 0.03


def prepare_graph(k: int, pinned: str) -> str:
    """The layout-0 ``--size min`` graph at floor k, built once per checkout."""
    path = os.path.join(CACHE, f"g{k}.crg")
    if os.path.exists(path) and sha256_file(path) == pinned:
        return path
    tmp = path + ".tmp"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, "-m", "systolic.cli",
         "construct", "--k", str(k), "--size", "min", "--seed", "0", "-o", tmp],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=BUILD_TIMEOUT_S, check=False,
    )
    if os.path.exists(tmp):
        os.replace(tmp, path)
    return path


def make_job(workload: str, seed: int, pins: dict) -> dict:
    job = {"root": ROOT, "inputs": [], "warmup": True,
           "spans": os.path.join(CACHE, "spans", f"{workload}.jsonl")}
    if workload == "construct":
        layouts = sorted(pins["construct"], key=int)
        start = seed % len(layouts)
        job["ops"] = []
        for layout in layouts[start:] + layouts[:start]:
            crg = os.path.join(CACHE, "work", f"construct-{layout}.crg")
            rep = os.path.join(CACHE, "work", f"construct-{layout}.json")
            job["ops"].append({
                "key": f"layout-{layout}", "exit": 0, "crg": crg, "build_report": rep,
                "argv": ["construct", "--k", "16", "--size", "min", "--seed", layout,
                         "-o", crg, "--report", rep],
                "outputs": {crg: pins["construct"][layout]["crg"],
                            rep: pins["construct"][layout]["report"]},
            })
    elif workload == "verify":
        g24 = prepare_graph(24, pins["g24"])
        job["inputs"] = [(g24, pins["g24"])]
        job["ops"] = [{"key": "verify", "exit": 0, "argv": ["verify", "--k", "24", "--threads", "2", g24],
                       "outputs": {"stderr": pins["verify_stderr"]}}]
        job["control"] = dict(job, warmup=False, seconds=0, ops=[{
            "key": "control", "exit": 1, "argv": ["verify", "--k", "25", "--threads", "2", g24],
            "outputs": {"stderr": pins["g24_floor25_stderr"]}}])
    elif workload == "report":
        g16 = prepare_graph(16, pins["construct"]["0"]["crg"])
        job["inputs"] = [(g16, pins["construct"]["0"]["crg"])]
        job["ops"] = [{"key": "report", "exit": 0,
                       "argv": ["report", g16, "--spectrum-max", "18", "--json", "--threads", "2"],
                       "outputs": {"stdout": pins["report"]}}]
    else:
        job["ops"] = [{"key": "census", "exit": 0, "argv": ["census", "--max-trace", "300", "--check"],
                       "outputs": {"stdout": pins["census"]}}]
    return job


def run_worker(job: dict, deadline: float) -> dict:
    """One worker process, killed at the deadline; a crash or timeout fails
    one operation."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(dict(job, t0=t0))],
            cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        return {"errors": [f"worker killed after {RUN_LIMIT_S} s of run time"], "attempted": 1,
                "failed": 1, "timeout": True}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"errors": [f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"],
                "attempted": 1, "failed": 1}
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "systolic")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def check_counts(workload: str, counts: dict[str, dict]) -> list[str]:
    """Compare each command's exact counts with earlier traced runs of this
    source tree; the first traced run records them."""
    path = os.path.join(CACHE, "counts", f"{workload}-{source_digest()}.json")
    if not os.path.exists(path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
        return []
    with open(path, encoding="ascii") as fh:
        earlier = json.load(fh)
    return [f"{key} {name} is {value}, an earlier traced run counted {earlier.get(key, {}).get(name)}"
            for key, named in counts.items() for name, value in named.items()
            if earlier.get(key, {}).get(name) != value]


def layer_values(job: dict, workers: list[dict], units: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one pass.  Times are per-command medians, scaled
    like norm_pass_s by the calibration run before each call; counts must
    agree across every traced call of a command."""
    by_op: dict[int, list[dict]] = {}
    for worker in workers:
        for index, cal_s, layers in worker.get("layers", []):
            by_op.setdefault(index, []).append(
                {name: value * CAL_REF_S / cal_s if units.get(name) == "s" else value
                 for name, value in layers.items()})
    problems, counts, total = [], {}, {}
    for index, calls in sorted(by_op.items()):
        key = job["ops"][index]["key"]
        exact = [name for name in calls[0] if units.get(name) != "s"]
        counts[key] = {name: calls[0][name] for name in exact}
        problems += [f"{key} {name} differs between traced calls"
                     for name in exact for call in calls[1:] if call[name] != counts[key][name]]
        for name in calls[0]:
            value = (counts[key][name] if name in exact
                     else statistics.median(call[name] for call in calls))
            total[name] = total.get(name, 0) + value
    if not problems:
        problems = check_counts(job["key"], counts)
    return add_ratios(total), problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, pins: dict):
    """Returns (summary line, result object) for one workload."""
    for sub in ("work", "spans", "counts"):
        os.makedirs(os.path.join(CACHE, sub), exist_ok=True)
    job = dict(make_job(workload, seed, pins), key=workload, trace=trace, seconds=seconds / SEGMENTS)

    deadline = time.monotonic() + RUN_LIMIT_S
    setups, workers = [], []  # set-up probes, measuring workers
    for _ in range(SEGMENTS):
        if not trace:
            for _ in range(SETUP_PROBES):
                probe = run_worker(dict(job, setup_only=True), deadline)
                if "setup_s" not in probe or probe["errors"]:
                    raise RuntimeError(f"{workload} set-up failed: {'; '.join(probe['errors'])}")
                setups.append(probe)
        workers.append(run_worker(job, deadline))
        if workers[-1].get("timeout"):
            break
    every = workers + ([run_worker(job["control"], deadline)] if "control" in job else [])
    attempted = sum(w["attempted"] for w in every)
    failed = sum(w["failed"] for w in every)
    for error in dict.fromkeys(e for w in every for e in w["errors"]):
        print(f"{workload}: failed operation: {error}", file=sys.stderr)
    raw: dict[int, list[float]] = {}
    scaled: dict[int, list[float]] = {}
    for worker in workers:
        for index, wall_s, cal_s in worker.get("times", []):
            raw.setdefault(index, []).append(wall_s)
            scaled.setdefault(index, []).append(wall_s * CAL_REF_S / cal_s)
    if len(raw) < len(job["ops"]):
        raise RuntimeError(f"{workload}: a command never completed")

    def pass_s(times: dict[int, list[float]]) -> float:
        """One pass over the commands: the sum of their median times."""
        return sum(statistics.median(t) for t in times.values())

    calls = sum(len(t) for t in raw.values())
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, problems = layer_values(job, workers, units)
        for problem in problems:
            print(f"{workload}: counter mismatch: {problem}", file=sys.stderr)
        summary = (f"{workload}: {calls} traced calls, traced norm_pass_s {pass_s(scaled):.4f} s "
                   f"(raw {pass_s(raw):.4f} s), tracer overhead {values['trace.overhead_s']:.5f} s")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        problems = []
        values = {
            "norm_pass_s": pass_s(scaled),
            "setup_s": statistics.median(w["setup_s"] * CAL_REF_S / w["setup_cal_s"]
                                         for w in setups + workers if "setup_s" in w),
            "peak_rss_mib": statistics.median(w["peak_rss_mib"] for w in workers if "peak_rss_mib" in w),
            "ok_share": 1 - failed / attempted,
        }
        raw_setup_s = statistics.median(w["setup_s"] for w in setups + workers if "setup_s" in w)
        summary = (f"{workload}: norm_pass_s {values['norm_pass_s']:.4f} s (raw wall {pass_s(raw):.4f} s, "
                   f"{calls} timed calls), setup_s {values['setup_s']:.4f} s (raw {raw_setup_s:.4f} s), "
                   f"peak_rss_mib {values['peak_rss_mib']:.1f} MiB, "
                   f"fail_share {failed / attempted:g} ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return summary, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(ROOT, "src", "systolic", "cli.py")):
        print(f"no systolic source tree under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "pins.json"), encoding="ascii") as fh:
        pins = json.load(fh)

    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            summary, results[name] = run_workload(name, args.seed, seconds,
                                                  bool(args.trace), spec, pins)
            print(summary, flush=True)
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
