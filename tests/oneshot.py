"""One-shot wall times of the README's start-up rows, for two source trees.

Usage, from the repository root:
    python tests/oneshot.py BEFORE_TREE AFTER_TREE [--runs N]

Each tree is a checkout of this repository (the directory that holds
``src/``).  Every row is one ``systolic`` command, or the bare import, run
as a fresh ``python`` process with the tree's ``src`` on PYTHONPATH.  Run i
times every row once on each side, the two sides in alternating order
(before first on even i), so that a slow stretch of the host falls on both;
N runs (default 11) give each side N samples per row.  Bytecode is cached
per side in a temporary PYTHONPYCACHEPREFIX and every row runs once per side
untimed first, so no timed run compiles a module; an installed package
starts the same way.  The inputs g16.crg and g24.crg are the seed-0
``--size min`` builds, made once with the before tree outside every timed
run.  Each row prints both sides' median and quartiles in ms, and the
difference of the medians.

pytest collects only ``test_*.py``, so this module runs only when invoked.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

IMPORT = 'python -c "import systolic, systolic.cli"'
# each row but IMPORT is the argument vector of one command, space-separated
ROWS = (
    "report g16.crg --spectrum-max 18 --json",
    "verify --k 24 g24.crg",
    "census --max-trace 300 --check",
    "construct --k 16 --size min --seed 0 -o g.crg",
    "recover --matrix 2,1,1,1",
    IMPORT,
)


def _env(tree: str, pycache: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"), PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(row: str, env: dict[str, str], cwd: str) -> float:
    """Wall seconds of one fresh process; a nonzero exit ends the script."""
    if row == IMPORT:
        command = [sys.executable, "-c", "import systolic, systolic.cli"]
    else:
        command = [sys.executable, "-m", "systolic.cli", *row.split()]
    start = time.perf_counter()
    done = subprocess.run(command, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall_s = time.perf_counter() - start
    if done.returncode:
        raise SystemExit(f"{row!r} exited {done.returncode} with PYTHONPATH={env['PYTHONPATH']}:\n{done.stderr}")
    return wall_s


def _summary(samples: list[float]) -> str:
    q1, median, q3 = statistics.quantiles([1000 * s for s in samples], n=4)
    return f"{median:7.1f} [{q1:6.1f}, {q3:6.1f}]"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--runs", type=int, default=11)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2, to have quartiles")
    sides = ("before", "after")
    with tempfile.TemporaryDirectory() as work:
        envs = {side: _env(getattr(args, side), os.path.join(work, f"pycache-{side}")) for side in sides}
        for k in (16, 24):
            _run(f"construct --k {k} --size min --seed 0 -o g{k}.crg", envs["before"], work)
        for side in sides:
            for row in ROWS:
                _run(row, envs[side], work)
        times: dict[tuple[str, str], list[float]] = {(row, side): [] for row in ROWS for side in sides}
        for i in range(args.runs):
            for row in ROWS:
                for side in sides if i % 2 == 0 else sides[::-1]:
                    times[row, side].append(_run(row, envs[side], work))
    print(f"one-shot wall ms, {args.runs} alternating runs per side: median [first quartile, third quartile]")
    print(f"{'command':48} {'before':>24} {'after':>24} {'change':>8}")
    for row in ROWS:
        before, after = times[row, "before"], times[row, "after"]
        change = 1000 * (statistics.median(after) - statistics.median(before))
        print(f"{row:48} {_summary(before):>24} {_summary(after):>24} {change:+8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
