"""Byte identity of the command-line outputs, replayed from tests/golden.json
(written by tests/golden.py; see there for what the entries cover)."""

import json
import os
import subprocess
import sys

import golden

ROOT = os.path.dirname(golden.HERE)

# benchmark pins (perfbench/pins.json) that no other test replays, and the
# (entry, digest) of the golden grid that each one pins
PINNED_ENTRIES = {
    "g24": ("construct k=24", "file0"),
    "verify_stderr": ("verify k=24 --k 24", "stderr"),
    "g24_floor25_stderr": ("verify k=24 --k 25", "stderr"),
    "report": ("report k=16 json spectrum=18", "stdout"),
}


def _golden():
    with open(golden.GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


def test_outputs_match_the_golden_digests(tmp_path):
    want = _golden()
    got = golden.digests(str(tmp_path))
    assert sorted(got) == sorted(want)
    changed = [f"{name}: {key}" for name, entry in want.items()
               for key, digest in entry.items() if got[name].get(key) != digest]
    assert not changed, "outputs differ from tests/golden.json:\n" + "\n".join(changed)
    with open(os.path.join(ROOT, "perfbench", "pins.json"), encoding="ascii") as fh:
        pins = json.load(fh)
    for pin, (name, key) in PINNED_ENTRIES.items():
        assert got[name][key] == pins[pin], pin


def test_planted_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # a planted construct, its report and a failing verify, each in a fresh
    # interpreter, so that set and dict order under another string hash shows
    want = {name: entry for name, entry in _golden().items() if name.startswith("planted")}
    assert any(entry["exit"] == 1 for entry in want.values())
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, os.path.join(golden.HERE, "golden.py"), "--only", "planted"],
            cwd=tmp_path, env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == want, hash_seed
