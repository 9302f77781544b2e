"""tools/ab.py: one smoke pair of the working tree against HEAD, and the
schema of the file it writes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def test_a_smoke_pair_writes_every_metric_of_both_sides(tmp_path):
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout, so there is no revision to unpack")
    sha = head.stdout.strip()
    argv = [sys.executable, str(TOOL), "--parent", "HEAD", "--workload", "scale", "--seed", "1",
            "--pairs", "1", "--seconds", "2", "--smoke", "--out", str(tmp_path)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / f"BENCH_{sha[:7]}_scale_s1.json"
    assert proc.stdout.splitlines()[-1] == str(path)
    record = json.loads(path.read_text())
    assert set(record) == {"workload", "seed", "seconds", "smoke", "parent", "change", "pythondontwritebytecode",
                           "runs", "summary", "regressions"}
    assert (record["workload"], record["seed"], record["seconds"], record["smoke"]) == ("scale", 1, 2.0, True)
    assert record["parent"] == record["change"]["head"] == sha
    untracked = subprocess.run(["git", "ls-files", "-z", "--others", "--exclude-standard"], cwd=ROOT,
                               capture_output=True, text=True, check=True).stdout.split("\0")
    assert set(record["change"]) == {"head", "dirty", "untracked"} and isinstance(record["change"]["dirty"], bool)
    # the untracked files copied to the change side are named, and make the tree dirty
    assert record["change"]["untracked"] == [name for name in untracked if name]
    assert record["change"]["dirty"] or not record["change"]["untracked"]
    assert isinstance(record["pythondontwritebytecode"], bool)
    names = [metric["name"] for metric in DECLARED]
    [run] = record["runs"]
    assert run["first"] == "parent"
    for side in ("parent", "change"):
        assert list(run[side]["metrics"]) == names
        assert run[side]["env"]["workload"] == "scale" and run[side]["env"]["seed"] == 1
    assert list(record["summary"]) == names
    for metric in DECLARED:
        entry = record["summary"][metric["name"]]
        assert set(entry) == {"unit", "better", "parent", "change", "wins", "pairs", "relative_gain", "bound",
                              "regressed", "claimable"}
        assert (entry["unit"], entry["better"], entry["bound"]) == (metric["unit"], metric["better"], metric["bound"])
        for side in ("parent", "change"):
            value = run[side]["metrics"][metric["name"]]
            assert entry[side] == {"median": value, "q1": value, "q3": value}
        assert entry["pairs"] == 1 and entry["wins"] in (0, 1)
        # one pair is never enough to claim a gain
        assert entry["claimable"] is False
    assert record["regressions"] == [name for name in names if record["summary"][name]["regressed"]]
    assert record["summary"]["ops_ok_ratio"]["change"]["median"] == 1.0
