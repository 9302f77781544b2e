"""Benchmark a revision against the working tree in alternating pairs.

Run from the root of a checkout:

    python tools/ab.py --parent HEAD~1 --workload scale --seed 1 --pairs 10 --seconds 15

The parent revision's committed files are unpacked into a temporary
directory (``git archive``, so nothing is registered in the repository and
an interrupted run leaves no worktree behind).  The change side is the
working tree's files, tracked ones as they stand (modified included) and
untracked ones that .gitignore does not exclude, copied into a temporary
directory, so both sides always run from the same kind of place.  Each
pair runs ``perfbench/run.py --trace 0`` once on each side, the side that
goes first alternating from pair to pair, with the same workload and
seed.  The result is written to
``BENCH_<parent short sha>_<workload>_s<seed>.json`` in --out (the root of
the checkout by default).  It holds:

  parent      the parent revision's sha
  change      the working tree's ``head`` revision, ``dirty``, whether it
              differs from HEAD in a tracked file or has an untracked one,
              and ``untracked``, the untracked files copied
  runs        each pair's end-to-end metrics and ``env`` line, per side
  summary     per metric: each side's median and quartiles, the pairs the
              change won (the direction is BENCHMARK.json's
              ``better``), its median's change relative to the parent's,
              whether it is worse than the metric's ``bound``, and whether
              it is a claimable gain: at least 10 pairs, won in at least 9
              of each 10, with the medians further apart than the parent's
              quartiles
  regressions the metrics worse than their bound
  pythondontwritebytecode  whether it was set, since without a bytecode
              cache every spawned process compiles the sources again,
              which moves setup_s

The script never edits BENCHMARK.json or perfbench/.  It exits 1 when the
parent revision is unknown or a run fails and 0 otherwise, regressions
included; --smoke passes --smoke to each run, for the test of this script.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def unpack(rev: str, into: Path) -> None:
    """The committed files of `rev`, written under `into`."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")


def copy_tree(into: Path) -> None:
    """The working tree's tracked files, modified ones included, and its
    untracked files that .gitignore does not exclude, copied under `into`;
    a tracked file deleted from the tree is left out."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def bench(root: Path, args: argparse.Namespace) -> dict:
    """One end-to-end run of the checkout at `root`: its metrics and its env line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"] + ["--smoke"] * args.smoke
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {root} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    return {"metrics": {name: entry["value"] for name, entry in result["metrics"].items()}, "env": env}


def spread(values: list[float]) -> dict:
    """The median and quartiles of `values`."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    """Per end-to-end metric, both sides' spreads, the pairs the change
    won, its relative change, and whether that is a regression beyond the
    metric's bound or a claimable gain."""
    summary = {}
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        parent = [run["parent"]["metrics"][name] for run in runs]
        change = [run["change"]["metrics"][name] for run in runs]
        before, after = spread(parent), spread(change)
        # the change's gain over the parent, positive when it is better
        gain = sign * (after["median"] - before["median"])
        relative = gain / abs(before["median"]) if before["median"] else 0.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": before,
            "change": after,
            "wins": wins,
            "pairs": len(runs),
            "relative_gain": relative,
            "bound": metric["bound"],
            "regressed": -relative > metric["bound"],
            "claimable": len(runs) >= 10 and 10 * wins >= 9 * len(runs) and gain > before["q3"] - before["q1"],
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the revision to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    try:
        sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
        untracked = [name for name in git("ls-files", "-z", "--others", "--exclude-standard").split("\0") if name]
        change = {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain")),
                  "untracked": untracked}
        with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
            parent_root, change_root = Path(tmp, "parent"), Path(tmp, "change")
            unpack(sha, parent_root)
            copy_tree(change_root)
            for n in range(args.pairs):
                sides = [("parent", parent_root), ("change", change_root)]
                run = {"first": sides[n % 2][0]}
                for side, root in sides[n % 2:] + sides[:n % 2]:
                    run[side] = bench(root, args)
                runs.append(run)
                print(f"pair {n + 1}/{args.pairs} done", file=sys.stderr)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(runs, declared)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "parent": sha,
        "change": change,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "runs": runs,
        "summary": summary,
        "regressions": [name for name, entry in summary.items() if entry["regressed"]],
    }
    path = args.out / f"BENCH_{sha[:7]}_{args.workload}_s{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in summary.items():
        print(f"{name:>20} {entry['parent']['median']:>12.6g} -> {entry['change']['median']:>12.6g}"
              f"  won {entry['wins']}/{entry['pairs']}{'  REGRESSED' if entry['regressed'] else ''}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
