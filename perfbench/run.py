"""oamix benchmark: one workload, timed end to end or per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 45 --trace 0

Workloads and metrics are declared in BENCHMARK.json.  The program under
test is oamix from the checkout's src/; without it the run exits with code 2
and prints no result.  Each workload runs in a fresh process (worker.py) with
BLAS pinned to one thread; the same inputs come from the same --seed.

--trace 0 reports the end-to-end metrics.  setup_s is the median over
several spawns of the CPU time a workload process uses from its spawn until
it has imported oamix and built its inputs; the other metrics come from one
measured process, as medians over its passes (see worker.py):
  pass_cal             CPU time of one pass over the workload's op list, in
                       units of a fixed calibration computation timed
                       beside it (1 cal, see calibrate.py)
  design_runs_per_cal  design rows built, written, read back and validated
                       per cal of the ops that do so
  peak_rss_mb          peak resident memory of the process or its children
  ops_ok_ratio         ops whose call and output checks passed, over all ops
Times are CPU times rather than wall times for the reason given in
passes.py; for this single-threaded program they are the wall time of an
otherwise idle machine.  The env line gives the median pass and calibration
times in CPU seconds, which convert cal to seconds on the host of that run.
--trace 1 reports the per-layer metrics from spans around each call into
oamix (see worker.py).  The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
records the environment (git SHA, nproc, versions, BLAS threads).
--smoke shrinks the inputs (FDS at 1000 samples, m = 4 for scale) and
spawns set-up once, for the smoke test in perfbench/tests.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from passes import pin_to_quickest_cpu

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({var: "1" for var in BLAS_PINS})
    return env


def stop(proc: subprocess.Popen) -> None:
    """Kill a worker and everything it started, then wait for it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def time_setup(argv: list[str], env: dict, deadline: float) -> float:
    """CPU seconds a workload process reports having used once it is set up."""
    proc = subprocess.Popen(argv + ["--setup-only"], stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("set-up process did not exit") from None
    finally:
        stop(proc)
    words = out.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != b"ready":
        raise BenchError(f"set-up process failed with exit code {proc.returncode}")
    return float(words[1])


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran out of time") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "oamix" / "__init__.py").is_file():
        print(f"no oamix source at {ROOT / 'src' / 'oamix'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = worker_env()
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        argv.append("--smoke")
    cpus = sorted(os.sched_getaffinity(0))

    def time_setups(count: int) -> list[float]:
        times = []
        for _ in range(count):
            pin_to_quickest_cpu(cpus)
            times.append(time_setup(argv, env, deadline))
        os.sched_setaffinity(0, cpus)
        return times

    repeats = 0 if args.trace else 1 if args.smoke else SETUP_REPEATS
    try:
        # one untimed spawn first fills the bytecode and page caches
        time_setup(argv, env, deadline)
        # set-ups before and after the measured process, so that one busy
        # spell on the host does not set the median
        setup = time_setups(repeats - repeats // 2)
        result = run_worker(argv + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
        setup += time_setups(repeats // 2)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "nproc": len(cpus),
        "blas_env": {var: env[var] for var in BLAS_PINS},
        **result["env"],
        "setup_samples": len(setup),
        **result["samples"],
    }
    print("env " + json.dumps(stamp))
    for m in wanted:
        print(f"{m['name']:>34} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
