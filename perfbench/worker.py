"""One workload process: import oamix, build the inputs, run passes, report.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and BLAS
pinned to one thread.  With --setup-only it prints "ready <cpu seconds>"
once the inputs are built, the CPU time the process has used since it was
spawned, and exits.  Otherwise it prints one JSON line with the counts and
metrics of the run.

A run is closed-loop with one client: ops run one after another, each pass
over the workload's fixed op list.  The process first makes one warm-up
pass, checked but not timed.  Passes repeat while another one still ends
within --seconds; before each one the process moves to the CPU that is
quickest at that moment.  Ops are timed in CPU seconds (see passes.py).

Each measured pass runs between two calls of calibrate.calibrate(), and the
end-to-end pass metrics are medians over the run's passes of the pass's time
in units of their mean (see calibrate.py).  The per-layer metrics of a
traced run stay in CPU seconds: each takes an op's 10th-percentile time over
the run's passes, since on a shared 2-vCPU cloud host a fixed loop ran up to
twice as slowly for seconds at a time, which moves a median with the
neighbours' load and a low percentile less.

With --trace 1, every untraced pass is followed by a traced one and a probe
of single layers; per-layer metrics come from those, and the spans are
written to .perfbench/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYER_TIMES = (
    "interp.bare", "import.oamix", "import.oamix_cli",
    "cli.generate", "cli.project", "cli.expand", "cli.cross", "cli.scale", "cli.evaluate", "cli.fds", "cli.demo",
    "simplex.lattice", "simplex.centroid", "simplex.project",
    "oofa.expand", "oofa.cross", "oofa.scale", "oofa.validate",
    "io.write", "io.read",
    "models.model_matrix", "models.coded_model_matrix",
    "evaluate.leverages", "evaluate.std_errors", "evaluate.d_criteria", "evaluate.evaluate_design",
    "evaluate.r2", "evaluate.power",
    "evaluate.fds_orderings", "evaluate.fds_continuous_signs", "evaluate.fds_discrete_amounts",
)  # fmt: skip
COUNTS = ("oofa.runs", "io.rows", "io.bytes", "models.cells", "evaluate.terms", "evaluate.fds_samples")
LAYERS = ("cli", "simplex", "oofa", "io", "models", "evaluate")
LOW_PERCENTILE = 10


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS the process has loaded, by library name."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line and "/" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def op_times(passes, in_cal: bool = False) -> dict[str, float]:
    """Each op's low-percentile time over the measured passes, in seconds or
    in units of its pass's calibration time."""
    return {
        op.key: percentile([p.by_key[op.key].seconds / (p.cal_s if in_cal else 1.0) for p in passes], LOW_PERCENTILE)
        for op in passes[0].ops
    }


def pass_seconds(p) -> float:
    return sum(op.seconds for op in p.ops)


def end_to_end(workload, passes) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw times behind them."""
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # the design ops take about 10 ms of a paper-study pass, too little for
    # a steady per-pass ratio, so each is taken at its low percentile
    spans = {op.key: op.span for op in passes[0].ops}
    design_cal = sum(
        t for key, t in op_times(passes, in_cal=True).items() if spans[key].startswith(workload.design_spans)
    )
    metrics = {
        "pass_cal": statistics.median(pass_seconds(p) / p.cal_s for p in passes),
        "design_runs_per_cal": statistics.median(p.counts["design_rows"] for p in passes) / design_cal,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    raw = {
        "pass_cpu_s_median": statistics.median(pass_seconds(p) for p in passes),
        "cal_cpu_s_median": statistics.median(p.cal_s for p in passes),
    }
    return metrics, raw


def span_times(passes) -> Counter:
    """Low-percentile op times of the passes, summed by span name."""
    spans = {op.key: op.span for op in passes[0].ops}
    out = Counter()
    for key, seconds in op_times(passes).items():
        out[spans[key]] += seconds
    return out


def per_layer(untraced, traced) -> dict:
    passes = [t for t, _ in traced]
    spent = span_times(passes) + span_times([pr for _, pr in traced])
    out = {f"{span}_s": float(spent[span]) for span in LAYER_TIMES}
    for name in COUNTS:
        out[name] = statistics.median(t.counts[name] + pr.counts[name] for t, pr in traced)
    fds_s = sum(seconds for span, seconds in spent.items() if span.startswith("evaluate.fds_"))
    out["evaluate.fds_samples_per_s"] = out["evaluate.fds_samples"] / fds_s if fds_s > 0 else 0.0
    out["trace.overhead_s"] = sum(op_times(passes).values()) - sum(op_times(untraced).values())
    return out


def run(workload, args) -> dict:
    from calibrate import calibrate
    from passes import Pass, Tracer, pin_to_quickest_cpu
    from workloads import probe_imports

    cpus = sorted(os.sched_getaffinity(0))
    all_passes = []

    def finish(p: Pass) -> Pass:
        workload.check(p)
        all_passes.append(p)
        return p

    calibrate()
    with Pass("warm-up") as p:
        workload.run_pass(p)
    finish(p).release()

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        pin_to_quickest_cpu(cpus)
        cal_before = calibrate()
        with Pass("pass") as p:
            workload.run_pass(p)
        p.cal_s = (cal_before + calibrate()) / 2
        if untraced:
            untraced[-1].release()
        untraced.append(finish(p))
        if tracer is not None:
            pin_to_quickest_cpu(cpus)
            with Pass("pass", tracer) as t:
                workload.run_pass(t)
            finish(t)
            with Pass("probe", tracer, parent=t.span_id) as pr:
                workload.probe(pr, t)
                probe_imports(pr)
            all_passes.append(pr)
            traced.append((t, pr))
            t.release()
            pr.release()
        # stop when another round like this one would end past the deadline
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    if tracer is not None:
        metrics, raw = per_layer(untraced, traced), {}
    else:
        metrics, raw = end_to_end(workload, untraced)
    if hasattr(workload, "check_determinism"):
        # after the metrics, so that the two-worker runs stay out of peak_rss_mb
        with Pass("determinism") as d:
            workload.check_determinism(d, untraced[-1])
        all_passes.append(d)
    untraced[-1].release()

    failures = [line for p in all_passes for line in p.failures()]
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    attempted = sum(len(p.ops) for p in all_passes)
    failed = sum(op.failed for p in all_passes for op in p.ops)
    env = environment()
    if tracer is not None:
        for layer in LAYERS:
            metrics[f"{layer}.failed"] = sum(op.failed and op.layer == layer for p in all_passes for op in p.ops)
        tracer.write(
            ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "env": env},
        )
    else:
        metrics["ops_ok_ratio"] = (attempted - failed) / attempted
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "env": env,
        "samples": {"passes": len(untraced), "traced_passes": len(traced), **raw},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    import oamix

    if Path(oamix.__file__).resolve().parent != ROOT / "src" / "oamix":
        print(f"oamix was imported from {oamix.__file__}, not from this checkout's src/", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    if args.setup_only:
        print(f"ready {time.process_time()!r}", flush=True)
        return 0
    try:
        result = run(workload, args)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
