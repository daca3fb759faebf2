#!/usr/bin/env python3
"""Benchmark of the surfacemaps package: four seeded workloads, one client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

The script builds the package the way the package builds itself
(`setup.py build_ext --inplace`, which compiles the optional search
kernel only when the package's own build can), imports it from `src/`,
and drives one workload as a closed loop with one client and one thread
for --seconds seconds.  Each op is timed on its own; input generation and
the benchmark's correctness checks run between ops and are not timed.

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics from spans around every public call the benchmark
makes.  In a traced run every other op is traced, so the run also gives
the tracing overhead.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; failed / attempted is the
failure ratio.  The line before it holds the run's context: backends,
Python version, CPU count, sample counts, the tail percentile, the
failure ratio and the unscaled times.

End-to-end times are in seconds at a reference speed.  Between ops the
run times a fixed pure-Python calibration kernel, and each op time is
multiplied by CALIBRATION_REF_S over the median of the kernel times taken
around that op (setup_s likewise, per fresh interpreter).  On the shared
2-vCPU host this was tuned on, plain wall times of one op swung by a
third between runs of the same seed; across ten seeds the quartile spread
of the run medians fell from 8-14% unscaled to 2-7% scaled.  Per-layer
busy times are plain seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("spectrum", "resume", "automorphisms", "certify")
SETUP_REPEATS = 5
MAX_REPORTED_PROBLEMS = 20
# Median time of calibrate() on the host this benchmark was tuned on (Intel
# Xeon at 2.0 GHz, 2 vCPUs, Python 3.11).  Reported times are seconds at
# that speed; the host's own speed swung by a third over tens of seconds.
CALIBRATION_REF_S = 0.0035
CALIBRATION_EVERY_S = 0.05
CALIBRATION_HALF_WINDOW = 2

# Run in a fresh interpreter: time the package import plus the workload's
# fixed inputs, as a user's first call would pay them, then calibrate.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
from pathlib import Path
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), Path(sys.argv[5])).setup()
elapsed = time.perf_counter() - t0
import run
print(elapsed, run.calibrate())
"""


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and its value.

    With nearest-rank percentiles that is the sample of rank n - 10, at
    percentile 100 (n - 10) / n.  Below 20 samples that rank falls under the
    median, so the maximum is returned, as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return 100.0, xs[-1]
    return 100 * (n - 10) / n, xs[n - 11]


def build_package() -> None:
    """Run the package's own in-place build; raises on a failed build."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"package build failed:\n{proc.stdout}{proc.stderr}")


def probe_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Set-up time in a fresh interpreter: (raw seconds, reference-speed seconds)."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR), str(SRC), workload, str(seed), str(workdir)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    elapsed, calibration = map(float, proc.stdout.split()[-2:])
    return elapsed, elapsed * CALIBRATION_REF_S / calibration


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python kernel, with the cyclic collector off."""
    best = math.inf
    gc.disable()
    try:
        for _ in range(3):
            start = time.perf_counter()
            acc: dict[tuple[int, int], int] = {}
            for i in range(4000):
                key = (i * 7919 % 1009, i % 13)
                acc[key] = acc.get(key, 0) + i % 7
            sum(acc[k] for k in sorted(acc))
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    return best


def run_loop(work, seconds: float, tracer) -> dict:
    """Closed loop for `seconds` of wall time (at least one op); with a tracer, odd ops are traced.

    The calibration kernel runs between ops, once per CALIBRATION_EVERY_S
    of op time.  Each op's time is scaled to the reference speed by the
    median of the calibrations taken around it.  Peak RSS is read when op
    number work.RSS_OPS ends (or at the end of a shorter run), so it
    reflects a fixed amount of work rather than the run length.
    """
    from tracing import NullTracer

    untraced = NullTracer()
    calibrations = [calibrate()]
    # (op time, index of the calibration that follows the op)
    plain: list[tuple[float, int]] = []
    traced: list[tuple[float, int]] = []
    attempted = failed = 0
    problems: list[str] = []
    since_calibration = 0.0
    peak_rss_mb = None
    begin = time.perf_counter()
    while True:
        inp = work.next_input()
        is_traced = tracer is not None and attempted % 2 == 1
        if is_traced:
            tracer.op_id = attempted
        attempted += 1
        start = time.perf_counter()
        try:
            out = work.op(inp, tracer if is_traced else untraced)
        except Exception as exc:  # a failing op is data, not a crash
            elapsed = time.perf_counter() - start
            bad = [f"raised {type(exc).__name__}: {exc}"]
            work.abandon()
        else:
            elapsed = time.perf_counter() - start
            try:
                bad = work.check(inp, out)
            except Exception as exc:
                bad = [f"check raised {type(exc).__name__}: {exc}"]
        if attempted == work.RSS_OPS:
            peak_rss_mb = max_rss_mb()
        if bad:
            failed += 1
            problems.extend(f"op {attempted - 1}: {b}" for b in bad)
        else:
            (traced if is_traced else plain).append((elapsed, len(calibrations)))
        since_calibration += elapsed
        if since_calibration >= CALIBRATION_EVERY_S:
            calibrations.append(calibrate())
            since_calibration = 0.0
        if time.perf_counter() - begin >= seconds:
            break
    calibrations.append(calibrate())

    def scaled(samples: list[tuple[float, int]]) -> list[float]:
        h = CALIBRATION_HALF_WINDOW
        return [t * CALIBRATION_REF_S / statistics.median(calibrations[max(0, j - h) : j + h + 1]) for t, j in samples]

    return {
        "plain": scaled(plain),
        "traced": scaled(traced),
        "raw_p50": statistics.median(t for t, _ in plain) if plain else 0.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "calibration_s": statistics.median(calibrations),
        "peak_rss_mb": max_rss_mb() if peak_rss_mb is None else peak_rss_mb,
    }


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="surfacemaps benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "surfacemaps" / "__init__.py").is_file() or not (ROOT / "setup.py").is_file():
        print(f"error: no surfacemaps source tree next to {BENCH_DIR.name}/", file=sys.stderr)
        return 2
    try:
        build_package()
        with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
            workdir = Path(tmp)
            setup_times = [probe_setup(args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
            sys.path[:0] = [str(SRC)]
            result = measure(args, workdir, setup_times)
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    context, line = result
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(line))
    return 0


def measure(args, workdir: Path, setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    import surfacemaps
    from surfacemaps import available_backends, validate_closed_surface

    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    if Path(surfacemaps.__file__).resolve().parent != (SRC / "surfacemaps").resolve():
        raise ImportError(f"imported surfacemaps from {surfacemaps.__file__}, not from {SRC}")

    work = WORKLOADS[args.workload](args.seed, workdir)
    work.setup()
    tracer = Tracer() if args.trace else None
    cache_info = getattr(validate_closed_surface, "cache_info", None)
    cache_before = cache_info() if cache_info else None

    loop = run_loop(work, args.seconds, tracer)
    cache_after = cache_info() if cache_info else None

    attempted, failed, problems = loop["attempted"], loop["failed"], loop["problems"]
    extra_checks = work.final_checks()
    if "compiled" in available_backends():
        extra_checks += work.backend_checks()
    for bad in extra_checks:
        attempted += 1
        if bad:
            failed += 1
            problems.extend(f"after timing: {b}" for b in bad)
    for p in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"mismatch: {p}", file=sys.stderr)

    samples = loop["plain"]
    if samples:
        tail_pct, tail_s = tail_percentile(samples)
        p50 = statistics.median(samples)
        rate = len(samples) / sum(samples)
    else:
        tail_pct, tail_s, p50, rate = 100.0, 0.0, 0.0, 0.0
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "backends": list(available_backends()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": len(samples),
        "traced_samples": len(loop["traced"]),
        "op_tail_percentile": tail_pct,
        "calibration_s": loop["calibration_s"],
        "op_p50_raw_s": loop["raw_p50"],
        "setup_raw_s": [raw for raw, _ in setup_times],
        "fail_ratio": failed / attempted,
    }
    if args.trace:
        overhead = statistics.median(loop["traced"]) - p50 if loop["traced"] and samples else 0.0
        hit_ratio = 0.0
        if cache_info:
            hits = cache_after.hits - cache_before.hits
            lookups = hits + cache_after.misses - cache_before.misses
            hit_ratio = hits / lookups if lookups else 0.0
        metrics = per_layer_metrics(tracer, hit_ratio, overhead)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(scaled for _, scaled in setup_times), "unit": "s"},
            "op_p50_s": {"value": p50, "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": loop["peak_rss_mb"], "unit": "MB"},
        }
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"context": context}, line


if __name__ == "__main__":
    raise SystemExit(main())
