"""One benchmark process: set up a workload, then run it closed-loop.

Started by run.py with the package directory on PYTHONPATH.  It prints a
JSON line {"ready": <epoch seconds>} when set-up (import, inputs, warm-up)
is done, then times the calibration kernel; with --setup-only it prints
{"calib_s": <seconds>} and stops.  Otherwise it measures whole rounds until
--seconds have passed and at least 21 operations are done, and prints one
JSON result line.  The calibration kernel also runs between operations, so
the runner can scale every time to the speed of a reference host.  With
--trace 1 every operation runs twice, untraced and with the tracer
installed, which gives the tracing overhead from one process, and probes
of known defects run after the operations.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import lunes  # resolved through the PYTHONPATH that run.py sets
import common
import tracer as tracing
import workloads

CAL_POINTS = np.random.default_rng(0).normal(size=(720, 3))
SETUP_CALIBRATIONS = 4


def timed_rounds(first: int, seconds: float, min_rounds: int = 1):
    """Round numbers from `first` on, until `seconds` have passed at the end
    of a round and at least `min_rounds` rounds have run."""
    deadline = time.perf_counter() + seconds
    r = first
    while True:
        yield r
        r += 1
        if r - first >= min_rounds and time.perf_counter() >= deadline:
            return


def calibrate() -> float:
    """Seconds taken by a fixed kernel that does not use lunes: small numpy
    operations on 720 x 3 arrays and a plain interpreter loop, the mix lunes
    spends its time on.  On a shared host whose speed drifts, its time moves
    with the time of the operations around it."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        y = CAL_POINTS @ CAL_POINTS[i]
        acc += float(np.max(np.arctan2(y, 1.0 + y * y)))
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - t0


def setup_calibration() -> float:
    """Mean calibration time just after set-up.  The first call in a
    process runs cold and is dropped; a few calls close to the set-up
    follow the host's speed better than many spread out."""
    calibrate()
    return statistics.fmean(calibrate() for _ in range(SETUP_CALIBRATIONS))


def timed(run, tr=None):
    """Run one operation; return (output, error, seconds).  With a tracer,
    it is installed around the call only, so the oracle is not traced."""
    if tr is not None:
        tr.op += 1
        tr.install()
    try:
        t0 = time.perf_counter()
        try:
            out, err = run(), None
        except Exception as exc:  # a failed operation, counted and reported
            out, err = None, f"{type(exc).__name__}: {exc}"
        return out, err, time.perf_counter() - t0
    finally:
        if tr is not None:
            tr.uninstall()


def measure(workload, rounds, tr=None):
    """Run the operations of each round in `rounds`, one at a time.

    Returns (latencies, traced latencies, calibration times, failures).  A
    failure is an operation that raised or whose output the oracle rejected;
    its latency is kept.  The calibration kernel runs before each untraced
    operation and once after the last, so each one has a calibration time
    on either side.  With a tracer, each operation runs twice, untraced and
    traced, in an order that alternates, so drift of the host's speed falls
    on both sides of the overhead ratio.
    """
    plain, traced, calib, failures = [], [], [], []
    for r in rounds:
        for label, run, check in workload.round_ops(r):
            sides = [None] if tr is None else [None, tr]
            if len(plain) % 2:  # traced first on every other operation
                sides.reverse()
            for side in sides:
                if side is None:
                    calib.append(calibrate())
                out, err, seconds = timed(run, side)
                (plain if side is None else traced).append(seconds)
                if err is None:
                    err = check(out)
                if err is not None:
                    where = " (traced)" if side is not None else ""
                    failures.append(f"round {r} {label}{where}: {err}")
    calib.append(calibrate())
    return plain, traced, calib, failures


def warm_up(workload) -> tuple[int, list[str]]:
    """One operation per input class, from round 0, checked but not timed.
    Returns (operations run, failures)."""
    failures, seen = [], set()
    for label, run, check in workload.round_ops(0):
        if label in seen or label not in workload.warm_labels:
            continue
        seen.add(label)
        try:
            err = check(run())
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"warm-up {label}: {err}")
    return len(seen), failures


def malformed_probe(workdir: Path) -> dict:
    """`lunes check constant-width` on a document with radius "x"."""
    path = workdir / "malformed.json"
    path.write_text(workloads.malformed_body_doc(), encoding="utf-8")
    proc = workloads.run_cli(["check", "constant-width", path], workdir)
    return {"exit": proc.returncode,
            "traceback": "Traceback" in proc.stdout + proc.stderr,
            "error": workloads.cli_outcome(proc, 2)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    warmed, failures = warm_up(workload)
    print(json.dumps({"ready": time.time()}), flush=True)
    setup_calib = setup_calibration()
    if args.setup_only:
        print(json.dumps({"calib_s": setup_calib}), flush=True)
        return 0

    result = {"lunes_file": lunes.__file__}
    tr = tracing.Tracer(extreme_points=lunes.body.extreme_points) if args.trace else None
    # enough operations that ten lie above the tail latency and the tail
    # percentile is at least the median
    min_ops = 2 * common.TAIL_BEYOND + 1
    per_round = len(workload.round_ops(0))
    plain, traced, calib, fails = measure(workload, timed_rounds(
        1, args.seconds, 1 if tr else math.ceil(min_ops / per_round)), tr)
    failures += fails
    result.update(latencies=plain, calib=calib, calib_s=setup_calib)
    if tr is not None:
        units = dict(tracing.metric_catalog())
        layers = {name: {"value": value, "unit": units[name]}
                  for name, value in tr.summarize(len(traced)).items()}
        layers["trace_overhead_ratio"] = {
            "value": statistics.median(traced) / statistics.median(plain), "unit": "ratio"}
        result.update(traced_latencies=traced, layers=layers,
                      untraced_targets=tr.missing, spans=len(tr.spans))
        if args.spans is not None:
            tr.write(str(args.spans))
        # known defects, probed once per traced run on fixed inputs
        result.update(
            probe=malformed_probe(args.workdir),
            reduced_probe=workloads.regular_gon_probe(args.seed, args.workdir),
            defect_probes={
                "wulff.thin_corner_not_self_dual": workloads.thin_corner_probe(args.workdir),
                "wulff.coarse_gamma_induce_fail": workloads.coarse_gamma_probe()})
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result.update(failures=failures,
                  attempted=warmed + len(plain) + len(traced),
                  peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
