"""Benchmark of the `lunes` package: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout that holds `src/lunes`; the package is
imported from there by absolute path, never from an installed copy, and the
benchmark exits with code 2 when it is missing.  Workloads: analyze,
roundtrip, build, cli (see README.md beside this file).

--trace 0 reports the end-to-end metrics.  Set-up is done three times, in
fresh processes, and `setup_s` is their median; the last of the three goes
on to measure whole rounds of operations, one at a time, for --seconds.
Its times are in reference seconds: each process also times a fixed
calibration kernel (worker.calibrate) just after set-up and between
operations, and a measured time is scaled by CALIB_REF_S over the kernel's
time next to it.  The host this runs on is shared, and its speed moves by
tens of percent within seconds; the kernel slows with it, so the scaled
times follow the program rather than the host.  The unscaled times are in
the provenance line.
--trace 1 reports the per-layer metrics: every operation runs twice, once
untraced and once with the outside-in tracer, plus import timings of fresh
interpreters and probes of known defects.

Output: a provenance JSON line, then as the last line of stdout
{"correct", "attempted", "failed", "metrics"}.  A table of the metrics with
their units goes to stderr.  Only the standard library is used here; numpy,
scipy and lunes are imported by the worker processes.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = common.SRC
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("analyze", "roundtrip", "build", "cli")
SETUPS = 3              # set-ups per untraced run; setup_s is their median
IMPORT_REPEATS = 3      # fresh `import lunes` timings per traced run
BLAS_THREADS = 1        # one client, one thread: steadier on a shared host
HELD_OUT_SEED = 7_340_029  # reserved for checking a claimed gain; not used in tuning
CALIB_REF_S = 0.0060    # worker.calibrate() on the reference host (see README.md)
RUN_LIMIT_S = 170       # whole run, including set-ups and probes
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = common.package_env()
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
    return left


def run_worker(args, extra, deadline) -> tuple[float, dict]:
    """Start worker.py in a fresh process; return (set-up seconds, its last
    JSON line: the result, or the calibration of a --setup-only worker)."""
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP))
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)] + extra
    try:
        started = time.time()
        # own session, so a timeout also stops the worker's `lunes` children
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                                stdout=subprocess.PIPE, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=remaining(deadline))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise BenchError("worker printed no ready line")
    if len(lines) < 2:
        raise BenchError("worker printed no result line")
    return lines[0]["ready"] - started, lines[-1]


def scaled(latencies, calib) -> list[float]:
    """Each latency in reference seconds: times CALIB_REF_S over the mean
    of the calibration times just before and just after it."""
    return [t * 2 * CALIB_REF_S / (before + after)
            for t, before, after in zip(latencies, calib, calib[1:])]


def import_timings(deadline) -> dict:
    """Fresh-interpreter `import lunes`: wall time, and the cumulative
    import time of scipy.optimize from -X importtime (0 when not imported)."""
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP))
    walls, optimize = [], []
    try:
        for _ in range(IMPORT_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import lunes"], cwd=workdir,
                           env=child_env(), check=True, timeout=remaining(deadline))
            walls.append(time.perf_counter() - t0)
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lunes"],
                                  cwd=workdir, env=child_env(), check=True, text=True,
                                  stderr=subprocess.PIPE, timeout=remaining(deadline))
            optimize.append(scipy_optimize_us(proc.stderr) / 1e6)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"cli.import_s": statistics.median(walls),
            "cli.import_scipy_optimize_s": statistics.median(optimize)}


def scipy_optimize_us(importtime_log: str) -> int:
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.optimize":
            return int(parts[1])
    return 0


def provenance(args, result) -> dict:
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        raise BenchError(f"BLAS threads {BLAS_THREADS} exceed nproc {nproc}")
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": BLAS_THREADS, "lunes_file": result["lunes_file"],
        "operations": len(result["latencies"]),
        "failures": result["failures"][:10],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "lunes" / "__init__.py").is_file():
        print(f"error: no lunes package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        imports = import_timings(deadline)
        _, result = run_worker(args, ["--spans", str(spans)], deadline)
    else:
        setups = [run_worker(args, ["--setup-only"], deadline)
                  for _ in range(SETUPS - 1)]
        setups.append(run_worker(args, [], deadline))
        result = setups[-1][1]
    if not result["lunes_file"].startswith(str(SRC) + os.sep):
        raise BenchError(f"imported {result['lunes_file']}, not the package under {SRC}")

    latencies = result["latencies"]
    failed = len(result["failures"])
    info = provenance(args, result)
    if args.trace:
        report = dict(result["layers"])
        report.update({name: {"value": value, "unit": "s"}
                       for name, value in imports.items()})
        work = statistics.median(latencies) - imports["cli.import_s"]
        report["cli.work_s"] = {"value": work if args.workload == "cli" else 0.0,
                                "unit": "s"}
        report["cli.malformed_exit_wrong"] = {
            "value": float(result["probe"]["error"] is not None), "unit": "count"}
        misses, checked = result["reduced_probe"]
        report["metrics.regular_gon_not_reduced"] = {
            "value": misses / checked, "unit": "ratio"}
        report.update({name: {"value": float(value), "unit": "count"}
                       for name, value in result["defect_probes"].items()})
        report["fail_ratio"] = {"value": failed / result["attempted"], "unit": "ratio"}
        info.update(malformed_document_probe=result["probe"],
                    regular_gons_judged_not_reduced=result["reduced_probe"],
                    spans=result["spans"], spans_file=str(spans.relative_to(ROOT)),
                    untraced_targets=result["untraced_targets"],
                    traced_operations=len(result["traced_latencies"]))
    else:
        ref = scaled(latencies, result["calib"])
        value, pct, beyond = common.tail(ref)
        info.update(calib_ref_s=CALIB_REF_S,
                    setups_unscaled_s=[t for t, _ in setups],
                    setups_calib_s=[line["calib_s"] for _, line in setups],
                    calib_median_s=statistics.median(result["calib"]),
                    op_p50_unscaled_s=statistics.median(latencies),
                    op_tail_unscaled_s=common.tail(latencies)[0],
                    tail_percentile=pct, tail_samples_beyond=beyond,
                    tail_samples=len(ref))
        report = {
            "setup_s": {"value": statistics.median(
                t * CALIB_REF_S / line["calib_s"] for t, line in setups), "unit": "s"},
            "ops_per_s": {"value": len(ref) / sum(ref), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(ref), "unit": "s"},
            "op_tail_s": {"value": value, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in report.items():
        print(f"{args.workload:9s} {name:44s} {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({"provenance": info}))
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
