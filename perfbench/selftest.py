"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks that the oracles reject corrupted results, that the tail-percentile
rule holds on small counts, that latencies are scaled by the calibration
times on both sides of them, that self time is right for nested spans, that
the tracer catches a metrics.thickness call made from inside wulff, and
that run.py fails without a result when the package is absent.  Exits 0
when every check passes.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import common  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lunes import body, construct, metrics, wulff  # noqa: E402


def test_tail_rule_small_counts():
    assert common.tail([0.3, 0.1, 0.2]) == (0.3, 100.0, 0)
    assert common.tail(range(10)) == (9.0, 100.0, 0)
    value, pct, beyond = common.tail(range(11))  # one sample below ten beyond
    assert (value, beyond) == (0.0, 10) and math.isclose(pct, 100 / 11)
    value, pct, beyond = common.tail(range(1, 101))
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert sum(x > value for x in range(1, 101)) == beyond


def test_self_time_nested_spans():
    # parent [0, 10] holds child [1, 4] (which holds [2, 3]) and child [5, 6]
    spans = [["p", 0.0, 10.0, -1, 0, False], ["c", 1.0, 4.0, 0, 0, False],
             ["g", 2.0, 3.0, 1, 0, False], ["d", 5.0, 6.0, 0, 0, False]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    # overlapping and straddling children are covered once, clipped to the parent
    spans = [["p", 0.0, 10.0, -1, 0, False], ["a", 1.0, 4.0, 0, 0, False],
             ["b", 3.0, 5.0, 0, 0, False], ["c", 9.0, 12.0, 0, 0, False]]
    assert tracing.self_times(spans)[0] == 10.0 - 4.0 - 1.0


def test_scaling_uses_calibration_on_both_sides():
    ref = run.CALIB_REF_S
    # the second operation ran while the host was twice as slow on average
    out = run.scaled([1.0, 3.0], [ref, ref, 3 * ref])
    assert out[0] == 1.0 and math.isclose(out[1], 1.5)


def test_oracles_reject_corrupted_results():
    rng = np.random.default_rng(5)
    cd = construct.constant_diameter_odd_gon(workloads._cd_vertices(rng, 3))
    report = metrics.classify(cd, tol=1e-6, n=64)
    doc = {"thickness": report.thickness.value, "diameter": report.diameter.value}
    check = workloads.Analyze._check("cd_triangle", 0.0)
    assert check((report, doc)) is None
    report.diameter.value += 1e-3
    doc["diameter"] = report.diameter.value
    assert "diameter off pi/2" in check((report, doc))
    assert "disagrees" in check((report, dict(doc, thickness=0.0)))

    fake = SimpleNamespace(booleans=[True, True, False, True, True])
    assert workloads.Roundtrip._check(True)(fake) is not None
    assert workloads.Roundtrip._check(False)(fake) is not None

    ok = subprocess.CompletedProcess([], 2, stdout="", stderr="error: bad\n")
    assert workloads.cli_outcome(ok, 2) is None
    assert workloads.cli_outcome(ok, 0) is not None
    crash = subprocess.CompletedProcess([], 2, stdout="", stderr="Traceback (most")
    assert workloads.cli_outcome(crash, 2) == "output holds a traceback"


def test_tracer_catches_cross_module_call():
    original = metrics.thickness
    poly = construct.random_convex_polygon(3, n=6, max_diam=0.8)
    frame = wulff.frame_at(poly.enclosing_center)
    shape = wulff.project_to_plane(poly, frame, n=64)
    tr = tracing.Tracer(extreme_points=body.extreme_points)
    tr.install()
    try:
        assert wulff.thickness is not original and metrics.thickness is not original
        wulff.self_dual_equivalence_report(shape, frame, tol=1e-4, n=64, dual_n=64)
    finally:
        tr.uninstall()
    assert wulff.thickness is original and metrics.thickness is original
    assert not tr.missing, tr.missing
    names = [s[tracing.NAME] for s in tr.spans]
    thick = [s for s in tr.spans if s[tracing.NAME] == "metrics.thickness"]
    # called by wulff directly, and by metrics.reduced_check on wulff's behalf
    assert any(names[s[tracing.PARENT]] == "wulff.self_dual_equivalence_report"
               for s in thick)
    golden = [s for s in tr.spans if s[tracing.NAME] == "search.golden_max"]
    assert golden and all(names[s[tracing.PARENT]].startswith("metrics.") for s in golden)
    summary = tr.summarize(1)
    assert list(summary) == [name for name, _ in tracing.metric_catalog()]
    assert summary["metrics.thickness.calls"] == len(thick)
    assert summary["body.support_extreme.dir_arcs"] > 0
    assert summary["wulff.hausdorff_polygons.pairs"] > 0


def test_runner_fails_without_package():
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    try:
        shutil.copytree(BENCH, scratch / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "analyze",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except Exception as exc:
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
