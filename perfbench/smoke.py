"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

It checks that BENCHMARK.json names exactly the metrics the benchmark
emits, that each workload's untraced and traced runs emit every metric
with its unit and pass their output checks, that ``--jobs 2`` gives the
same report as ``--jobs 1``, and that the output checks catch a wrong
score and a changed report.  Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

TINY_PAGES = {"small-pages": 60, "text-pages": 2, "table-pages": 2}
SEED = 7


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}")
    raise SystemExit(1)


def check_benchmark_file() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != run.END_TO_END:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != spans.LAYER_METRICS:
        fail("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")


def run_once(workload: str, trace: int, units: dict) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "0", "--trace", str(trace), "--pages", str(TINY_PAGES[workload])]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} trace={trace} exited {proc.returncode}\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={result['correct']} failed={result['failed']}")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != units:
        fail(f"{workload} trace={trace}: metrics {sorted(emitted)} differ from {sorted(units)}")
    if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        fail(f"{workload} trace={trace}: a metric value is not a number")
    print(f"smoke: ok {workload} trace={trace} ({len(emitted)} metrics)")
    return lines


def check_checks() -> None:
    """The output checks must reject a planted wrong score and a changed report."""
    with contextlib.redirect_stdout(io.StringIO()):  # the expected CHECK FAILED lines
        rejected = _planted_failures()
    if rejected:
        fail(rejected)
    print("smoke: ok output checks reject a wrong score and changed bytes")


def _planted_failures() -> str:
    page = {
        "page_id": "p", "consistency": 1.0, "table": None,
        "fidelity": {"ned": 0.9, "adjusted_ned": 0.8, "tokens_found": 1.0, "tokens_added": 0.0,
                     "cer": 0.1, "wer": 0.1},
    }
    checks = run.Checks()
    run.check_scores(page, checks)
    if not checks.failures:
        return "check_scores accepted adjusted_ned < ned"
    report = {"aggregate": {"page_count": 1}, "pages": [page]}
    expected = json.dumps(report).encode()
    page["fidelity"] = dict(page["fidelity"], ned=0.5)
    checks = run.Checks()
    if run.check_report(json.dumps(report).encode(), expected, 1, checks, "smoke") != 1 or not checks.failures:
        return "check_report accepted a page whose score differs"
    checks = run.Checks()
    if run.check_report(expected + b" ", expected, 1, checks, "smoke") != 1 or not checks.failures:
        return "check_report accepted report bytes that differ"
    return ""


def main() -> int:
    check_benchmark_file()
    check_checks()
    for workload, spec in run.WORKLOADS.items():
        for trace, units in ((0, run.END_TO_END), (1, spans.LAYER_METRICS)):
            lines = run_once(workload, trace, units)
            label = f"CLI run with --jobs {spec.check_jobs}:"
            if spec.check_jobs and not any(line.startswith(label) for line in lines):
                fail(f"{workload} trace={trace}: no {label} check")
    print("smoke: ok every workload's --jobs check ran and passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
