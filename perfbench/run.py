"""Seeded batch-evaluation benchmark for score-eval (see README.md here).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-pages --seed 1 --seconds 36 --trace 0

The run generates the workload's corpus from ``--seed`` and measures it
two ways, one client at a time: the CLI in a child process over the whole
corpus, and ``evaluate_page`` in-process, page after page, interleaved
over the window.  Every CLI
report is checked against the in-process results; a failed check prints
``CHECK FAILED`` and makes the run exit 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a traced in-process run of the CLI's ``main``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import corpus as corpora  # noqa: E402
import spans  # noqa: E402


@dataclass(frozen=True)
class Corpus:
    root: Path
    attempted: int  # stems the CLI attempts: one per ground-truth file
    bad: list[str]  # planted stems the CLI must skip with a notice

    @property
    def expected(self) -> int:
        return self.attempted - len(self.bad)


@dataclass(frozen=True)
class Workload:
    corpus: str
    pages: int
    jobs: int
    dominant: tuple[str, str]  # (layer, "self" or "owned"): where the trace should find most time
    check_jobs: int = 0  # if set, one untimed CLI run with this --jobs must give the same report.json


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "small-pages": Workload("small-pages", 700, 1, ("textmetrics", "self"), check_jobs=2),
    "text-pages": Workload("text-pages", 12, 1, ("textmetrics", "self")),
    "table-pages": Workload("table-pages", 8, 1, ("tableeval", "owned")),
}

END_TO_END = {
    "pages_per_s": "pages/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "page_p50_ms": "ms",
    "page_tail_ms": "ms",
    "pages_failed_ratio": "ratio",
}

# Share of a run's window each kind of sample gets (see interleave).  CLI
# runs and in-process pages get most of it: a CLI run takes seconds, and
# on text-pages and table-pages so does a page, so each has few samples.
SHARES = {"cli": 0.5, "page": 0.4, "setup": 0.1}
TAIL_FLOOR_PCT = 90
WARMUP_PAGES = 20
WARMUP_SECONDS = 1.0
CLI_TIMEOUT_S = 120.0
# What a fresh interpreter does before the CLI reads its first file.
SETUP_CODE = (
    "import sys, score_eval.cli\n"
    "from score_eval.report import RunConfig\n"
    "cfg = RunConfig(); cfg.validate(); cfg.category_map()\n"
    "sys.stdout.write('ready\\n'); sys.stdout.flush()\n"
)
SCORE_FIELDS = ("ned", "adjusted_ned", "tokens_found", "tokens_added")
TABLE_FIELDS = ("content_acc", "index_acc", "teds")


class Checks:
    """Collects failed output checks; any failure fails the run."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", flush=True)
        return ok


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program():
    """Import score_eval from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "score_eval" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src / 'score_eval'}")
    sys.path.insert(0, str(src))
    import score_eval
    import score_eval.cli  # noqa: F401  (the traced run hooks the CLI layer too)

    if Path(score_eval.__file__).resolve().parent != (src / "score_eval").resolve():
        raise SystemExit(f"perfbench: imported score_eval from {score_eval.__file__}, not {src}")
    return score_eval


def prepare_corpus(workload: Workload, seed: int, pages: int, checks: Checks) -> Corpus:
    """Generate, check determinism by digest, write, and read back."""
    files, bad = corpora.make_corpus(workload.corpus, seed, pages)
    digest = corpora.corpus_digest(files)
    again, _ = corpora.make_corpus(workload.corpus, seed, pages)
    checks.expect(corpora.corpus_digest(again) == digest, "generator is not deterministic for this seed")
    root = WORK / f"{workload.corpus}-s{seed}-n{pages}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    corpora.write_corpus(files, root)
    checks.expect(corpora.corpus_digest(corpora.read_corpus(root)) == digest, "corpus on disk differs from generated")
    print(f"corpus {workload.corpus} seed={seed} pages={pages} planted_bad={len(bad)} sha256={digest}")
    return Corpus(root, pages + len(bad), bad)


# -- end-to-end measurement ----------------------------------------------------

def setup_sample() -> float:
    """Seconds from spawning a fresh interpreter until it is ready to read files."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
    finally:
        proc.stdout.close()
        proc.wait()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed with exit code {proc.returncode}")
    return ready - start


def run_cli(corpus: Path, jobs: int) -> tuple[int, float, float]:
    """One CLI run writing all three formats: (exit code, wall seconds, peak RSS in MiB)."""
    out = corpus / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, "-m", "score_eval.cli", "--gt", str(corpus / "gt"),
            "--pred", str(corpus / "pred"), "--out", str(out), "--jobs", str(jobs)]
    with open(corpus / "cli.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """(p, value): the highest whole percentile with ten samples above it, at least p90.

    Nearest rank.  Fewer than 100 samples get p90, which then has fewer
    than ten samples above it; the run prints which it was.
    """
    ordered = sorted(samples)
    n = len(ordered)
    p = max(TAIL_FLOOR_PCT, math.floor(100 * (n - 10) / n))
    while p > TAIL_FLOOR_PCT and n - math.ceil(p * n / 100) < 10:
        p -= 1
    return p, ordered[max(0, math.ceil(p * n / 100) - 1)]


def check_scores(page: dict, checks: Checks) -> None:
    fid = page["fidelity"]
    pid = page["page_id"]
    for name in SCORE_FIELDS:
        checks.expect(0.0 <= fid[name] <= 1.0, f"{pid}: {name}={fid[name]} outside [0, 1]")
    checks.expect(fid["adjusted_ned"] >= fid["ned"], f"{pid}: adjusted_ned < ned")
    for name in ("cer", "wer"):
        checks.expect(fid[name] is None or fid[name] >= 0.0, f"{pid}: {name} negative")
    checks.expect(0.0 <= page["consistency"] <= 1.0, f"{pid}: consistency outside [0, 1]")
    table = page["table"]
    if table is not None:
        for name in TABLE_FIELDS:
            value = table[name]
            checks.expect(value is None or 0.0 <= value <= 1.0, f"{pid}: {name}={value} outside [0, 1]")
        det = table["detection"]
        for name in ("precision", "recall", "f_beta"):
            checks.expect(0.0 <= det[name] <= 1.0, f"{pid}: detection {name} outside [0, 1]")


def check_report(raw: bytes, expected: bytes, expected_pages: int, checks: Checks, label: str) -> int:
    """A CLI report must equal, byte for byte, the in-process serial result.

    Returns the number of pages that are missing or wrong.
    """
    report = json.loads(raw)
    count = report["aggregate"]["page_count"]
    checks.expect(count == expected_pages, f"{label}: {count} pages in report, expected {expected_pages}")
    if raw == expected:
        return 0
    mine = {p["page_id"]: p for p in json.loads(expected)["pages"]}
    theirs = {p["page_id"]: p for p in report["pages"]}
    wrong = sorted(pid for pid in mine.keys() | theirs.keys() if mine.get(pid) != theirs.get(pid))
    if wrong:
        checks.expect(False, f"{label}: {len(wrong)} pages differ from in-process evaluate_page, first {wrong[0]}")
    else:
        checks.expect(False, f"{label}: report.json bytes differ from the in-process report")
    return max(1, len(wrong))


def check_jobs(workload: Workload, corpus: Corpus, expected: bytes, checks: Checks) -> int:
    """One untimed CLI run with ``--jobs workload.check_jobs``, after the window.

    Parallelism may change no byte of the report, so its report.json must
    equal the serial one.  Returns the number of pages missing or wrong.
    """
    if not workload.check_jobs:
        return 0
    code, wall, _ = run_cli(corpus.root, workload.check_jobs)
    label = f"CLI run with --jobs {workload.check_jobs}"
    print(f"{label}: {wall:.3f} s, untimed; its report.json must equal the serial one")
    report_path = corpus.root / "out" / "report.json"
    if not checks.expect(code == 0 and report_path.is_file(), f"{label} exited with {code}"):
        return corpus.attempted
    return check_report(report_path.read_bytes(), expected, corpus.expected, checks, label)


def warm_up(score_eval, pairs, cfg, cmap) -> None:
    """Untimed evaluations that let lazy imports and caches settle."""
    stop = time.perf_counter() + WARMUP_SECONDS
    for pair in pairs[:WARMUP_PAGES]:
        score_eval.evaluate_page(pair, cfg, cmap)
        if time.perf_counter() > stop:
            break


def interleave(seconds: float, units: dict, shares: dict, minimum: dict) -> None:
    """Run units of work of several kinds until the window closes.

    ``units`` maps a kind to a callable that runs one unit of it.  Kinds
    below their minimum (``minimum[kind]()`` is false) go first, so a
    zero window still gives every metric a sample.  After that, the next
    unit goes to the kind furthest below its share of the time spent so
    far, among the kinds whose last unit would still end inside the
    window; the window closes when none would.  Every kind's samples so
    spread over the whole run, and a slow spell of the host weighs on all
    metrics alike and on few of any one metric's samples.
    """
    spent = dict.fromkeys(units, 0.0)
    last = dict.fromkeys(units, 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        kinds = [kind for kind in units if not minimum[kind]()]
        if not kinds:
            kinds = [kind for kind in units if now + last[kind] <= deadline]
            if not kinds:
                return
        kind = min(kinds, key=lambda k: spent[k] / shares[k])
        units[kind]()
        last[kind] = time.perf_counter() - now
        spent[kind] += last[kind]


def measure(score_eval, workload: Workload, corpus: Corpus, seconds: float, checks: Checks) -> tuple[int, int, dict]:
    """Interleaved CLI runs, set-up samples and in-process pages until the window ends.

    In-process pages go round the corpus in order.  A page's latency is
    the median of its samples, and ``page_p50_ms`` and ``page_tail_ms``
    are taken over pages, so each page weighs the same however many
    samples the window gave it, and a slow spell of the host moves few
    pages' medians.
    """
    cfg = score_eval.RunConfig()
    pairs, notices = score_eval.pair_pages(corpus.root / "gt", corpus.root / "pred")
    cmap = cfg.category_map()
    warm_up(score_eval, pairs, cfg, cmap)

    setup, cli_runs = [], []
    latencies: list[list[float]] = [[] for _ in pairs]  # per page
    first: list = []  # each page's first in-process report
    evaluated = 0

    def page_unit() -> None:
        nonlocal evaluated
        index = evaluated % len(pairs)
        start = time.perf_counter()
        report = score_eval.evaluate_page(pairs[index], cfg, cmap)
        latencies[index].append(time.perf_counter() - start)
        evaluated += 1
        if len(first) < len(pairs):
            first.append(report)
        else:
            checks.expect(repr(report) == repr(first[index]),
                          f"{pairs[index].page_id}: in-process result changed between passes")

    def cli_unit() -> None:
        code, wall, peak = run_cli(corpus.root, workload.jobs)
        report_path = corpus.root / "out" / "report.json"
        raw = report_path.read_bytes() if code == 0 and report_path.is_file() else None
        cli_runs.append((code, wall, peak, raw))

    minimum = {"cli": lambda: cli_runs, "setup": lambda: setup, "page": lambda: len(first) == len(pairs)}
    units = {"cli": cli_unit, "setup": lambda: setup.append(setup_sample()), "page": page_unit}
    interleave(seconds, units, SHARES, minimum)

    expected = score_eval.render(score_eval.aggregate(first, cfg, notices), first, "json")
    for page in json.loads(expected)["pages"]:
        check_scores(page, checks)
    throughput, rss, failed_ratio = [], [], []
    failed = 0
    for n, (code, wall, peak, raw) in enumerate(cli_runs, 1):
        if not checks.expect(raw is not None, f"CLI run {n} exited with {code}"):
            failed += corpus.attempted
            throughput.append(0.0)
            failed_ratio.append(1.0)
            continue
        reported = json.loads(raw)["aggregate"]["page_count"]
        throughput.append(reported / wall)
        rss.append(peak)
        failed_ratio.append((corpus.attempted - reported) / corpus.attempted)
        failed += check_report(raw, expected, corpus.expected, checks, f"CLI run {n}")
    failed += check_jobs(workload, corpus, expected, checks)

    per_page = [statistics.median(samples) for samples in latencies]
    pct, tail = tail_percentile(per_page)
    metrics = {
        "pages_per_s": statistics.median(throughput),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "page_p50_ms": statistics.median(per_page) * 1e3,
        "page_tail_ms": tail * 1e3,
        "pages_failed_ratio": max(failed_ratio),
    }
    print(f"report_sha256 {hashlib.sha256(expected).hexdigest()}"
          f"  (in-process serial render; every CLI report.json with --jobs {workload.jobs} must equal it)")
    print(f"cli_runs {len(cli_runs)}  inprocess_samples {evaluated}  setup_samples {len(setup)}")
    print("cli_wall_s " + " ".join(f"{wall:.3f}" for _, wall, _, _ in cli_runs))
    beyond = len(per_page) - math.ceil(pct * len(per_page) / 100)
    counts = sorted({len(samples) for samples in latencies})
    print(f"page_tail_ms is p{pct} of {len(per_page)} pages ({beyond} above it);"
          f" a page's latency is the median of its {'-'.join(map(str, counts))} samples")
    for name, unit in END_TO_END.items():
        print(f"{name:<20} {metrics[name]:>14.6f} {unit}")
    return len(cli_runs) * corpus.attempted + evaluated, failed, metrics


# -- traced run ---------------------------------------------------------------------

def run_main_inprocess(score_eval, corpus: Path, jobs: int) -> tuple[int, float]:
    """The CLI's main called in this process: (exit code, wall seconds)."""
    out = corpus / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = ["--gt", str(corpus / "gt"), "--pred", str(corpus / "pred"), "--out", str(out), "--jobs", str(jobs)]
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
        code = score_eval.cli.main(argv)
    return code, time.perf_counter() - start


def measure_traced(score_eval, workload: Workload, corpus: Corpus, seconds: float, checks: Checks,
                   spans_path: Path) -> tuple[int, int, dict]:
    """Pairs of one untraced and one traced in-process CLI pass until the window ends."""
    cfg = score_eval.RunConfig()
    warm_up(score_eval, score_eval.pair_pages(corpus.root / "gt", corpus.root / "pred")[0], cfg, cfg.category_map())

    plain, traced, passes = [], [], []
    reference = last = None
    failed = 0

    def pair_unit() -> None:
        nonlocal reference, last, failed
        for tracing in (False, True):
            tracer = spans.Tracer()
            if tracing:
                tracer.install()
            try:
                code, wall = run_main_inprocess(score_eval, corpus.root, workload.jobs)
            finally:
                tracer.remove()
            if tracing:
                traced.append(wall)
                passes.append(spans.summarize(tracer.spans, workload.jobs))
                last = tracer
            else:
                plain.append(wall)
            if not checks.expect(code == 0, f"in-process CLI main returned {code}"):
                failed += corpus.attempted
                continue
            raw = (corpus.root / "out" / "report.json").read_bytes()
            report = json.loads(raw)
            reported = report["aggregate"]["page_count"]
            checks.expect(reported == corpus.expected, f"{reported} pages in report, expected {corpus.expected}")
            failed += abs(corpus.expected - reported)
            if reference is None:
                reference = raw
                for page in report["pages"]:
                    check_scores(page, checks)
            checks.expect(raw == reference, "report.json changed between passes")

    interleave(seconds, {"pair": pair_unit}, {"pair": 1.0}, {"pair": lambda: passes})

    for name in spans.COUNT_METRICS:
        values = {p[name] for p in passes}
        checks.expect(len(values) == 1, f"count {name} differs between traced passes: {sorted(values)}")
    if reference is not None:
        failed += check_jobs(workload, corpus, reference, checks)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics.update({name: passes[0][name] for name in spans.COUNT_METRICS})
    metrics["trace.hooks_missing"] = len(last.missing)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)

    last.write(spans_path)
    print_trace_summary(workload, last, metrics, len(passes), spans_path)
    return (len(plain) + len(traced)) * corpus.attempted, failed, metrics


def print_trace_summary(workload: Workload, tracer: spans.Tracer, metrics: dict, n_passes: int,
                        spans_path: Path) -> None:
    print(f"trace summary: {n_passes} traced passes, medians; spans of the last pass in {spans_path.name}")
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) or 1.0
    print(f"{'layer':<12} {'self_s':>10} {'share':>7} {'owned_s':>10} {'share':>7}")
    for layer in spans.LAYERS:
        own, owned = metrics[f"{layer}.self_s"], metrics[f"{layer}.owned_s"]
        print(f"{layer:<12} {own:>10.4f} {own / total:>7.1%} {owned:>10.4f} {owned / total:>7.1%}")
    expected_layer, measure = workload.dominant
    for kind in ("self", "owned"):
        dominant = max(spans.LAYERS, key=lambda layer: metrics[f"{layer}.{kind}_s"])
        verdict = ""
        if kind == measure:
            verdict = " (as expected)" if dominant == expected_layer else f" (EXPECTED {expected_layer})"
        print(f"dominant layer by {kind} time: {dominant}{verdict}")
    for name, unit in spans.LAYER_METRICS.items():
        value = metrics[name]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
        print(f"{name:<44} {shown:>16} {unit}")
    for name in spans.NAMES:
        if name in tracer.missing:
            print(f"hook {name}: MISSING")
        else:
            print(f"hook {name}: {len(tracer.bindings[name])} bindings")


# -- entry point ------------------------------------------------------------------

def result_line(checks: Checks, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": not checks.failures and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pages", type=int, help="corpus size (default: the workload's own)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    score_eval = import_program()
    WORK.mkdir(exist_ok=True)
    checks = Checks()
    corpus = prepare_corpus(workload, args.seed, args.pages or workload.pages, checks)
    try:
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-s{args.seed}.jsonl"
            attempted, failed, metrics = measure_traced(score_eval, workload, corpus, args.seconds, checks,
                                                        spans_path)
            units = spans.LAYER_METRICS
        else:
            attempted, failed, metrics = measure(score_eval, workload, corpus, args.seconds, checks)
            units = END_TO_END
    finally:
        shutil.rmtree(corpus.root, ignore_errors=True)
    print(result_line(checks, attempted, failed, metrics, units), flush=True)
    return 0 if not checks.failures and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
