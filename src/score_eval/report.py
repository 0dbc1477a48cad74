"""Per-page evaluation, dataset aggregation, and report rendering."""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import EmptyDataset, EmptyReference, MalformedInput
from .hierarchy import (
    CategoryMap,
    ConfusionMatrix,
    PreparedPage,
    build_confusion,
    consistency_score,
    match_elements,
)
from .ingest import PagePair
from .tableeval import (
    DetectionResult,
    _table_teds,
    content_index_accuracy,
    match_tables,
)
from .textmetrics import (
    FidelityScores,
    TokenizerConfig,
    _alignment_similarity,
    _cer_from_distance,
    _ned_from_distance,
    content_tokens,
    levenshtein,
    ned,
    page_text,
    table_similarities,
    tokens_added,
    tokens_found,
    wer,
)

_UNICODE_FORMS = ("none", "NFC", "NFKC")
# the RunConfig fields that hold floats, each required to be finite
FLOAT_FIELDS = ("det_tau", "det_beta", "sim_threshold", "index_gate", "diff_epsilon")


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one evaluation run; echoed into reports verbatim."""

    tokenizer: TokenizerConfig = TokenizerConfig()
    shift_n: int = 2
    det_tau: float = 0.5
    det_beta: float = 1.0
    sim_threshold: float = 0.5
    index_gate: float = 0.5
    diff_epsilon: float = 0.01
    category_map_path: Optional[str] = None
    formats: tuple[str, ...] = ("json", "csv", "markdown")

    def validate(self) -> None:
        for name in FLOAT_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise MalformedInput(f"{name} must be finite, got {value}")
        if self.shift_n < 0:
            raise MalformedInput(f"shift_n must be >= 0, got {self.shift_n}")
        if not 0.0 < self.det_tau <= 1.0:
            raise MalformedInput(f"det_tau must be in (0, 1], got {self.det_tau}")
        if self.det_beta <= 0.0:
            raise MalformedInput(f"det_beta must be positive, got {self.det_beta}")
        if not math.isfinite(self.det_beta * self.det_beta):
            raise MalformedInput(
                f"det_beta must be at most about 1.34e154 (its square must be finite), got {self.det_beta}"
            )
        if not 0.0 <= self.sim_threshold <= 1.0:
            raise MalformedInput(f"sim_threshold must be in [0, 1], got {self.sim_threshold}")
        if not 0.0 <= self.index_gate <= 1.0:
            raise MalformedInput(f"index_gate must be in [0, 1], got {self.index_gate}")
        if self.diff_epsilon < 0.0:
            raise MalformedInput(f"diff_epsilon must be >= 0, got {self.diff_epsilon}")
        if self.tokenizer.unicode_normalize not in _UNICODE_FORMS:
            raise MalformedInput(f"unicode_normalize must be one of {_UNICODE_FORMS}")
        if not self.formats:
            raise MalformedInput("formats must name at least one output format")
        unknown = set(self.formats) - {"json", "csv", "markdown"}
        if unknown:
            raise MalformedInput(f"unknown output formats: {sorted(unknown)}")

    def category_map(self) -> CategoryMap:
        if self.category_map_path:
            return CategoryMap.from_file(self.category_map_path)
        return CategoryMap.default()

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "formats": list(self.formats)}


@dataclass(frozen=True, slots=True)
class TableScores:
    """Per-page table metrics; accuracy means are per ground-truth table."""

    detection: DetectionResult
    content_acc: Optional[float]
    index_acc: Optional[float]
    teds: Optional[float]


@dataclass(slots=True)
class PageReport:
    page_id: str
    fidelity: FidelityScores
    table: Optional[TableScores]
    consistency: float
    confusion: ConfusionMatrix
    notices: list[str] = field(default_factory=list)


@dataclass
class AggregateReport:
    page_count: int
    means: dict[str, Optional[float]]
    diff_count: int
    diff_avg: Optional[float]
    run_config: RunConfig
    notices: list[str] = field(default_factory=list)


def evaluate_page(
    pair: PagePair,
    cfg: RunConfig = RunConfig(),
    cmap: Optional[CategoryMap] = None,
) -> PageReport:
    """Compute the full metric vector for one page pair."""
    cmap = cmap if cmap is not None else cfg.category_map()
    gt = PreparedPage(pair.gt, cfg.tokenizer, cmap)
    pred = PreparedPage(pair.pred, cfg.tokenizer, cmap)
    notices = [f"gt {n}" for n in gt.notices] + [f"pred {n}" for n in pred.notices]
    # the page's one NED source, read as (pred string, GT string) by the element and table metrics
    ned_of = functools.cache(ned)

    gt_text = page_text(gt.page)
    pred_text = page_text(pred.page)
    # one page-level distance feeds raw NED, the adjusted-NED floor and CER
    distance = levenshtein(pred_text, gt_text)
    raw_ned = _ned_from_distance(distance, pred_text, gt_text)
    # the page's one table similarity matrix, read by the alignment and by detection
    table_sims = table_similarities(pred, gt)
    adj = max(raw_ned, _alignment_similarity(pred, gt, ned_of, table_sims))
    gt_bag = content_tokens(gt)
    pred_bag = content_tokens(pred)
    try:
        cer_value: Optional[float] = _cer_from_distance(distance, gt_text)
    except EmptyReference:
        cer_value = None
        notices.append("cer undefined: empty ground-truth text")
    try:
        wer_value: Optional[float] = wer(pred_text, gt_text)
    except EmptyReference:
        wer_value = None
        notices.append("wer undefined: empty ground-truth text")
    fidelity = FidelityScores(
        ned=raw_ned,
        adjusted_ned=adj,
        tokens_found=tokens_found(pred_bag, gt_bag),
        tokens_added=tokens_added(pred_bag, gt_bag),
        cer=cer_value,
        wer=wer_value,
    )

    table_scores = None
    # detection's pairs as (GT element, pred element, similarity), the page's one table pairing
    table_pairs: Sequence[tuple[int, int, float]] = ()
    if gt.tables or pred.tables:
        detection = match_tables(
            [pred.bags[i] for i in pred.tables], [gt.bags[i] for i in gt.tables], cfg.det_tau, cfg.det_beta, table_sims
        )
        table_pairs = sorted((gt.tables[gi], pred.tables[pi], sim) for pi, gi, sim in detection.pairs)
        content_sum = index_sum = teds_sum = 0.0
        # GT order keeps the order of the sums; a missed GT table adds nothing
        for i, j, _ in table_pairs:
            p, g = pred.page.elements[j].table, gt.page.elements[i].table
            accuracy = content_index_accuracy(p, g, cfg.shift_n, cfg.index_gate, ned_of)
            content_sum += accuracy.content_acc
            index_sum += accuracy.index_acc
            teds_sum += _table_teds(p, g, ned_of)
        count = len(gt.tables)
        table_scores = TableScores(
            detection=detection,
            content_acc=content_sum / count if count else None,
            index_acc=index_sum / count if count else None,
            teds=teds_sum / count if count else None,
        )

    matching = match_elements(gt, pred, cfg.sim_threshold, ned_of, table_pairs)
    confusion = build_confusion(matching, gt.page, pred.page, cmap)
    consistency = consistency_score(confusion)

    return PageReport(
        page_id=pair.page_id,
        fidelity=fidelity,
        table=table_scores,
        consistency=consistency,
        confusion=confusion,
        notices=notices,
    )


def evaluate_pairs(
    pairs: Sequence[PagePair],
    cfg: RunConfig = RunConfig(),
    cmap: Optional[CategoryMap] = None,
    notices: Optional[list[str]] = None,
) -> list[PageReport]:
    """Evaluate pages one after another; output order is by page id.

    A page whose evaluation raises ends the call, unless ``notices`` is
    given: then the page is left out and ``notices`` gets
    ``failed to evaluate <page id>: <exception type>: <message>``.
    """
    cmap = cmap if cmap is not None else cfg.category_map()
    reports = []
    for pair in sorted(pairs, key=lambda p: p.page_id):
        try:
            reports.append(evaluate_page(pair, cfg, cmap))
        except Exception as exc:
            if notices is None:
                raise
            notices.append(f"failed to evaluate {pair.page_id}: {type(exc).__name__}: {exc}")
    return reports


# (mean key, CSV header, getter) of every per-page metric, in report order
_METRICS = (
    ("adjusted_ned", "Adj. NED", lambda r: r.fidelity.adjusted_ned),
    ("ned", "NED", lambda r: r.fidelity.ned),
    ("tokens_found", "T. Found", lambda r: r.fidelity.tokens_found),
    ("tokens_added", "T. Added", lambda r: r.fidelity.tokens_added),
    ("cer", "CER", lambda r: r.fidelity.cer),
    ("wer", "WER", lambda r: r.fidelity.wer),
    ("content_acc", "Content Acc.", lambda r: r.table.content_acc if r.table else None),
    ("index_acc", "Index Acc.", lambda r: r.table.index_acc if r.table else None),
    ("detection_f1", "Detection F1", lambda r: r.table.detection.f_beta if r.table else None),
    ("teds", "TEDS", lambda r: r.table.teds if r.table else None),
    ("consistency", "Consistency Level", lambda r: r.consistency),
)


def aggregate(
    reports: Sequence[PageReport],
    cfg: RunConfig = RunConfig(),
    notices: Optional[Sequence[str]] = None,
) -> AggregateReport:
    """Unweighted per-page means plus the diff-page statistics.

    A page counts as a diff page when its adjusted similarity exceeds
    the raw one, by at least diff_epsilon; metrics undefined for a page
    (no table block, empty reference) simply do not contribute to their
    mean.
    """
    if not reports:
        raise EmptyDataset("nothing to aggregate")
    means: dict[str, Optional[float]] = {}
    for name, _, getter in _METRICS:
        values = [v for v in (getter(r) for r in reports) if v is not None]
        # fsum keeps the mean exact, hence permutation-invariant
        means[name] = math.fsum(values) / len(values) if values else None
    gaps = [gap for gap in (r.fidelity.adjusted_ned - r.fidelity.ned for r in reports)
            if gap > 0.0 and gap >= cfg.diff_epsilon]
    return AggregateReport(
        page_count=len(reports),
        means=means,
        diff_count=len(gaps),
        diff_avg=math.fsum(gaps) / len(gaps) if gaps else None,
        run_config=cfg,
        notices=list(notices or []),
    )


_CSV_COLUMNS = (
    ("Page", lambda r: r.page_id),
    *((header, getter) for _, header, getter in _METRICS),
    ("Notices", lambda r: " | ".join(r.notices)),
)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _plain(value):
    """``value`` as report.json holds it: a ``ConfusionMatrix`` is its
    nonzero counts nested by label, any other dataclass the dict of its
    fields in field order, each converted the same way; the rest as is."""
    if isinstance(value, ConfusionMatrix):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def _render_json(agg: AggregateReport, pages: Sequence[PageReport]) -> bytes:
    payload = {"aggregate": _plain(agg), "pages": [_plain(p) for p in pages]}
    return (json.dumps(payload, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _render_csv(pages: Sequence[PageReport]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([name for name, _ in _CSV_COLUMNS])
    for page in pages:
        writer.writerow([_fmt(getter(page)) for _, getter in _CSV_COLUMNS])
    return buffer.getvalue().encode("utf-8")


def _render_markdown(agg: AggregateReport, pages: Sequence[PageReport]) -> bytes:
    m = agg.means
    diff = f"{agg.diff_count}/{agg.page_count}"
    lines = [
        "# Evaluation summary",
        "",
        f"Pages evaluated: {agg.page_count}",
        "",
        "## Content fidelity",
        "",
        "| Adj. NED | NED | Diff | Avg. | T. Added | T. Found |",
        "|---|---|---|---|---|---|",
        "| {} | {} | {} | {} | {} | {} |".format(
            _fmt(m["adjusted_ned"]), _fmt(m["ned"]), diff, _fmt(agg.diff_avg),
            _fmt(m["tokens_added"]), _fmt(m["tokens_found"]),
        ),
        "",
        "## Table structure",
        "",
        "| Content Acc. | Index Acc. | Detection F1 | TEDS |",
        "|---|---|---|---|",
        "| {} | {} | {} | {} |".format(
            _fmt(m["content_acc"]), _fmt(m["index_acc"]),
            _fmt(m["detection_f1"]), _fmt(m["teds"]),
        ),
        "",
        "## Element alignment",
        "",
        "| Consistency Level |",
        "|---|",
        f"| {_fmt(m['consistency'])} |",
    ]
    if agg.notices:
        lines += ["", "## Notices", ""]
        lines += [f"- {note}" for note in agg.notices]
    page_notes = [(p.page_id, n) for p in pages for n in p.notices]
    if page_notes:
        lines += ["", "## Page notices", ""]
        lines += [f"- {page_id}: {note}" for page_id, note in page_notes]
    lines += ["", "## Configuration", ""]
    config = agg.run_config.to_dict()
    tokenizer = config.pop("tokenizer")
    for key, value in {**config, **tokenizer}.items():
        lines.append(f"- {key}: {value}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def render(agg: AggregateReport, pages: Sequence[PageReport], fmt: str) -> bytes:
    """Serialize the run into one of: json, csv, markdown."""
    if fmt == "json":
        return _render_json(agg, pages)
    if fmt == "csv":
        return _render_csv(pages)
    if fmt == "markdown":
        return _render_markdown(agg, pages)
    raise MalformedInput(f"unknown render format {fmt!r}")


_OUTPUT_NAMES = {"json": "report.json", "csv": "pages.csv", "markdown": "summary.md"}


def write_reports(
    agg: AggregateReport,
    pages: Sequence[PageReport],
    out_dir: Union[str, Path],
) -> list[Path]:
    """Write every configured format under out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for fmt in agg.run_config.formats:
        path = out / _OUTPUT_NAMES[fmt]
        path.write_bytes(render(agg, pages, fmt))
        written.append(path)
    return written
