"""Per-page evaluation, dataset aggregation, and report rendering."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import EmptyDataset, EmptyReference, MalformedInput, ScoreEvalError
from .hierarchy import CategoryMap, ConfusionMatrix, build_confusion, consistency_score, match_elements
from .ingest import DocumentPage, PagePair, parse_table_html
from .tableeval import (
    DetectionResult,
    build_table_tree,
    content_index_accuracy,
    match_tables,
    teds,
)
from .textmetrics import (
    FidelityScores,
    TokenizerConfig,
    _alignment_similarity,
    _cer_from_distance,
    _ned_from_distance,
    content_tokens,
    levenshtein,
    page_text,
    tokens_added,
    tokens_found,
    wer,
)

_UNICODE_FORMS = ("none", "NFC", "NFKC")


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
    jobs: int = 1

    def validate(self) -> None:
        if self.shift_n < 0:
            raise MalformedInput(f"shift_n must be >= 0, got {self.shift_n}")
        if not 0.0 < self.det_tau <= 1.0:
            raise MalformedInput(f"det_tau must be in (0, 1], got {self.det_tau}")
        if self.det_beta <= 0.0:
            raise MalformedInput(f"det_beta must be positive, got {self.det_beta}")
        if not 0.0 <= self.sim_threshold <= 1.0:
            raise MalformedInput(f"sim_threshold must be in [0, 1], got {self.sim_threshold}")
        if not 0.0 <= self.index_gate <= 1.0:
            raise MalformedInput(f"index_gate must be in [0, 1], got {self.index_gate}")
        if self.diff_epsilon < 0.0:
            raise MalformedInput(f"diff_epsilon must be >= 0, got {self.diff_epsilon}")
        if self.jobs < 1:
            raise MalformedInput(f"jobs must be >= 1, got {self.jobs}")
        if self.tokenizer.unicode_normalize not in _UNICODE_FORMS:
            raise MalformedInput(f"unicode_normalize must be one of {_UNICODE_FORMS}")
        unknown = set(self.formats) - {"json", "csv", "markdown"}
        if unknown:
            raise MalformedInput(f"unknown output formats: {sorted(unknown)}")

    def category_map(self) -> CategoryMap:
        if self.category_map_path:
            return CategoryMap.from_file(self.category_map_path)
        return CategoryMap.default()

    def to_dict(self) -> dict:
        # jobs is deliberately omitted: parallelism cannot change any
        # number, and reports must be byte-identical across --jobs.
        return {
            "tokenizer": dataclasses.asdict(self.tokenizer),
            "shift_n": self.shift_n,
            "det_tau": self.det_tau,
            "det_beta": self.det_beta,
            "sim_threshold": self.sim_threshold,
            "index_gate": self.index_gate,
            "diff_epsilon": self.diff_epsilon,
            "category_map_path": self.category_map_path,
            "formats": list(self.formats),
        }


@dataclass(frozen=True)
class TableScores:
    """Per-page table metrics; accuracy means are per ground-truth table."""

    detection: DetectionResult
    content_acc: Optional[float]
    index_acc: Optional[float]
    teds: Optional[float]


@dataclass
class PageReport:
    page_id: str
    fidelity: FidelityScores
    table: Optional[TableScores]
    consistency: float
    confusion: ConfusionMatrix
    notices: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        fidelity = dataclasses.asdict(self.fidelity)
        table = None
        if self.table is not None:
            detection = dataclasses.asdict(self.table.detection)
            detection["pairs"] = [list(p) for p in self.table.detection.pairs]
            table = {
                "detection": detection,
                "content_acc": self.table.content_acc,
                "index_acc": self.table.index_acc,
                "teds": self.table.teds,
            }
        return {
            "page_id": self.page_id,
            "fidelity": fidelity,
            "table": table,
            "consistency": self.consistency,
            "confusion": self.confusion.to_dict(),
            "notices": list(self.notices),
        }


@dataclass
class AggregateReport:
    page_count: int
    means: dict[str, Optional[float]]
    diff_count: int
    diff_avg: Optional[float]
    run_config: RunConfig
    notices: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "page_count": self.page_count,
            "means": dict(self.means),
            "diff_count": self.diff_count,
            "diff_avg": self.diff_avg,
            "run_config": self.run_config.to_dict(),
            "notices": list(self.notices),
        }


def _attach_tables(page: DocumentPage, cmap: CategoryMap, notices: list[str], side: str) -> DocumentPage:
    """Parse markup payloads of TABLE-category elements into cell tuples.

    The element's text is left untouched: it is the system's own
    serialization and feeds the raw edit distance.
    """
    elements = []
    for element in page.elements:
        prepared = element
        is_table_category = cmap.category(element.raw_label) == "TABLE"
        if element.table is None and is_table_category:
            if "<" in element.text:
                try:
                    prepared = dataclasses.replace(element, table=parse_table_html(element.text))
                except ScoreEvalError as exc:
                    notices.append(
                        f"{side} element {element.source_order}: table markup not parsed ({exc})"
                    )
            else:
                notices.append(
                    f"{side} element {element.source_order}: table element without table payload"
                )
        elif element.table is not None and not is_table_category:
            notices.append(
                f"{side} element {element.source_order}: non-table element carries a table payload"
            )
        elements.append(prepared)
    return DocumentPage(page_id=page.page_id, elements=elements)


def evaluate_page(
    pair: PagePair,
    cfg: RunConfig = RunConfig(),
    cmap: Optional[CategoryMap] = None,
) -> PageReport:
    """Compute the full metric vector for one page pair."""
    cmap = cmap if cmap is not None else cfg.category_map()
    notices: list[str] = []
    gt = _attach_tables(pair.gt, cmap, notices, "gt")
    pred = _attach_tables(pair.pred, cmap, notices, "pred")

    gt_text = page_text(gt)
    pred_text = page_text(pred)
    # one page-level distance feeds raw NED, the adjusted-NED floor and CER
    distance = levenshtein(pred_text, gt_text)
    raw_ned = _ned_from_distance(distance, pred_text, gt_text)
    adj = max(raw_ned, _alignment_similarity(pred, gt, cfg.tokenizer, cmap.kind))
    gt_bag = content_tokens(gt, cfg.tokenizer)
    pred_bag = content_tokens(pred, cfg.tokenizer)
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

    gt_tables = [e.table for e in gt.elements if e.table is not None]
    pred_tables = [e.table for e in pred.elements if e.table is not None]
    table_scores = None
    if gt_tables or pred_tables:
        detection = match_tables(pred_tables, gt_tables, cfg.det_tau, cfg.det_beta, cfg.tokenizer)
        if gt_tables:
            matched = {gi: pi for pi, gi, _ in detection.pairs}
            content_sum = index_sum = teds_sum = 0.0
            for gi, gt_table in enumerate(gt_tables):
                pi = matched.get(gi)
                if pi is None:
                    continue  # a missed table contributes zero
                accuracy = content_index_accuracy(
                    pred_tables[pi], gt_table, cfg.shift_n, cfg.index_gate
                )
                content_sum += accuracy.content_acc
                index_sum += accuracy.index_acc
                teds_sum += teds(build_table_tree(pred_tables[pi]), build_table_tree(gt_table))
            count = len(gt_tables)
            table_scores = TableScores(
                detection=detection,
                content_acc=content_sum / count,
                index_acc=index_sum / count,
                teds=teds_sum / count,
            )
        else:
            table_scores = TableScores(detection=detection, content_acc=None, index_acc=None, teds=None)

    matching = match_elements(gt, pred, cfg.sim_threshold)
    confusion = build_confusion(matching, gt, pred, cmap)
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
) -> list[PageReport]:
    """Evaluate pages, optionally in parallel; output order is by page id."""
    cmap = cmap if cmap is not None else cfg.category_map()
    ordered = sorted(pairs, key=lambda p: p.page_id)
    if cfg.jobs == 1 or len(ordered) <= 1:
        return [evaluate_page(pair, cfg, cmap) for pair in ordered]
    with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(lambda pair: evaluate_page(pair, cfg, cmap), ordered))


_MEAN_FIELDS = (
    ("adjusted_ned", lambda r: r.fidelity.adjusted_ned),
    ("ned", lambda r: r.fidelity.ned),
    ("tokens_found", lambda r: r.fidelity.tokens_found),
    ("tokens_added", lambda r: r.fidelity.tokens_added),
    ("cer", lambda r: r.fidelity.cer),
    ("wer", lambda r: r.fidelity.wer),
    ("content_acc", lambda r: r.table.content_acc if r.table else None),
    ("index_acc", lambda r: r.table.index_acc if r.table else None),
    ("detection_f1", lambda r: r.table.detection.f_beta if r.table else None),
    ("teds", lambda r: r.table.teds if r.table else None),
    ("consistency", lambda r: r.consistency),
)


def aggregate(
    reports: Sequence[PageReport],
    cfg: RunConfig = RunConfig(),
    notices: Optional[Sequence[str]] = None,
) -> AggregateReport:
    """Unweighted per-page means plus the diff-page statistics.

    A page counts as a diff page when its adjusted similarity exceeds
    the raw one by at least diff_epsilon; metrics undefined for a page
    (no table block, empty reference) simply do not contribute to their
    mean.
    """
    if not reports:
        raise EmptyDataset("nothing to aggregate")
    means: dict[str, Optional[float]] = {}
    for name, getter in _MEAN_FIELDS:
        values = [v for v in (getter(r) for r in reports) if v is not None]
        # fsum keeps the mean exact, hence permutation-invariant
        means[name] = math.fsum(values) / len(values) if values else None
    gaps = [
        r.fidelity.adjusted_ned - r.fidelity.ned
        for r in reports
        if r.fidelity.adjusted_ned - r.fidelity.ned >= cfg.diff_epsilon
    ]
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
    ("Adj. NED", lambda r: r.fidelity.adjusted_ned),
    ("NED", lambda r: r.fidelity.ned),
    ("T. Found", lambda r: r.fidelity.tokens_found),
    ("T. Added", lambda r: r.fidelity.tokens_added),
    ("CER", lambda r: r.fidelity.cer),
    ("WER", lambda r: r.fidelity.wer),
    ("Content Acc.", lambda r: r.table.content_acc if r.table else None),
    ("Index Acc.", lambda r: r.table.index_acc if r.table else None),
    ("Detection F1", lambda r: r.table.detection.f_beta if r.table else None),
    ("TEDS", lambda r: r.table.teds if r.table else None),
    ("Consistency Level", lambda r: r.consistency),
    ("Notices", lambda r: " | ".join(r.notices)),
)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _render_json(agg: AggregateReport, pages: Sequence[PageReport]) -> bytes:
    payload = {
        "aggregate": agg.to_dict(),
        "pages": [p.to_dict() for p in pages],
    }
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
