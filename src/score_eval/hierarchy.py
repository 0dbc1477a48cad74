"""Functional-category mapping and element-consistency scoring.

Heterogeneous system labels ("sub-heading", "narrative-text", ...) are
folded into a closed set of functional categories before ground-truth
and prediction elements are aligned.  Unmatched elements land in a
synthetic NOMATCH row/column of the confusion matrix so that misses and
spurious predictions stay visible.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

from .errors import InvalidThreshold, MalformedInput, ScoreEvalError
from .ingest import DocumentPage, Element, parse_table_html
from .textmetrics import (
    DEFAULT_TOKENIZER,
    TokenizerConfig,
    content_text,
    element_neds,
    greedy_one_to_one,
    ned_upper_bound,
    tokenize,
)

CATEGORIES = (
    "TITLE",
    "TEXT",
    "LIST",
    "TABLE",
    "FIGURE",
    "CAPTION",
    "HEADER",
    "FOOTER",
    "FORMULA",
    "OTHER",
)
NOMATCH = "NOMATCH"
LABELS = CATEGORIES + (NOMATCH,)

_INDEX = {label: i for i, label in enumerate(LABELS)}


class CategoryMap:
    """Case-insensitive raw-label lookup with an OTHER fallback."""

    def __init__(self, entries: Optional[Mapping[str, str]] = None) -> None:
        self._entries: dict[str, str] = {}
        for raw, category in (entries or {}).items():
            category = category.strip().upper()
            if category not in CATEGORIES:
                raise MalformedInput(f"unknown category {category!r} for label {raw!r}")
            self._entries[raw.strip().casefold()] = category

    def category(self, raw_label: str) -> str:
        return self._entries.get(raw_label.strip().casefold(), "OTHER")

    def kind(self, element) -> str:
        """Similarity-routing kind: table, figure, or paragraph."""
        if element.table is not None:
            return "table"
        category = self.category(element.raw_label)
        if category == "TABLE":
            return "table"
        if category == "FIGURE":
            return "figure"
        return "paragraph"

    @classmethod
    def from_text(cls, text: str) -> "CategoryMap":
        entries = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MalformedInput(f"category map line {lineno}: expected 'label = CATEGORY'")
            raw, category = line.split("=", 1)
            entries[raw.strip()] = category.strip()
        return cls(entries)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CategoryMap":
        return cls.from_text(Path(path).read_text(encoding="utf-8"))

    @classmethod
    @functools.cache
    def default(cls) -> "CategoryMap":
        """The packaged map, read once per process: a map has no mutators."""
        text = resources.files("score_eval").joinpath("data/category_map.txt").read_text("utf-8")
        return cls.from_text(text)


class PreparedPage:
    """A page as every element metric reads it, prepared once.

    ``page`` is the input page with the markup payload of each
    TABLE-category element parsed into cells; the element's text is left
    untouched, as it is the system's own serialization and feeds the raw
    edit distance.  ``texts``, ``bags`` and ``kinds`` hold, per element,
    its content text, that text's token bag and its ``cmap.kind``.
    ``notices`` explains each element whose payload disagrees with its
    category.  ``cmap`` defaults to ``CategoryMap.default()``.
    """

    def __init__(
        self,
        page: DocumentPage,
        tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
        cmap: Optional[CategoryMap] = None,
    ) -> None:
        cmap = cmap if cmap is not None else CategoryMap.default()
        self.notices: list[str] = []
        elements = [self._parse_payload(e, cmap) for e in page.elements]
        self.page = DocumentPage(page_id=page.page_id, elements=elements)
        self.texts = tuple(content_text(e) for e in elements)
        self.bags = tuple(tokenize(t, tokenizer) for t in self.texts)
        self.kinds = tuple(cmap.kind(e) for e in elements)

    def _parse_payload(self, element: Element, cmap: CategoryMap) -> Element:
        is_table_category = cmap.category(element.raw_label) == "TABLE"
        if element.table is None and is_table_category:
            if "<" not in element.text:
                self.notices.append(f"element {element.source_order}: table element without table payload")
                return element
            try:
                return dataclasses.replace(element, table=parse_table_html(element.text))
            except ScoreEvalError as exc:
                self.notices.append(f"element {element.source_order}: table markup not parsed ({exc})")
        elif element.table is not None and not is_table_category:
            self.notices.append(f"element {element.source_order}: non-table element carries a table payload")
        return element

    def token_bag(self) -> Counter[str]:
        """Token bag over the whole page's content."""
        merged: Counter[str] = Counter()
        for bag in self.bags:
            merged.update(bag)
        return merged


def match_elements(
    gt: DocumentPage,
    pred: DocumentPage,
    sim_threshold: float = 0.5,
) -> list[tuple[int, int, float]]:
    """Greedy one-to-one element alignment by text similarity.

    Pairs are accepted highest score first, ties broken by reading-order
    proximity and then by the lower GT index; only pairs at or above the
    threshold survive.  Returns (gt index, pred index, score) triples.
    Pages are prepared as ``evaluate_page`` prepares them, with the
    default category map.
    """
    gt_prep, pred_prep = PreparedPage(gt), PreparedPage(pred)
    return match_prepared(gt_prep, pred_prep, element_neds(pred_prep, gt_prep), sim_threshold)


def match_prepared(
    gt: PreparedPage, pred: PreparedPage, pair_ned: Callable[[int, int], float], sim_threshold: float
) -> list[tuple[int, int, float]]:
    """``match_elements`` on prepared pages, reading NEDs from ``pair_ned(pred, gt)``.

    A pair's NED is read only when its length bound (``ned_upper_bound``)
    comes first among the pairs whose ends are both still free.
    """
    if not 0.0 <= sim_threshold <= 1.0:
        raise InvalidThreshold(f"sim_threshold must be in [0, 1], got {sim_threshold}")

    def gap(i: int, j: int) -> int:  # reading-order distance, the first tie break
        return abs(gt.page.elements[i].source_order - pred.page.elements[j].source_order)

    seeds = []
    for i, g_text in enumerate(gt.texts):
        for j, p_text in enumerate(pred.texts):
            bound = ned_upper_bound(g_text, p_text)
            if bound >= sim_threshold:  # else the length gap alone rules this pair out
                seeds.append(((-bound, gap(i, j), i, j), 0, i, j))

    def exact_key(i: int, j: int) -> Optional[tuple]:
        score = pair_ned(j, i)
        return (-score, gap(i, j), i, j) if score >= sim_threshold else None

    return sorted((i, j, -key[0]) for key, i, j in greedy_one_to_one(seeds, exact_key))


@dataclass
class ConfusionMatrix:
    """(K+1) x (K+1) counts over functional categories plus NOMATCH.

    Rows are ground truth, columns are predictions; the NOMATCH row
    holds spurious predictions and the NOMATCH column holds missed
    ground-truth elements.
    """

    counts: list[list[int]]

    @classmethod
    def zeros(cls) -> "ConfusionMatrix":
        return cls([[0] * len(LABELS) for _ in LABELS])

    def add(self, gt_label: str, pred_label: str, n: int = 1) -> None:
        self.counts[_INDEX[gt_label]][_INDEX[pred_label]] += n

    def nonzero_entries(self) -> dict[tuple[str, str], int]:
        out = {}
        for i, gt_label in enumerate(LABELS):
            for j, pred_label in enumerate(LABELS):
                n = self.counts[i][j]
                if n:
                    out[(gt_label, pred_label)] = n
        return out

    def to_dict(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for (gt_label, pred_label), n in self.nonzero_entries().items():
            out.setdefault(gt_label, {})[pred_label] = n
        return out


def build_confusion(
    matching: Sequence[tuple[int, int, float]],
    gt: DocumentPage,
    pred: DocumentPage,
    cmap: CategoryMap,
) -> ConfusionMatrix:
    """Fill the matrix from a one-to-one matching plus the leftovers."""
    matrix = ConfusionMatrix.zeros()
    matched_gt = {i for i, _, _ in matching}
    matched_pred = {j for _, j, _ in matching}
    for i, j, _ in matching:
        matrix.add(cmap.category(gt.elements[i].raw_label), cmap.category(pred.elements[j].raw_label))
    for i, g in enumerate(gt.elements):
        if i not in matched_gt:
            matrix.add(cmap.category(g.raw_label), NOMATCH)
    for j, p in enumerate(pred.elements):
        if j not in matched_pred:
            matrix.add(NOMATCH, cmap.category(p.raw_label))
    return matrix


def consistency_score(matrix: ConfusionMatrix) -> float:
    """Macro-averaged per-category F1 over categories carrying any mass.

    NOMATCH never gets its own F1; it only contributes false positives
    and false negatives to real categories.  An empty matrix scores 1.
    """
    counts = matrix.counts
    scores = []
    for k, _ in enumerate(CATEGORIES):
        row_mass = sum(counts[k])
        col_mass = sum(row[k] for row in counts)
        if row_mass == 0 and col_mass == 0:
            continue
        tp = counts[k][k]
        fp = col_mass - tp
        fn = row_mass - tp
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return sum(scores) / len(scores) if scores else 1.0
