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
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import InvalidThreshold, MalformedInput, ScoreEvalError
from .ingest import DocumentPage, Element, _key_values, _read_key_values, parse_table_html
from .tableeval import match_tables
from .textmetrics import (
    DEFAULT_TOKENIZER,
    TokenizerConfig,
    content_text,
    greedy_one_to_one,
    ned,
    ned_upper_bound,
    table_similarities,
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
            self._add(raw, category)

    def _add(self, raw: str, category: str) -> None:
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
    def _from_key_values(cls, lines: Iterable[tuple[str, str, str]]) -> "CategoryMap":
        cmap = cls()
        for place, raw, category in lines:
            try:
                cmap._add(raw, category)
            except MalformedInput as exc:
                raise MalformedInput(f"{place}: {exc}") from exc
        return cmap

    @classmethod
    def from_text(cls, text: str) -> "CategoryMap":
        return cls._from_key_values(_key_values(text, "category map"))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CategoryMap":
        return cls._from_key_values(_read_key_values(path))

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
    its content text, that text's token bag and its ``cmap.kind``;
    ``tables`` holds the indices of the elements with a table, in order.
    ``notices`` explains each element whose payload disagrees with its
    category.  ``cmap`` defaults to ``CategoryMap.default()``.  The page-level
    functions take a prepared page as it is, with its own tokenizer and map.
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
        self.tables = tuple(i for i, e in enumerate(elements) if e.table is not None)

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

    @classmethod
    def of(cls, page: Union[DocumentPage, "PreparedPage"],
           tokenizer: TokenizerConfig = DEFAULT_TOKENIZER) -> "PreparedPage":
        """``page`` itself if prepared, else prepared with ``tokenizer`` and the default category map."""
        return page if isinstance(page, cls) else cls(page, tokenizer)


def match_elements(
    gt: Union[DocumentPage, PreparedPage], pred: Union[DocumentPage, PreparedPage],
    sim_threshold: float = 0.5, ned_of: Optional[Callable[[str, str], float]] = None,
    table_pairs: Optional[Sequence[tuple[int, int, float]]] = None,
) -> list[tuple[int, int, float]]:
    """One-to-one element alignment: tables as detection pairs them, the rest greedily by text similarity.

    ``table_pairs`` are (GT index, pred index, similarity) triples of
    elements holding a table, taken first and returned as they are, so a
    table pair's score is its detection similarity.  When None, they are
    ``match_tables`` on ``table_similarities(pred, gt)`` at the default
    ``tau``, as ``evaluate_page`` pairs tables at the default ``det_tau``.
    No other pair of two tables is a candidate.  The other pairs are
    accepted highest score first, ties broken by reading-order proximity
    and then by the lower GT index; only pairs at or above the threshold
    survive.  Returns (gt index, pred index, score) triples in index
    order.  Pages go through ``PreparedPage.of``.  A pair's NED is read
    from ``ned_of(pred text, GT text)`` (default: a fresh
    ``functools.cache(ned)``) only when its length bound
    (``ned_upper_bound``) comes first among the pairs whose ends are both
    still free.
    """
    if not 0.0 <= sim_threshold <= 1.0:
        raise InvalidThreshold(f"sim_threshold must be in [0, 1], got {sim_threshold}")
    gt, pred = PreparedPage.of(gt), PreparedPage.of(pred)
    ned_of = ned_of if ned_of is not None else functools.cache(ned)
    if table_pairs is None:
        detection = match_tables([pred.bags[j] for j in pred.tables], [gt.bags[i] for i in gt.tables],
                                 sims=table_similarities(pred, gt))
        table_pairs = [(gt.tables[gi], pred.tables[pj], sim) for pj, gi, sim in detection.pairs]
    taken_gt, taken_pred = {i for i, _, _ in table_pairs}, {j for _, j, _ in table_pairs}
    gt_tables, pred_tables = set(gt.tables), set(pred.tables)

    def gap(i: int, j: int) -> int:  # reading-order distance, the first tie break
        return abs(gt.page.elements[i].source_order - pred.page.elements[j].source_order)

    seeds = []
    for i, g_text in enumerate(gt.texts):
        if i in taken_gt:
            continue
        for j, p_text in enumerate(pred.texts):
            if j in taken_pred or (i in gt_tables and j in pred_tables):
                continue
            bound = ned_upper_bound(g_text, p_text)
            if bound >= sim_threshold:  # else the length gap alone rules this pair out
                seeds.append(((-bound, gap(i, j), i, j), 0, i, j))

    def exact_key(i: int, j: int) -> Optional[tuple]:
        score = ned_of(pred.texts[j], gt.texts[i])
        return (-score, gap(i, j), i, j) if score >= sim_threshold else None

    return sorted([*table_pairs, *((i, j, -key[0]) for key, i, j in greedy_one_to_one(seeds, exact_key))])


@dataclass(slots=True)
class ConfusionMatrix:
    """(K+1) x (K+1) counts over functional categories plus NOMATCH.

    Rows are ground truth, columns are predictions; the NOMATCH row
    holds spurious predictions and the NOMATCH column holds missed
    ground-truth elements.  Only the nonzero counts are stored, keyed
    by (GT label index, prediction label index) into ``LABELS``.
    """

    cells: dict[tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def zeros(cls) -> "ConfusionMatrix":
        return cls()

    @property
    def counts(self) -> list[list[int]]:
        """The dense matrix, one row per GT label and one column per prediction label."""
        dense = [[0] * len(LABELS) for _ in LABELS]
        for (i, j), n in self.cells.items():
            dense[i][j] = n
        return dense

    def add(self, gt_label: str, pred_label: str, n: int = 1) -> None:
        key = (_INDEX[gt_label], _INDEX[pred_label])
        count = self.cells.get(key, 0) + n
        if count:
            self.cells[key] = count
        else:
            self.cells.pop(key, None)

    def nonzero_entries(self) -> dict[tuple[str, str], int]:
        return {(LABELS[i], LABELS[j]): n for (i, j), n in sorted(self.cells.items())}

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
    row_mass: dict[int, int] = {}
    col_mass: dict[int, int] = {}
    for (i, j), n in matrix.cells.items():
        row_mass[i] = row_mass.get(i, 0) + n
        col_mass[j] = col_mass.get(j, 0) + n
    scores = []
    for k, _ in enumerate(CATEGORIES):
        rows, cols = row_mass.get(k, 0), col_mass.get(k, 0)
        if rows == 0 and cols == 0:
            continue
        tp = matrix.cells.get((k, k), 0)
        fp = cols - tp
        fn = rows - tp
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return math.fsum(scores) / len(scores) if scores else 1.0
