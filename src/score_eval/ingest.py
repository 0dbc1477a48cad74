"""Parsing of ground-truth and prediction files into a unified page model.

One input schema covers both sides: a UTF-8 JSON list of elements, each
with a "type" and a "text".  A table's text may be a list of coordinate
cells (human annotation style), a list of row/col cells, or an HTML
string (typical model output); all three normalize to the same cell
tuples.  Parsers are pure functions of their input bytes and safe to
call concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import Optional, Sequence, Union

from .errors import EmptyDataset, MalformedInput, MultipleTablesFound, NoTableFound, ScoreEvalError
from .tableeval import Cell, NormalizedTable


def _collapse_ws(text: str) -> str:
    return " ".join(text.split())


@dataclass
class Element:
    """One parsed unit of a page."""

    raw_label: str
    text: str
    table: Optional[NormalizedTable] = None
    source_order: int = 0


@dataclass
class DocumentPage:
    """Ordered elements of a single page, identified by file stem."""

    page_id: str
    elements: list[Element] = field(default_factory=list)


@dataclass(frozen=True)
class CoordCell:
    """Annotation-style cell: (x, y) anchor with (w, h) span units."""

    x: int
    y: int
    w: int = 1
    h: int = 1
    content: str = ""


@dataclass
class PagePair:
    """Ground-truth and prediction pages that share a page id."""

    page_id: str
    gt: DocumentPage
    pred: DocumentPage


def normalize_coord_cells(cells: Sequence[CoordCell]) -> NormalizedTable:
    """Map (x, y, w, h) cells onto (row, col, rowspan, colspan) tuples."""
    converted = []
    for cell in cells:
        if cell.x < 0 or cell.y < 0:
            raise MalformedInput(f"cell coordinates must be >= 0, got ({cell.x}, {cell.y})")
        if cell.w < 1 or cell.h < 1:
            raise MalformedInput(f"cell spans must be >= 1, got ({cell.w}, {cell.h})")
        converted.append(
            Cell(
                row=cell.y,
                col=cell.x,
                rowspan=cell.h,
                colspan=cell.w,
                content=_collapse_ws(cell.content),
            )
        )
    return NormalizedTable.from_cells(converted)


def parse_table_rowcol(data: Union[bytes, str, list]) -> NormalizedTable:
    """Parse a JSON list of {row, col, content[, rowspan, colspan]} cells."""
    if isinstance(data, (bytes, str)):
        if isinstance(data, bytes):
            try:
                data = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedInput(f"table JSON is not UTF-8: {exc}") from exc
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid table JSON: {exc}") from exc
    if not isinstance(data, list):
        raise MalformedInput("row/col table payload must be a list of cell objects")
    cells = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise MalformedInput(f"cell {i} is not an object")
        try:
            row, col = int(item["row"]), int(item["col"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {i} needs integer 'row' and 'col'") from exc
        if row < 0 or col < 0:
            raise MalformedInput(f"cell {i} has negative position ({row}, {col})")
        try:
            rowspan, colspan = int(item.get("rowspan", 1)), int(item.get("colspan", 1))
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {i} needs integer 'rowspan' and 'colspan'") from exc
        if rowspan < 1 or colspan < 1:
            raise MalformedInput(f"cell {i} has span < 1")
        content = item.get("content", "")
        if not isinstance(content, str):
            raise MalformedInput(f"cell {i} content must be a string")
        cells.append(Cell(row, col, rowspan, colspan, _collapse_ws(content)))
    return NormalizedTable.from_cells(cells)


def _span_attr(attrs: dict[str, Optional[str]], name: str) -> int:
    raw = attrs.get(name)
    if raw is None:
        return 1
    try:
        return max(1, int(raw.strip()))
    except ValueError:
        return 1


# Tags whose boundaries separate text when rendered; inline markup
# (span, b, a, ...) does not.
_BLOCK_TAGS = {
    "p", "div", "br", "li", "ul", "ol", "h1", "h2", "h3", "h4", "h5", "h6",
    "section", "article", "blockquote", "table", "thead", "tbody", "tfoot",
    "tr", "td", "th", "caption", "pre", "hr",
}


class _TableHTMLParser(HTMLParser):
    """Lenient table reader with standard colspan/rowspan grid filling."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.cells: list[Cell] = []
        self._row = -1
        self._col = 0
        self._in_cell = False
        self._cell_text: list[str] = []
        self._cell_anchor = (0, 0)
        self._cell_span = (1, 1)
        # unit positions claimed by placed cells (spans included)
        self._reserved: set[tuple[int, int]] = set()
        self._in_table = False      # inside the (single) top-level table
        self._implicit = False      # bare rows/cells without a <table> wrapper
        self._closed_table = False  # a top-level table already ended
        self._nested = 0            # <table> depth inside a cell; flattened to text

    # -- grid bookkeeping --------------------------------------------------

    def _advance_past_reserved(self) -> None:
        while (self._row, self._col) in self._reserved:
            self._col += 1

    def _open_row(self) -> None:
        self._close_cell()
        self._row += 1
        self._col = 0
        self._advance_past_reserved()

    def _open_cell(self, attrs: dict[str, Optional[str]]) -> None:
        self._close_cell()
        if self._row < 0:  # cell without a row: open one implicitly
            self._row = 0
            self._col = 0
        self._advance_past_reserved()
        self._in_cell = True
        self._cell_text = []
        self._cell_anchor = (self._row, self._col)
        self._cell_span = (_span_attr(attrs, "rowspan"), _span_attr(attrs, "colspan"))

    def _close_cell(self) -> None:
        if not self._in_cell:
            return
        row, col = self._cell_anchor
        rowspan, colspan = self._cell_span
        self.cells.append(
            Cell(row, col, rowspan, colspan, _collapse_ws("".join(self._cell_text)))
        )
        for r in range(row, row + rowspan):
            for c in range(col, col + colspan):
                self._reserved.add((r, c))
        self._col = col + colspan
        self._advance_past_reserved()
        self._in_cell = False
        self._cell_text = []

    # -- HTMLParser hooks ----------------------------------------------------

    def _enter_structure(self) -> None:
        """A row or cell is starting outside any explicit table."""
        if self._closed_table:
            raise MultipleTablesFound("stray cells after a closed table")
        self._implicit = True

    def _block_boundary(self, tag: str) -> None:
        if self._in_cell and tag in _BLOCK_TAGS:
            self._cell_text.append(" ")

    def handle_starttag(self, tag: str, attrs) -> None:
        tag = tag.lower()
        if tag == "table":
            if self._in_cell or self._nested > 0:
                self._nested += 1  # table inside a cell: flatten to text
                return
            if self._in_table or self._closed_table or self._implicit:
                raise MultipleTablesFound("more than one top-level table in fragment")
            self._in_table = True
            return
        if self._nested > 0:
            self._block_boundary(tag)  # nested structure contributes text only
            return
        if tag == "tr":
            if not self._in_table:
                self._enter_structure()
            self._open_row()
        elif tag in ("td", "th"):
            if not self._in_table:
                self._enter_structure()
            self._open_cell(dict(attrs))
        elif tag == "img" and self._in_cell:
            alt = dict(attrs).get("alt")
            if alt:
                self._cell_text.append(f" {alt} ")
        else:
            self._block_boundary(tag)

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag == "table":
            if self._nested > 0:
                self._nested -= 1
                self._block_boundary(tag)
                return
            if self._in_table:
                self._close_cell()
                self._in_table = False
                self._closed_table = True
            return
        if self._nested > 0:
            self._block_boundary(tag)
            return
        if tag in ("td", "th", "tr"):
            self._close_cell()
        else:
            self._block_boundary(tag)

    def handle_data(self, data: str) -> None:
        if self._in_cell:
            self._cell_text.append(data)

    def finalize(self) -> NormalizedTable:
        self._close_cell()
        if not (self._in_table or self._closed_table or self._implicit):
            raise NoTableFound("no table markup in fragment")
        return NormalizedTable.from_cells(self.cells)


def parse_table_html(html: str) -> NormalizedTable:
    """Extract one table from HTML, expanding spans onto the grid.

    Parsing is browser-style lenient: unclosed rows and cells are closed
    implicitly, header cells are ordinary cells, images contribute their
    alt text or nothing, and nested markup inside a cell is flattened to
    its text.
    """
    parser = _TableHTMLParser()
    try:
        parser.feed(html)
        parser.close()
    except (NoTableFound, MultipleTablesFound):
        raise
    except MalformedInput:
        raise
    except Exception as exc:  # html.parser rarely raises; treat as malformed
        raise MalformedInput(f"unparseable HTML: {exc}") from exc
    return parser.finalize()


def _table_from_text_list(items: list) -> NormalizedTable:
    """Dispatch a list-typed element text to the matching cell parser."""
    coord_cells = []
    for j, item in enumerate(items):
        if not isinstance(item, dict):
            raise MalformedInput(f"cell {j} is not an object")
        if "row" in item and "col" in item:
            return parse_table_rowcol(items)
        try:
            x, y = int(item["x"]), int(item["y"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {j} needs integer 'x' and 'y' (or 'row'/'col')") from exc
        try:
            w, h = int(item.get("w", 1)), int(item.get("h", 1))
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {j} needs integer 'w' and 'h'") from exc
        content = item.get("content", "")
        if not isinstance(content, str):
            raise MalformedInput(f"cell {j} content must be a string")
        coord_cells.append(CoordCell(x=x, y=y, w=w, h=h, content=content))
    return normalize_coord_cells(coord_cells)


def parse_document(
    data: Union[bytes, str],
    format_hint: str = "auto",
    page_id: str = "",
) -> DocumentPage:
    """Parse one elements file into a DocumentPage.

    Every input object yields exactly one Element, in file order.  When
    an element's text is a list of cells the table is normalized here
    and the element text becomes the cell contents in (row, col) order;
    string texts are kept verbatim as the producing system's
    serialization.
    """
    if format_hint not in ("auto", "elements_json"):
        raise MalformedInput(f"unknown format hint {format_hint!r}")
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"input is not UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise MalformedInput("top level must be a list of element objects")

    elements = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict):
            raise MalformedInput(f"element {i} is not an object")
        label = item.get("type")
        if not isinstance(label, str):
            raise MalformedInput(f"element {i} is missing a string 'type'")
        if "text" not in item:
            raise MalformedInput(f"element {i} is missing 'text'")
        text = item["text"]
        if isinstance(text, list):
            try:
                table = _table_from_text_list(text)
            except MalformedInput as exc:
                raise MalformedInput(f"element {i}: {exc}") from exc
            elements.append(Element(label, table.flat_text(), table, source_order=i))
        elif isinstance(text, str):
            elements.append(Element(label, text, None, source_order=i))
        else:
            raise MalformedInput(f"element {i} text must be a string or a list of cells")
    return DocumentPage(page_id=page_id, elements=elements)


def _stems(directory: Path, side: str, notices: list[str]) -> dict[str, Path]:
    """Files by stem; of files sharing a stem the last in name order is kept, with a notice."""
    by_stem: dict[str, list[Path]] = {}
    for path in sorted(directory.iterdir()):
        if path.is_file():
            by_stem.setdefault(path.stem, []).append(path)
    for stem, paths in by_stem.items():
        if len(paths) > 1:
            ignored = ", ".join(p.name for p in paths[:-1])
            notices.append(f"duplicate {side} stem {stem}: kept {paths[-1].name}, ignored {ignored}")
    return {stem: paths[-1] for stem, paths in by_stem.items()}


def pair_pages(gt_dir: Union[str, Path], pred_dir: Union[str, Path]) -> tuple[list[PagePair], list[str]]:
    """Pair files by stem across two directories.

    Returns the pairs in lexicographic stem order plus notices for every
    duplicate stem and every unmatched or unparseable file; raises
    EmptyDataset when no pair survives.
    """
    notices: list[str] = []
    gt_files = _stems(Path(gt_dir), "ground truth", notices)
    pred_files = _stems(Path(pred_dir), "prediction", notices)
    pairs = []
    for stem in sorted(set(gt_files) | set(pred_files)):
        if stem not in pred_files:
            notices.append(f"missing prediction: {stem}")
            continue
        if stem not in gt_files:
            notices.append(f"missing ground truth: {stem}")
            continue
        try:
            gt_page = parse_document(gt_files[stem].read_bytes(), page_id=stem)
        except ScoreEvalError as exc:
            notices.append(f"failed to parse ground truth {stem}: {exc}")
            continue
        try:
            pred_page = parse_document(pred_files[stem].read_bytes(), page_id=stem)
        except ScoreEvalError as exc:
            notices.append(f"failed to parse prediction {stem}: {exc}")
            continue
        pairs.append(PagePair(page_id=stem, gt=gt_page, pred=pred_page))
    if not pairs:
        raise EmptyDataset("no ground-truth/prediction pairs found")
    return pairs, notices
