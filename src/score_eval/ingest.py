"""Parsing of ground-truth and prediction files into a unified page model.

One input schema covers both sides: a UTF-8 JSON list of elements, each
with a "type" and a "text".  A table's text may be a list of coordinate
cells (human annotation style), a list of row/col cells, or an HTML
string (typical model output); all three normalize to the same cell
tuples.  Parsers are pure functions of their input bytes.  The flat
``key = value`` settings files (run configuration, category map) are
read here too.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from .errors import EmptyDataset, MalformedInput, MultipleTablesFound, NoTableFound, ScoreEvalError
from .tableeval import Cell, NormalizedTable


def _collapse_ws(text: str) -> str:
    return " ".join(text.split())


def _integer(value) -> int:
    """``int(value)`` of a JSON number; a string, a boolean or a fractional float is refused."""
    if isinstance(value, (str, bool)):
        raise TypeError(f"{value!r} is not a number")
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ValueError(f"{value!r} is not a whole number")
    return number


@dataclass(slots=True)
class Element:
    """One parsed unit of a page."""

    raw_label: str
    text: str
    table: Optional[NormalizedTable] = None
    source_order: int = 0


@dataclass(slots=True)
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


@dataclass(slots=True)
class PagePair:
    """Ground-truth and prediction pages that share a page id."""

    page_id: str
    gt: DocumentPage
    pred: DocumentPage


# The keys of the two list-table encodings, in the order their messages
# name them: the anchor, then the spans.  Coordinate cells name the
# column (x, w) before the row (y, h).
_ROWCOL = ("row", "col", "rowspan", "colspan")
_COORD = ("x", "y", "w", "h")


def _load_json(data: Union[bytes, str], what: str):
    """``json.loads`` of UTF-8 input; every failure is a MalformedInput naming ``what``."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{'input' if what == 'JSON' else what} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # bad syntax, or an integer too long to convert
        raise MalformedInput(f"invalid {what}: {exc}") from exc
    except RecursionError as exc:
        raise MalformedInput(f"{what} nests too deeply") from exc


def _key_values(text: str, source: str) -> Iterator[tuple[str, str, str]]:
    """``(place, key, value)`` of each ``key = value`` line of a settings
    text, ``place`` being ``source:line``; ``#`` starts a comment and
    blank lines are skipped."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedInput(f"{source}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        yield f"{source}:{lineno}", key.strip(), value.strip()


def _read_key_values(path: Union[str, Path]) -> Iterator[tuple[str, str, str]]:
    """``_key_values`` of the UTF-8 settings file at ``path``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8: {exc}") from exc
    return _key_values(text, str(path))


def _read_cells(items: Sequence, schema: tuple[str, str, str, str]) -> NormalizedTable:
    """Cell objects keyed as ``schema`` names them; the first bad cell is named."""
    key_a, key_b, span_key_a, span_key_b = schema
    cells = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise MalformedInput(f"cell {i} is not an object")
        try:
            a, b = _integer(item[key_a]), _integer(item[key_b])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {i} needs integer {key_a!r} and {key_b!r}") from exc
        if a < 0 or b < 0:
            raise MalformedInput(f"cell {i} has negative position ({a}, {b})")
        try:
            span_a, span_b = _integer(item.get(span_key_a, 1)), _integer(item.get(span_key_b, 1))
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {i} needs integer {span_key_a!r} and {span_key_b!r}") from exc
        if span_a < 1 or span_b < 1:
            raise MalformedInput(f"cell {i} has span < 1")
        content = item.get("content", "")
        if not isinstance(content, str):
            raise MalformedInput(f"cell {i} content must be a string")
        if schema is _COORD:
            a, b, span_a, span_b = b, a, span_b, span_a
        cells.append(Cell(a, b, span_a, span_b, _collapse_ws(content)))
    return NormalizedTable.from_cells(cells)


def normalize_coord_cells(cells: Sequence[CoordCell]) -> NormalizedTable:
    """Map (x, y, w, h) cells onto (row, col, rowspan, colspan) tuples."""
    return _read_cells([vars(cell) for cell in cells], _COORD)


def parse_table_rowcol(data: Union[bytes, str, list]) -> NormalizedTable:
    """Parse a JSON list of {row, col, content[, rowspan, colspan]} cells."""
    if isinstance(data, (bytes, str)):
        data = _load_json(data, "table JSON")
    if not isinstance(data, list):
        raise MalformedInput("row/col table payload must be a list of cell objects")
    return _read_cells(data, _ROWCOL)


# HTML's rules for parsing non-negative integers: leading ASCII
# whitespace, an optional "+", then the leading ASCII digits.
_HTML_NON_NEGATIVE = re.compile(r"[\t\n\f\r ]*\+?([0-9]+)")
# The HTML Standard's table processing model caps the spans.
_SPAN_CAP = {"colspan": 1000, "rowspan": 65534}


def _span_attr(attrs: dict[str, Optional[str]], name: str) -> int:
    """A rowspan or colspan as browsers read it; no digits or a minus sign
    give 1, a colspan of 0 gives 1, a rowspan of 0 stays 0 (the cell spans
    to the end of its row group), and a value past the cap reads as the cap."""
    match = _HTML_NON_NEGATIVE.match(attrs.get(name) or "")
    if not match:
        return 1
    # six significant digits already pass either cap, and int() refuses
    # a string of more than a few thousand
    digits = match.group(1).lstrip("0")[:6]
    low = 0 if name == "rowspan" else 1
    return min(max(low, int(digits or "0")), _SPAN_CAP[name])


# Tags whose boundaries separate text when rendered; inline markup
# (span, b, a, ...) does not.
_BLOCK_TAGS = {
    "p", "div", "br", "li", "ul", "ol", "h1", "h2", "h3", "h4", "h5", "h6",
    "section", "article", "blockquote", "table", "thead", "tbody", "tfoot",
    "tr", "td", "th", "caption", "pre", "hr",
}
# A start or end tag of a row group ends the group before it.
_ROW_GROUPS = {"thead", "tbody", "tfoot"}


class _TableHTMLParser(HTMLParser):
    """Lenient table reader: the callbacks collect rows of
    ``(rowspan, colspan, text)``, and ``finalize`` places the cells."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.rows: list[list[tuple[int, int, str]]] = []
        self._group_ends: set[int] = set()  # row counts at top-level row group tags
        self._cell: Optional[tuple[int, int, list[str]]] = None  # spans and text parts of the open cell
        self._table: Optional[str] = None  # top-level table: "open", "closed", or "implicit" (bare rows/cells)
        self._nested = 0  # <table> depth inside a cell; flattened to text

    def _close_cell(self) -> None:
        if self._cell is not None:
            rowspan, colspan, parts = self._cell
            self.rows[-1].append((rowspan, colspan, _collapse_ws("".join(parts))))
            self._cell = None

    def _block_boundary(self, tag: str) -> None:
        if self._cell is not None and tag in _BLOCK_TAGS:
            self._cell[2].append(" ")

    def _top_level_tag(self, tag: str) -> None:
        """A tag of the top-level table other than a table, row or cell."""
        if tag in _ROW_GROUPS:
            self._group_ends.add(len(self.rows))
        self._block_boundary(tag)

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag == "table":
            if self._cell is not None or self._nested > 0:
                self._nested += 1  # table inside a cell: flatten to text
            elif self._table is not None:
                raise MultipleTablesFound("more than one top-level table in fragment")
            else:
                self._table = "open"
        elif self._nested > 0:
            self._block_boundary(tag)  # nested structure contributes text only
        elif tag in ("tr", "td", "th"):
            if self._table == "closed":
                raise MultipleTablesFound("stray cells after a closed table")
            self._table = self._table or "implicit"
            self._close_cell()
            if tag == "tr" or not self.rows:  # a cell without a row opens one
                self.rows.append([])
            if tag != "tr":
                attrs = dict(attrs)
                self._cell = (_span_attr(attrs, "rowspan"), _span_attr(attrs, "colspan"), [])
        elif tag == "img" and self._cell is not None:
            alt = dict(attrs).get("alt")
            if alt:
                self._cell[2].append(f" {alt} ")
        else:
            self._top_level_tag(tag)

    def handle_endtag(self, tag: str) -> None:
        if tag == "table":
            if self._nested > 0:
                self._nested -= 1
                self._block_boundary(tag)
            elif self._table == "open":
                self._close_cell()
                self._table = "closed"
        elif self._nested > 0:
            self._block_boundary(tag)
        elif tag in ("td", "th", "tr"):
            self._close_cell()
        else:
            self._top_level_tag(tag)

    def handle_data(self, data: str) -> None:
        if self._cell is not None:
            self._cell[2].append(data)

    def finalize(self) -> NormalizedTable:
        """The rows' cells placed on the grid, as ``parse_table_html`` says."""
        self._close_cell()
        if self._table is None:
            raise NoTableFound("no table markup in fragment")
        group_ends = self._group_ends | {len(self.rows)}
        cells = []
        taken: set[tuple[int, int]] = set()  # positions that cells of earlier rows span down into
        for r, row in enumerate(self.rows):
            c = 0
            for rowspan, colspan, text in row:
                while (r, c) in taken:
                    c += 1
                rowspan = rowspan or min(end for end in group_ends if end > r) - r
                cells.append(Cell(r, c, rowspan, colspan, text))
                taken.update((r + i, c + j) for i in range(1, rowspan) for j in range(colspan))
                c += colspan
        return NormalizedTable.from_cells(cells)


def parse_table_html(html: str) -> NormalizedTable:
    """Extract one table from HTML: read its rows of cells, then place
    each cell on the grid with its spans.

    Each cell takes the first column of its row that no earlier cell
    covers, and a ``rowspan`` of 0 spans to the end of the cell's row
    group (its thead, tbody or tfoot, or the table).  Parsing is
    browser-style lenient: unclosed rows and cells are closed
    implicitly, header cells are ordinary cells, images contribute their
    alt text or nothing, and nested markup inside a cell is flattened to
    its text.
    """
    parser = _TableHTMLParser()
    try:
        parser.feed(html)
        parser.close()
    except ScoreEvalError:
        raise
    except Exception as exc:  # html.parser rarely raises; treat as malformed
        raise MalformedInput(f"unparseable HTML: {exc}") from exc
    return parser.finalize()


def parse_document(
    data: Union[bytes, str],
    page_id: str = "",
) -> DocumentPage:
    """Parse one elements file into a DocumentPage.

    Every input object yields exactly one Element, in file order.  When
    an element's text is a list of cells the table is normalized here
    and the element text becomes the cell contents in (row, col) order;
    string texts are kept verbatim as the producing system's
    serialization.
    """
    doc = _load_json(data, "JSON")
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
            # the first cell's keys choose the encoding of the whole list
            first = text[0] if text else None
            schema = _ROWCOL if isinstance(first, dict) and first.keys() >= {"row", "col"} else _COORD
            try:
                table = _read_cells(text, schema)
            except MalformedInput as exc:
                raise MalformedInput(f"element {i}: {exc}") from exc
            elements.append(Element(label, table.flat_text(), table, source_order=i))
        elif isinstance(text, str):
            elements.append(Element(label, text, None, source_order=i))
        else:
            raise MalformedInput(f"element {i} text must be a string or a list of cells")
    return DocumentPage(page_id=page_id, elements=elements)


def _stems(directory: Path, side: str, notices: list[str]) -> dict[str, Path]:
    """Files by stem; of files sharing a stem the last in name order is kept, with a notice.

    A file whose name is not UTF-8 is skipped with a notice naming it
    with its bytes escaped: its stem could not be written to a report.
    """
    by_stem: dict[str, list[Path]] = {}
    for path in sorted(directory.iterdir()):
        if not path.is_file():
            continue
        try:
            path.name.encode("utf-8")
        except UnicodeEncodeError:
            name = os.fsencode(path.name).decode("utf-8", "backslashreplace")
            notices.append(f"skipped {side} file {name}: name is not UTF-8")
            continue
        by_stem.setdefault(path.stem, []).append(path)
    for stem, paths in by_stem.items():
        if len(paths) > 1:
            ignored = ", ".join(p.name for p in paths[:-1])
            notices.append(f"duplicate {side} stem {stem}: kept {paths[-1].name}, ignored {ignored}")
    return {stem: paths[-1] for stem, paths in by_stem.items()}


def _read_page(path: Path, stem: str, side: str, notices: list[str]) -> Optional[DocumentPage]:
    """The page parsed from ``path``, or None and a notice when it cannot be read or parsed."""
    try:
        return parse_document(path.read_bytes(), page_id=stem)
    except OSError as exc:
        notices.append(f"failed to read {side} {stem}: {exc}")
    except ScoreEvalError as exc:
        notices.append(f"failed to parse {side} {stem}: {exc}")
    return None


def pair_pages(gt_dir: Union[str, Path], pred_dir: Union[str, Path]) -> tuple[list[PagePair], list[str]]:
    """Pair files by stem across two directories.

    Returns the pairs in lexicographic stem order plus notices for every
    duplicate stem and every unmatched, unreadable or unparseable file;
    raises EmptyDataset when no pair survives, and OSError when a
    directory cannot be listed.
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
        gt_page = _read_page(gt_files[stem], stem, "ground truth", notices)
        if gt_page is None:
            continue
        pred_page = _read_page(pred_files[stem], stem, "prediction", notices)
        if pred_page is not None:
            pairs.append(PagePair(page_id=stem, gt=gt_page, pred=pred_page))
    if not pairs:
        raise EmptyDataset("no ground-truth/prediction pairs found")
    return pairs, notices
