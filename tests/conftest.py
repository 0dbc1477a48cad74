"""Shared random generators for tables and page pairs."""

from __future__ import annotations

import html
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `oracles` importable

from score_eval.ingest import PagePair, parse_document
from score_eval.tableeval import Cell, NormalizedTable
from score_eval.textmetrics import tokenize

WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "revenue total q1 q2 q3 q4 2024 2025 $100K $200K 15% north south east west"
).split()

LABELS = (
    "Title", "sub-heading", "Text", "NarrativeText", "paragraph", "List",
    "ListItem", "Figure", "Image", "Caption", "Header", "Footer", "Formula",
    "CustomLabel",
)


def rand_text(rng: random.Random, lo: int = 1, hi: int = 8) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def rand_cell_content(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 3)))


def rand_grid_table(rng: random.Random, max_rows: int = 4, max_cols: int = 4) -> NormalizedTable:
    """Span-free full grid with random contents."""
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    cells = [
        Cell(r, c, 1, 1, f"{rand_cell_content(rng)} {r}{c}")
        for r in range(rows)
        for c in range(cols)
    ]
    return NormalizedTable.from_cells(cells)


def rand_span_rows(rng: random.Random, max_rows: int = 4, max_cols: int = 4,
                   max_span: int = 3) -> list[list[tuple[str, int, int]]]:
    """Random non-overlapping row structure as (content, rowspan, colspan) rows.

    Spans are clipped to the free run at the anchor so the layout always
    satisfies the no-collision invariant.
    """
    n_rows = rng.randint(1, max_rows)
    occupied: set[tuple[int, int]] = set()
    rows = []
    for r in range(n_rows):
        row = []
        c = 0
        while c < max_cols:
            while c < max_cols and (r, c) in occupied:
                c += 1
            if c >= max_cols or rng.random() < 0.15:
                break
            free_run = 0
            while c + free_run < max_cols and (r, c + free_run) not in occupied:
                free_run += 1
            colspan = rng.randint(1, min(max_span, free_run))
            rowspan = rng.randint(1, max_span)
            row.append((rand_cell_content(rng), rowspan, colspan))
            for rr in range(r, r + rowspan):
                for cc in range(c, c + colspan):
                    occupied.add((rr, cc))
            c += colspan
        rows.append(row)
    return rows


def table_bags(tables):
    """Per-table token bags, as ``match_tables`` takes them."""
    return [tokenize(t.flat_text()) for t in tables]


def translate_table(t: NormalizedTable, d_row: int, d_col: int) -> NormalizedTable:
    return NormalizedTable.from_cells(
        [Cell(c.row + d_row, c.col + d_col, c.rowspan, c.colspan, c.content) for c in t.cells]
    )


# -- serializers for the three table encodings -------------------------------

def to_html(t: NormalizedTable) -> str:
    parts = ["<table>"]
    by_row: dict[int, list[Cell]] = {}
    for cell in t.cells:
        by_row.setdefault(cell.row, []).append(cell)
    for row in range(t.n_rows):
        parts.append("<tr>")
        for cell in sorted(by_row.get(row, []), key=lambda c: c.col):
            attrs = ""
            if cell.rowspan != 1:
                attrs += f' rowspan="{cell.rowspan}"'
            if cell.colspan != 1:
                attrs += f' colspan="{cell.colspan}"'
            parts.append(f"<td{attrs}>{html.escape(cell.content)}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def span_rows_html(rows: list[list[tuple[str, int, int]]]) -> str:
    """HTML for (content, rowspan, colspan) rows, spans always written out."""
    return "<table>" + "".join(
        "<tr>" + "".join(
            f'<td rowspan="{rowspan}" colspan="{colspan}">{content}</td>'
            for content, rowspan, colspan in row
        ) + "</tr>"
        for row in rows
    ) + "</table>"


def to_coord_cells(t: NormalizedTable) -> list[dict]:
    return [
        {"x": c.col, "y": c.row, "w": c.colspan, "h": c.rowspan, "content": c.content}
        for c in t.cells
    ]


def to_rowcol_cells(t: NormalizedTable) -> list[dict]:
    return [
        {"row": c.row, "col": c.col, "rowspan": c.rowspan, "colspan": c.colspan,
         "content": c.content}
        for c in t.cells
    ]


# -- random page pairs --------------------------------------------------------

def rand_page_items(rng: random.Random, max_elements: int = 5) -> list[dict]:
    items = []
    for _ in range(rng.randint(0, max_elements)):
        kind = rng.random()
        if kind < 0.25:
            table = rand_grid_table(rng, 3, 3)
            items.append({"type": "Table", "text": to_coord_cells(table)})
        else:
            items.append({"type": rng.choice(LABELS), "text": rand_text(rng)})
    return items


def perturb_items(rng: random.Random, items: list[dict]) -> list[dict]:
    """Prediction-side mutation: drops, relabels, corruptions, format flips."""
    out = []
    for item in items:
        roll = rng.random()
        if roll < 0.1:
            continue  # dropped element
        item = dict(item)
        if roll < 0.2:
            item["type"] = rng.choice(LABELS)
        if isinstance(item["text"], str):
            if roll < 0.35:
                item["text"] = item["text"] + " " + rand_text(rng, 1, 2)
            elif roll < 0.45:
                item["text"] = rand_text(rng)
        else:
            flip = rng.random()
            table = NormalizedTable.from_cells(
                [Cell(c["y"], c["x"], c["h"], c["w"], c["content"]) for c in item["text"]]
            )
            if flip < 0.3:
                table = translate_table(table, rng.randint(0, 2), rng.randint(0, 2))
            if flip < 0.5:
                item = {"type": item["type"], "text": to_html(table)}
            else:
                item = {"type": item["type"], "text": to_coord_cells(table)}
        out.append(item)
    if len(out) > 1 and rng.random() < 0.3:
        rng.shuffle(out)
    if rng.random() < 0.15:
        out.append({"type": rng.choice(LABELS), "text": rand_text(rng)})
    return out


def rand_page_pair(rng: random.Random, page_id: str) -> PagePair:
    gt_items = rand_page_items(rng)
    pred_items = perturb_items(rng, gt_items)
    gt = parse_document(json.dumps(gt_items), page_id=page_id)
    pred = parse_document(json.dumps(pred_items), page_id=page_id)
    return PagePair(page_id=page_id, gt=gt, pred=pred)


def write_rand_dataset(rng: random.Random, root: Path, pages: int) -> None:
    """Write ``pages`` random GT files and their perturbed predictions under root/gt and root/pred."""
    for side in ("gt", "pred"):
        (root / side).mkdir()
    for i in range(pages):
        gt_items = rand_page_items(rng)
        for side, items in (("gt", gt_items), ("pred", perturb_items(rng, gt_items))):
            (root / side / f"page{i:04d}.json").write_text(json.dumps(items), encoding="utf-8")


@pytest.fixture
def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"
