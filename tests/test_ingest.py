import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    rand_grid_table,
    rand_span_rows,
    span_rows_html,
    to_coord_cells,
    to_html,
    to_rowcol_cells,
)
from oracles import (
    TableHTMLParserIncremental,
    grid_fill_by_matrix,
    normalize_coord_cells_by_loop,
    parse_table_rowcol_by_loop,
    table_from_text_list_by_dispatch,
)
from score_eval import ingest
from score_eval.errors import (
    EmptyDataset,
    MalformedInput,
    MultipleTablesFound,
    NoTableFound,
    OverlappingCells,
)
from score_eval.ingest import (
    CoordCell,
    normalize_coord_cells,
    pair_pages,
    parse_document,
    parse_table_html,
    parse_table_rowcol,
)
from score_eval.tableeval import Cell, NormalizedTable


def cell_tuples(table: NormalizedTable) -> set:
    return {(c.row, c.col, c.rowspan, c.colspan, c.content) for c in table.cells}


# 0 where this Python converts integers of any length
INT_DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_int_limit = pytest.mark.skipif(not INT_DIGITS_LIMIT, reason="no limit on integer string conversion")


class TestParseDocument:
    def test_single_element_passthrough(self):
        page = parse_document(b'[{"type":"Title","text":"Dabblers"}]')
        assert len(page.elements) == 1
        element = page.elements[0]
        assert element.raw_label == "Title"
        assert element.text == "Dabblers"
        assert element.table is None
        assert element.source_order == 0

    def test_empty_page(self):
        assert parse_document(b"[]").elements == []

    def test_wikimedia_annotation_file(self, fixtures_dir):
        page = parse_document((fixtures_dir / "wikimedia_gt.json").read_bytes())
        assert len(page.elements) == 1
        table = page.elements[0].table
        assert table is not None and len(table.cells) == 5
        header = table.cells[0]
        assert (header.row, header.col, header.colspan) == (0, 0, 4)

    def test_coordinate_cells_flatten_into_text(self):
        data = json.dumps(
            [{"type": "Table", "text": [
                {"x": 1, "y": 0, "w": 1, "h": 1, "content": "$100K"},
                {"x": 0, "y": 0, "w": 1, "h": 1, "content": "Q1"},
            ]}]
        )
        page = parse_document(data)
        assert page.elements[0].text == "Q1 $100K"

    def test_rowcol_cells_accepted_in_text_list(self):
        data = json.dumps(
            [{"type": "Table", "text": [{"row": 0, "col": 0, "content": "Q1"}]}]
        )
        page = parse_document(data)
        assert cell_tuples(page.elements[0].table) == {(0, 0, 1, 1, "Q1")}

    def test_whole_number_floats_are_integers(self):
        coord = [{"x": 0.0, "y": 0, "w": 2.0, "h": 1.0, "content": "Q1"}]
        rowcol = [{"row": 0.0, "col": 0, "colspan": 2.0, "content": "Q1"}]
        for cells in (coord, rowcol):
            page = parse_document(json.dumps([{"type": "Table", "text": cells}]))
            assert cell_tuples(page.elements[0].table) == {(0, 0, 1, 2, "Q1")}

    def test_every_object_becomes_one_element(self):
        rng = random.Random(1)
        for _ in range(50):
            items = [
                {"type": rng.choice(["A", "B"]), "text": "x" * rng.randint(0, 5)}
                for _ in range(rng.randint(0, 10))
            ]
            page = parse_document(json.dumps(items))
            assert len(page.elements) == len(items)
            assert [e.source_order for e in page.elements] == list(range(len(items)))

    @pytest.mark.parametrize(
        "payload",
        [
            b"\xff\xfe junk",
            b'{"type": "Title"}',
            b'["not an object"]',
            b'[{"text": "no type"}]',
            b'[{"type": "Title"}]',
            b'[{"type": "Title", "text": 7}]',
            pytest.param(b'[{"type": "Title", "text": "x", "n": %s}]' % (b"7" * (INT_DIGITS_LIMIT + 1)),
                         marks=needs_int_limit, id="too-long-integer"),
        ],
    )
    def test_malformed_inputs(self, payload):
        with pytest.raises(MalformedInput):
            parse_document(payload)

    def test_error_reports_offending_index(self):
        with pytest.raises(MalformedInput, match="element 1"):
            parse_document(b'[{"type":"A","text":"ok"},{"type":"B"}]')


# (attribute value, colspan, rowspan) as a browser reads a span; the
# HTML Standard caps colspan at 1000 and rowspan at 65534
SPAN_VALUES = [
    ("2.5", 2, 2), ("3px", 3, 3), (" +2", 2, 2), ("1_0", 1, 1), ("\u0663", 1, 1),
    ("0", 1, 1), ("-2", 1, 1), ("x", 1, 1), ("2", 2, 2),
    ("1001", 1000, 1001), ("65535", 1000, 65534), ("0065535", 1000, 65534), ("9" * 5000, 1000, 65534),
]


def span_id(raw, colspan, rowspan):
    value = raw if len(raw) < 10 else f"{len(raw)}-digits"
    return f"{value}-{colspan}" if colspan == rowspan else f"{value}-{colspan}-{rowspan}"


class TestParseTableHtml:
    def test_two_cell_row(self):
        table = parse_table_html("<table><tr><td>Q1</td><td>$100K</td></tr></table>")
        assert cell_tuples(table) == {(0, 0, 1, 1, "Q1"), (0, 1, 1, 1, "$100K")}

    def test_bare_header_row_with_colspan(self):
        table = parse_table_html(
            '<th colspan="4">Associated Wikimedia for French language</th>'
        )
        assert cell_tuples(table) == {
            (0, 0, 1, 4, "Associated Wikimedia for French language")
        }

    def test_empty_table(self):
        assert parse_table_html("<table></table>").cells == ()

    def test_no_table(self):
        with pytest.raises(NoTableFound):
            parse_table_html("<p>just text</p>")

    def test_multiple_tables_rejected(self):
        with pytest.raises(MultipleTablesFound):
            parse_table_html("<table></table><table></table>")

    def test_th_and_td_are_equivalent(self):
        a = parse_table_html("<table><tr><th>h</th></tr></table>")
        b = parse_table_html("<table><tr><td>h</td></tr></table>")
        assert cell_tuples(a) == cell_tuples(b)

    @pytest.mark.parametrize("raw, colspan, rowspan", SPAN_VALUES, ids=[span_id(*value) for value in SPAN_VALUES])
    def test_spans_parse_as_browsers_do(self, raw, colspan, rowspan):
        # HTML's rules for parsing non-negative integers, and its caps
        wide = parse_table_html(f'<table><tr><td colspan="{raw}">a</td></tr></table>')
        tall = parse_table_html(f'<table><tr><td rowspan="{raw}">a</td></tr></table>')
        assert cell_tuples(wide) == {(0, 0, 1, colspan, "a")}
        assert cell_tuples(tall) == {(0, 0, rowspan, 1, "a")}

    def test_rowspan_grid_filling(self):
        table = parse_table_html(
            '<table><tr><td rowspan="2">a</td><td>b</td></tr><tr><td>c</td></tr></table>'
        )
        assert cell_tuples(table) == {
            (0, 0, 2, 1, "a"),
            (0, 1, 1, 1, "b"),
            (1, 1, 1, 1, "c"),
        }

    def test_whitespace_collapsed_and_entities_decoded(self):
        table = parse_table_html("<table><tr><td>  a&amp;b \n\t c  </td></tr></table>")
        assert table.cells[0].content == "a&b c"

    def test_img_alt_contributes(self):
        table = parse_table_html(
            '<table><tr><td><img alt="a logo"/>text</td></tr></table>'
        )
        assert table.cells[0].content == "a logo text"

    def test_img_without_alt_contributes_nothing(self):
        table = parse_table_html('<table><tr><td><img class="Logo"/>x</td></tr></table>')
        assert table.cells[0].content == "x"

    def test_nested_markup_flattens_to_cell_text(self):
        table = parse_table_html(
            "<table><tr><td><div><p>one</p><span>two</span></div></td></tr></table>"
        )
        assert table.cells[0].content == "one two"

    def test_nested_table_text_joins_outer_cell(self):
        table = parse_table_html(
            "<table><tr><td>out <table><tr><td>in</td></tr></table></td></tr></table>"
        )
        assert len(table.cells) == 1
        assert table.cells[0].content == "out in"

    def test_unclosed_rows_tolerated(self):
        table = parse_table_html("<table><tr><td>a<tr><td>b</table>")
        assert cell_tuples(table) == {(0, 0, 1, 1, "a"), (1, 0, 1, 1, "b")}

    def test_unbalanced_nested_paragraphs_tolerated(self):
        # model output style: p tags opened inside p tags, never closed
        table = parse_table_html(
            "<table><tbody><tr><td><h2>T</h2><p><span>15</span><p>inner"
            "<p>deeper</td></tr></tbody></table>"
        )
        assert len(table.cells) == 1
        assert table.cells[0].content == "T 15 inner deeper"

    def test_span_expansion_matches_matrix_oracle(self):
        rng = random.Random(19)
        for _ in range(100):
            rows = rand_span_rows(rng, max_rows=6, max_cols=6, max_span=3)
            table = parse_table_html(span_rows_html(rows))
            assert cell_tuples(table) == grid_fill_by_matrix(rows)


    def test_zero_rowspan_spans_to_the_end_of_the_table(self):
        table = parse_table_html(
            '<table><tr><td rowspan="0">a</td><td>b</td></tr><tr><td>c</td></tr></table>'
        )
        assert cell_tuples(table) == {(0, 0, 2, 1, "a"), (0, 1, 1, 1, "b"), (1, 1, 1, 1, "c")}

    @pytest.mark.parametrize(
        "head_end, body",
        [("</thead>", "<tbody><tr><td>z</td></tr></tbody>"),
         ("</thead>", "<tr><td>z</td></tr>"),
         ("", "<tbody><tr><td>z</td></tr></tbody>")],
        ids=["both-tags", "end-tag-only", "start-tag-only"],
    )
    def test_zero_rowspan_stops_at_the_end_of_its_row_group(self, head_end, body):
        # a row group ends at its end tag, or at the next group's start tag
        table = parse_table_html(
            '<table><thead><tr><td rowspan="0">h</td><td>x</td></tr><tr><td>y</td></tr>'
            f"{head_end}{body}</table>"
        )
        assert cell_tuples(table) == {
            (0, 0, 2, 1, "h"), (0, 1, 1, 1, "x"), (1, 1, 1, 1, "y"), (2, 0, 1, 1, "z"),
        }

    def test_zero_rowspan_in_the_last_row_spans_one_row(self):
        table = parse_table_html(
            '<table><tr><td rowspan="0">a</td><td>b</td></tr><tr><td>c</td></tr>'
            '<tr><td rowspan="0">d</td></tr></table>'
        )
        assert cell_tuples(table) == {
            (0, 0, 3, 1, "a"), (0, 1, 1, 1, "b"), (1, 1, 1, 1, "c"), (2, 1, 1, 1, "d"),
        }
        assert table.n_rows == 3

    def test_same_parses_as_the_incremental_parser(self, monkeypatch):
        # the parser that placed each cell as its tag arrived gives the same
        # cells, or the same error; no rowspan here reads as 0, which it read as 1
        rng = random.Random(26)
        fragments = [rand_table_fragment(rng) for _ in range(20_000)]
        got = [parse_table_html_outcome(html) for html in fragments]
        monkeypatch.setattr(ingest, "_TableHTMLParser", TableHTMLParserIncremental)
        want = [parse_table_html_outcome(html) for html in fragments]
        for html, outcome, wanted in zip(fragments, got, want):
            assert outcome == wanted, html
        # every outcome occurs often: cells, overlaps, stray and second tables, no table
        outcomes = Counter(kind for kind, _ in want)
        assert min(outcomes.values()) >= 200 and len(outcomes) == 4, outcomes


# Pieces of HTML table fragments: structure, spans that never read as a
# rowspan of 0, nested tables, images, block and inline markup, entities
_FRAGMENT_TAGS = [
    "<table>", "</table>", "<tr>", "</tr>", "<td>", "</td>", "<th>", "</th>", "<TD>", "<Tr>",
    "<thead>", "</thead>", "<tbody>", "</tbody>", "<tfoot>", "</tfoot>", "<td/>",
    "<p>", "</p>", "<div>", "</div>", "<br>", "<span>", "</span>", "<b>", "</b>",
    '<img alt="a logo">', '<img src="x.png">', "<caption>", "</caption>",
]
_FRAGMENT_TEXT = ["a", "b c", " Q1 ", "$100K", "&amp;", "&lt;x", "\n", "  ", "x&nbsp;y"]
_FRAGMENT_ROWSPANS = ["1", "2", "3", " +2", "2.5", "3px", "x", "-1", "", "12"]
_FRAGMENT_COLSPANS = _FRAGMENT_ROWSPANS + ["0", "00"]


def rand_table_fragment(rng: random.Random) -> str:
    parts = ["<table>"] if rng.random() < 0.7 else []
    for _ in range(rng.randint(0, 24)):
        roll = rng.random()
        if roll < 0.25:
            tag = rng.choice(["td", "th", "TD"])
            rowspan, colspan = rng.choice(_FRAGMENT_ROWSPANS), rng.choice(_FRAGMENT_COLSPANS)
            parts.append(f'<{tag} rowspan="{rowspan}" COLSPAN="{colspan}">')
        elif roll < 0.7:
            parts.append(rng.choice(_FRAGMENT_TAGS))
        else:
            parts.append(rng.choice(_FRAGMENT_TEXT))
    return "".join(parts)


def parse_table_html_outcome(html: str) -> tuple:
    try:
        return "cells", parse_table_html(html).cells
    except Exception as exc:
        return type(exc), str(exc)


class TestNormalizeCoordCells:
    def test_single_cell(self):
        table = normalize_coord_cells([CoordCell(x=0, y=0, w=1, h=1, content="Q1")])
        assert cell_tuples(table) == {(0, 0, 1, 1, "Q1")}

    def test_empty(self):
        assert normalize_coord_cells([]).cells == ()

    def test_overlap_names_both_cells(self):
        cells = [CoordCell(0, 0, content="first"), CoordCell(0, 0, content="second")]
        with pytest.raises(OverlappingCells, match="first.*second"):
            normalize_coord_cells(cells)

    def test_span_overlap_detected(self):
        cells = [CoordCell(0, 0, w=2, h=2, content="big"), CoordCell(1, 1, content="hit")]
        with pytest.raises(OverlappingCells):
            normalize_coord_cells(cells)

    def test_sorted_by_row_col(self):
        table = normalize_coord_cells(
            [CoordCell(1, 0, content="b"), CoordCell(0, 0, content="a")]
        )
        assert [c.content for c in table.cells] == ["a", "b"]

    def test_invalid_geometry(self):
        with pytest.raises(MalformedInput):
            normalize_coord_cells([CoordCell(-1, 0, content="x")])
        with pytest.raises(MalformedInput):
            normalize_coord_cells([CoordCell(0, 0, w=0, content="x")])


class TestParseTableRowcol:
    def test_single_cell(self):
        table = parse_table_rowcol('[{"row":0,"col":0,"content":"Q1"}]')
        assert cell_tuples(table) == {(0, 0, 1, 1, "Q1")}

    def test_sort_normalization(self):
        table = parse_table_rowcol(
            '[{"row":0,"col":1,"content":"$100K"},{"row":0,"col":0,"content":"Q1"}]'
        )
        assert [c.content for c in table.cells] == ["Q1", "$100K"]

    def test_duplicate_position(self):
        with pytest.raises(OverlappingCells):
            parse_table_rowcol(
                '[{"row":0,"col":0,"content":"a"},{"row":0,"col":0,"content":"b"}]'
            )

    def test_malformed(self):
        with pytest.raises(MalformedInput):
            parse_table_rowcol('{"row": 0}')
        with pytest.raises(MalformedInput):
            parse_table_rowcol('[{"col": 0, "content": "x"}]')

    @pytest.mark.parametrize(
        "payload",
        ["[" * 100_000, b"[" * 100_000, "[" * 100_000 + "]" * 100_000],
        ids=["unclosed", "unclosed-bytes", "closed"],
    )
    def test_deep_nesting_is_malformed_not_a_recursion_error(self, payload):
        with pytest.raises(MalformedInput, match="nests too deeply"):
            parse_table_rowcol(payload)

    @needs_int_limit
    def test_too_long_integer_is_malformed(self):
        digits = "7" * (INT_DIGITS_LIMIT + 1)
        with pytest.raises(MalformedInput, match="^invalid table JSON: "):
            parse_table_rowcol(f'[{{"row": {digits}, "col": 0}}]')

    @pytest.mark.parametrize(
        "payload",
        [b"\xff[]", b"\xef\xbb\xbf[]", "[", "[1,]", "{not json", '{"row": 0}', "7", "[" * 100_000],
        ids=["not-utf8", "bom", "unclosed", "trailing-comma", "bad-key", "object", "number", "deep"],
    )
    def test_json_messages_match_the_parent_loader(self, payload):
        with pytest.raises(MalformedInput) as parent:
            parse_table_rowcol_by_loop(payload)
        with pytest.raises(MalformedInput) as reader:
            parse_table_rowcol(payload)
        assert str(reader.value) == str(parent.value)


class TestFormatEquivalence:
    def test_three_encodings_agree(self):
        rng = random.Random(31)
        for _ in range(100):
            table = rand_grid_table(rng)
            from_html = parse_table_html(to_html(table))
            from_coord = normalize_coord_cells(
                [CoordCell(**{k: v for k, v in cell.items() if k != "content"},
                           content=cell["content"])
                 for cell in to_coord_cells(table)]
            )
            from_rowcol = parse_table_rowcol(json.dumps(to_rowcol_cells(table)))
            assert cell_tuples(from_html) == cell_tuples(table)
            assert cell_tuples(from_coord) == cell_tuples(table)
            assert cell_tuples(from_rowcol) == cell_tuples(table)


# -- the one cell reader against the parent's three loops ----------------------

# where each encoding's keys take (row, col, rowspan, colspan)
ENCODINGS = {
    "rowcol": {"row": 0, "col": 1, "rowspan": 2, "colspan": 3},
    "coord": {"y": 0, "x": 1, "h": 2, "w": 3},
}
DEFECTS = ("non-integer", "missing", "fractional", "negative", "zero-span", "non-dict", "content", "mixed")


def encode_cell(rng, values, encoding, content):
    """A cell object; some numbers become whole-number floats and spans of 1 may be left out."""
    item = {}
    for key, at in ENCODINGS[encoding].items():
        value = values[at]
        if at >= 2 and value == 1 and rng.random() < 0.3:
            continue
        item[key] = float(value) if rng.random() < 0.15 else value
    if content or rng.random() < 0.5:
        item["content"] = content
    return item


def plant(rng, item, values, encoding):
    """``item`` with one defect of a randomly drawn kind, and that kind."""
    kind = rng.choice(DEFECTS)
    if kind == "non-dict":
        return rng.choice(["cell", 3, None, [item]]), kind
    if kind == "mixed":
        other = "coord" if encoding == "rowcol" else "rowcol"
        return encode_cell(rng, values, other, item.get("content", "")), kind
    item = dict(item)
    keys = list(ENCODINGS[encoding])
    positions, spans = keys[:2], keys[2:]
    if kind == "non-integer":
        item[rng.choice(keys)] = rng.choice(["two", None, [1], {"n": 1}, float("inf"), float("nan")])
    elif kind == "missing":
        del item[rng.choice(positions)]
    elif kind == "fractional":
        key = rng.choice(keys)
        item[key] = item.get(key, 1) + 0.5
    elif kind == "negative":
        item[rng.choice(positions)] = -rng.randint(1, 3)
    elif kind == "zero-span":
        item[rng.choice(spans)] = rng.choice([0, -1, 0.0])
    else:
        item["content"] = rng.choice([5, None, ["a"], 1.5])
    return item, kind


def rand_cell_list(rng, encoding, defects: Counter):
    """A shuffled span table as cell objects, sometimes overlapping, with defects planted one per cell."""
    rows = rand_span_rows(rng, max_rows=4, max_cols=4, max_span=3)
    cells = [((r, c, rs, cs), content) for r, c, rs, cs, content in sorted(grid_fill_by_matrix(rows))]
    rng.shuffle(cells)
    if cells and rng.random() < 0.1:
        cells.append((rng.choice(cells)[0], "overlap"))
    padded = [(values, f" {content}\n" if rng.random() < 0.1 else content) for values, content in cells]
    items = [encode_cell(rng, values, encoding, content) for values, content in padded]
    if items and rng.random() < 0.6:
        for i in rng.sample(range(len(items)), rng.randint(1, min(3, len(items)))):
            items[i], kind = plant(rng, items[i], padded[i][0], encoding)
            defects[kind] += 1
    return items


def outcome(parse, items):
    try:
        table = parse(items)
    except (MalformedInput, OverlappingCells) as exc:
        return type(exc).__name__, str(exc)
    return "table", table.cells


def reworded(message: str, index: int) -> str:
    """A parent message as the reader words it for the cell at ``index``."""
    message = message.replace(" (or 'row'/'col')", "")
    if message.startswith("cell coordinates must be >= 0, got "):
        return f"cell {index} has negative position " + message.rsplit("got ", 1)[1]
    if message.startswith("cell spans must be >= 1, got "):
        return f"cell {index} has span < 1"
    return message


def first_bad_cell(parse, items):
    """``parse``'s outcome with MalformedInput taken from the shortest prefix it rejects, reworded."""
    for k in range(1, len(items) + 1):
        try:
            parse(items[:k])
        except MalformedInput as exc:
            raise MalformedInput(reworded(str(exc), k - 1)) from exc
        except OverlappingCells:
            pass
    return parse(items)


def parent_text_list(items):
    """The parent's element-text reader, mapped to the one reader's rules.

    - The first cell's keys choose the encoding.  A coordinate list reads
      a later row/col cell as a coordinate cell, where the parent read the
      whole list again as row/col cells: "row" is hidden from the parent.
    - Each cell is checked whole before the next, so the first bad cell
      is named, where the parent range-checked coordinate cells only after
      reading all of them: the parent is given growing prefixes.
    - Coordinate messages are worded as row/col ones are (``reworded``).
    """
    first = items[0] if items else None
    if not (isinstance(first, dict) and "row" in first and "col" in first):
        items = [
            {k: v for k, v in item.items() if k != "row"} if isinstance(item, dict) else item
            for item in items
        ]
    return first_bad_cell(table_from_text_list_by_dispatch, items)


def element_table(items):
    try:
        return parse_document(json.dumps([{"type": "Table", "text": items}])).elements[0].table
    except MalformedInput as exc:
        raise MalformedInput(str(exc).removeprefix("element 0: ")) from exc


class TestOneCellReader:
    def test_element_text_lists_read_as_the_parent_read_them(self):
        rng = random.Random(12)
        defects, kinds, remapped = Counter(), Counter(), 0
        for _ in range(3000):
            items = rand_cell_list(rng, rng.choice(list(ENCODINGS)), defects)
            expected = outcome(parent_text_list, items)
            assert outcome(element_table, items) == expected, items
            kinds[expected[0]] += 1
            remapped += expected != outcome(table_from_text_list_by_dispatch, items)
        assert set(defects) == set(DEFECTS) and min(kinds.values()) > 50, (defects, kinds)
        assert remapped > 50

    def test_rowcol_payloads_read_exactly_as_the_parent_read_them(self):
        rng = random.Random(13)
        defects, kinds = Counter(), Counter()
        for _ in range(2000):
            items = rand_cell_list(rng, "rowcol", defects)
            payload = json.dumps(items) if rng.random() < 0.5 else items
            expected = outcome(parse_table_rowcol_by_loop, payload)
            assert outcome(parse_table_rowcol, payload) == expected, items
            kinds[expected[0]] += 1
        assert set(defects) == set(DEFECTS) and min(kinds.values()) > 50, (defects, kinds)

    def test_coord_cells_normalize_as_the_parent_normalized_them(self):
        rng = random.Random(14)
        kinds = Counter()
        for _ in range(2000):
            rows = rand_span_rows(rng, max_rows=4, max_cols=4, max_span=3)
            layout = sorted(grid_fill_by_matrix(rows))
            cells = [CoordCell(c, r, cs, rs, content) for r, c, rs, cs, content in layout]
            rng.shuffle(cells)
            for i in range(len(cells)):
                if rng.random() < 0.1:
                    x, y, w, h = (rng.randint(-2, 3) for _ in range(4))
                    cells[i] = CoordCell(x, y, w, h, cells[i].content)
            expected = outcome(lambda cs: first_bad_cell(normalize_coord_cells_by_loop, cs), cells)
            assert outcome(normalize_coord_cells, cells) == expected, cells
            kinds[expected[0]] += 1
        assert min(kinds.values()) > 20, kinds

    @pytest.mark.parametrize(
        "items, parent, reader",
        [
            ([{"x": 0, "y": 0}, {"row": 0, "col": 1}],
             "cell 0 needs integer 'row' and 'col'", "cell 1 needs integer 'x' and 'y'"),
            ([{"x": -1, "y": 0}, {"x": 0, "y": 1, "w": "two"}],
             "cell 1 needs integer 'w' and 'h'", "cell 0 has negative position (-1, 0)"),
            ([{"x": -1, "y": 0, "w": "two"}],
             "cell 0 needs integer 'w' and 'h'", "cell 0 has negative position (-1, 0)"),
            ([{"x": 0, "y": 0, "w": 0, "content": 5}],
             "cell 0 content must be a string", "cell 0 has span < 1"),
            ([{"x": 0, "y": 0, "h": 0}], "cell spans must be >= 1, got (1, 0)", "cell 0 has span < 1"),
            ([{"y": 0}],
             "cell 0 needs integer 'x' and 'y' (or 'row'/'col')", "cell 0 needs integer 'x' and 'y'"),
        ],
        ids=["mixed", "first-bad-cell", "position-before-spans", "spans-before-content", "span-wording",
             "no-hint"],
    )
    def test_changed_messages(self, items, parent, reader):
        # a coordinate cell is checked in row/col order, position, spans, content
        assert outcome(table_from_text_list_by_dispatch, items) == ("MalformedInput", parent)
        assert outcome(element_table, items) == ("MalformedInput", reader)


class TestPairPages:
    def write(self, directory, name, items):
        directory.mkdir(exist_ok=True)
        (directory / name).write_text(json.dumps(items), encoding="utf-8")

    def test_matching_stems(self, tmp_path):
        self.write(tmp_path / "gt", "a.json", [{"type": "Text", "text": "x"}])
        self.write(tmp_path / "pred", "a.json", [{"type": "Text", "text": "x"}])
        pairs, notices = pair_pages(tmp_path / "gt", tmp_path / "pred")
        assert len(pairs) == 1 and pairs[0].page_id == "a"
        assert notices == []

    def test_missing_prediction_reported(self, tmp_path):
        self.write(tmp_path / "gt", "a.json", [])
        self.write(tmp_path / "gt", "b.json", [])
        self.write(tmp_path / "pred", "a.json", [])
        pairs, notices = pair_pages(tmp_path / "gt", tmp_path / "pred")
        assert len(pairs) == 1
        assert notices == ["missing prediction: b"]

    def test_empty_dataset(self, tmp_path):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        with pytest.raises(EmptyDataset):
            pair_pages(tmp_path / "gt", tmp_path / "pred")

    def test_lexicographic_order(self, tmp_path):
        for stem in ("c", "a", "b"):
            self.write(tmp_path / "gt", f"{stem}.json", [])
            self.write(tmp_path / "pred", f"{stem}.json", [])
        pairs, _ = pair_pages(tmp_path / "gt", tmp_path / "pred")
        assert [p.page_id for p in pairs] == ["a", "b", "c"]

    def test_unparseable_file_becomes_notice(self, tmp_path):
        self.write(tmp_path / "gt", "a.json", [])
        self.write(tmp_path / "pred", "a.json", [])
        (tmp_path / "gt" / "bad.json").write_text("{not json", encoding="utf-8")
        (tmp_path / "pred" / "bad.json").write_text("[]", encoding="utf-8")
        pairs, notices = pair_pages(tmp_path / "gt", tmp_path / "pred")
        assert [p.page_id for p in pairs] == ["a"]
        assert any("bad" in n for n in notices)

    def test_overlapping_cells_become_notice(self, tmp_path):
        overlap = [{"x": 0, "y": 0, "w": 2, "content": "wide"}, {"x": 1, "y": 0, "content": "hit"}]
        for side in ("gt", "pred"):
            self.write(tmp_path / side, "a.json", [{"type": "Text", "text": "x"}])
            self.write(tmp_path / side, "b.json", [{"type": "Table", "text": overlap}])
        pairs, notices = pair_pages(tmp_path / "gt", tmp_path / "pred")
        assert [p.page_id for p in pairs] == ["a"]
        assert len(notices) == 1
        assert notices[0].startswith("failed to parse ground truth b: cells 'wide' at (0,0)")

    @pytest.mark.parametrize(
        "table, named",
        [
            ([{"x": 0, "y": 0}, {"x": 1, "y": 0, "w": "two"}], "cell 1 needs integer 'w' and 'h'"),
            ([{"x": 0, "y": 0}, {"x": 1, "y": 0, "h": None}], "cell 1 needs integer 'w' and 'h'"),
            ([{"x": 0, "y": 0, "w": float("inf")}], "cell 0 needs integer 'w' and 'h'"),
            ([{"row": 0, "col": 0}, {"row": 0, "col": 1, "rowspan": "2x"}],
             "cell 1 needs integer 'rowspan' and 'colspan'"),
            ([{"row": 0, "col": 0, "colspan": [2]}], "cell 0 needs integer 'rowspan' and 'colspan'"),
            ([{"x": 0, "y": 0}, {"x": 1, "y": 0, "w": 1.9}], "cell 1 needs integer 'w' and 'h'"),
            ([{"row": 0, "col": 0}, {"row": 0.5, "col": 1}], "cell 1 needs integer 'row' and 'col'"),
            ([{"x": "2", "y": 0, "content": "a"}], "cell 0 needs integer 'x' and 'y'"),
            ([{"x": 0, "y": 0}, {"x": 2, "y": True, "content": "a"}], "cell 1 needs integer 'x' and 'y'"),
            ([{"x": 0, "y": 0, "w": " 3 ", "content": "a"}], "cell 0 needs integer 'w' and 'h'"),
        ],
        ids=["w-word", "h-null", "w-infinity", "rowspan-word", "colspan-list", "w-fraction", "row-fraction",
             "x-digit-string", "y-bool", "w-padded-string"],
    )
    def test_non_integer_span_becomes_notice(self, tmp_path, table, named):
        for side in ("gt", "pred"):
            self.write(tmp_path / side, "a.json", [{"type": "Text", "text": "x"}])
        self.write(tmp_path / "gt", "b.json", [{"type": "Text", "text": "y"}])
        self.write(tmp_path / "pred", "b.json", [{"type": "Text", "text": "y"}, {"type": "Table", "text": table}])
        pairs, notices = pair_pages(tmp_path / "gt", tmp_path / "pred")
        assert [p.page_id for p in pairs] == ["a"]
        assert notices == [f"failed to parse prediction b: element 1: {named}"]

    def test_duplicate_stem_keeps_last_name_with_notice(self, tmp_path):
        self.write(tmp_path / "gt", "a.json", [{"type": "Text", "text": "x"}])
        self.write(tmp_path / "gt", "a.txt", [{"type": "Text", "text": "y"}])
        self.write(tmp_path / "pred", "a.json", [{"type": "Text", "text": "y"}])
        pairs, notices = pair_pages(tmp_path / "gt", tmp_path / "pred")
        assert [e.text for e in pairs[0].gt.elements] == ["y"]
        assert notices == ["duplicate ground truth stem a: kept a.txt, ignored a.json"]

    @pytest.mark.parametrize("side, name", [("gt", "ground truth"), ("pred", "prediction")])
    def test_unreadable_file_becomes_notice(self, tmp_path, monkeypatch, side, name):
        for directory in ("gt", "pred"):
            for stem in ("a", "b"):
                self.write(tmp_path / directory, f"{stem}.json", [{"type": "Text", "text": "x"}])
        blocked = tmp_path / side / "b.json"
        read_bytes = Path.read_bytes

        def guarded(path):
            if path == blocked:
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", guarded)
        pairs, notices = pair_pages(tmp_path / "gt", tmp_path / "pred")
        assert [p.page_id for p in pairs] == ["a"]
        assert notices == [f"failed to read {name} b: [Errno 13] Permission denied: '{blocked}'"]

    def test_unlistable_directory_raises(self, tmp_path, monkeypatch):
        self.write(tmp_path / "gt", "a.json", [])
        self.write(tmp_path / "pred", "a.json", [])

        def refused(path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "iterdir", refused)
        with pytest.raises(PermissionError):
            pair_pages(tmp_path / "gt", tmp_path / "pred")
