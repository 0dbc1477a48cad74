import json
import random

import pytest

from conftest import rand_grid_table, rand_span_rows, to_coord_cells, to_html, to_rowcol_cells
from oracles import grid_fill_by_matrix
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
        ],
    )
    def test_malformed_inputs(self, payload):
        with pytest.raises(MalformedInput):
            parse_document(payload)

    def test_error_reports_offending_index(self):
        with pytest.raises(MalformedInput, match="element 1"):
            parse_document(b'[{"type":"A","text":"ok"},{"type":"B"}]')

    def test_unknown_format_hint(self):
        with pytest.raises(MalformedInput):
            parse_document(b"[]", format_hint="yaml")


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
            html_parts = ["<table>"]
            for row in rows:
                html_parts.append("<tr>")
                for content, rowspan, colspan in row:
                    html_parts.append(
                        f'<td rowspan="{rowspan}" colspan="{colspan}">{content}</td>'
                    )
                html_parts.append("</tr>")
            html_parts.append("</table>")
            table = parse_table_html("".join(html_parts))
            assert cell_tuples(table) == grid_fill_by_matrix(rows)


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
        ],
        ids=["w-word", "h-null", "w-infinity", "rowspan-word", "colspan-list"],
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
