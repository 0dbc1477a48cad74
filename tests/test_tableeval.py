import random

import pytest

from conftest import (
    rand_cell_content,
    rand_grid_table,
    rand_span_rows,
    span_rows_html,
    table_bags,
    translate_table,
)
from oracles import (
    best_assignment,
    cell_alignment_per_shift,
    content_index_accuracy_per_shift,
    f_measure,
    tree_distance_by_mappings,
)
from score_eval import tableeval
from score_eval.errors import InvalidThreshold
from score_eval.ingest import parse_table_html
from score_eval.tableeval import (
    _CARDINALITY_BONUS,
    Cell,
    CellAccuracy,
    NormalizedTable,
    TableTree,
    _max_assignment,
    build_table_tree,
    cell_alignment,
    content_index_accuracy,
    flatten,
    match_tables,
    table_similarity,
    teds,
    tree_edit_distance,
)
from score_eval.textmetrics import ned


def grid(*rows) -> NormalizedTable:
    cells = [
        Cell(r, c, 1, 1, content)
        for r, row in enumerate(rows)
        for c, content in enumerate(row)
    ]
    return NormalizedTable.from_cells(cells)


QUARTERS = grid(["Q1", "$100K"], ["Q2", "$200K"])


class TestNormalizedTable:
    def test_extents(self):
        table = NormalizedTable.from_cells([Cell(0, 0, 2, 3, "a")])
        assert table.n_rows == 2 and table.n_cols == 3

    def test_empty_extents(self):
        table = NormalizedTable.from_cells([])
        assert table.n_rows == 0 and table.n_cols == 0 and table.is_empty()

    def test_flat_text_row_col_order(self):
        assert QUARTERS.flat_text() == "Q1 $100K Q2 $200K"


class TestTableSimilarity:
    def test_identical(self):
        assert table_similarity(QUARTERS, QUARTERS) == 1.0

    def test_transposed_content_scores_one(self):
        transposed = grid(["Q1", "Q2"], ["$100K", "$200K"])
        assert table_similarity(transposed, QUARTERS) == 1.0

    def test_half_overlap(self):
        p = grid(["Q1", "$100K"])
        g = grid(["Q1", "$200K"])
        assert table_similarity(p, g) == 0.5

    def test_both_empty(self):
        empty = NormalizedTable.from_cells([])
        assert table_similarity(empty, empty) == 1.0


class TestMatchTables:
    def test_elementwise_equal(self):
        result = match_tables(table_bags([QUARTERS, grid(["a"])]), table_bags([QUARTERS, grid(["a"])]))
        assert result.precision == result.recall == result.f_beta == 1.0
        assert result.true_positives == 2

    def test_one_of_two_matched(self):
        preds = [QUARTERS]
        gts = [QUARTERS, grid(["unrelated", "words"])]
        result = match_tables(table_bags(preds), table_bags(gts))
        assert (result.precision, result.recall) == (1.0, 0.5)
        assert result.f_beta == pytest.approx(2 / 3)

    def test_no_predictions(self):
        result = match_tables([], table_bags([grid(["a"]), grid(["b"])]))
        assert result.precision == 1.0 and result.recall == 0.0
        assert result.f_beta == 0.0
        assert result.false_negatives == 2

    def test_no_tables_anywhere(self):
        result = match_tables([], [])
        assert result.f_beta == 1.0

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThreshold):
            match_tables([], [], tau=0.0)
        with pytest.raises(InvalidThreshold):
            match_tables([], [], beta=0.0)
        for beta in (float("nan"), float("inf")):
            with pytest.raises(InvalidThreshold):
                match_tables([], [], beta=beta)

    def test_count_bookkeeping(self):
        rng = random.Random(37)
        for _ in range(100):
            preds = [rand_grid_table(rng, 2, 2) for _ in range(rng.randint(0, 3))]
            gts = [rand_grid_table(rng, 2, 2) for _ in range(rng.randint(0, 3))]
            result = match_tables(table_bags(preds), table_bags(gts))
            assert result.true_positives + result.false_positives == len(preds)
            assert result.true_positives + result.false_negatives == len(gts)
            seen_p = [p for p, _, _ in result.pairs]
            seen_g = [g for _, g, _ in result.pairs]
            assert len(seen_p) == len(set(seen_p))
            assert len(seen_g) == len(set(seen_g))

    def test_matches_exhaustive_assignment(self):
        rng = random.Random(41)
        for _ in range(200):
            preds = [rand_grid_table(rng, 3, 3) for _ in range(rng.randint(0, 4))]
            gts = [rand_grid_table(rng, 3, 3) for _ in range(rng.randint(0, 4))]
            tau = 0.3
            result = match_tables(table_bags(preds), table_bags(gts), tau=tau)
            sims = [[table_similarity(p, g) for g in gts] for p in preds]
            want_total, want_count = best_assignment(sims, tau)
            got_total = sum(sim for _, _, sim in result.pairs)
            assert result.true_positives == want_count
            assert got_total == pytest.approx(want_total, abs=1e-9)
            assert result.f_beta == pytest.approx(
                f_measure(want_count, len(preds) - want_count, len(gts) - want_count, 1.0),
                abs=1e-9,
            )

    def test_f1_is_harmonic_mean(self):
        result = match_tables(table_bags([QUARTERS]), table_bags([QUARTERS, grid(["zz"])]), beta=1.0)
        p, r = result.precision, result.recall
        assert result.f_beta == pytest.approx(2 * p * r / (p + r))


class TestMaxAssignment:
    def test_empty_inputs(self):
        assert _max_assignment([]) == []
        assert _max_assignment([[]]) == []

    def test_same_pairs_as_scipy(self):
        # scipy is the reference implementation here, and only here
        import numpy as np
        from scipy.optimize import linear_sum_assignment

        rng = random.Random(43)
        levels = (0.0, 0.25, 0.5, 0.75, 1.0)
        draws = (lambda: rng.choice(levels), rng.random)
        checked = 0
        for tau in (0.3, 0.5, 1.0):
            for draw in draws:
                for _ in range(2000):
                    n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
                    sims = [[draw() for _ in range(n_cols)] for _ in range(n_rows)]
                    # built exactly as match_tables builds it
                    profit = [[s + _CARDINALITY_BONUS if s >= tau else 0.0 for s in row] for row in sims]
                    rows, cols = linear_sum_assignment(np.array(profit), maximize=True)
                    want = [(int(i), int(j)) for i, j in zip(rows, cols)]
                    assert _max_assignment(profit) == want, (tau, sims)
                    checked += 1
        assert checked >= 10_000


class TestFlatten:
    def test_row_flatten(self):
        assert flatten(QUARTERS, "row") == ["Q1 $100K", "Q2 $200K"]

    def test_col_flatten(self):
        assert flatten(QUARTERS, "col") == ["Q1 Q2", "$100K $200K"]

    def test_empty_table(self):
        assert flatten(NormalizedTable.from_cells([]), "row") == []

    def test_spanned_cell_counts_once(self):
        table = NormalizedTable.from_cells(
            [Cell(0, 0, 2, 1, "tall"), Cell(0, 1, 1, 1, "b"), Cell(1, 1, 1, 1, "c")]
        )
        assert flatten(table, "row") == ["tall b", "c"]

    def test_axes_enumerate_same_cells(self):
        rng = random.Random(43)
        for _ in range(50):
            table = rand_grid_table(rng)
            row_tokens = sorted(" ".join(flatten(table, "row")).split())
            col_tokens = sorted(" ".join(flatten(table, "col")).split())
            assert row_tokens == col_tokens


class TestCellAlignment:
    def test_identical_no_shift(self):
        assert cell_alignment(QUARTERS, QUARTERS, (0, 0)) == (1.0, 1.0)

    def test_uniform_shift_cancellation(self):
        shifted = translate_table(QUARTERS, 1, 0)
        assert cell_alignment(shifted, QUARTERS, (1, 0)) == (1.0, 1.0)

    def test_one_corrupted_cell_index(self):
        pred = grid(["Q1", "$100K"], ["Q2", "zzzzzzzz"])
        _, index = cell_alignment(pred, QUARTERS, (0, 0))
        assert index == 0.75  # oracle: 3 of 4 positions hold matching content

    def test_both_empty(self):
        empty = NormalizedTable.from_cells([])
        assert cell_alignment(empty, empty, (0, 0)) == (1.0, 1.0)


class TestContentIndexAccuracy:
    def test_identical(self):
        for n in (0, 1, 2):
            acc = content_index_accuracy(QUARTERS, QUARTERS, n)
            assert (acc.content_acc, acc.index_acc) == (1.0, 1.0)
            assert acc.best_shift == (0, 0)

    def test_merged_vs_split_header(self):
        merged = NormalizedTable.from_cells(
            [Cell(0, 0, 1, 2, "Merged Header"), Cell(1, 0, 1, 1, "a"), Cell(1, 1, 1, 1, "b")]
        )
        split = grid(["Merged", "Header"], ["a", "b"])
        acc = content_index_accuracy(merged, split, 2)
        assert acc.content_acc == 1.0  # row strings agree despite cell counts

    def test_translation_recovered_within_n(self):
        pred = translate_table(QUARTERS, 2, 0)
        acc = content_index_accuracy(pred, QUARTERS, 2)
        assert (acc.content_acc, acc.index_acc) == (1.0, 1.0)
        assert acc.best_shift == (2, 0)

    def test_translation_beyond_n_penalized(self):
        pred = translate_table(QUARTERS, 2, 0)
        acc = content_index_accuracy(pred, QUARTERS, 1)
        assert acc.index_acc < 1.0

    def test_n_zero_equals_plain_alignment(self):
        rng = random.Random(47)
        for _ in range(50):
            p = rand_grid_table(rng, 3, 3)
            g = rand_grid_table(rng, 3, 3)
            acc = content_index_accuracy(p, g, 0)
            assert (acc.content_acc, acc.index_acc) == cell_alignment(p, g, (0, 0))
            assert acc.best_shift == (0, 0)

    def test_joint_score_monotone_in_n(self):
        rng = random.Random(53)
        for _ in range(30):
            p = rand_grid_table(rng, 3, 3)
            g = translate_table(rand_grid_table(rng, 3, 3), rng.randint(0, 2), rng.randint(0, 2))
            totals = []
            for n in range(0, 4):
                acc = content_index_accuracy(p, g, n)
                totals.append(acc.content_acc + acc.index_acc)
            assert totals == sorted(totals)

    def test_shift_invariance_of_index(self):
        rng = random.Random(59)
        for _ in range(30):
            table = rand_grid_table(rng, 3, 3)
            d_row, d_col = rng.randint(0, 2), rng.randint(0, 2)
            pred = translate_table(table, d_row, d_col)
            acc = content_index_accuracy(pred, table, 2)
            assert acc.index_acc == 1.0
            assert acc.best_shift == (d_row, d_col)

    def test_tie_prefers_lexicographically_smaller_shift(self):
        # shifts (0, 1) and (1, 0) both score content 0.5 and index 1.0
        gt = grid(["a"])
        pred = NormalizedTable.from_cells([Cell(0, 1, 1, 1, "a"), Cell(1, 0, 1, 1, "a")])
        for n in (1, 2):
            assert content_index_accuracy(pred, gt, n) == CellAccuracy(0.5, 1.0, (0, 1))

    def test_search_computes_shift_free_parts_once(self, monkeypatch):
        flattened, pairs = [], []

        def counting_flatten(t, axis="row"):
            flattened.append(axis)
            return flatten(t, axis)

        def counting_ned(s, g):
            pairs.append((s, g))
            return ned(s, g)

        monkeypatch.setattr(tableeval, "flatten", counting_flatten)
        monkeypatch.setattr(tableeval, "ned", counting_ned)
        pred = translate_table(grid(["Q1", "$100K"], ["Q2", "$200"]), 1, 0)
        assert content_index_accuracy(pred, QUARTERS, 2).best_shift == (1, 0)
        assert len(flattened) == 4
        assert pairs and len(pairs) == len(set(pairs))

    def test_search_stops_at_the_table_extent(self, monkeypatch):
        scored = []
        shift_scores = tableeval._shift_scores

        def counting_shift_scores(p, g, shifts, index_gate):
            shifts = list(shifts)
            scored.extend(shifts)
            return shift_scores(p, g, shifts, index_gate)

        monkeypatch.setattr(tableeval, "_shift_scores", counting_shift_scores)
        pred = grid(["a", "b", "c"], ["d", "e", "f"])
        gt = translate_table(grid(["a", "b"], ["d", "x"], ["g", "h"]), 1, 0)
        acc = content_index_accuracy(pred, gt, 10**6)
        # GT rows 0-3 overlap prediction rows 0-1 for d_row in -3..1; columns -1..2
        assert len(scored) == len(set(scored)) == 5 * 4
        assert acc == content_index_accuracy_per_shift(pred, gt, 6)
        assert acc.best_shift == (-1, 0)

    def test_matches_per_shift_oracle(self):
        rng = random.Random(61)
        cases = moved = 0
        while cases < 10_000:
            p, g = rand_shift_pair(rng)
            # tables span 1-6 rows and columns, so the last n often passes them
            for n in (0, 1, 2, rng.randint(3, 5)):
                for gate in (0.0, 0.5, 1.0):
                    acc = content_index_accuracy(p, g, n, gate)
                    assert acc == content_index_accuracy_per_shift(p, g, n, gate), (p, g, n, gate)
                    cases += 1
                    moved += acc.best_shift != (0, 0)
            for shift in ((0, 0), (1, 2), (-1, 0), (-2, 1)):
                want = cell_alignment_per_shift(p, g, shift, 0.5)
                assert cell_alignment(p, g, shift, 0.5) == want, (p, g, shift)
        assert moved >= 2_000


def typo(rng: random.Random, text: str) -> str:
    """`text` with one character replaced, dropped or doubled."""
    if not text:
        return "x"
    i = rng.randrange(len(text))
    return rng.choice((
        text[:i] + rng.choice("xyz") + text[i + 1:],
        text[:i] + text[i + 1:],
        text[:i] + text[i] + text[i:],
    ))


def rand_table(rng: random.Random) -> NormalizedTable:
    """A span-free grid, or a spanned table parsed from its HTML."""
    if rng.random() < 0.5:
        return rand_grid_table(rng)
    return parse_table_html(span_rows_html(rand_span_rows(rng)))


def rand_shift_pair(rng: random.Random) -> tuple[NormalizedTable, NormalizedTable]:
    """(pred, GT): unrelated tables, or one table moved and edited.

    Either side is translated by 0-2 rows and columns, so the best shift
    takes both signs; prediction cells are blanked or typo'd.
    """
    gt = rand_table(rng)
    if rng.random() < 0.2:
        return rand_table(rng), gt
    cells = []
    for c in gt.cells:
        roll = rng.random()
        content = "" if roll < 0.1 else typo(rng, c.content) if roll < 0.3 else c.content
        cells.append(Cell(c.row, c.col, c.rowspan, c.colspan, content))
    pred = NormalizedTable.from_cells(cells)
    d_row, d_col = rng.randint(0, 2), rng.randint(0, 2)
    if rng.random() < 0.5:
        return translate_table(pred, d_row, d_col), gt
    return pred, translate_table(gt, d_row, d_col)


class TestBuildTableTree:
    def test_one_by_two(self):
        tree = build_table_tree(grid(["a", "b"]))
        assert tree.size() == 4
        assert tree.label == "table"
        assert [c.label for c in tree.children] == ["tr"]
        assert [c.label for c in tree.children[0].children] == ["td", "td"]

    def test_empty_table_single_node(self):
        tree = build_table_tree(NormalizedTable.from_cells([]))
        assert tree.size() == 1

    def test_single_cell_holds_all_text(self):
        table = NormalizedTable.from_cells([Cell(0, 0, 1, 1, "every word in one cell")])
        tree = build_table_tree(table)
        assert tree.size() == 3
        assert tree.children[0].children[0].content == "every word in one cell"

    def test_span_attributes_on_td(self):
        tree = build_table_tree(NormalizedTable.from_cells([Cell(0, 0, 1, 4, "wide")]))
        td = tree.children[0].children[0]
        assert (td.rowspan, td.colspan) == (1, 4)


def random_labeled_tree(rng: random.Random, max_nodes: int) -> TableTree:
    nodes = [TableTree(rng.choice("xy"))]
    for _ in range(rng.randint(0, max_nodes - 1)):
        parent = rng.choice(nodes)
        child = TableTree(rng.choice("xy"))
        parent.children.append(child)
        nodes.append(child)
    return nodes[0]


def random_cell_tree(rng: random.Random) -> TableTree:
    root = TableTree("table")
    for _ in range(rng.randint(0, 2)):
        tr = TableTree("tr")
        for _ in range(rng.randint(0, 2)):
            tr.children.append(TableTree("td", content=rng.choice(["a", "ab", "b", ""])))
        root.children.append(tr)
    return root


def rows_tree(rows: list[list[tuple[str, int, int]]]) -> TableTree:
    """table -> tr -> td over (content, rowspan, colspan) rows."""
    return TableTree("table", children=[
        TableTree("tr", children=[
            TableTree("td", content=content, rowspan=rowspan, colspan=colspan)
            for content, rowspan, colspan in row
        ])
        for row in rows
    ])


def perturb_rows(rng: random.Random, rows: list) -> list:
    """Rows dropped, emptied or inserted; cells merged, respanned, typo'd or blanked."""
    out = []
    for row in rows:
        roll = rng.random()
        if roll < 0.1:
            continue
        if roll < 0.15:
            out.append([])
        elif roll < 0.2:
            out.append([(rand_cell_content(rng), 1, 1)])
        cells: list[tuple[str, int, int]] = []
        for content, rowspan, colspan in row:
            roll = rng.random()
            if roll < 0.2:
                content = typo(rng, content)
            elif roll < 0.25:
                content = ""
            elif roll < 0.3:
                rowspan += 1
            elif roll < 0.35:
                colspan = max(1, colspan - 1)
            elif roll < 0.4 and cells:
                left, _, left_colspan = cells.pop()
                content, colspan = f"{left} {content}", left_colspan + colspan
            cells.append((content, rowspan, colspan))
        out.append(cells)
    return out


def regroup(rng: random.Random, cells: list) -> list:
    """The cells in order, broken into rows at random, empty rows included."""
    rows: list[list] = [[]]
    for cell in cells:
        while rng.random() < 0.3:
            rows.append([])
        rows[-1].append(cell)
    return rows


def rand_row_tree_pair(rng: random.Random, regroup_cells: bool) -> tuple[TableTree, TableTree]:
    """Two table-shaped trees: a spanned table and its perturbation, or one
    run of short cells broken into rows differently on each side.

    Regrouped cells over a two-letter alphabet give many alignments of
    equal exact cost whose float sums differ in the last place, so the
    row reduction must add in Zhang-Shasha's order to stay bit-equal.
    """
    if not regroup_cells:
        gt = rand_span_rows(rng) if rng.random() < 0.95 else []
        pred = perturb_rows(rng, gt) if rng.random() < 0.9 else rand_span_rows(rng)
        return rows_tree(pred), rows_tree(gt)
    cells = [("".join(rng.choice("ab") for _ in range(rng.randint(1, 7))), 1, rng.choice((1, 1, 2)))
             for _ in range(rng.randint(0, 12))]
    other = [(typo(rng, c) if rng.random() < 0.5 else c, rowspan, colspan)
             for c, rowspan, colspan in cells if rng.random() < 0.9]
    return rows_tree(regroup(rng, cells)), rows_tree(regroup(rng, other))


class TestTeds:
    def test_identical(self):
        tree = build_table_tree(QUARTERS)
        assert teds(tree, tree) == 1.0

    def test_missing_cell(self):
        a = build_table_tree(grid(["a", "b"]))
        b = build_table_tree(grid(["a"]))
        # oracle: single td deletion over max size 4
        assert teds(a, b) == pytest.approx(0.75)

    def test_symmetry(self):
        rng = random.Random(61)
        for _ in range(100):
            a, b = random_cell_tree(rng), random_cell_tree(rng)
            assert teds(a, b) == pytest.approx(teds(b, a), abs=1e-12)

    def test_self_similarity_one(self):
        rng = random.Random(67)
        for _ in range(50):
            tree = build_table_tree(rand_grid_table(rng))
            assert teds(tree, tree) == 1.0

    def test_distance_matches_mapping_oracle(self):
        rng = random.Random(71)
        for trial in range(200):
            if trial % 2:
                a = random_labeled_tree(rng, 6)
                b = random_labeled_tree(rng, 6)
            else:
                a, b = random_cell_tree(rng), random_cell_tree(rng)
            got = tree_edit_distance(a, b)
            want = tree_distance_by_mappings(a, b)
            assert got == pytest.approx(want, abs=1e-9)

    def test_differing_spans_cost_full_substitution(self):
        a = build_table_tree(NormalizedTable.from_cells([Cell(0, 0, 1, 2, "x")]))
        b = build_table_tree(NormalizedTable.from_cells([Cell(0, 0, 1, 1, "x")]))
        assert tree_edit_distance(a, b) == 1.0

    def test_non_table_shape_takes_general_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tableeval, "tree_edit_distance",
                            lambda a, b: calls.append(1) or tree_edit_distance(a, b))
        table = build_table_tree(QUARTERS)
        teds(table, table)
        assert calls == []
        nested = build_table_tree(QUARTERS)
        nested.children[0].children[0].children.append(TableTree("td", content="Q1"))
        assert teds(nested, table) == pytest.approx(1 - 1 / 8)
        assert calls == [1]

    def test_row_distance_bit_equal_to_zhang_shasha(self):
        rng = random.Random(73)
        for trial in range(10_000):
            a, b = rand_row_tree_pair(rng, regroup_cells=trial % 2 == 1)
            a_rows, b_rows = tableeval._table_rows(a), tableeval._table_rows(b)
            assert a_rows is not None and b_rows is not None
            want = tree_edit_distance(a, b)
            assert tableeval._row_distance(a_rows, b_rows) == want, (trial, a, b)
            assert teds(a, b) == max(0.0, 1.0 - want / max(a.size(), b.size()))

    def test_single_cell_vs_multi_cell_ordering(self):
        # flattened one-cell prediction scores much worse on structure
        gt = grid(["a1"], ["b2"], ["c3"])
        pred = NormalizedTable.from_cells([Cell(0, 0, 1, 1, "a1 b2 c3")])
        structure = teds(build_table_tree(pred), build_table_tree(gt))
        content = content_index_accuracy(pred, gt, 2).content_acc
        assert content > structure
