import functools
import math
import random
import sys
from collections import Counter

import pytest

import oracles
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
    best_shift_eager,
    cell_alignment_per_shift,
    content_index_accuracy_all_shifts,
    content_index_accuracy_per_shift,
    f_measure,
    row_distance_full,
    shift_scores_all,
    tree_distance_by_mappings,
)
from score_eval import tableeval
from score_eval.errors import InvalidThreshold, MalformedInput, OverlappingCells
from score_eval.ingest import CoordCell, normalize_coord_cells, parse_table_html
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
from score_eval.textmetrics import ned, ned_upper_bound


def grid(*rows) -> NormalizedTable:
    cells = [
        Cell(r, c, 1, 1, content)
        for r, row in enumerate(rows)
        for c, content in enumerate(row)
    ]
    return NormalizedTable.from_cells(cells)


QUARTERS = grid(["Q1", "$100K"], ["Q2", "$200K"])


class TestNormalizedTable:
    @pytest.mark.parametrize(
        "cell",
        [Cell(0, 0, 0, 1, "a"), Cell(0, 0, 1, 0, "a"), Cell(-1, 0, 1, 1, "a"), Cell(0, -1, 1, 1, "a")],
        ids=["rowspan-0", "colspan-0", "row-minus-1", "col-minus-1"],
    )
    def test_constructors_refuse_bad_geometry(self, cell):
        for build in (lambda cells: NormalizedTable(tuple(cells)), NormalizedTable.from_cells):
            with pytest.raises(MalformedInput, match=f"cell 'a' at \\({cell.row},{cell.col}\\)"):
                build([Cell(1, 1, 1, 1, "b"), cell])

    def test_constructors_refuse_overlaps(self):
        for build in (lambda cells: NormalizedTable(tuple(cells)), NormalizedTable.from_cells):
            with pytest.raises(OverlappingCells, match="both cover \\(0, 1\\)"):
                build([Cell(0, 0, 1, 2, "a"), Cell(0, 1, 1, 1, "b")])

    def test_tables_of_the_same_cells_are_equal(self):
        cells = [Cell(r, c, 1, 1, f"{r}{c}") for r in range(3) for c in range(3)]
        reversed_table = NormalizedTable(tuple(reversed(cells)))
        assert reversed_table == NormalizedTable.from_cells(cells)
        assert reversed_table.cells == tuple(cells)
        assert hash(reversed_table) == hash(NormalizedTable(tuple(cells)))

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
        for beta in (float("nan"), float("inf"), 1e200):
            with pytest.raises(InvalidThreshold):
                match_tables([], [], beta=beta)

    def test_tiny_beta_weighs_precision_only(self):
        # beta * beta underflows to 0, and F_beta reaches its limit, the precision
        result = match_tables(table_bags([grid(["a"]), grid(["b"])]), table_bags([grid(["a"])]), beta=1e-200)
        assert result.precision == 0.5 and result.recall == 1.0
        assert result.f_beta == 0.5

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
        considered = []
        best_shift = tableeval._best_shift

        def counting_best_shift(p, g, shifts, index_gate, ned_of):
            considered.extend(shifts)
            return best_shift(p, g, shifts, index_gate, ned_of)

        monkeypatch.setattr(tableeval, "_best_shift", counting_best_shift)
        pred = grid(["a", "b", "c"], ["d", "e", "f"])
        gt = translate_table(grid(["a", "b"], ["d", "x"], ["g", "h"]), 1, 0)
        acc = content_index_accuracy(pred, gt, 10**6)
        # GT rows 0-3 overlap prediction rows 0-1 for d_row in -3..1; columns -1..2
        assert len(considered) == len(set(considered)) == 5 * 4
        assert acc == content_index_accuracy_per_shift(pred, gt, 6)
        assert acc.best_shift == (-1, 0)

    def test_bound_key_leaves_room_for_a_whole_index(self):
        # a 1x101 table moved one column right: rows read alike at every
        # column shift, so content is 1.0 at (0, 0) and at (0, 1), and only
        # the index decides, 100/101 against 1.0; a bound key that added
        # less than 1.0 to the content bound would stop after (0, 0)
        gt = grid([f"c{c}" for c in range(101)])
        pred = translate_table(gt, 0, 1)
        assert content_index_accuracy(pred, gt, 1, 0.0) == CellAccuracy(1.0, 1.0, (0, 1))

    def test_best_first_search_on_tied_keys(self):
        # (0, 0), (-1, 0) and (1, 0) all read content 0.5; the last two tie
        # on the bound key but for the shift, and only (1, 0) lands "a" on
        # "a", so the search scores past the first two bound keys
        gt = grid(["a"])
        pred = NormalizedTable.from_cells([Cell(0, 1, 1, 1, "b"), Cell(1, 0, 1, 1, "a")])
        assert content_index_accuracy(pred, gt, 1, 1.0) == CellAccuracy(0.5, 1.0, (1, 0))
        rng = random.Random(97)
        bound_ties = exact_ties = past_first = 0
        for _ in range(3_000):
            p, g = rand_tiny_table(rng), rand_tiny_table(rng)
            n, gate = rng.randint(0, 2), rng.choice((0.0, 0.5, 1.0))
            want = content_index_accuracy_all_shifts(p, g, n, gate, functools.cache(ned))
            assert content_index_accuracy(p, g, n, gate, ned_of=functools.cache(ned)) == want, (p, g, n, gate)
            rows = range(-min(n, max(g.n_rows - 1, 0)), min(n, max(p.n_rows - 1, 0)) + 1)
            cols = range(-min(n, max(g.n_cols - 1, 0)), min(n, max(p.n_cols - 1, 0)) + 1)
            shifts = [(r, c) for r in rows for c in cols]
            want = best_shift_eager(p, g, shifts, gate, functools.cache(ned))
            assert tableeval._best_shift(p, g, shifts, gate, functools.cache(ned)) == want, (p, g, n, gate)
            scores = list(shift_scores_all(p, g, shifts, gate, ned))
            exact = sorted((-(c + i), abs(s[0]) + abs(s[1]), s) for c, i, s in scores)
            # every shift whose bound key is below the best exact key is scored
            scored = [b[:2] for b in sorted((-(c + 1.0), abs(s[0]) + abs(s[1]), s) for c, _, s in scores)
                      if b < exact[0]]
            bound_ties += len(scored) != len(set(scored))
            exact_ties += len(exact) > 1 and exact[0][:2] == exact[1][:2]
            past_first += len(scored) > 1
        assert bound_ties >= 600 and exact_ties >= 40 and past_first >= 900, (bound_ties, exact_ties, past_first)

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
                    eager = best_shift_eager(p, g, in_extent_shifts(p, g, n), gate, functools.cache(ned))
                    assert (acc.content_acc, acc.index_acc, acc.best_shift) == eager, (p, g, n, gate)
                    cases += 1
                    moved += acc.best_shift != (0, 0)
            for shift in ((0, 0), (1, 2), (-1, 0), (-2, 1)):
                want = cell_alignment_per_shift(p, g, shift, 0.5)
                assert cell_alignment(p, g, shift, 0.5) == want, (p, g, shift)
        assert moved >= 2_000


class TestLazyAxisScores:
    """``_best_shift`` scores an axis delta exactly only when it can decide a shift."""

    @staticmethod
    def count_exact_axis_scores(monkeypatch) -> list:
        """(pred strings, delta) of every axis score on ``ned``, in call order."""
        exact = []
        axis_score = tableeval._axis_score

        def counting_axis_score(p_strings, g_strings, delta, ned_of):
            if ned_of is not ned_upper_bound:
                exact.append((p_strings, delta))
            return axis_score(p_strings, g_strings, delta, ned_of)

        monkeypatch.setattr(tableeval, "_axis_score", counting_axis_score)
        return exact

    def test_bound_axis_score_is_at_least_exact(self):
        rng = random.Random(103)
        alphabet = ["", "a", "b", "ab", "ba", "abc", "\u00e4\u00f6", "\u20ac\u20ac\u20ac", "\u6f22\u5b57", "\U0001f600", " "]
        for _ in range(10_000):
            p_strings, g_strings = ([rng.choice(alphabet) + rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
                                    for _ in "pg")
            for delta in range(-len(g_strings) - 1, len(p_strings) + 2):
                exact = tableeval._axis_score(p_strings, g_strings, delta, ned)
                bound = tableeval._axis_score(p_strings, g_strings, delta, ned_upper_bound)
                assert bound >= exact, (p_strings, g_strings, delta)

    @pytest.mark.parametrize("table", [
        grid(["alpha", "be", "gamma"]),
        grid(["alpha"], ["be"], ["gamma"]),
        grid(["same"]),
    ], ids=["one-row", "one-column", "one-cell"])
    def test_one_axis_bound_equal_to_the_other_exact(self, monkeypatch, table):
        # identical tables: the first axis scored is exact at 1.0, and the
        # other axis's bound at delta 0 is also 1.0, so content is exact
        # without scoring it
        exact = self.count_exact_axis_scores(monkeypatch)
        for n in (0, 1, 2):
            exact.clear()
            shifts = in_extent_shifts(table, table, n)
            got = tableeval._best_shift(table, table, shifts, 0.5, functools.cache(ned))
            assert got == best_shift_eager(table, table, shifts, 0.5, functools.cache(ned)) == (1.0, 1.0, (0, 0))
            assert [delta for _, delta in exact] == [0]

    def typo_scores(self, monkeypatch, typed: str) -> list:
        """The (axis, delta) pairs ``_best_shift`` scores on ``ned`` for an
        8x4 grid whose cell r3c2 is predicted as `typed`."""
        gt = grid(*[[f"r{r}c{c}" for c in range(4)] for r in range(8)])
        pred = grid(*[[typed if (r, c) == (3, 2) else f"r{r}c{c}" for c in range(4)] for r in range(8)])
        shifts = in_extent_shifts(pred, gt, 2)
        eager_exact = []
        monkeypatch.setattr(oracles, "_axis_score",
                            lambda *args: eager_exact.append(args[2]) or tableeval._axis_score(*args))
        want = best_shift_eager(pred, gt, shifts, 0.5, functools.cache(ned))
        assert len(eager_exact) == 10  # every row and column delta in -2..2
        exact = self.count_exact_axis_scores(monkeypatch)
        assert tableeval._best_shift(pred, gt, shifts, 0.5, functools.cache(ned)) == want
        assert want[2] == (0, 0) and want[1] == 1.0
        p_rows = flatten(pred, "row")
        return [("row" if p_strings == p_rows else "col", delta) for p_strings, delta in exact]

    def test_typo_scores_two_axis_deltas(self, monkeypatch):
        # same lengths: both bounds tie at 1.0, so the rows go first, and
        # their exact score falls below the columns' bound
        assert self.typo_scores(monkeypatch, "r3x2") == [("row", 0), ("col", 0)]

    def test_longer_typo_scores_one_column_delta(self, monkeypatch):
        # one character more: the columns' bound is the larger, and their
        # exact score equals it, so no row score can raise the content
        assert self.typo_scores(monkeypatch, "r3c2x") == [("col", 0)]


def in_extent_shifts(p: NormalizedTable, g: NormalizedTable, n: int) -> list[tuple[int, int]]:
    """The shifts ``content_index_accuracy`` hands to ``_best_shift``."""
    rows = range(-min(n, max(g.n_rows - 1, 0)), min(n, max(p.n_rows - 1, 0)) + 1)
    cols = range(-min(n, max(g.n_cols - 1, 0)), min(n, max(p.n_cols - 1, 0)) + 1)
    return [(r, c) for r in rows for c in cols]


def rand_tiny_table(rng: random.Random) -> NormalizedTable:
    """A grid of up to 2x3 cells over "a", "b" and "", so shifts tie often."""
    return NormalizedTable.from_cells([
        Cell(r, c, 1, 1, rng.choice(("a", "b", "")))
        for r in range(rng.randint(0, 2))
        for c in range(rng.randint(1, 3))
        if rng.random() < 0.8
    ])


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
            assert tableeval._row_distance(a_rows, b_rows, ned) == want, (trial, a, b)
            assert teds(a, b) == max(0.0, 1.0 - want / max(a.size(), b.size()))

    def test_band_passes_align_each_subtree_pair_once(self, monkeypatch):
        # A subtree pair is the two states' own cell lists, so their ids
        # name the (pred state, GT state) pair within one call
        aligned = []
        align = tableeval._align

        def recording_align(xs, ys, step):
            aligned.append((id(xs), id(ys)))
            return align(xs, ys, step)

        monkeypatch.setattr(tableeval, "_align", recording_align)
        rng = random.Random(107)
        several_passes = 0
        for trial in range(2_000):
            a, b = rand_row_tree_pair(rng, regroup_cells=trial % 2 == 1)
            a_rows, b_rows = tableeval._table_rows(a), tableeval._table_rows(b)
            aligned.clear()
            got = tableeval._row_distance(a_rows, b_rows, ned)
            assert len(aligned) == len(set(aligned)), (a, b)
            assert got == row_distance_full(a_rows, b_rows, ned), (a, b)
            k = len(a_rows) + sum(map(len, a_rows)) - len(b_rows) - sum(map(len, b_rows))
            several_passes += got > max(abs(k), 1)  # the first pass's threshold
        assert several_passes >= 1_000, several_passes  # seen 1288

    def test_row_matches_are_skipped_below_their_integer_floor(self, monkeypatch):
        # An 8x4 GT against a prediction missing row 3, with one typo and
        # one merged pair of cells: a match with a tr is aligned only when
        # the indels it must make leave it able to beat the cheaper indel.
        # Without that floor the result is the same, from 69 alignments.
        calls = []
        align = tableeval._align

        def counting_align(xs, ys, step):
            calls.append(1)
            return align(xs, ys, step)

        monkeypatch.setattr(tableeval, "_align", counting_align)
        words = [f"{w}{r}" for r in range(8) for w in ("alpha", "beta", "gamma", "delta")]
        gt = grid(*[words[4 * r:4 * r + 4] for r in range(8)])
        rows = [list(words[4 * r:4 * r + 4]) for r in range(8) if r != 3]
        rows[4][2] = "gammx5"
        cells = [Cell(r, c, 1, 1, content) for r, row in enumerate(rows) for c, content in enumerate(row)
                 if (r, c) not in ((5, 1), (5, 2))]
        pred = NormalizedTable.from_cells(cells + [Cell(5, 1, 1, 2, "beta6 gamma6")])
        a, b = build_table_tree(pred), build_table_tree(gt)
        got = teds(a, b)
        assert len(calls) <= 17, len(calls)
        assert got == 1.0 - tree_edit_distance(a, b) / b.size()

    @pytest.mark.parametrize("t", [1, 2, 4, 8])
    def test_band_edges_match_the_full_table(self, t):
        # 4x4 cells sharing no letter: a respanned, dropped or added cell
        # costs 1, a typo in "iiii" 0.25.  Each prediction puts the
        # distance at a pass's threshold t or just above it, with k = 0
        # (first pass 1) or k = -t (first pass t), so the pass at t
        # accepts it or must double.
        gt = [[(c * 4, 1, 1) for c in "abcd"], [(c * 4, 1, 1) for c in "efgh"],
              [(c * 4, 1, 1) for c in "ijkl"], [(c * 4, 1, 1) for c in "mnop"]]

        def respanned(n: int) -> list:
            return [[(content, 1, 2 if 4 * r + c < n else 1) for c, (content, _, _) in enumerate(row)]
                    for r, row in enumerate(gt)]

        def dropped(n: int) -> list:  # n cells off the rows' ends; every tr stays
            if n < 4:
                return gt[:3] + [gt[3][:4 - n]]
            return [row[:4 - n // 4] for row in gt]

        def moved(n: int) -> list:  # n / 2 cells off the front, n / 2 new ones at the end
            return [gt[0][n // 2:]] + gt[1:3] + [gt[3] + [(c * 4, 1, 1) for c in "qrst"[:n // 2]]]

        def with_typo(rows: list) -> list:
            rows = [list(row) for row in rows]
            rows[2][0] = ("iiix", 1, 1)
            return rows

        cases = [
            (respanned(t), float(t)),
            (with_typo(respanned(t)), t + 0.25),
            (with_typo(respanned(t - 1)), t - 0.75),
            (dropped(t), float(t)),
            (with_typo(dropped(t)), t + 0.25),
        ]
        if t > 1:
            cases.append((moved(t), float(t)))
        for pred, want in cases:
            a, b = rows_tree(pred), rows_tree(gt)
            a_rows, b_rows = tableeval._table_rows(a), tableeval._table_rows(b)
            assert tree_edit_distance(a, b) == want, (pred, want)
            assert row_distance_full(a_rows, b_rows, ned) == want
            assert tableeval._row_distance(a_rows, b_rows, ned) == want
            assert tableeval._row_distance(b_rows, a_rows, ned) == tree_edit_distance(b, a)

    @staticmethod
    def band_passes(a_rows, b_rows) -> tuple[float, list[list[float]], int]:
        """``_row_distance`` of the rows, its band passes as [t, result]
        pairs and its ``_align`` calls, read through a profile hook as the
        passes are a nested function."""
        passes: list[list[float]] = []
        aligns = []

        def profile(frame, event, arg):
            if frame.f_code.co_filename != tableeval.__file__:
                return
            if frame.f_code.co_name == "banded":
                if event == "call":
                    passes.append([frame.f_locals["t"], None])
                elif event == "return":
                    passes[-1][1] = arg
            elif frame.f_code.co_name == "_align" and event == "call":
                aligns.append(1)

        sys.setprofile(profile)
        try:
            distance = tableeval._row_distance(a_rows, b_rows, ned)
        finally:
            sys.setprofile(None)
        return distance, passes, len(aligns)

    def test_a_first_pass_that_returns_inf(self):
        # k = 0, so the first band is the diagonal alone, and no script
        # stays on it: the next pass doubles t, as ceil(inf) would raise,
        # and its finite result sets the third pass's threshold
        a = rows_tree([[("ab", 1, 1)], [("aa", 1, 2)]])
        b = rows_tree([[], [("ab", 1, 1), ("a", 1, 2)]])
        a_rows, b_rows = tableeval._table_rows(a), tableeval._table_rows(b)
        distance, passes, _ = self.band_passes(a_rows, b_rows)
        assert passes == [[1, math.inf], [2, 2.5], [3, 2.5]]
        assert distance == 2.5 == tree_edit_distance(a, b) == row_distance_full(a_rows, b_rows, ned)

    def test_each_pass_result_sets_the_next_threshold(self):
        # The schedule t = min(ceil(result), 4 t), or 2 t after an inf,
        # on the sweep of test_band_passes_align_each_subtree_pair_once.
        # Doubling t made 4,323 passes and 24,170 ``_align`` calls here;
        # 282 of the pairs have equal rows and take no pass.
        rng = random.Random(107)
        total_passes = total_aligns = equal = 0
        for trial in range(2_000):
            a, b = rand_row_tree_pair(rng, regroup_cells=trial % 2 == 1)
            a_rows, b_rows = tableeval._table_rows(a), tableeval._table_rows(b)
            distance, passes, aligns = self.band_passes(a_rows, b_rows)
            if a_rows == b_rows:  # equal rows take no pass
                assert passes == [] and aligns == 0 and distance == 0.0
                equal += 1
                continue
            for (t, result), (next_t, _) in zip(passes, passes[1:]):
                assert result > t and next_t == (min(math.ceil(result), 4 * t) if result < math.inf else 2 * t)
            assert passes[-1][1] == distance <= passes[-1][0]
            total_passes += len(passes)
            total_aligns += aligns
        assert total_passes <= 3_339 and total_aligns <= 20_246, (total_passes, total_aligns)
        assert equal >= 250, equal

    def test_single_cell_vs_multi_cell_ordering(self):
        # flattened one-cell prediction scores much worse on structure
        gt = grid(["a1"], ["b2"], ["c3"])
        pred = NormalizedTable.from_cells([Cell(0, 0, 1, 1, "a1 b2 c3")])
        structure = teds(build_table_tree(pred), build_table_tree(gt))
        content = content_index_accuracy(pred, gt, 2).content_acc
        assert content > structure


def span_table(rows: list[list[tuple[str, int, int]]]) -> NormalizedTable:
    return parse_table_html(span_rows_html(rows))


def table_teds(p: NormalizedTable, g: NormalizedTable) -> float:
    return tableeval._table_teds(p, g, functools.cache(ned))


class TestTableTeds:
    """Evaluation's TEDS on two tables equals ``teds`` on their trees."""

    def check(self, p: NormalizedTable, g: NormalizedTable) -> None:
        assert table_teds(p, g) == teds(build_table_tree(p), build_table_tree(g)), (p, g)

    def test_matches_teds_on_trees(self):
        rng = random.Random(79)
        for trial in range(3_000):
            if trial % 3 == 0:
                pred, gt = rand_shift_pair(rng)  # a moved table starts below empty rows
            elif trial % 3 == 1:
                rows = rand_span_rows(rng)
                gt = span_table(rows)
                try:
                    pred = span_table(perturb_rows(rng, rows))
                except OverlappingCells:  # a grown rowspan ran into a later cell
                    pred = span_table(rand_span_rows(rng))
            else:
                pred, gt = rand_grid_table(rng), span_table(rand_span_rows(rng))
            self.check(pred, gt)
            self.check(gt, pred)

    def test_empty_tables(self):
        empty = NormalizedTable.from_cells([])
        assert table_teds(empty, empty) == 1.0
        rng = random.Random(83)
        for table in [QUARTERS] + [span_table(rand_span_rows(rng)) for _ in range(20)]:
            self.check(empty, table)
            self.check(table, empty)

    def test_rows_without_an_anchored_cell(self):
        tall = span_table([[("tall", 3, 1), ("b", 1, 1)]])
        assert flatten(tall, "row") == ["tall b", "", ""]  # rows 1-2 only covered by the rowspan
        low = translate_table(grid(["a", "b"]), 2, 0)
        assert flatten(low, "row") == ["", "", "a b"]
        for p, g in ((tall, low), (tall, grid(["tall", "b"])), (low, grid(["a", "b"]))):
            self.check(p, g)
            self.check(g, p)

    def test_cells_in_any_order(self):
        rng = random.Random(89)
        for _ in range(500):
            p, g = rand_shift_pair(rng)
            rp, rg = NormalizedTable(cells=p.cells[::-1]), NormalizedTable(cells=g.cells[::-1])
            for axis in ("row", "col"):
                assert flatten(rp, axis) == flatten(p, axis)
            assert build_table_tree(rp) == build_table_tree(p)
            assert table_teds(rp, rg) == table_teds(p, g)
            self.check(rp, rg)

    @staticmethod
    def far_off(n: int, content: str) -> NormalizedTable:
        """One coordinate cell at row n: n empty rows above it."""
        return normalize_coord_cells([CoordCell(x=0, y=n, content=content)])

    def test_far_off_cell_matches_zhang_shasha(self):
        for n in (0, 1, 2, 5, 17, 40):
            p, g = self.far_off(n, "a b"), self.far_off(n, "a c")
            a, b = build_table_tree(p), build_table_tree(g)
            assert table_teds(p, g) == max(0.0, 1.0 - tree_edit_distance(a, b) / max(a.size(), b.size()))

    def test_far_off_cell_fills_a_band(self):
        # Counted by name through a profile hook, as the row DP's cell
        # steps are nested functions.  ``_align`` alone cannot tell: the
        # full table also aligns only the diagonal's tr pairs, as the indel
        # floor cuts the others, but it makes a ``match`` step for each of
        # its (n + 2) ** 2 pairs.
        calls: Counter[str] = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == tableeval.__file__:
                calls[frame.f_code.co_name] += 1

        n = 2000
        p, g = self.far_off(n, "a b"), self.far_off(n, "a c")
        sys.setprofile(profile)
        try:
            similarity = table_teds(p, g)
        finally:
            sys.setprofile(None)
        assert similarity == 1.0 - (1.0 - ned("a b", "a c")) / (n + 3)
        assert calls["_align"] <= 2 * (n + 2), calls
        assert calls["match"] + calls["relax"] <= 2 * (n + 2), calls


def equal_copy(t: NormalizedTable) -> NormalizedTable:
    """A table equal to `t` that is a distinct object, as a parsed prediction is."""
    return NormalizedTable.from_cells(list(t.cells))


def equal_table_cases() -> list[NormalizedTable]:
    """Seeded grids, tiny grids, spanned HTML tables and the edge cases."""
    rng = random.Random(113)
    tables = [
        NormalizedTable.from_cells([]),
        grid(["only"]),
        grid(["", ""], ["", ""]),
        NormalizedTable.from_cells([Cell(0, 0, 2, 2, ""), Cell(2, 1, 1, 1, "")]),
        span_table([[("tall", 3, 1), ("b", 1, 1)]]),
    ]
    for _ in range(25):
        tables += [rand_table(rng), rand_tiny_table(rng), rand_grid_table(rng), span_table(rand_span_rows(rng))]
    return tables


class TestEqualTables:
    """Equal tables take the exact result without a search, the same floats."""

    GATES = (0.0, 0.5, 1.0, 1.5, math.nan)

    def test_shift_accuracy_equals_the_searches(self):
        for table in equal_table_cases():
            copy = equal_copy(table)
            assert copy == table and copy is not table
            for n in range(6):
                shifts = in_extent_shifts(copy, table, n)
                for gate in self.GATES:
                    got = content_index_accuracy(copy, table, n, gate)
                    searched = tableeval._best_shift(copy, table, shifts, gate, functools.cache(ned))
                    assert (got.content_acc, got.index_acc, got.best_shift) == searched, (table, n, gate)
                    assert got == content_index_accuracy_per_shift(copy, table, n, gate), (table, n, gate)
                    if gate <= 1.0:
                        assert got == CellAccuracy(1.0, 1.0, (0, 0))

    def test_a_gate_above_one_still_searches(self):
        # no unit clears a gate above 1.0 (or NaN), so the index reads 0.0
        for gate in (1.5, math.nan):
            assert content_index_accuracy(equal_copy(QUARTERS), QUARTERS, 2, gate) == CellAccuracy(1.0, 0.0, (0, 0))

    def test_tables_alike_but_for_spans_are_searched(self):
        # equal flat texts; the GT's second unit is not covered by the prediction
        pred = NormalizedTable.from_cells([Cell(0, 0, 1, 1, "a")])
        gt = NormalizedTable.from_cells([Cell(0, 0, 1, 2, "a")])
        assert pred.flat_text() == gt.flat_text()
        assert content_index_accuracy(pred, gt, 2) == content_index_accuracy_per_shift(pred, gt, 2)
        assert content_index_accuracy(pred, gt, 2).index_acc == 0.5

    def test_teds_of_equal_tables_is_one(self):
        for table in equal_table_cases():
            copy = equal_copy(table)
            p_rows, g_rows = tableeval._lines(copy), tableeval._lines(table)
            assert tableeval._row_distance(p_rows, g_rows, ned) == row_distance_full(p_rows, g_rows, ned) == 0.0
            assert table_teds(copy, table) == 1.0
            a, b = build_table_tree(copy), build_table_tree(table)
            assert teds(a, b) == 1.0 - tree_edit_distance(a, b) / max(a.size(), b.size()) == 1.0
