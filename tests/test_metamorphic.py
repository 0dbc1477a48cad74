"""Metamorphic relations for the claim that SCORE is interpretation-agnostic.

Each test draws hundreds to 1,000 seeded pages from the ``conftest``
generators, applies a transformation whose effect on the scores the
metric definitions fix in advance, and checks that effect on every page
(metamorphic testing: Chen, Cheung & Yiu 1998, HKUST-CS98-01).  The
last tests check that the public page-level functions score a page
exactly as ``evaluate_page`` does.
"""

import functools
import json
import random

import pytest

from conftest import perturb_items, rand_page_items, rand_span_rows, to_coord_cells, to_html, to_rowcol_cells
from oracles import grid_fill_by_matrix
from score_eval.hierarchy import PreparedPage, build_confusion, consistency_score, match_elements
from score_eval.ingest import PagePair, parse_document
from score_eval.report import RunConfig, evaluate_page
from score_eval.tableeval import Cell, NormalizedTable
from score_eval import textmetrics
from score_eval.textmetrics import (
    _alignment_similarity,
    adjusted_ned,
    content_tokens,
    ned,
    page_text,
    table_similarities,
    tokens_added,
    tokens_found,
)

CFG = RunConfig()
CMAP = CFG.category_map()
PAGES = 1000
RATES_UNDEFINED = ["cer undefined: empty ground-truth text", "wer undefined: empty ground-truth text"]


def parse_pair(gt_items, pred_items, page_id):
    return PagePair(
        page_id,
        parse_document(json.dumps(gt_items), page_id=page_id),
        parse_document(json.dumps(pred_items), page_id=page_id),
    )


def prepared(page):
    return PreparedPage(page, CFG.tokenizer, CMAP)


def alignment_half(pair):
    """The alignment term of adjusted NED, on the pages evaluation prepares."""
    pred, gt = prepared(pair.pred), prepared(pair.gt)
    return _alignment_similarity(pred, gt, functools.cache(ned), table_similarities(pred, gt))


def reencode_tables(rng, items, page):
    """Write each TABLE-category element's parsed table again, in a randomly drawn encoding."""
    out = []
    for item, element in zip(items, prepared(page).page.elements, strict=True):
        if element.table is not None and CMAP.category(element.raw_label) == "TABLE":
            encode = rng.choice((to_coord_cells, to_rowcol_cells, to_html))
            item = {**item, "text": encode(element.table)}
        out.append(item)
    return out


def test_reencoding_prediction_tables_keeps_the_agnostic_scores():
    # (a) raw NED reads the serialization and may move; nothing else may
    rng = random.Random(1998)
    ned_moved = 0
    for i in range(PAGES):
        gt_items = rand_page_items(rng)
        pred_items = perturb_items(rng, gt_items)
        before = parse_pair(gt_items, pred_items, f"p{i:04d}")
        after = parse_pair(gt_items, reencode_tables(rng, pred_items, before.pred), f"p{i:04d}")
        old, new = evaluate_page(before, CFG, CMAP), evaluate_page(after, CFG, CMAP)
        assert alignment_half(after) == alignment_half(before)
        assert new.fidelity.tokens_found == old.fidelity.tokens_found
        assert new.fidelity.tokens_added == old.fidelity.tokens_added
        assert new.table == old.table
        assert new.consistency == old.consistency
        assert new.confusion == old.confusion
        ned_moved += new.fidelity.ned != old.fidelity.ned
    # the relation has teeth only if re-encoding reached the serialization
    assert ned_moved > 0


def raw_ned(pair):
    return ned(page_text(pair.pred), page_text(pair.gt))


def distinct_candidates(pair):
    """Whether no two positive similarities an alignment candidate can take are equal."""
    gt, pred = prepared(pair.gt), prepared(pair.pred)
    sims = [ned(p, g) for p in pred.texts for g in gt.texts]
    sims += [s for row in table_similarities(pred, gt) for s in row]
    positive = [s for s in sims if s > 0.0]
    return len(positive) == len(set(positive))


def test_permuting_prediction_elements_keeps_the_alignment(monkeypatch):
    # (c) with distinct candidate similarities the greedy order depends on
    # the similarities alone, not on where the prediction puts an element
    accepted = []
    greedy = textmetrics.greedy_one_to_one

    def recording_greedy(seeds, exact_key):
        result = greedy(seeds, exact_key)
        accepted.extend(result)
        return result

    monkeypatch.setattr(textmetrics, "greedy_one_to_one", recording_greedy)

    def alignment(pair, order):
        """Accepted (old pred index, GT index, similarity), sorted, and the alignment half."""
        accepted.clear()
        half = alignment_half(pair)
        return sorted((order[i], j, -key[0]) for key, i, j in accepted), half

    rng = random.Random(1978)
    cases = drawn = ned_moved = 0
    while cases < PAGES // 2:
        drawn += 1
        gt_items = rand_page_items(rng, max_elements=4)
        pred_items = perturb_items(rng, gt_items)
        before = parse_pair(gt_items, pred_items, f"p{drawn:04d}")
        if len(pred_items) < 2 or not distinct_candidates(before):
            continue
        order = rng.sample(range(len(pred_items)), len(pred_items))
        if order == sorted(order):
            order.reverse()
        after = parse_pair(gt_items, [pred_items[k] for k in order], f"p{drawn:04d}")
        old_pairs, old_half = alignment(before, range(len(order)))
        new_pairs, new_half = alignment(after, order)
        assert new_pairs == old_pairs
        # the weighted sum runs in a different order, and is exactly rounded
        assert new_half == old_half
        ned_moved += raw_ned(after) != raw_ned(before)
        cases += 1
    # the relation has teeth only if the permutation reached the page text
    assert ned_moved > cases // 2, ned_moved


def test_identical_prediction_scores_perfectly():
    # (d) pred = GT
    rng = random.Random(2025)
    for i in range(PAGES):
        items = rand_page_items(rng)
        pair = parse_pair(items, items, f"p{i:04d}")
        report = evaluate_page(pair, CFG, CMAP)
        f = report.fidelity
        assert (f.ned, f.adjusted_ned, f.tokens_found, f.tokens_added) == (1.0, 1.0, 1.0, 0.0)
        if page_text(pair.gt):
            assert (f.cer, f.wer) == (0.0, 0.0)
            assert report.notices == []
        else:
            assert (f.cer, f.wer) == (None, None)
            assert report.notices == RATES_UNDEFINED
        assert report.consistency == 1.0
        if report.table is not None:
            t = report.table
            assert (t.detection.f_beta, t.content_acc, t.index_acc, t.teds) == (1.0, 1.0, 1.0, 1.0)


def library_scores(pair):
    """What the public page-level functions give, in evaluate_page's fields."""
    gt_bag, pred_bag = content_tokens(pair.gt), content_tokens(pair.pred)
    matching = match_elements(pair.gt, pair.pred, CFG.sim_threshold)
    return (
        adjusted_ned(pair.pred, pair.gt),
        tokens_found(pred_bag, gt_bag),
        tokens_added(pred_bag, gt_bag),
        consistency_score(build_confusion(matching, pair.gt, pair.pred, CMAP)),
    )


def evaluated_scores(pair):
    report = evaluate_page(pair, CFG, CMAP)
    f = report.fidelity
    return (f.adjusted_ned, f.tokens_found, f.tokens_added, report.consistency)


def test_public_metrics_score_a_page_as_evaluate_page_does():
    # the library functions prepare pages exactly as evaluation does
    rng = random.Random(7)
    for i in range(PAGES):
        gt_items = rand_page_items(rng)
        pair = parse_pair(gt_items, perturb_items(rng, gt_items), f"p{i:04d}")
        assert library_scores(pair) == evaluated_scores(pair)


def test_html_table_scores_as_its_coordinate_cells():
    grid = NormalizedTable.from_cells(
        [Cell(0, 0, 1, 1, "Q1"), Cell(0, 1, 1, 1, "$100K"), Cell(1, 0, 1, 1, "Q2"), Cell(1, 1, 1, 1, "$200K")]
    )
    paragraph = {"type": "Text", "text": "Revenue grew in the second quarter"}
    pair = parse_pair(
        [{"type": "Table", "text": to_coord_cells(grid)}, paragraph],
        [{"type": "Table", "text": to_html(grid)}, paragraph],
        "grid",
    )
    assert library_scores(pair) == evaluated_scores(pair) == (1.0, 1.0, 0.0, 1.0)
    assert match_elements(pair.gt, pair.pred) == [(0, 0, 1.0), (1, 1, 1.0)]


@pytest.mark.parametrize("pred_label", ["diagram", "table"])
def test_adjusted_ned_routes_labels_by_the_category_map(pred_label):
    # A diagram is a figure, so it may claim only the GT figure.  A table
    # label without cells is a table with no cells to compare, so it may
    # claim nothing.  Read as paragraphs, both would claim the equal text.
    gt_items = [
        {"type": "Figure", "text": "Revenue by quarter"},
        {"type": "Text", "text": "Some body text"},
        {"type": "Text", "text": "A closing paragraph long enough to keep the raw page similarity low"},
    ]
    pair = parse_pair(gt_items, [{"type": pred_label, "text": "Some body text"}], "routing")
    raw = ned(page_text(pair.pred), page_text(pair.gt))
    claimed = ned("Some body text", "Revenue by quarter") if pred_label == "diagram" else 0.0
    assert adjusted_ned(pair.pred, pair.gt) == evaluate_page(pair, CFG, CMAP).fidelity.adjusted_ned
    assert adjusted_ned(pair.pred, pair.gt) == max(raw, claimed) < 1.0


def merge_adjacent_cells(rng, table):
    """``table`` with two horizontally adjacent cells of rowspan 1 merged into one, or None."""
    at = {(c.row, c.col): c for c in table.cells}
    pairs = [
        (a, b) for a in table.cells
        if a.rowspan == 1 and (b := at.get((a.row, a.col + a.colspan))) is not None and b.rowspan == 1
    ]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    merged = Cell(a.row, a.col, 1, a.colspan + b.colspan, " ".join(c.content for c in (a, b) if c.content))
    return NormalizedTable.from_cells([c for c in table.cells if c not in (a, b)] + [merged])


def test_merging_adjacent_cells_keeps_content_and_costs_teds():
    # (b) a merge along the column axis leaves every row string intact
    rng = random.Random(1989)
    cases = 0
    for i in range(PAGES):
        rows = rand_span_rows(rng, max_rows=5, max_cols=5, max_span=rng.choice((1, 2, 3)))
        table = NormalizedTable.from_cells([Cell(*cell) for cell in grid_fill_by_matrix(rows)])
        merged = merge_adjacent_cells(rng, table)
        if merged is None:
            continue
        gt_items = rand_page_items(rng)
        at = rng.randint(0, len(gt_items))
        gt_items.insert(at, {"type": "Table", "text": to_coord_cells(table)})
        encode = rng.choice((to_coord_cells, to_rowcol_cells, to_html))
        pred_items = [*gt_items[:at], {"type": "Table", "text": encode(merged)}, *gt_items[at + 1:]]
        report = evaluate_page(parse_pair(gt_items, pred_items, f"p{i:04d}"), CFG, CMAP)
        assert report.table.content_acc == 1.0
        assert report.table.teds < 1.0
        cases += 1
    assert cases > PAGES // 2, cases
