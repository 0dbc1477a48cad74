"""Metamorphic relations for the claim that SCORE is interpretation-agnostic.

Each test draws about 1,000 seeded pages from the ``conftest``
generators, applies a transformation whose effect on the scores the
metric definitions fix in advance, and checks that effect on every page
(metamorphic testing: Chen, Cheung & Yiu 1998, HKUST-CS98-01).  The
last tests check that the public page-level functions score a page
exactly as ``evaluate_page`` does.
"""

import json
import random

import pytest

from conftest import perturb_items, rand_page_items, to_coord_cells, to_html, to_rowcol_cells
from score_eval.hierarchy import PreparedPage, build_confusion, consistency_score, match_elements
from score_eval.ingest import PagePair, parse_document
from score_eval.report import RunConfig, evaluate_page
from score_eval.tableeval import Cell, NormalizedTable
from score_eval.textmetrics import (
    _alignment_similarity,
    adjusted_ned,
    content_tokens,
    element_neds,
    ned,
    page_text,
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


def alignment_half(pair):
    """The alignment term of adjusted NED, on the pages evaluation prepares."""
    gt = PreparedPage(pair.gt, CFG.tokenizer, CMAP)
    pred = PreparedPage(pair.pred, CFG.tokenizer, CMAP)
    return _alignment_similarity(pred, gt, element_neds(pred, gt))


def reencode_tables(rng, items, page):
    """Write each TABLE-category element's parsed table again, in a randomly drawn encoding."""
    prepared = PreparedPage(page, CFG.tokenizer, CMAP).page
    out = []
    for item, element in zip(items, prepared.elements, strict=True):
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
