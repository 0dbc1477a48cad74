"""Metamorphic relations for the claim that SCORE is interpretation-agnostic.

Each test draws about 1,000 seeded pages from the ``conftest``
generators, applies a transformation whose effect on the scores the
metric definitions fix in advance, and checks that effect on every page
(metamorphic testing: Chen, Cheung & Yiu 1998, HKUST-CS98-01).
"""

import json
import random

from conftest import perturb_items, rand_page_items, to_coord_cells, to_html, to_rowcol_cells
from score_eval.ingest import PagePair, parse_document
from score_eval.report import RunConfig, _prepare_page, evaluate_page
from score_eval.textmetrics import _alignment_similarity, element_neds, page_text

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
    gt = _prepare_page(pair.gt, CFG, CMAP, [], "gt")
    pred = _prepare_page(pair.pred, CFG, CMAP, [], "pred")
    return _alignment_similarity(pred, gt, element_neds(pred, gt))


def reencode_tables(rng, items, page):
    """Write each TABLE-category element's parsed table again, in a randomly drawn encoding."""
    prepared = _prepare_page(page, CFG, CMAP, [], "pred").page
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
