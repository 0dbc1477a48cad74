import random

import pytest

from score_eval import hierarchy
from score_eval.errors import InvalidThreshold, MalformedInput
from score_eval.hierarchy import (
    CATEGORIES,
    NOMATCH,
    CategoryMap,
    ConfusionMatrix,
    build_confusion,
    consistency_score,
    match_elements,
)
from score_eval.ingest import DocumentPage, Element


def total(counts: list[list[int]]) -> int:
    return sum(map(sum, counts))


def trace(counts: list[list[int]]) -> int:
    return sum(counts[k][k] for k in range(len(counts)))


def page(*parts) -> DocumentPage:
    return DocumentPage(
        page_id="h",
        elements=[Element(label, text, source_order=i) for i, (label, text) in enumerate(parts)],
    )


# The worked four-vs-three element page: one correct title, one correct
# text, one missed text, one missed figure, one spurious table.
GT_PAGE = page(
    ("title", "Quarterly Report 2024"),
    ("text", "Revenue grew steadily across all segments this year."),
    ("text", "Operating costs held flat despite expansion."),
    ("figure", "Chart of revenue by quarter"),
)
PRED_PAGE = page(
    ("title", "Quarterly Report 2024"),
    ("table", "Q1 $100K Q2 $200K"),
    ("text", "Revenue grew steadily across all segments this year."),
)


class TestMapCategory:
    def test_sub_heading_is_title(self):
        assert CategoryMap.default().category("sub-heading") == "TITLE"

    def test_table_label(self):
        assert CategoryMap.default().category("Table") == "TABLE"

    def test_unknown_falls_back_to_other(self):
        assert CategoryMap.default().category("zzz-custom") == "OTHER"

    def test_default_map_read_once(self, monkeypatch):
        first = CategoryMap.default()
        monkeypatch.setattr(hierarchy, "resources", None)  # a second read would fail
        assert CategoryMap.default() is first

    def test_case_and_whitespace_insensitive(self):
        assert CategoryMap.default().category("  NARRATIVE-TEXT ") == "TEXT"

    def test_custom_map_from_text(self):
        cmap = CategoryMap.from_text("blurb = TEXT\n# comment\nbanner=HEADER\n")
        assert cmap.category("Blurb") == "TEXT"
        assert cmap.category("banner") == "HEADER"

    def test_unknown_category_rejected(self):
        with pytest.raises(MalformedInput):
            CategoryMap.from_text("label = NOT_A_CATEGORY")

    def test_default_map_covers_common_labels(self):
        cmap = CategoryMap.default()
        for label, want in [
            ("NarrativeText", "TEXT"),
            ("ListItem", "LIST"),
            ("page-footer", "FOOTER"),
            ("equation", "FORMULA"),
            ("Image", "FIGURE"),
        ]:
            assert cmap.category(label) == want


class TestMatchElements:
    def test_identical_pages_fully_matched(self):
        matching = match_elements(GT_PAGE, GT_PAGE)
        assert len(matching) == len(GT_PAGE.elements)
        assert all(score == 1.0 for _, _, score in matching)

    def test_worked_example_pairs(self):
        matching = match_elements(GT_PAGE, PRED_PAGE, sim_threshold=0.5)
        assert [(i, j) for i, j, _ in matching] == [(0, 0), (1, 2)]

    def test_empty_prediction(self):
        assert match_elements(GT_PAGE, page()) == []

    def test_invalid_threshold(self):
        with pytest.raises(InvalidThreshold):
            match_elements(GT_PAGE, PRED_PAGE, sim_threshold=1.5)

    def test_order_tiebreak_prefers_nearby_elements(self):
        gt = page(("text", "same words"), ("text", "same words"))
        pred = page(("text", "filler something"), ("text", "same words"))
        matching = match_elements(gt, pred, sim_threshold=0.5)
        assert [(i, j) for i, j, _ in matching] == [(1, 1)]

    def test_determinism_under_storage_order(self):
        rng = random.Random(73)
        texts = ["one common phrase", "another body of text", "third paragraph here"]
        gt = page(*[("text", t) for t in texts])
        pred_parts = [("text", t + " extra") for t in texts]
        baseline = match_elements(gt, page(*pred_parts), 0.3)
        # same logical elements, shuffled storage order, same source_order tags
        shuffled = list(enumerate(pred_parts))
        rng.shuffle(shuffled)
        elements = [Element(label, text, source_order=i) for i, (label, text) in shuffled]
        pred_shuffled = DocumentPage(page_id="h", elements=elements)
        remapped = sorted(
            (i, pred_shuffled.elements[j].source_order, round(s, 12))
            for i, j, s in match_elements(gt, pred_shuffled, 0.3)
        )
        assert remapped == sorted((i, j, round(s, 12)) for i, j, s in baseline)


class TestBuildConfusion:
    def test_worked_example_matrix(self):
        cmap = CategoryMap.default()
        matching = match_elements(GT_PAGE, PRED_PAGE, 0.5)
        matrix = build_confusion(matching, GT_PAGE, PRED_PAGE, cmap)
        assert matrix.nonzero_entries() == {
            ("TITLE", "TITLE"): 1,
            ("TEXT", "TEXT"): 1,
            ("TEXT", NOMATCH): 1,
            ("FIGURE", NOMATCH): 1,
            (NOMATCH, "TABLE"): 1,
        }

    def test_perfect_page_is_diagonal(self):
        cmap = CategoryMap.default()
        matching = match_elements(GT_PAGE, GT_PAGE)
        matrix = build_confusion(matching, GT_PAGE, GT_PAGE, cmap)
        off_diagonal = total(matrix.counts) - trace(matrix.counts)
        assert off_diagonal == 0

    def test_empty_gt_all_nomatch_row(self):
        cmap = CategoryMap.default()
        pred = page(("text", "a"), ("table", "b"))
        matrix = build_confusion([], page(), pred, cmap)
        assert matrix.nonzero_entries() == {
            (NOMATCH, "TEXT"): 1,
            (NOMATCH, "TABLE"): 1,
        }

    def test_mass_conservation(self):
        rng = random.Random(79)
        cmap = CategoryMap.default()
        labels = ["title", "text", "figure", "table", "list"]
        for _ in range(100):
            gt = page(*[(rng.choice(labels), f"t{rng.randint(0, 5)}") for _ in range(rng.randint(0, 5))])
            pred = page(*[(rng.choice(labels), f"t{rng.randint(0, 5)}") for _ in range(rng.randint(0, 5))])
            matching = match_elements(gt, pred, 0.5)
            matrix = build_confusion(matching, gt, pred, cmap)
            unmatched_pred = len(pred.elements) - len(matching)
            assert total(matrix.counts) == len(gt.elements) + unmatched_pred
            assert matrix.counts[len(CATEGORIES)][len(CATEGORIES)] == 0  # NOMATCH x NOMATCH

    def test_relabeling_invariance(self):
        base = {"alpha-label": "TITLE", "beta-label": "TEXT"}
        renamed = {"gamma-label": "TITLE", "delta-label": "TEXT"}
        gt_a = page(("alpha-label", "heading text"), ("beta-label", "body text"))
        pred_a = page(("alpha-label", "heading text"), ("beta-label", "body text"))
        gt_b = page(("gamma-label", "heading text"), ("delta-label", "body text"))
        pred_b = page(("gamma-label", "heading text"), ("delta-label", "body text"))
        m_a = build_confusion(match_elements(gt_a, pred_a), gt_a, pred_a, CategoryMap(base))
        m_b = build_confusion(match_elements(gt_b, pred_b), gt_b, pred_b, CategoryMap(renamed))
        assert m_a.counts == m_b.counts


class TestConsistencyScore:
    def test_diagonal_matrix(self):
        matrix = ConfusionMatrix.zeros()
        matrix.add("TITLE", "TITLE", 3)
        matrix.add("TEXT", "TEXT", 5)
        assert consistency_score(matrix) == 1.0

    def test_worked_example_macro_f1(self):
        cmap = CategoryMap.default()
        matching = match_elements(GT_PAGE, PRED_PAGE, 0.5)
        matrix = build_confusion(matching, GT_PAGE, PRED_PAGE, cmap)
        # per-class oracle: title 1, text 2/3, figure 0, table 0 over 4 classes
        assert consistency_score(matrix) == pytest.approx((1 + 2 / 3 + 0 + 0) / 4)

    def test_all_nomatch_scores_zero(self):
        matrix = ConfusionMatrix.zeros()
        matrix.add("TEXT", NOMATCH, 2)
        matrix.add(NOMATCH, "TABLE", 1)
        assert consistency_score(matrix) == 0.0

    def test_empty_matrix_scores_one(self):
        assert consistency_score(ConfusionMatrix.zeros()) == 1.0

    def test_bounds_and_perfection_criterion(self):
        rng = random.Random(83)
        for _ in range(200):
            matrix = ConfusionMatrix.zeros()
            for _ in range(rng.randint(0, 10)):
                gt_label = rng.choice(CATEGORIES + (NOMATCH,))
                pred_label = rng.choice(CATEGORIES + (NOMATCH,))
                if gt_label == NOMATCH and pred_label == NOMATCH:
                    continue
                matrix.add(gt_label, pred_label)
            score = consistency_score(matrix)
            assert 0.0 <= score <= 1.0
            off_diag = total(matrix.counts) - trace(matrix.counts)
            if score == 1.0:
                assert off_diag == 0
