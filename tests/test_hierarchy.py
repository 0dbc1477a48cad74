import functools
import random

import pytest

from conftest import rand_page_pair
from oracles import consistency_score_dense, match_elements_ned_tables
from score_eval import hierarchy
from score_eval.errors import InvalidThreshold, MalformedInput
from score_eval.hierarchy import (
    CATEGORIES,
    LABELS,
    NOMATCH,
    CategoryMap,
    ConfusionMatrix,
    PreparedPage,
    build_confusion,
    consistency_score,
    match_elements,
)
from score_eval.ingest import DocumentPage, Element
from score_eval.textmetrics import TokenizerConfig, adjusted_ned, content_tokens, ned


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

    def test_equal_scores_prefer_the_nearby_element_once_both_are_computed(self):
        # both pairs have length bound 1 and NED 0.75, so both exact keys are
        # on the heap before either is accepted; the reading-order gap (0 for
        # the second prediction, 1 for the first) decides, not the index
        gt = page(("text", "unrelated filler text"), ("text", "abcd"))
        pred = page(("text", "abcx"), ("text", "abcy"))
        assert match_elements(gt, pred, 0.5) == [(1, 1, 0.75)]

    def test_a_pair_at_the_threshold_is_kept(self):
        # length bound and NED are both 1 - 2/4 = 0.5
        assert match_elements(page(("text", "abcd")), page(("text", "ab")), 0.5) == [(0, 0, 0.5)]
        assert match_elements(page(("text", "abcd")), page(("text", "ab")), 0.51) == []

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

    def test_agrees_with_the_ned_table_matcher_on_seeded_pages(self):
        # Tables paired by detection, against the matcher that paired them
        # by the NED of their flat texts, on 10,000 seeded pages with a
        # table on either side.  They disagree on one page: GT tables 1
        # and 2 and prediction tables 0 and 1 have the same cells, and the
        # assignment pairs them crosswise where reading order paired them
        # straight.  No page's confusion matrix moves.
        rng = random.Random(2031)
        cmap = CategoryMap.default()
        disagreements = []
        pages = 0
        while pages < 10_000:
            pair = rand_page_pair(rng, f"p{pages:05d}")
            gt, pred = PreparedPage(pair.gt), PreparedPage(pair.pred)
            if not (gt.tables or pred.tables):
                continue
            ned_of = functools.cache(ned)
            got = match_elements(gt, pred, 0.5, ned_of)
            want = match_elements_ned_tables(gt, pred, 0.5, ned_of)
            got_pairs, want_pairs = [(i, j) for i, j, _ in got], [(i, j) for i, j, _ in want]
            if got_pairs != want_pairs:
                disagreements.append((pages, got_pairs, want_pairs))
            confusion = build_confusion(got, gt.page, pred.page, cmap)
            assert confusion == build_confusion(want, gt.page, pred.page, cmap), pages
            pages += 1
        assert disagreements == [(4146, [(0, 2), (1, 0), (2, 1), (3, 3)], [(0, 2), (1, 1), (2, 0), (3, 3)])]

    def test_no_ned_between_two_tables(self):
        # A table pairs by detection only.  These two share no token, so
        # detection leaves both free, but their flat texts are one digit
        # apart per cell: the NED matcher paired them.
        asked = []

        def ned_of(p_text: str, g_text: str) -> float:
            asked.append((p_text, g_text))
            return ned(p_text, g_text)

        row = "<table><tr><td>alpha{0}</td><td>bravo{0}</td><td>charlie{0}</td></tr></table>"
        gt, pred = page(("table", row.format(1))), page(("table", row.format(2)))
        assert match_elements(gt, pred, 0.5, ned_of) == [] and asked == []
        assert [(i, j) for i, j, _ in match_elements_ned_tables(gt, pred, 0.5, ned_of)] == [(0, 0)]
        # on seeded pages, the NED matcher asked for such NEDs on many
        rng = random.Random(97)
        asked_before = 0
        for k in range(500):
            pair = rand_page_pair(rng, f"p{k:03d}")
            gt, pred = PreparedPage(pair.gt), PreparedPage(pair.pred)
            table_texts = {(pred.texts[j], gt.texts[i]) for i in gt.tables for j in pred.tables}
            asked.clear()
            match_elements(gt, pred, 0.5, ned_of)
            assert not table_texts & set(asked), k
            asked.clear()
            match_elements_ned_tables(gt, pred, 0.5, ned_of)
            asked_before += bool(table_texts & set(asked))
        assert asked_before > 50, asked_before

    def test_a_table_pair_scores_its_detection_similarity(self):
        grid = "<table><tr><td>north 12</td><td>south 15</td></tr></table>"
        swapped = "<table><tr><td>south 15</td><td>north 12</td></tr></table>"
        gt = page(("table", grid), ("text", "Revenue by region"))
        pred = page(("table", swapped), ("text", "Revenue by region"))
        assert match_elements(gt, pred) == [(0, 0, 1.0), (1, 1, 1.0)]
        # passed pairs are taken as given, and no other table pair is formed
        assert match_elements(gt, pred, table_pairs=[(0, 0, 0.25)]) == [(0, 0, 0.25), (1, 1, 1.0)]
        assert match_elements(gt, pred, table_pairs=()) == [(1, 1, 1.0)]


class TestPreparedPageOf:
    def test_page_functions_read_a_prepared_page_as_its_document_page(self):
        rng = random.Random(29)
        for k in range(200):
            pair = rand_page_pair(rng, f"p{k:03d}")
            gt, pred = PreparedPage(pair.gt), PreparedPage(pair.pred)
            assert PreparedPage.of(gt) is gt and PreparedPage.of(pred) is pred
            assert match_elements(gt, pred) == match_elements(pair.gt, pair.pred)
            assert match_elements(gt, pair.pred, 0.3) == match_elements(pair.gt, pred, 0.3)
            assert content_tokens(gt) == content_tokens(pair.gt)
            assert content_tokens(pred) == content_tokens(pair.pred)
            assert adjusted_ned(pred, gt) == adjusted_ned(pair.pred, pair.gt)

    def test_a_prepared_page_keeps_its_tokenizer_and_category_map(self):
        markup = "<table><tr><td>Alpha</td><td>Beta</td></tr></table>"
        doc = page(("grid", markup))
        prepared = PreparedPage(doc, TokenizerConfig(case_fold=False), CategoryMap({"grid": "TABLE"}))
        assert PreparedPage.of(prepared) is prepared
        # the custom map reads the markup as cells, the default map as text
        assert content_tokens(prepared) == {"Alpha": 1, "Beta": 1}
        assert content_tokens(doc) == {markup.casefold(): 1}
        pred = page(("text", "Alpha Beta"))
        assert match_elements(prepared, pred) == [(0, 0, 1.0)]
        assert match_elements(doc, pred) == []


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


class TestConfusionStorage:
    def test_only_nonzero_cells_are_stored(self):
        matrix = ConfusionMatrix.zeros()
        matrix.add("TEXT", NOMATCH, 2)
        matrix.add(NOMATCH, "TITLE")
        matrix.add("TITLE", "TITLE")
        matrix.add("TITLE", "TITLE", -1)
        assert matrix.cells == {(1, 10): 2, (10, 0): 1}
        assert list(matrix.nonzero_entries().items()) == [(("TEXT", NOMATCH), 2), ((NOMATCH, "TITLE"), 1)]
        dense = [[0] * len(LABELS) for _ in LABELS]
        dense[1][10], dense[10][0] = 2, 1
        assert matrix.counts == dense

    def test_same_entries_and_score_as_the_dense_matrix(self):
        rng = random.Random(101)
        for _ in range(2_000):
            matrix = ConfusionMatrix.zeros()
            for _ in range(rng.randint(0, 12)):
                matrix.add(rng.choice(LABELS), rng.choice(LABELS), rng.randint(1, 3))
            counts = matrix.counts
            assert list(matrix.nonzero_entries().items()) == [
                ((gt, pred), counts[i][j])
                for i, gt in enumerate(LABELS)
                for j, pred in enumerate(LABELS)
                if counts[i][j]
            ]
            assert consistency_score(matrix) == consistency_score_dense(counts)


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

    def test_mean_is_exactly_rounded(self):
        # F1s 0.1, 0.2, 0.3: plain float summation gives 0.20000000000000004
        # on Python 3.10-3.11 and 0.19999999999999998 on 3.12+
        matrix = ConfusionMatrix.zeros()
        for label, matched, missed in (("TITLE", 1, 18), ("TEXT", 1, 8), ("LIST", 3, 14)):
            matrix.add(label, label, matched)
            matrix.add(label, NOMATCH, missed)
        assert consistency_score(matrix) == 0.6 / 3

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
