import random

import pytest

from oracles import edit_distance_dp, edit_distance_recursive
from score_eval.errors import EmptyReference
from score_eval.ingest import DocumentPage, Element
from score_eval.tableeval import Cell, NormalizedTable
from score_eval.textmetrics import (
    TokenBag,
    TokenizerConfig,
    adjusted_ned,
    bag_similarity,
    cer,
    content_tokens,
    element_similarity,
    levenshtein,
    ned,
    page_text,
    tokenize,
    tokens_added,
    tokens_found,
    wer,
)


def make_page(*parts) -> DocumentPage:
    elements = []
    for i, part in enumerate(parts):
        if isinstance(part, tuple):
            label, text = part
            elements.append(Element(label, text, source_order=i))
        else:
            elements.append(Element("Table", part.flat_text(), part, source_order=i))
    return DocumentPage(page_id="t", elements=elements)


def grid(*rows) -> NormalizedTable:
    cells = [
        Cell(r, c, 1, 1, content)
        for r, row in enumerate(rows)
        for c, content in enumerate(row)
    ]
    return NormalizedTable.from_cells(cells)


class TestLevenshtein:
    def test_all_insertions(self):
        assert levenshtein("", "abc") == 3

    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_kitten_sitting(self):
        # oracle: edit_distance_recursive("kitten", "sitting") == 3
        assert levenshtein("kitten", "sitting") == 3

    def test_symmetry_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            assert levenshtein(a, b) == levenshtein(b, a)

    def test_triangle_inequality(self):
        rng = random.Random(11)
        for _ in range(200):
            a, b, c = (
                "".join(rng.choice("abcd") for _ in range(rng.randint(0, 7)))
                for _ in range(3)
            )
            assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    def test_matches_recursive_oracle(self):
        rng = random.Random(3)
        for _ in range(500):
            a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
            b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
            assert levenshtein(a, b) == edit_distance_recursive(a, b)

    def test_long_strings_use_same_algorithm(self):
        # patterns wider than one machine word, against the plain DP
        rng = random.Random(5)
        for _ in range(20):
            a = "".join(rng.choice("abcde ") for _ in range(rng.randint(60, 150)))
            b = "".join(rng.choice("abcde ") for _ in range(rng.randint(60, 150)))
            assert levenshtein(a, b) == edit_distance_dp(a, b)


def _mutate(rng: random.Random, seq: list, alphabet: str, rate: float) -> list:
    """Substitute, insert or delete symbols at the given per-symbol rate."""
    out = []
    for symbol in seq:
        roll = rng.random()
        if roll < rate / 3:
            out.append(rng.choice(alphabet))
        elif roll < 2 * rate / 3:
            out += [symbol, rng.choice(alphabet)]
        elif roll >= rate:
            out.append(symbol)
    return out


class TestKernelDifferential:
    """levenshtein against the plain DP where the bit-parallel kernel can slip.

    Both argument orders are checked, because the kernel takes the
    shorter side as its bit pattern.
    """

    @staticmethod
    def check(a, b):
        expected = edit_distance_dp(a, b)
        assert levenshtein(a, b) == expected
        assert levenshtein(b, a) == expected

    def test_lengths_around_word_boundaries(self):
        rng = random.Random(63)
        lengths = (1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129)
        for la in lengths:
            for lb in (1, 63, 64, 65, 128):
                for alphabet in ("ab", "abcdef"):
                    a = "".join(rng.choice(alphabet) for _ in range(la))
                    b = "".join(rng.choice(alphabet) for _ in range(lb))
                    self.check(a, b)

    @pytest.mark.parametrize("alphabet", ["ab", "abcdef"])
    def test_thousand_char_strings(self, alphabet):
        rng = random.Random(len(alphabet))
        a = [rng.choice(alphabet) for _ in range(rng.randint(1000, 2000))]
        self.check("".join(a), "".join(_mutate(rng, a, alphabet, 0.1)))
        b = [rng.choice(alphabet) for _ in range(rng.randint(1000, 2000))]
        self.check("".join(a), "".join(b))

    def test_token_lists(self):
        rng = random.Random(17)
        words = "the a cat dog sat on mat 2024 $100K north".split()
        for _ in range(200):
            a = [rng.choice(words) for _ in range(rng.randint(0, 40))]
            b = [rng.choice(words) for _ in range(rng.randint(0, 40))]
            self.check(a, b)
        for n in (63, 64, 65, 300):
            a = [rng.choice(words) for _ in range(n)]
            self.check(a, _mutate(rng, a, "xyz", 0.2))

    def test_non_ascii_and_astral_code_points(self):
        rng = random.Random(4)
        alphabet = "aéß中文\u00a0\U0001d538\U0001f600\U00010348"
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            self.check(a, b)
        assert levenshtein("\U0001f600", "\U0001f601") == 1

    def test_affix_trimming_empties_one_side(self):
        rng = random.Random(9)
        for _ in range(100):
            head = "".join(rng.choice("abc") for _ in range(rng.randint(0, 70)))
            tail = "".join(rng.choice("abc") for _ in range(rng.randint(0, 70)))
            middle = "".join(rng.choice("abc") for _ in range(rng.randint(1, 70)))
            self.check(head + tail, head + middle + tail)
            self.check((head + tail).split("a"), (head + middle + tail).split("a"))


class TestNed:
    def test_identical(self):
        assert ned("abc", "abc") == 1.0

    def test_single_substitution(self):
        assert ned("abc", "abd") == pytest.approx(1 - 1 / 3)

    def test_total_deletion(self):
        assert ned("", "abc") == 0.0

    def test_both_empty_is_perfect(self):
        assert ned("", "") == 1.0

    def test_bounds_and_symmetry(self):
        rng = random.Random(13)
        for _ in range(300):
            a = "".join(rng.choice("xyz ") for _ in range(rng.randint(0, 10)))
            b = "".join(rng.choice("xyz ") for _ in range(rng.randint(0, 10)))
            v = ned(a, b)
            assert 0.0 <= v <= 1.0
            assert v == ned(b, a)


class TestCerWer:
    def test_identical(self):
        assert cer("abc", "abc") == 0.0
        assert wer("a b", "a b") == 0.0

    def test_one_deletion(self):
        assert cer("ab", "abc") == pytest.approx(1 / 3)

    def test_empty_prediction(self):
        assert cer("", "ab") == 1.0

    def test_empty_reference_raises(self):
        with pytest.raises(EmptyReference):
            cer("abc", "")
        with pytest.raises(EmptyReference):
            wer("abc", "   ")

    def test_wer_counts_words(self):
        assert wer("the cat sat", "the dog sat") == pytest.approx(1 / 3)

    def test_can_exceed_one(self):
        assert cer("abcdef", "a") == 5.0


class TestTokenize:
    def test_worked_example_tokens(self):
        bag = tokenize("Q1 $100K Q2 $200K")
        assert bag.total == 4
        assert bag.counts == {"q1": 1, "$100k": 1, "q2": 1, "$200k": 1}

    def test_empty(self):
        bag = tokenize("")
        assert bag.total == 0 and not bag

    def test_frequency_preserved(self):
        assert tokenize("a a a").counts == {"a": 3}

    def test_no_case_fold(self):
        cfg = TokenizerConfig(case_fold=False)
        assert tokenize("A a", cfg).counts == {"A": 1, "a": 1}

    def test_strip_punct_keeps_currency(self):
        cfg = TokenizerConfig(strip_punct=True)
        assert tokenize("hello, $100K!", cfg).counts == {"hello": 1, "$100k": 1}

    def test_nfkc_folds_width(self):
        cfg = TokenizerConfig(unicode_normalize="NFKC")
        assert tokenize("ｑ１", cfg).counts == {"q1": 1}


class TestTokenDiagnostics:
    GT = tokenize("Q1 $100K Q2 $200K")
    PRED = tokenize("Q1 Q2 $100K $300K $100K")

    def test_found_worked_example(self):
        assert tokens_found(self.PRED, self.GT) == 0.75

    def test_added_worked_example(self):
        assert tokens_added(self.PRED, self.GT) == 0.40

    def test_identical_bags(self):
        assert tokens_found(self.GT, self.GT) == 1.0
        assert tokens_added(self.GT, self.GT) == 0.0

    def test_disjoint_bags(self):
        other = tokenize("x y z")
        assert tokens_found(other, self.GT) == 0.0

    def test_empty_gt_with_spurious_pred(self):
        assert tokens_added(tokenize("x"), tokenize("")) == 1.0
        assert tokens_found(tokenize("x"), tokenize("")) == 0.0
        assert tokens_found(tokenize(""), tokenize("")) == 1.0
        assert tokens_added(tokenize(""), tokenize("x")) == 0.0

    def test_conservation_identity(self):
        rng = random.Random(17)
        for _ in range(200):
            s = tokenize(" ".join(rng.choice("abcd") for _ in range(rng.randint(0, 12))))
            g = tokenize(" ".join(rng.choice("abcd") for _ in range(rng.randint(0, 12))))
            kept = sum(min(n, s.counts.get(t, 0)) for t, n in g.counts.items())
            missed = sum(max(0, n - s.counts.get(t, 0)) for t, n in g.counts.items())
            assert kept + missed == g.total

    def test_order_invariance(self):
        a = tokenize("one two three two")
        b = tokenize("two three two one")
        assert a == b

    def test_equal_bags_iff_perfect_scores(self):
        rng = random.Random(23)
        for _ in range(200):
            s = tokenize(" ".join(rng.choice("pq") for _ in range(rng.randint(0, 6))))
            g = tokenize(" ".join(rng.choice("pq") for _ in range(rng.randint(0, 6))))
            perfect = tokens_found(s, g) == 1.0 and tokens_added(s, g) == 0.0
            assert perfect == (s == g)


class TestPageText:
    def test_joins_with_newlines(self):
        page = make_page(("Title", "A"), ("Text", "B"))
        assert page_text(page) == "A\nB"

    def test_table_contributes_cells_in_row_col_order(self):
        page = make_page(grid(["Q1", "$100K"], ["Q2", "$200K"]))
        assert page_text(page) == "Q1 $100K Q2 $200K"

    def test_empty_page(self):
        assert page_text(DocumentPage("x", [])) == ""


class TestElementSimilarity:
    def test_table_bags_ignore_order(self):
        pred = Element("Table", "", grid(["Q1", "Q2"], ["$100K", "$200K"]))
        gt_page = make_page(grid(["Q1", "$100K"], ["Q2", "$200K"]))
        sim, idx = element_similarity(pred, gt_page, "table")
        assert sim == 1.0 and idx == 0

    def test_identical_paragraph(self):
        pred = Element("Text", "same words here")
        gt_page = make_page(("Text", "same words here"))
        sim, idx = element_similarity(pred, gt_page, "paragraph")
        assert sim == 1.0 and idx == 0

    def test_unrelated_paragraph_scores_near_zero(self):
        pred = Element("Text", "xyz")
        gt_page = make_page(("Text", "completely different content"))
        sim, _ = element_similarity(pred, gt_page, "paragraph")
        # oracle: levenshtein("xyz", "completely different content") == 27
        assert sim == pytest.approx(1 - 27 / 28)

    def test_no_candidates(self):
        pred = Element("Table", "", grid(["a"]))
        sim, idx = element_similarity(pred, make_page(("Text", "a")), "table")
        assert sim == 0.0 and idx is None

    def test_claimed_elements_are_skipped(self):
        pred = Element("Text", "abc")
        gt_page = make_page(("Text", "abc"), ("Text", "abd"))
        sim, idx = element_similarity(pred, gt_page, "paragraph", claimed=frozenset({0}))
        assert idx == 1 and sim == pytest.approx(1 - 1 / 3)


class TestAdjustedNed:
    def test_identical_pages(self):
        page = make_page(("Title", "Heading"), ("Text", "body text"))
        assert adjusted_ned(page, page) == 1.0

    def test_permutation_scores_one(self):
        gt = make_page(("Text", "first paragraph"), ("Text", "second paragraph"))
        pred = make_page(("Text", "second paragraph"), ("Text", "first paragraph"))
        raw = ned(page_text(pred), page_text(gt))
        assert raw < 1.0
        assert adjusted_ned(pred, gt) == 1.0

    def test_floor_is_raw_ned(self):
        rng = random.Random(29)
        for _ in range(50):
            gt = make_page(("Text", " ".join(rng.choice("abc") for _ in range(5))))
            pred = make_page(("Text", " ".join(rng.choice("abc") for _ in range(5))))
            assert adjusted_ned(pred, gt) >= ned(page_text(pred), page_text(gt))

    def test_empty_prediction_page(self):
        gt = make_page(("Text", "something"))
        pred = DocumentPage("t", [])
        assert adjusted_ned(pred, gt) == ned("", page_text(gt))

    def test_gt_element_claimed_once(self):
        # two identical predictions cannot both claim the single GT paragraph
        gt = make_page(("Text", "duplicated paragraph"))
        pred = make_page(("Text", "duplicated paragraph"), ("Text", "duplicated paragraph"))
        score = adjusted_ned(pred, gt)
        assert score < 1.0
        assert score == pytest.approx(max(ned(page_text(pred), page_text(gt)), 0.5))

    def test_reading_path_divergent_table(self):
        gt = make_page(grid(["Q1", "$100K"], ["Q2", "$200K"]))
        pred = make_page(grid(["Q1", "Q2"], ["$100K", "$200K"]))
        assert adjusted_ned(pred, gt) == 1.0

    def test_figures_align_by_caption(self):
        from score_eval.hierarchy import CategoryMap

        cmap = CategoryMap.default()
        gt = make_page(("Figure", "Revenue by quarter"), ("Text", "Some body text"))
        pred = make_page(("Image", "Revenue by quarter"))
        sim, idx = element_similarity(pred.elements[0], gt, "figure", kind_for=cmap.kind)
        assert sim == 1.0 and idx == 0
        # the identical-text TEXT element is not a figure candidate; the
        # only claimable element is the (dissimilar) figure caption
        pred_only_text = Element("Image", "Some body text")
        sim, idx = element_similarity(pred_only_text, gt, "figure", kind_for=cmap.kind)
        assert idx == 0
        assert sim == pytest.approx(ned("Some body text", "Revenue by quarter"))


class TestContentTokens:
    def test_table_markup_is_not_content(self):
        table = grid(["Q1", "$100K"])
        page = DocumentPage(
            "t", [Element("Table", "<table><tr><td>Q1</td><td>$100K</td></tr></table>", table)]
        )
        assert content_tokens(page).counts == {"q1": 1, "$100k": 1}


class TestBagSimilarity:
    def test_both_empty(self):
        assert bag_similarity(TokenBag(), TokenBag()) == 1.0

    def test_half_overlap(self):
        assert bag_similarity(tokenize("Q1 $100K"), tokenize("Q1 $200K")) == 0.5
