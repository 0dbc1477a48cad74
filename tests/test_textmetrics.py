import math
import random
from collections import Counter

import pytest

from oracles import (
    bag_similarity_by_sums,
    edit_distance_dp,
    edit_distance_recursive,
    greedy_one_to_one_eager,
    tokens_added_by_sums,
    tokens_found_by_sums,
)
from score_eval.errors import EmptyReference
from score_eval.ingest import DocumentPage, Element
from score_eval.tableeval import Cell, NormalizedTable
from score_eval.textmetrics import (
    TokenizerConfig,
    adjusted_ned,
    bag_similarity,
    cer,
    content_tokens,
    greedy_one_to_one,
    levenshtein,
    ned,
    ned_upper_bound,
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

    def test_upper_bound_holds_exactly(self):
        # the lazy greedy passes need ned <= bound with no rounding slack
        rng = random.Random(17)
        for alphabet in ("ab", "äöü€", "日本語🙂"):
            for _ in range(700):
                a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
                if rng.random() < 0.5:
                    # insertions only: the distance equals the length gap
                    b = list(a)
                    for _ in range(rng.randint(0, 300 - len(a))):
                        b.insert(rng.randint(0, len(b)), rng.choice(alphabet))
                    b = "".join(b)
                else:
                    b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 300)))
                for s, g in ((a, b), (b, a)):
                    assert ned(s, g) <= ned_upper_bound(s, g), (s, g)


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
        assert bag.total() == 4
        assert bag == {"q1": 1, "$100k": 1, "q2": 1, "$200k": 1}

    def test_empty(self):
        bag = tokenize("")
        assert bag.total() == 0 and not bag

    def test_frequency_preserved(self):
        assert tokenize("a a a") == {"a": 3}

    def test_no_case_fold(self):
        cfg = TokenizerConfig(case_fold=False)
        assert tokenize("A a", cfg) == {"A": 1, "a": 1}

    def test_strip_punct_keeps_currency(self):
        cfg = TokenizerConfig(strip_punct=True)
        assert tokenize("hello, $100K!", cfg) == {"hello": 1, "$100k": 1}

    def test_nfkc_folds_width(self):
        cfg = TokenizerConfig(unicode_normalize="NFKC")
        assert tokenize("ｑ１", cfg) == {"q1": 1}


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
            kept = sum(min(n, s.get(t, 0)) for t, n in g.items())
            missed = sum(max(0, n - s.get(t, 0)) for t, n in g.items())
            assert kept + missed == g.total()

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
    """Per-element similarity routing, observed through ``adjusted_ned``."""

    def test_table_bags_ignore_order(self):
        pred = DocumentPage("t", [Element("Table", "", grid(["Q1", "Q2"], ["$100K", "$200K"]))])
        gt = make_page(grid(["Q1", "$100K"], ["Q2", "$200K"]))
        assert ned(page_text(pred), page_text(gt)) == 0.0
        assert adjusted_ned(pred, gt) == 1.0

    def test_identical_paragraph(self):
        pred = make_page(("Text", "same words here"))
        gt = make_page(("Title", "A heading"), ("Text", "same words here"))
        assert ned(page_text(pred), page_text(gt)) < 1.0
        assert adjusted_ned(pred, gt) == 1.0

    def test_unrelated_paragraph_scores_near_zero(self):
        pred = make_page(("Text", "xyz"))
        gt = make_page(("Text", "completely different content"))
        # oracle: levenshtein("xyz", "completely different content") == 27
        assert adjusted_ned(pred, gt) == 1 - 27 / 28

    def test_no_candidates(self):
        # a table prediction is compared with GT tables only, never with
        # text, even when its cell text equals the GT paragraph
        pred = DocumentPage("t", [Element("Table", "", grid(["a"]))])
        assert adjusted_ned(pred, make_page(("Text", "a"))) == 0.0

    def test_claimed_elements_are_skipped(self):
        # both predictions prefer GT 0; the second gets its next best, GT 1
        pred = make_page(("Text", "abc"), ("Text", "abc"))
        gt = make_page(("Text", "abc"), ("Text", "abd"), ("Text", "a long closing paragraph"))
        assert ned(page_text(pred), page_text(gt)) < 5 / 6
        assert adjusted_ned(pred, gt) == (1.0 + (1 - 1 / 3)) / 2


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
        gt = make_page(
            ("Figure", "Revenue by quarter"),
            ("Text", "Some body text"),
            ("Text", "A closing paragraph long enough to keep the raw page similarity low"),
        )
        pred = make_page(("Image", "Revenue by quarter"))
        assert adjusted_ned(pred, gt) == 1.0
        # the identical-text TEXT element is not a figure candidate; the
        # only claimable element is the (dissimilar) figure caption
        pred_only_text = make_page(("Image", "Some body text"))
        assert ned(page_text(pred_only_text), page_text(gt)) < ned("Some body text", "Revenue by quarter")
        assert adjusted_ned(pred_only_text, gt) == ned("Some body text", "Revenue by quarter")


    def test_alignment_tie_order_cannot_change_the_accepted_pairs(self):
        # Within one similarity class, the first free pair in (GT, pred) order
        # is accepted in (pred, GT) order too: no pair ahead of it there
        # shares its GT or its pred index.  Both orders then go on with what
        # is left, so the accepted sets agree and the alignment's tie order
        # cannot be observed.
        rng = random.Random(89)
        for _ in range(3000):
            n_pred, n_gt = rng.randint(1, 4), rng.randint(1, 5)
            levels = [rng.choice((0.25, 0.5, 0.75, 1.0)) for _ in range(2)]
            candidates = [
                (rng.choice(levels), i, j)
                for i in range(n_pred)
                for j in range(n_gt)
                if rng.random() < 0.6
            ]
            by_gt = greedy_one_to_one_eager(candidates, lambda c: (-c[0], c[2], c[1]))
            by_pred = greedy_one_to_one_eager(candidates, lambda c: (-c[0], c[1], c[2]))
            assert set(by_gt) == set(by_pred)


class TestLazyGreedy:
    CUT = 0.5
    LEVELS = (0.0, 0.25, math.nextafter(CUT, 0.0), CUT, 0.75, 1.0)

    @pytest.mark.parametrize("alignment", [True, False])
    def test_matches_eager_oracle(self, alignment):
        # The alignment's pairs are (pred, GT), keyed (-sim, GT, pred), and
        # sim 0 is no candidate; the matching's are (GT, pred), keyed
        # (-score, reading-order gap, GT, pred), and a score under the cut is
        # no candidate.  Values come from a few levels, so keys and bounds
        # tie across pairs, and half the bounds equal their exact value.
        rng = random.Random(97 if alignment else 98)
        for _ in range(5000):
            n_a, n_b = rng.randint(1, 5), rng.randint(1, 5)
            pairs = {}  # (a, b) -> (exact value, bound, reading-order gap)
            for a in range(n_a):
                for b in range(n_b):
                    if rng.random() < 0.25:
                        continue  # no edge, as a figure against a paragraph
                    exact = rng.choice(self.LEVELS)
                    bound = exact if rng.random() < 0.5 else rng.choice([v for v in self.LEVELS if v >= exact])
                    pairs[a, b] = (exact, bound, rng.randint(0, 2))

            def key(v, a, b):
                return (-v, b, a) if alignment else (-v, pairs[a, b][2], a, b)

            def is_candidate(v):
                return v > 0.0 if alignment else v >= self.CUT

            candidates = [(v, a, b) for (a, b), (v, _, _) in pairs.items() if is_candidate(v)]
            eager = greedy_one_to_one_eager(candidates, lambda c: key(*c))

            seeds = []
            for (a, b), (exact, bound, _) in pairs.items():
                if alignment and is_candidate(exact) and rng.random() < 0.2:
                    seeds.append((key(exact, a, b), 1, a, b))  # exact from the start, as a table pair
                elif alignment or bound >= self.CUT:
                    seeds.append((key(bound, a, b), 0, a, b))
            computed = []

            def exact_key(a, b):
                computed.append((a, b))
                exact = pairs[a, b][0]
                return key(exact, a, b) if is_candidate(exact) else None

            lazy = greedy_one_to_one(seeds, exact_key)
            assert [(-k[0], a, b) for k, a, b in lazy] == eager, (pairs, seeds)
            assert len(computed) == len(set(computed))


class TestContentTokens:
    def test_table_markup_is_not_content(self):
        table = grid(["Q1", "$100K"])
        page = DocumentPage(
            "t", [Element("Table", "<table><tr><td>Q1</td><td>$100K</td></tr></table>", table)]
        )
        assert content_tokens(page) == {"q1": 1, "$100k": 1}


class TestBagSimilarity:
    def test_both_empty(self):
        assert bag_similarity(Counter(), Counter()) == 1.0

    def test_half_overlap(self):
        assert bag_similarity(tokenize("Q1 $100K"), tokenize("Q1 $200K")) == 0.5


class TestBagMetricsOracle:
    # hand-built bags keep zero counts, which tokenize never produces
    EDGES = (
        Counter(), Counter({"a": 0}), Counter({"a": 0, "b": 0}), Counter({"a": 2, "b": 0}), Counter({"b": 1}),
    )

    @staticmethod
    def rand_bag(rng):
        if rng.random() < 0.5:
            return Counter({t: rng.randint(0, 3) for t in rng.sample("abcde", rng.randint(0, 5))})
        return tokenize(" ".join(rng.choice("abcdeF") for _ in range(rng.randint(0, 10))))

    def test_matches_sum_formulas(self):
        rng = random.Random(29)
        pairs = [(s, g) for s in self.EDGES for g in self.EDGES]
        pairs += [(self.rand_bag(rng), self.rand_bag(rng)) for _ in range(5000)]
        for s, g in pairs:
            assert tokens_found(s, g) == tokens_found_by_sums(s, g), (s, g)
            assert tokens_added(s, g) == tokens_added_by_sums(s, g), (s, g)
            assert bag_similarity(s, g) == bag_similarity_by_sums(s, g), (s, g)
        # empty bags that are still truthy reach the total() == 0 guards
        assert sum(1 for s, g in pairs if g and g.total() == 0) >= 100
