"""Edit-distance core, tokenization, and token-bag diagnostics.

Everything here is a pure function: the same inputs always produce the
same floats.
"""

from __future__ import annotations

import functools
import heapq
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Optional, Sequence

from .errors import EmptyReference

if TYPE_CHECKING:  # pragma: no cover
    from .hierarchy import PreparedPage
    from .ingest import DocumentPage, Element


def _bit_parallel_distance(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Levenshtein distance of two non-empty sequences, one text column per step.

    Myers' bit-vector algorithm (Myers 1999, "A fast bit-vector algorithm
    for approximate string matching based on dynamic programming", JACM
    46(3)) in the global edit-distance form of Hyyrö (2001, "Explaining
    and extending the bit-parallel approximate string matching algorithm
    of Myers").  The shorter sequence is the pattern: bit i of ``vp`` or
    ``vn`` marks a vertical delta D[i+1][j] - D[i][j] of +1 or -1.  Match
    masks are keyed by symbol, so characters and tokens work alike.  The
    horizontal positive delta shifts in with a carry-in of 1 because
    D[0][j] = j; without that +1 the recurrence would compute substring
    search (D[0][j] = 0) instead of global edit distance.  Python ints are
    unbounded, so every complement and left shift is masked to the pattern
    width; bits above it never reach the bits below, but unmasked they
    would grow the words by one bit per column.
    """
    if len(a) < len(b):
        a, b = b, a
    masks: dict[Hashable, int] = {}
    for i, symbol in enumerate(b):
        masks[symbol] = masks.get(symbol, 0) | (1 << i)
    width = (1 << len(b)) - 1
    top = 1 << (len(b) - 1)
    vp, vn, dist = width, 0, len(b)
    for symbol in a:
        eq = masks.get(symbol, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (~(xh | vp) & width)
        hn = vp & xh
        if hp & top:
            dist += 1
        elif hn & top:
            dist -= 1
        hp = ((hp << 1) | 1) & width
        hn = (hn << 1) & width
        vp = hn | (~(xv | hp) & width)
        vn = hp & xv
    return dist


def levenshtein(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Minimal number of insertions, deletions and substitutions.

    Accepts any two sequences of hashable symbols: the characters of two
    strings, or the tokens of two lists.
    """
    if a == b:
        return 0
    # Common affixes never participate in an optimal alignment.
    lo = 0
    hi_a, hi_b = len(a), len(b)
    while lo < hi_a and lo < hi_b and a[lo] == b[lo]:
        lo += 1
    while hi_a > lo and hi_b > lo and a[hi_a - 1] == b[hi_b - 1]:
        hi_a -= 1
        hi_b -= 1
    a, b = a[lo:hi_a], b[lo:hi_b]
    if not a:
        return len(b)
    if not b:
        return len(a)
    return _bit_parallel_distance(a, b)


def _ned_from_distance(distance: int, s: str, g: str) -> float:
    longest = max(len(s), len(g))
    if longest == 0:
        return 1.0
    return 1.0 - min(max(distance / longest, 0.0), 1.0)


def ned(s: str, g: str) -> float:
    """Normalized edit similarity in [0, 1]; 1 means identical strings.

    Two empty strings compare as a perfect match.
    """
    return _ned_from_distance(levenshtein(s, g), s, g)


def ned_upper_bound(s: str, g: str) -> float:
    """Cheap bound: ned can never exceed this (edit distance >= length gap).

    The bound holds exactly in floating point, not just up to rounding:
    IEEE division and subtraction are monotone, so a larger distance over
    the same length never gives a larger ``ned``.  The lazy greedy passes
    rely on that.
    """
    longest = max(len(s), len(g))
    if longest == 0:
        return 1.0
    return 1.0 - abs(len(s) - len(g)) / longest


def _cer_from_distance(distance: int, g: str) -> float:
    if not g:
        raise EmptyReference("character error rate needs a non-empty reference")
    return distance / len(g)


def cer(s: str, g: str) -> float:
    """Character error rate: edit operations over reference length."""
    return _cer_from_distance(levenshtein(s, g), g)


def wer(s: str, g: str) -> float:
    """Word error rate: token edit operations over reference token count."""
    ref = g.split()
    if not ref:
        raise EmptyReference("word error rate needs a non-empty reference")
    return levenshtein(s.split(), ref) / len(ref)


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenization contract, fixed for the duration of one run."""

    case_fold: bool = True
    strip_punct: bool = False
    unicode_normalize: str = "NFC"  # one of: none, NFC, NFKC


DEFAULT_TOKENIZER = TokenizerConfig()


def _strip_punct(token: str) -> str:
    return "".join(c for c in token if not unicodedata.category(c).startswith("P"))


def tokenize(text: str, cfg: TokenizerConfig = DEFAULT_TOKENIZER) -> Counter[str]:
    """Token bag of the text, split on Unicode whitespace after the configured normalization."""
    if cfg.unicode_normalize != "none":
        text = unicodedata.normalize(cfg.unicode_normalize, text)
    if cfg.case_fold:
        text = text.casefold()
    tokens: Iterable[str] = text.split()
    if cfg.strip_punct:
        tokens = (t for t in map(_strip_punct, tokens) if t)
    return Counter(tokens)


def tokens_found(s_bag: Counter[str], g_bag: Counter[str]) -> float:
    """Share of reference tokens preserved in the output, order-free."""
    if g_bag.total() == 0:
        return 1.0 if s_bag.total() == 0 else 0.0
    return (g_bag & s_bag).total() / g_bag.total()


def tokens_added(s_bag: Counter[str], g_bag: Counter[str]) -> float:
    """Share of output tokens with no reference support (hallucination)."""
    if s_bag.total() == 0:
        return 0.0
    return (s_bag - g_bag).total() / s_bag.total()


def bag_similarity(a: Counter[str], b: Counter[str]) -> float:
    """Dice-style overlap of two bags; 1.0 when both are empty."""
    denom = a.total() + b.total()
    if denom == 0:
        return 1.0
    return 2.0 * (a & b).total() / denom


@dataclass(frozen=True)
class FidelityScores:
    """Per-page content fidelity vector.

    cer/wer are None when the reference side is empty and the rate is
    undefined; everything else is bounded in [0, 1].
    """

    ned: float
    adjusted_ned: float
    tokens_found: float
    tokens_added: float
    cer: Optional[float]
    wer: Optional[float]


def page_text(page: "DocumentPage") -> str:
    """Page text as serialized by the producing system.

    Element texts join in source order with newlines.  Coordinate-cell
    tables have no textual serialization of their own, so their text is
    the cell contents in (row, col) order; tables that arrived as markup
    keep that markup, which is exactly the divergence the raw edit
    distance is meant to expose.
    """
    return "\n".join(e.text for e in page.elements)


def content_text(element: "Element") -> str:
    """The comparable content of an element: cell text for tables."""
    if element.table is not None:
        return element.table.flat_text()
    return element.text


def _prepare(page: "DocumentPage", cfg: TokenizerConfig) -> "PreparedPage":
    """The page as ``evaluate_page`` prepares it, with the default category map."""
    from .hierarchy import PreparedPage  # imported here: hierarchy imports this module

    return PreparedPage(page, cfg)


def content_tokens(page: "DocumentPage", cfg: TokenizerConfig = DEFAULT_TOKENIZER) -> Counter[str]:
    """Token bag over the page's content; table markup counts by its cell contents."""
    return _prepare(page, cfg).token_bag()


def element_neds(pred: "PreparedPage", gt: "PreparedPage") -> Callable[[int, int], float]:
    """Content-text NED of (pred index, GT index), each pair computed on first use.

    NED is symmetric, so every element-level metric of one page pair can
    read its NEDs from the one table; the table lives as long as the
    returned function.
    """
    return functools.cache(lambda i, j: ned(pred.texts[i], gt.texts[j]))


def greedy_one_to_one(
    seeds: Iterable[tuple[tuple, int, int, int]],
    exact_key: Callable[[int, int], Optional[tuple]],
) -> list[tuple[tuple, int, int]]:
    """Accept pairs (a, b) lowest exact key first while neither a nor b is taken.

    ``seeds`` are heap entries ``(key, is_exact, a, b)``.  An exact entry
    (``is_exact`` = 1) is a candidate with its final key.  A bound entry
    (``is_exact`` = 0) carries a key no greater than its pair's exact key,
    which ``exact_key(a, b)`` computes only when the bound reaches the top
    of the heap and both ends are still free; ``None`` means the pair is
    no candidate.  Every unresolved pair then sits at or above the top of
    the heap, so exact keys pop in the order a full sort would give them
    (lazy greedy: Minoux 1978).  Keys must be distinct across pairs.
    Returns the accepted ``(key, a, b)`` in acceptance order.
    """
    heap = list(seeds)
    heapq.heapify(heap)
    taken_a: set[int] = set()
    taken_b: set[int] = set()
    accepted = []
    while heap:
        key, is_exact, a, b = heapq.heappop(heap)
        if a in taken_a or b in taken_b:
            continue
        if is_exact:
            taken_a.add(a)
            taken_b.add(b)
            accepted.append((key, a, b))
        else:
            key = exact_key(a, b)
            if key is not None:
                heapq.heappush(heap, (key, 1, a, b))
    return accepted


def _alignment_similarity(pred: "PreparedPage", gt: "PreparedPage", pair_ned: Callable[[int, int], float]) -> float:
    """The alignment half of ``adjusted_ned``; 0.0 when the prediction has no tokens.

    Tables compare via token-bag overlap of cell contents and only with
    tables, figures via caption edit similarity and only with figures,
    everything else via edit similarity with any element.
    """
    weights = [bag.total() for bag in pred.bags]
    total_weight = sum(weights)
    if total_weight == 0:
        return 0.0

    # keys (-similarity, GT index, pred index): highest similarity first,
    # ties toward the lower GT index
    seeds = []
    for i, kind in enumerate(pred.kinds):
        for j, gt_kind in enumerate(gt.kinds):
            if kind == "table":
                if pred.page.elements[i].table is None or gt.page.elements[j].table is None:
                    continue
                sim = bag_similarity(pred.bags[i], gt.bags[j])
                if sim > 0.0:
                    seeds.append(((-sim, j, i), 1, i, j))
            elif kind == "figure" and gt_kind != "figure":
                continue
            else:
                seeds.append(((-ned_upper_bound(pred.texts[i], gt.texts[j]), j, i), 0, i, j))

    def exact_key(i: int, j: int) -> Optional[tuple]:
        sim = pair_ned(i, j)
        return (-sim, j, i) if sim > 0.0 else None

    assigned = {i: -key[0] for key, i, _ in greedy_one_to_one(seeds, exact_key)}
    weighted = sum(weights[i] * assigned.get(i, 0.0) for i in range(len(weights)))
    return min(1.0, weighted / total_weight)


def adjusted_ned(pred: "DocumentPage", gt: "DocumentPage", cfg: TokenizerConfig = DEFAULT_TOKENIZER) -> float:
    """Edit similarity lifted by word-weighted per-element alignment.

    The raw page-text similarity is a floor; on top of it, each
    prediction element greedily claims its most similar ground-truth
    element (one claim per GT element, highest similarity first, ties
    broken toward the lower GT index) and contributes its similarity
    weighted by its token count.  Pages are prepared as ``evaluate_page``
    prepares them, with the default category map.
    """
    raw = ned(page_text(pred), page_text(gt))
    pred_prep, gt_prep = _prepare(pred, cfg), _prepare(gt, cfg)
    return max(raw, _alignment_similarity(pred_prep, gt_prep, element_neds(pred_prep, gt_prep)))
