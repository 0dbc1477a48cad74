"""Edit-distance core, tokenization, and token-bag diagnostics.

Everything here is a pure function: the same inputs always produce the
same floats, so page-level evaluations can run concurrently without
locks.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Optional, Sequence

from .errors import EmptyReference

if TYPE_CHECKING:  # pragma: no cover
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
    """Cheap bound: ned can never exceed this (edit distance >= length gap)."""
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


@dataclass
class TokenBag:
    """Frequency-preserving multiset of tokens."""

    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.counts = {t: n for t, n in self.counts.items() if n > 0}

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenBag):
            return NotImplemented
        return self.counts == other.counts


def _strip_punct(token: str) -> str:
    return "".join(c for c in token if not unicodedata.category(c).startswith("P"))


def tokenize(text: str, cfg: TokenizerConfig = DEFAULT_TOKENIZER) -> TokenBag:
    """Split on Unicode whitespace after the configured normalization."""
    if cfg.unicode_normalize != "none":
        text = unicodedata.normalize(cfg.unicode_normalize, text)
    if cfg.case_fold:
        text = text.casefold()
    tokens: Iterable[str] = text.split()
    if cfg.strip_punct:
        tokens = (t for t in map(_strip_punct, tokens) if t)
    return TokenBag(dict(Counter(tokens)))


def tokens_found(s_bag: TokenBag, g_bag: TokenBag) -> float:
    """Share of reference tokens preserved in the output, order-free."""
    if g_bag.total == 0:
        return 1.0 if s_bag.total == 0 else 0.0
    kept = sum(min(n, s_bag.counts.get(t, 0)) for t, n in g_bag.counts.items())
    return kept / g_bag.total


def tokens_added(s_bag: TokenBag, g_bag: TokenBag) -> float:
    """Share of output tokens with no reference support (hallucination)."""
    if s_bag.total == 0:
        return 0.0
    extra = sum(max(0, n - g_bag.counts.get(t, 0)) for t, n in s_bag.counts.items())
    return extra / s_bag.total


def bag_similarity(a: TokenBag, b: TokenBag) -> float:
    """Dice-style overlap of two bags; 1.0 when both are empty."""
    denom = a.total + b.total
    if denom == 0:
        return 1.0
    common = sum(min(n, b.counts.get(t, 0)) for t, n in a.counts.items())
    return 2.0 * common / denom


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


def content_tokens(page: "DocumentPage", cfg: TokenizerConfig = DEFAULT_TOKENIZER) -> TokenBag:
    """Token bag over the page's content, markup excluded."""
    merged: Counter[str] = Counter()
    for element in page.elements:
        merged.update(tokenize(content_text(element), cfg).counts)
    return TokenBag(dict(merged))


def default_kind(element: "Element") -> str:
    """Fallback element-kind routing when no category map is supplied."""
    if element.table is not None:
        return "table"
    label = element.raw_label.strip().casefold()
    if label in {"figure", "image", "picture", "chart", "graph"}:
        return "figure"
    return "paragraph"


def _candidate_similarity(
    pred_elem: "Element",
    kind: str,
    gt_elem: "Element",
    gt_kind: str,
    cfg: TokenizerConfig,
) -> Optional[float]:
    if kind == "table":
        if gt_elem.table is None or pred_elem.table is None:
            return None
        return bag_similarity(
            tokenize(pred_elem.table.flat_text(), cfg),
            tokenize(gt_elem.table.flat_text(), cfg),
        )
    if kind == "figure":
        if gt_kind != "figure":
            return None
        return ned(pred_elem.text, gt_elem.text)
    return ned(content_text(pred_elem), content_text(gt_elem))


def element_similarity(
    pred_elem: "Element",
    gt_page: "DocumentPage",
    kind: str,
    *,
    claimed: frozenset[int] = frozenset(),
    cfg: TokenizerConfig = DEFAULT_TOKENIZER,
    kind_for: Callable[["Element"], str] = default_kind,
) -> tuple[float, Optional[int]]:
    """Best similarity of one prediction element against unclaimed GT elements.

    Tables compare via token-bag overlap of cell contents, figures via
    caption edit similarity, everything else via plain edit similarity.
    """
    best_sim, best_idx = 0.0, None
    for idx, gt_elem in enumerate(gt_page.elements):
        if idx in claimed:
            continue
        sim = _candidate_similarity(pred_elem, kind, gt_elem, kind_for(gt_elem), cfg)
        if sim is None:
            continue
        if sim > best_sim:  # ties keep the lower GT index
            best_sim, best_idx = sim, idx
    return best_sim, best_idx if best_sim > 0.0 else None


def _element_weight(element: "Element", cfg: TokenizerConfig) -> int:
    return tokenize(content_text(element), cfg).total


def _alignment_similarity(
    pred: "DocumentPage",
    gt: "DocumentPage",
    cfg: TokenizerConfig,
    kind_for: Callable[["Element"], str],
) -> float:
    """The alignment half of ``adjusted_ned``; 0.0 when the prediction has no tokens."""
    weights = [_element_weight(e, cfg) for e in pred.elements]
    total_weight = sum(weights)
    if total_weight == 0:
        return 0.0

    gt_kinds = [kind_for(e) for e in gt.elements]
    candidates = []
    for i, pred_elem in enumerate(pred.elements):
        kind = kind_for(pred_elem)
        for j, gt_elem in enumerate(gt.elements):
            sim = _candidate_similarity(pred_elem, kind, gt_elem, gt_kinds[j], cfg)
            if sim is not None and sim > 0.0:
                candidates.append((sim, i, j))
    candidates.sort(key=lambda c: (-c[0], c[2], c[1]))

    assigned: dict[int, float] = {}
    claimed: set[int] = set()
    for sim, i, j in candidates:
        if i in assigned or j in claimed:
            continue
        assigned[i] = sim
        claimed.add(j)

    weighted = sum(weights[i] * assigned.get(i, 0.0) for i in range(len(weights)))
    return min(1.0, weighted / total_weight)


def adjusted_ned(
    pred: "DocumentPage",
    gt: "DocumentPage",
    cfg: TokenizerConfig = DEFAULT_TOKENIZER,
    kind_for: Callable[["Element"], str] = default_kind,
) -> float:
    """Edit similarity lifted by word-weighted per-element alignment.

    The raw page-text similarity is a floor; on top of it, each
    prediction element greedily claims its most similar ground-truth
    element (one claim per GT element, highest similarity first, ties
    broken toward the lower GT index) and contributes its similarity
    weighted by its token count.
    """
    raw = ned(page_text(pred), page_text(gt))
    return max(raw, _alignment_similarity(pred, gt, cfg, kind_for))
