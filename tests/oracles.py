"""Independent brute-force oracles used to cross-check the real implementations.

Each oracle computes its answer from first principles along a different
algorithmic path than the production code, so shared bugs are unlikely.
"""

from __future__ import annotations

import functools
import json
import math
from functools import lru_cache
from html.parser import HTMLParser
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from score_eval.errors import InvalidThreshold, MalformedInput, MultipleTablesFound, NoTableFound
from score_eval.hierarchy import PreparedPage
from score_eval.ingest import (
    _BLOCK_TAGS,
    _HTML_NON_NEGATIVE,
    _SPAN_CAP,
    CoordCell,
    DocumentPage,
    _collapse_ws,
    _integer,
)
from score_eval.tableeval import (
    Cell,
    CellAccuracy,
    NormalizedTable,
    TableTree,
    _align,
    _axis_score,
    _cell_cost,
    _substitution_cost,
    _Td,
    flatten,
)
from score_eval.textmetrics import bag_similarity, greedy_one_to_one, ned, ned_upper_bound


def edit_distance_recursive(a: str, b: str) -> int:
    """Plain recursion over the three edit operations."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        return min(
            go(i + 1, j) + 1,
            go(i, j + 1) + 1,
            go(i + 1, j + 1) + (a[i] != b[j]),
        )

    result = go(0, 0)
    go.cache_clear()
    return result


def edit_distance_dp(a: Sequence, b: Sequence) -> int:
    """Plain row-by-row Wagner-Fischer DP over any two symbol sequences."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] * (len(b) + 1)
        diag = i - 1  # prev[j-1]
        left = i      # cur[j-1]
        for j, cb in enumerate(b, start=1):
            up = prev[j]
            val = diag if ca == cb else diag + 1
            if up + 1 < val:
                val = up + 1
            if left + 1 < val:
                val = left + 1
            cur[j] = val
            left = val
            diag = up
        prev = cur
    return prev[-1]


def bit_parallel_distance_branching(a: Sequence, b: Sequence) -> int:
    """Myers' bit-vector edit distance as ``textmetrics`` computed it before.

    The shorter of two non-empty sequences is the bit pattern, so the
    loop runs once per symbol of the longer one.  Each complement is
    ``~x & width``, and two top-bit tests per column keep a running
    distance, starting from the pattern length.
    """
    if len(a) < len(b):
        a, b = b, a
    masks: dict = {}
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


def _preorder(root: TableTree) -> list[TableTree]:
    nodes = []

    def walk(node: TableTree) -> None:
        nodes.append(node)
        for child in node.children:
            walk(child)

    walk(root)
    return nodes


def _sizes(nodes: list[TableTree]) -> list[int]:
    return [n.size() for n in nodes]


def tree_distance_by_mappings(a: TableTree, b: TableTree) -> float:
    """Minimum cost over every valid ordered-tree mapping.

    A valid mapping is one-to-one and preserves both ancestorship and
    left-to-right order; in preorder such mappings are exactly the
    increasing pairings whose pairs agree on ancestorship.  Unmapped
    nodes cost one deletion/insertion each; mapped pairs cost the label
    substitution.
    """
    na, nb = _preorder(a), _preorder(b)
    sa, sb = _sizes(na), _sizes(nb)

    def anc_a(i: int, k: int) -> bool:
        return i < k <= i + sa[i] - 1

    def anc_b(i: int, k: int) -> bool:
        return i < k <= i + sb[i] - 1

    n, m = len(na), len(nb)
    best = float("inf")
    for k in range(min(n, m) + 1):
        for left in combinations(range(n), k):
            for right in combinations(range(m), k):
                valid = True
                for x in range(k):
                    for y in range(x + 1, k):
                        if anc_a(left[x], left[y]) != anc_b(right[x], right[y]):
                            valid = False
                            break
                    if not valid:
                        break
                if not valid:
                    continue
                cost = float((n - k) + (m - k))
                for x in range(k):
                    cost += _substitution_cost(na[left[x]], nb[right[x]], ned)
                best = min(best, cost)
    return best


def grid_fill_by_matrix(rows: list[list[tuple[str, int, int]]]) -> set[tuple[int, int, int, int, str]]:
    """Occupancy-matrix expansion of (content, rowspan, colspan) rows."""
    occupied: set[tuple[int, int]] = set()
    cells = set()
    for r, row in enumerate(rows):
        c = 0
        for content, rowspan, colspan in row:
            while (r, c) in occupied:
                c += 1
            cells.add((r, c, rowspan, colspan, content))
            for rr in range(r, r + rowspan):
                for cc in range(c, c + colspan):
                    occupied.add((rr, cc))
            c += colspan
    return cells


# ``ingest._span_attr`` and ``ingest._TableHTMLParser`` as they were
# before reading rows was split from placing cells: the parser placed each
# cell as its start tag arrived, with a row/column cursor and a set of
# reserved positions, and a rowspan of 0 read as 1.
def _span_attr(attrs: dict[str, Optional[str]], name: str) -> int:
    """A rowspan or colspan as browsers read it; no digits, a minus sign or 0
    give 1, and a value past the cap reads as the cap."""
    match = _HTML_NON_NEGATIVE.match(attrs.get(name) or "")
    if not match:
        return 1
    # six significant digits already pass either cap, and int() refuses
    # a string of more than a few thousand
    digits = match.group(1).lstrip("0")[:6]
    return min(max(1, int(digits or "0")), _SPAN_CAP[name])


class TableHTMLParserIncremental(HTMLParser):
    """Lenient table reader with standard colspan/rowspan grid filling."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.cells: list[Cell] = []
        self._row = -1
        self._col = 0
        self._in_cell = False
        self._cell_text: list[str] = []
        self._cell_anchor = (0, 0)
        self._cell_span = (1, 1)
        # unit positions claimed by placed cells (spans included)
        self._reserved: set[tuple[int, int]] = set()
        self._in_table = False      # inside the (single) top-level table
        self._implicit = False      # bare rows/cells without a <table> wrapper
        self._closed_table = False  # a top-level table already ended
        self._nested = 0            # <table> depth inside a cell; flattened to text

    # -- grid bookkeeping --------------------------------------------------

    def _advance_past_reserved(self) -> None:
        while (self._row, self._col) in self._reserved:
            self._col += 1

    def _open_row(self) -> None:
        self._close_cell()
        self._row += 1
        self._col = 0
        self._advance_past_reserved()

    def _open_cell(self, attrs: dict[str, Optional[str]]) -> None:
        self._close_cell()
        if self._row < 0:  # cell without a row: open one implicitly
            self._row = 0
            self._col = 0
        self._advance_past_reserved()
        self._in_cell = True
        self._cell_text = []
        self._cell_anchor = (self._row, self._col)
        self._cell_span = (_span_attr(attrs, "rowspan"), _span_attr(attrs, "colspan"))

    def _close_cell(self) -> None:
        if not self._in_cell:
            return
        row, col = self._cell_anchor
        rowspan, colspan = self._cell_span
        cell = Cell(row, col, rowspan, colspan, _collapse_ws("".join(self._cell_text)))
        self.cells.append(cell)
        self._reserved.update(cell.positions())
        self._col = col + colspan
        self._advance_past_reserved()
        self._in_cell = False
        self._cell_text = []

    # -- HTMLParser hooks ----------------------------------------------------

    def _enter_structure(self) -> None:
        """A row or cell is starting outside any explicit table."""
        if self._closed_table:
            raise MultipleTablesFound("stray cells after a closed table")
        self._implicit = True

    def _block_boundary(self, tag: str) -> None:
        if self._in_cell and tag in _BLOCK_TAGS:
            self._cell_text.append(" ")

    def handle_starttag(self, tag: str, attrs) -> None:
        tag = tag.lower()
        if tag == "table":
            if self._in_cell or self._nested > 0:
                self._nested += 1  # table inside a cell: flatten to text
                return
            if self._in_table or self._closed_table or self._implicit:
                raise MultipleTablesFound("more than one top-level table in fragment")
            self._in_table = True
            return
        if self._nested > 0:
            self._block_boundary(tag)  # nested structure contributes text only
            return
        if tag == "tr":
            if not self._in_table:
                self._enter_structure()
            self._open_row()
        elif tag in ("td", "th"):
            if not self._in_table:
                self._enter_structure()
            self._open_cell(dict(attrs))
        elif tag == "img" and self._in_cell:
            alt = dict(attrs).get("alt")
            if alt:
                self._cell_text.append(f" {alt} ")
        else:
            self._block_boundary(tag)

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag == "table":
            if self._nested > 0:
                self._nested -= 1
                self._block_boundary(tag)
                return
            if self._in_table:
                self._close_cell()
                self._in_table = False
                self._closed_table = True
            return
        if self._nested > 0:
            self._block_boundary(tag)
            return
        if tag in ("td", "th", "tr"):
            self._close_cell()
        else:
            self._block_boundary(tag)

    def handle_data(self, data: str) -> None:
        if self._in_cell:
            self._cell_text.append(data)

    def finalize(self) -> NormalizedTable:
        self._close_cell()
        if not (self._in_table or self._closed_table or self._implicit):
            raise NoTableFound("no table markup in fragment")
        return NormalizedTable.from_cells(self.cells)


def normalize_coord_cells_by_loop(cells: Sequence[CoordCell]) -> NormalizedTable:
    """Map (x, y, w, h) cells onto (row, col, rowspan, colspan) tuples."""
    converted = []
    for cell in cells:
        if cell.x < 0 or cell.y < 0:
            raise MalformedInput(f"cell coordinates must be >= 0, got ({cell.x}, {cell.y})")
        if cell.w < 1 or cell.h < 1:
            raise MalformedInput(f"cell spans must be >= 1, got ({cell.w}, {cell.h})")
        converted.append(
            Cell(
                row=cell.y,
                col=cell.x,
                rowspan=cell.h,
                colspan=cell.w,
                content=_collapse_ws(cell.content),
            )
        )
    return NormalizedTable.from_cells(converted)


def parse_table_rowcol_by_loop(data: Union[bytes, str, list]) -> NormalizedTable:
    """Parse a JSON list of {row, col, content[, rowspan, colspan]} cells."""
    if isinstance(data, (bytes, str)):
        if isinstance(data, bytes):
            try:
                data = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedInput(f"table JSON is not UTF-8: {exc}") from exc
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid table JSON: {exc}") from exc
        except RecursionError as exc:
            raise MalformedInput("table JSON nests too deeply") from exc
    if not isinstance(data, list):
        raise MalformedInput("row/col table payload must be a list of cell objects")
    cells = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise MalformedInput(f"cell {i} is not an object")
        try:
            row, col = _integer(item["row"]), _integer(item["col"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {i} needs integer 'row' and 'col'") from exc
        if row < 0 or col < 0:
            raise MalformedInput(f"cell {i} has negative position ({row}, {col})")
        try:
            rowspan, colspan = _integer(item.get("rowspan", 1)), _integer(item.get("colspan", 1))
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {i} needs integer 'rowspan' and 'colspan'") from exc
        if rowspan < 1 or colspan < 1:
            raise MalformedInput(f"cell {i} has span < 1")
        content = item.get("content", "")
        if not isinstance(content, str):
            raise MalformedInput(f"cell {i} content must be a string")
        cells.append(Cell(row, col, rowspan, colspan, _collapse_ws(content)))
    return NormalizedTable.from_cells(cells)


def table_from_text_list_by_dispatch(items: list) -> NormalizedTable:
    """Dispatch a list-typed element text to the matching cell parser."""
    coord_cells = []
    for j, item in enumerate(items):
        if not isinstance(item, dict):
            raise MalformedInput(f"cell {j} is not an object")
        if "row" in item and "col" in item:
            return parse_table_rowcol_by_loop(items)
        try:
            x, y = _integer(item["x"]), _integer(item["y"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {j} needs integer 'x' and 'y' (or 'row'/'col')") from exc
        try:
            w, h = _integer(item.get("w", 1)), _integer(item.get("h", 1))
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedInput(f"cell {j} needs integer 'w' and 'h'") from exc
        content = item.get("content", "")
        if not isinstance(content, str):
            raise MalformedInput(f"cell {j} content must be a string")
        coord_cells.append(CoordCell(x=x, y=y, w=w, h=h, content=content))
    return normalize_coord_cells_by_loop(coord_cells)


def best_assignment(sims: list[list[float]], tau: float) -> tuple[float, int]:
    """Exhaustive optimal one-to-one matching over pairs with sim >= tau.

    Returns (total similarity, pair count), maximizing the total first
    and the count on exact ties.
    """
    n_pred = len(sims)
    n_gt = len(sims[0]) if sims else 0
    best = (0.0, 0)

    def recurse(i: int, used: frozenset, total: float, count: int) -> None:
        nonlocal best
        if i == n_pred:
            if total > best[0] or (total == best[0] and count > best[1]):
                best = (total, count)
            return
        recurse(i + 1, used, total, count)  # leave pred i unmatched
        for j in range(n_gt):
            if j in used or sims[i][j] < tau:
                continue
            recurse(i + 1, used | {j}, total + sims[i][j], count + 1)

    recurse(0, frozenset(), 0.0, 0)
    return best


def f_measure(tp: int, fp: int, fn: int, beta: float) -> float:
    """Detection F-measure recomputed from raw counts."""
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    denom = beta * beta * precision + recall
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


def tokens_found_by_sums(s_bag: Mapping[str, int], g_bag: Mapping[str, int]) -> float:
    """Kept reference tokens as a sum of per-token minima."""
    g_total = sum(g_bag.values())
    if g_total == 0:
        return 1.0 if sum(s_bag.values()) == 0 else 0.0
    kept = sum(min(n, s_bag.get(t, 0)) for t, n in g_bag.items())
    return kept / g_total


def tokens_added_by_sums(s_bag: Mapping[str, int], g_bag: Mapping[str, int]) -> float:
    """Unsupported output tokens as a sum of per-token positive excesses."""
    s_total = sum(s_bag.values())
    if s_total == 0:
        return 0.0
    extra = sum(max(0, n - g_bag.get(t, 0)) for t, n in s_bag.items())
    return extra / s_total


def bag_similarity_by_sums(a: Mapping[str, int], b: Mapping[str, int]) -> float:
    """Dice overlap with the common count summed over per-token minima."""
    denom = sum(a.values()) + sum(b.values())
    if denom == 0:
        return 1.0
    common = sum(min(n, b.get(t, 0)) for t, n in a.items())
    return 2.0 * common / denom


def greedy_one_to_one_eager(candidates: Iterable[tuple[float, int, int]], order: Callable) -> list[tuple[float, int, int]]:
    """Accept (score, a, b) candidates in ``order`` while neither a nor b is taken."""
    taken_a: set[int] = set()
    taken_b: set[int] = set()
    accepted = []
    for score, a, b in sorted(candidates, key=order):
        if a not in taken_a and b not in taken_b:
            taken_a.add(a)
            taken_b.add(b)
            accepted.append((score, a, b))
    return accepted


def alignment_similarity_per_pair(pred, gt, ned_of: Callable[[str, str], float]) -> float:
    """``textmetrics._alignment_similarity`` as it was before the page's table
    similarity matrix: the pair loop finds each table pair by the elements'
    payloads and computes its ``bag_similarity`` itself."""
    weights = [bag.total() for bag in pred.bags]
    total_weight = sum(weights)
    if total_weight == 0:
        return 0.0

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
        sim = ned_of(pred.texts[i], gt.texts[j])
        return (-sim, j, i) if sim > 0.0 else None

    assigned = {i: -key[0] for key, i, _ in greedy_one_to_one(seeds, exact_key)}
    weighted = math.fsum(weights[i] * assigned.get(i, 0.0) for i in range(len(weights)))
    return min(1.0, weighted / total_weight)


def match_elements_ned_tables(
    gt: Union[DocumentPage, PreparedPage], pred: Union[DocumentPage, PreparedPage],
    sim_threshold: float = 0.5, ned_of: Optional[Callable[[str, str], float]] = None,
) -> list[tuple[int, int, float]]:
    """``hierarchy.match_elements`` as it was before it took detection's
    table pairs: two tables pair, like any two elements, by the NED of their
    flat texts, and compete with every other pair.

    Greedy one-to-one element alignment by text similarity.

    Pairs are accepted highest score first, ties broken by reading-order
    proximity and then by the lower GT index; only pairs at or above the
    threshold survive.  Returns (gt index, pred index, score) triples.
    Pages go through ``PreparedPage.of``.  A pair's NED is read from
    ``ned_of(pred text, GT text)`` (default: a fresh ``functools.cache(ned)``)
    only when its length bound (``ned_upper_bound``) comes first among the
    pairs whose ends are both still free.
    """
    if not 0.0 <= sim_threshold <= 1.0:
        raise InvalidThreshold(f"sim_threshold must be in [0, 1], got {sim_threshold}")
    gt, pred = PreparedPage.of(gt), PreparedPage.of(pred)
    ned_of = ned_of if ned_of is not None else functools.cache(ned)

    def gap(i: int, j: int) -> int:  # reading-order distance, the first tie break
        return abs(gt.page.elements[i].source_order - pred.page.elements[j].source_order)

    seeds = []
    for i, g_text in enumerate(gt.texts):
        for j, p_text in enumerate(pred.texts):
            bound = ned_upper_bound(g_text, p_text)
            if bound >= sim_threshold:  # else the length gap alone rules this pair out
                seeds.append(((-bound, gap(i, j), i, j), 0, i, j))

    def exact_key(i: int, j: int) -> Optional[tuple]:
        score = ned_of(pred.texts[j], gt.texts[i])
        return (-score, gap(i, j), i, j) if score >= sim_threshold else None

    return sorted((i, j, -key[0]) for key, i, j in greedy_one_to_one(seeds, exact_key))


def _axis_score_per_shift(
    p_strings: Sequence[str],
    g_strings: Sequence[str],
    delta: int,
    memo: dict[tuple[str, str], float],
) -> tuple[float, float]:
    """Length-weighted ned sum over aligned axis strings, plus the weight."""
    shifted = {i + delta: s for i, s in enumerate(g_strings)}
    num = den = 0.0
    for i in set(range(len(p_strings))) | set(shifted):
        s = p_strings[i] if 0 <= i < len(p_strings) else ""
        g = shifted.get(i, "")
        weight = max(len(s), len(g))
        if weight == 0:
            continue
        pair = (s, g)
        score = memo.get(pair)
        if score is None:
            score = ned(s, g)
            memo[pair] = score
        num += weight * score
        den += weight
    return num, den


def cell_alignment_per_shift(
    p: NormalizedTable,
    g: NormalizedTable,
    shift: tuple[int, int] = (0, 0),
    index_gate: float = 0.5,
    _memo: Optional[dict[tuple[str, str], float]] = None,
) -> tuple[float, float]:
    """One shift's content and index accuracy, everything rebuilt per call."""
    memo = _memo if _memo is not None else {}
    d_row, d_col = shift

    num_r, den_r = _axis_score_per_shift(flatten(p, "row"), flatten(g, "row"), d_row, memo)
    num_c, den_c = _axis_score_per_shift(flatten(p, "col"), flatten(g, "col"), d_col, memo)
    row_score = num_r / den_r if den_r else 1.0
    col_score = num_c / den_c if den_c else 1.0
    content = max(row_score, col_score)

    occupied = p.occupancy()
    hits = total = 0
    for cell in g.cells:
        for r, c in cell.positions():
            total += 1
            pred_cell = occupied.get((r + d_row, c + d_col))
            if pred_cell is None:
                continue
            pair = (pred_cell.content, cell.content)
            score = memo.get(pair)
            if score is None:
                score = ned(*pair)
                memo[pair] = score
            if score >= index_gate:
                hits += 1
    index = hits / total if total else 1.0
    return content, index


def content_index_accuracy_per_shift(
    p: NormalizedTable,
    g: NormalizedTable,
    n: int = 2,
    index_gate: float = 0.5,
) -> CellAccuracy:
    """Best of (2n+1)^2 independent per-shift alignments, compared one by one."""
    memo: dict[tuple[str, str], float] = {}
    best_rank: Optional[tuple[float, int, tuple[int, int]]] = None
    best = (0.0, 0.0, (0, 0))
    for d_row in range(-n, n + 1):
        for d_col in range(-n, n + 1):
            content, index = cell_alignment_per_shift(p, g, (d_row, d_col), index_gate, memo)
            rank = (-(content + index), abs(d_row) + abs(d_col), (d_row, d_col))
            if best_rank is None or rank < best_rank:
                best_rank = rank
                best = (content, index, (d_row, d_col))
    return CellAccuracy(content_acc=best[0], index_acc=best[1], best_shift=best[2])


def shift_scores_all(
    p: NormalizedTable,
    g: NormalizedTable,
    shifts: Iterable[tuple[int, int]],
    index_gate: float,
    ned_of: Callable[[str, str], float],
) -> Iterator[tuple[float, float, tuple[int, int]]]:
    """(content, index, shift) for each GT grid shift, in the order given.

    What no shift changes (flattened axes, occupancy, GT unit positions)
    is built once and each axis score is computed once per delta; NEDs
    are read from ``ned_of(pred string, GT string)``.
    """
    p_rows, g_rows = flatten(p, "row"), flatten(g, "row")
    p_cols, g_cols = flatten(p, "col"), flatten(g, "col")
    row_score = functools.cache(lambda d: _axis_score(p_rows, g_rows, d, ned_of))
    col_score = functools.cache(lambda d: _axis_score(p_cols, g_cols, d, ned_of))
    occupied = p.occupancy()
    units = [(r, c, cell.content) for cell in g.cells for r, c in cell.positions()]
    for d_row, d_col in shifts:
        hits = 0
        for r, c, content in units:
            pred_cell = occupied.get((r + d_row, c + d_col))
            if pred_cell is not None and ned_of(pred_cell.content, content) >= index_gate:
                hits += 1
        index = hits / len(units) if units else 1.0
        yield max(row_score(d_row), col_score(d_col)), index, (d_row, d_col)


def content_index_accuracy_all_shifts(p: NormalizedTable, g: NormalizedTable, n: int, index_gate: float,
                                      ned_of: Callable[[str, str], float]) -> CellAccuracy:
    """``tableeval.content_index_accuracy`` as it was before its best-first
    search: every shift's index loop runs, and ``min`` picks the best."""
    if n < 0:
        raise InvalidThreshold(f"shift bound must be >= 0, got {n}")
    # A delta at or past the tables' extent leaves no row (column)
    # overlapping, so it scores no better than delta 0 and loses the
    # displacement tie.
    rows = range(-min(n, max(g.n_rows - 1, 0)), min(n, max(p.n_rows - 1, 0)) + 1)
    cols = range(-min(n, max(g.n_cols - 1, 0)), min(n, max(p.n_cols - 1, 0)) + 1)
    shifts = [(d_row, d_col) for d_row in rows for d_col in cols]
    content, index, shift = min(
        shift_scores_all(p, g, shifts, index_gate, ned_of),
        key=lambda s: (-(s[0] + s[1]), abs(s[2][0]) + abs(s[2][1]), s[2]),
    )
    return CellAccuracy(content_acc=content, index_acc=index, best_shift=shift)


def best_shift_eager(
    p: NormalizedTable,
    g: NormalizedTable,
    shifts: Sequence[tuple[int, int]],
    index_gate: float,
    ned_of: Callable[[str, str], float],
) -> tuple[float, float, tuple[int, int]]:
    """``tableeval._best_shift`` as it was before its lazy axis scores: every
    delta's axis score is computed exactly before the first index loop.
    (content, index, shift) of the GT grid shift with the least key
    ``(-(content + index), |d_row| + |d_col|, shift)``.

    What no shift changes (flattened axes, occupancy, GT unit positions)
    is built once and each axis score is computed once per delta; NEDs
    are read from ``ned_of(pred string, GT string)``.  The index loops
    run best first on the bound key ``(-(content + 1.0), ...)`` and stop
    at the first bound key at or above the best exact key: ``index`` is
    ``hits / units`` <= 1.0 and rounded addition is monotone, so no
    shift left unscored can have a smaller exact key.
    """
    p_rows, g_rows = flatten(p, "row"), flatten(g, "row")
    p_cols, g_cols = flatten(p, "col"), flatten(g, "col")
    row_score = functools.cache(lambda d: _axis_score(p_rows, g_rows, d, ned_of))
    col_score = functools.cache(lambda d: _axis_score(p_cols, g_cols, d, ned_of))
    occupied = p.occupancy()
    units = [(r, c, cell.content) for cell in g.cells for r, c in cell.positions()]
    bounds = []
    for d_row, d_col in shifts:
        content = max(row_score(d_row), col_score(d_col))
        bounds.append((-(content + 1.0), abs(d_row) + abs(d_col), (d_row, d_col), content))
    bounds.sort()
    best_key, best = None, None
    for bound, displacement, (d_row, d_col), content in bounds:
        if best_key is not None and (bound, displacement, (d_row, d_col)) >= best_key:
            break
        hits = 0
        for r, c, unit in units:
            pred_cell = occupied.get((r + d_row, c + d_col))
            if pred_cell is not None and ned_of(pred_cell.content, unit) >= index_gate:
                hits += 1
        index = hits / len(units) if units else 1.0
        key = (-(content + index), displacement, (d_row, d_col))
        if best_key is None or key < best_key:
            best_key, best = key, (content, index, (d_row, d_col))
    return best


def row_distance_full(a_rows: Sequence[Sequence[_Td]], b_rows: Sequence[Sequence[_Td]],
                      ned_of: Callable[[str, str], float]) -> float:
    """``tableeval._row_distance`` as it was before its band: every pair of
    prefixes is filled.  ``tree_edit_distance`` of two table -> tr -> td trees
    given as rows of tds, bit for bit.

    Zhang-Shasha fills a forest table for every pair of keyroots; on a
    depth-2 tree one forest table over the row forests, plus the row
    pairs it reaches, decides the distance.  Why each value is the same
    float Zhang-Shasha computes:

    - The roots map.  Zhang-Shasha's last step is ``min(D(F, T) + 1,
      D(S, G) + 1, D(F, G) + 0)`` with F, G the row forests and S, T the
      whole trees, and its first two arms never go below ``D(F, G)``.
      Take ``D(F, T)``: its arm that inserts T's root is ``D(F, G) + 1``;
      the arm that deletes F's rightmost root follows by induction, as
      rounding is monotone; the arm that maps F's rightmost subtree onto
      T is at least ``D(F, G)`` in exact arithmetic, so with the + 1 it
      clears ``D(F, G)`` by a whole unit, far beyond rounding.  The same
      holds for the two trs of a tr-tr pair and their cells.
    - A prefix of a row forest in postorder is a run of complete rows,
      or complete rows followed by the first k cells of a row whose tr
      is deleted.  At each pair of prefixes the value is the minimum of
      deleting the rightmost root (+1), inserting it (+1), or matching
      the two rightmost subtrees at the distance Zhang-Shasha stores for
      them: td-td ``_cell_cost``; tr-tr the cells' sequence
      distance; tr-td ``min(len(row) + 1.0, fold + 1.0)``, with ``fold``
      the row's cells against the one td, grouped as Zhang-Shasha's
      relabel and descend arms are.  Same operands added in the same
      order give the same floats.
    - A match is skipped only when a lower bound on it already reaches
      the cheaper indel, so the minimum keeps its value.  A td pair's
      bound is ``_cell_cost`` on ``ned_upper_bound``, never above the cost
      on ``ned`` in floating point.  A match with a tr is first bounded by
      the indels every alignment makes (the rows' length difference, or
      the row's length against a td; integers, so exact), then by the
      same alignment run on bound costs, as min and rounded addition are
      monotone.  A tr-td bound keeps its ``len(row) + 1.0`` arm: an
      empty row against a td costs 1.0, below ``fold + 1.0``.
    """
    a_cells = [td for row in a_rows for td in row]
    b_cells = [td for row in b_rows for td in row]
    lower = [[_cell_cost(a, b, ned_upper_bound) for b in b_cells] for a in a_cells]

    def relax_bound(base: float, m: float, i: int, j: int) -> float:
        return min(m, base + lower[i][j])

    def relax(base: float, m: float, i: int, j: int) -> float:
        if base + lower[i][j] >= m:
            return m
        return min(m, base + _cell_cost(a_cells[i], b_cells[j], ned_of))

    def subtree(xs: list[int], ys: list[int], x_row: bool, y_row: bool,
                step: Callable[[float, float, int, int], float]) -> float:
        distance = _align(xs, ys, step)
        if x_row == y_row:
            return distance
        return min((len(xs) if x_row else len(ys)) + 1.0, distance + 1.0)

    def match(base: float, m: float, xs: list[int], ys: list[int], x_row: bool, y_row: bool) -> float:
        """``min(m, base + distance)`` for two subtrees of which one is a tr."""
        floor = abs(len(xs) - len(ys)) if x_row == y_row else len(xs) if x_row else len(ys)
        if base + floor >= m or base + subtree(xs, ys, x_row, y_row, relax_bound) >= m:
            return m
        return min(m, base + subtree(xs, ys, x_row, y_row, relax))

    def states(rows: Sequence[Sequence[_Td]]) -> list[tuple[list[int], bool, int]]:
        """Per postorder node: its subtree's cells, whether it is a tr, and
        the prefix left once that subtree is removed."""
        out: list[tuple[list[int], bool, int]] = []
        cell = 0
        for row in rows:
            start = len(out)
            for _ in row:
                out.append(([cell], False, len(out)))
                cell += 1
            out.append((list(range(cell - len(row), cell)), True, start))
        return out

    a_states, b_states = states(a_rows), states(b_rows)
    fd = [[float(y) for y in range(len(b_states) + 1)]]
    for xs, x_row, p in a_states:
        prev, before = fd[-1], fd[p]
        cur = [prev[0] + 1.0]
        for y, (ys, y_row, q) in enumerate(b_states):
            m = min(prev[y + 1] + 1.0, cur[y] + 1.0)
            base = before[q]
            if x_row or y_row:
                cur.append(match(base, m, xs, ys, x_row, y_row))
            else:
                cur.append(relax(base, m, xs[0], ys[0]))
        fd.append(cur)
    return fd[-1][-1]


def consistency_score_dense(counts: Sequence[Sequence[int]]) -> float:
    """``hierarchy.consistency_score`` as it was on the dense matrix:
    row and column masses summed over every count."""
    scores = []
    for k in range(len(counts) - 1):  # the last label is NOMATCH
        row_mass = sum(counts[k])
        col_mass = sum(row[k] for row in counts)
        if row_mass == 0 and col_mass == 0:
            continue
        tp = counts[k][k]
        fp = col_mass - tp
        fn = row_mass - tp
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return math.fsum(scores) / len(scores) if scores else 1.0
