"""Independent brute-force oracles used to cross-check the real implementations.

Each oracle computes its answer from first principles along a different
algorithmic path than the production code, so shared bugs are unlikely.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Mapping, Optional, Sequence

from score_eval.tableeval import (
    CellAccuracy,
    NormalizedTable,
    TableTree,
    _substitution_cost,
    flatten,
)
from score_eval.textmetrics import ned


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
                    cost += _substitution_cost(na[left[x]], nb[right[x]])
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
