"""Independent brute-force oracles used to cross-check the real implementations.

Each oracle computes its answer from first principles along a different
algorithmic path than the production code, so shared bugs are unlikely.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Sequence

from score_eval.tableeval import TableTree, _substitution_cost


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
