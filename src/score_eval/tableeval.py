"""Format-agnostic table scoring.

Tables are compared as sets of (row, col, rowspan, colspan, content)
tuples regardless of the markup they arrived in.  Detection is
content-based, cell accuracy is maximized over bounded grid shifts, and
hierarchical structure is scored with a tree edit distance normalized by
the larger tree.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InvalidThreshold, OverlappingCells
from .textmetrics import DEFAULT_TOKENIZER, TokenizerConfig, bag_similarity, ned, ned_upper_bound, tokenize

# Preference for higher-cardinality matchings among equal-similarity
# optima; small enough never to override a real similarity difference.
_CARDINALITY_BONUS = 1e-9


@dataclass(frozen=True, order=True)
class Cell:
    """One table cell anchored at (row, col), spanning a grid rectangle."""

    row: int
    col: int
    rowspan: int = 1
    colspan: int = 1
    content: str = ""

    def positions(self) -> Iterator[tuple[int, int]]:
        """Unit grid positions covered by this cell."""
        for r in range(self.row, self.row + self.rowspan):
            for c in range(self.col, self.col + self.colspan):
                yield r, c


@dataclass(frozen=True)
class NormalizedTable:
    """Canonical cell-tuple representation shared by all table parsers."""

    cells: tuple[Cell, ...] = ()

    @classmethod
    def from_cells(cls, cells: Sequence[Cell]) -> "NormalizedTable":
        """Sort, validate occupancy, and freeze a cell collection."""
        ordered = tuple(sorted(cells, key=lambda c: (c.row, c.col)))
        occupied: dict[tuple[int, int], Cell] = {}
        for cell in ordered:
            for pos in cell.positions():
                other = occupied.get(pos)
                if other is not None:
                    raise OverlappingCells(
                        f"cells {other.content!r} at ({other.row},{other.col}) and "
                        f"{cell.content!r} at ({cell.row},{cell.col}) both cover {pos}"
                    )
                occupied[pos] = cell
        return cls(ordered)

    @property
    def n_rows(self) -> int:
        return max((c.row + c.rowspan for c in self.cells), default=0)

    @property
    def n_cols(self) -> int:
        return max((c.col + c.colspan for c in self.cells), default=0)

    def is_empty(self) -> bool:
        return not self.cells

    def occupancy(self) -> dict[tuple[int, int], Cell]:
        return {pos: cell for cell in self.cells for pos in cell.positions()}

    def flat_text(self) -> str:
        """Cell contents in (row, col) order, space separated."""
        return " ".join(c.content for c in self.cells if c.content)


@dataclass(frozen=True)
class DetectionResult:
    """Content-based table detection outcome for one page."""

    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f_beta: float
    pairs: tuple[tuple[int, int, float], ...]  # (pred index, gt index, similarity)


@dataclass(frozen=True)
class CellAccuracy:
    """Shift-tolerant cell scores and the shift that attained them."""

    content_acc: float
    index_acc: float
    best_shift: tuple[int, int]


def table_similarity(
    p: NormalizedTable,
    g: NormalizedTable,
    cfg: TokenizerConfig = DEFAULT_TOKENIZER,
) -> float:
    """Position-free bag overlap of tokenized cell contents."""
    return bag_similarity(tokenize(p.flat_text(), cfg), tokenize(g.flat_text(), cfg))


def _max_assignment(profit: Sequence[Sequence[float]]) -> list[tuple[int, int]]:
    """(row, col) pairs of a maximum-profit one-to-one assignment, in row order.

    Every row of the shorter side is assigned.  This is the shortest
    augmenting path method of Crouse 2016 ("On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4)) step for step
    as ``scipy.optimize.linear_sum_assignment`` runs it, so tied optima
    resolve to the same pairs: a tall matrix is transposed, each search
    scans the free columns from a list filled in reverse and shrunk by
    swap-remove, and an unassigned column wins a tie in reduced cost.
    """
    if not profit or not profit[0]:
        return []
    transpose = len(profit[0]) < len(profit)
    cost = [[-x for x in row] for row in (zip(*profit) if transpose else profit)]
    n_rows, n_cols = len(cost), len(cost[0])
    u, v = [0.0] * n_rows, [0.0] * n_cols
    path, col4row, row4col = [-1] * n_cols, [-1] * n_rows, [-1] * n_cols
    for cur in range(n_rows):
        shortest = [math.inf] * n_cols
        remaining = list(range(n_cols - 1, -1, -1))
        seen_rows: list[int] = []
        seen_cols: list[int] = []
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            seen_rows.append(i)
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + cost[i][j] - u[i] - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:  # flip the path's edges back to the current row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        return sorted((i, j) for j, i in enumerate(col4row))
    return list(enumerate(col4row))


def match_tables(
    pred_bags: Sequence[Counter[str]],
    gt_bags: Sequence[Counter[str]],
    tau: float = 0.5,
    beta: float = 1.0,
) -> DetectionResult:
    """One-to-one table matching maximizing total content similarity.

    Each table is given by the token bag of its cell contents
    (``tokenize(table.flat_text(), cfg)``), so a pair's similarity is
    ``table_similarity``.  Only pairs at or above the similarity
    threshold count; the optimal assignment is computed exactly,
    preferring more pairs among equal-similarity optima.
    """
    if not 0.0 < tau <= 1.0:
        raise InvalidThreshold(f"tau must be in (0, 1], got {tau}")
    if not 0.0 < beta < math.inf:
        raise InvalidThreshold(f"beta must be positive and finite, got {beta}")

    sims = [[bag_similarity(p, g) for g in gt_bags] for p in pred_bags]
    profit = [[s + _CARDINALITY_BONUS if s >= tau else 0.0 for s in row] for row in sims]
    pairs = [(i, j, sims[i][j]) for i, j in _max_assignment(profit) if sims[i][j] >= tau]

    tp = len(pairs)
    fp = len(pred_bags) - tp
    fn = len(gt_bags) - tp
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    denom = beta * beta * precision + recall
    f_beta = (1 + beta * beta) * precision * recall / denom if denom else 0.0
    return DetectionResult(tp, fp, fn, precision, recall, f_beta, tuple(pairs))


def flatten(t: NormalizedTable, axis: str = "row") -> list[str]:
    """One string per index along the axis; spanned cells count once.

    Cells are joined with single spaces in increasing cross-axis order;
    indices with no anchored cell yield empty strings.
    """
    if axis not in ("row", "col"):
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    size = t.n_rows if axis == "row" else t.n_cols
    buckets: list[list[Cell]] = [[] for _ in range(size)]
    for cell in t.cells:
        buckets[cell.row if axis == "row" else cell.col].append(cell)
    key = (lambda c: c.col) if axis == "row" else (lambda c: c.row)
    return [
        " ".join(c.content for c in sorted(bucket, key=key) if c.content)
        for bucket in buckets
    ]


def _axis_score(
    p_strings: Sequence[str],
    g_strings: Sequence[str],
    delta: int,
    ned_of: Callable[[str, str], float],
) -> float:
    """Length-weighted mean ned over aligned axis strings; 1.0 if all are empty."""
    shifted = {i + delta: s for i, s in enumerate(g_strings)}
    num = den = 0.0
    for i in set(range(len(p_strings))) | set(shifted):
        s = p_strings[i] if 0 <= i < len(p_strings) else ""
        g = shifted.get(i, "")
        weight = max(len(s), len(g))
        if weight == 0:
            continue
        num += weight * ned_of(s, g)
        den += weight
    return num / den if den else 1.0


def _shift_scores(
    p: NormalizedTable,
    g: NormalizedTable,
    shifts: Iterable[tuple[int, int]],
    index_gate: float,
) -> Iterator[tuple[float, float, tuple[int, int]]]:
    """(content, index, shift) for each GT grid shift, in the order given.

    What no shift changes (flattened axes, occupancy, GT unit positions)
    is built once, each axis score is computed once per delta, and each
    distinct string pair's ned once per call.
    """
    ned_of = functools.cache(ned)
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


def cell_alignment(
    p: NormalizedTable,
    g: NormalizedTable,
    shift: tuple[int, int] = (0, 0),
    index_gate: float = 0.5,
) -> tuple[float, float]:
    """Content and index accuracy after shifting the GT grid by `shift`.

    Content is the better of the row-axis and column-axis flattened
    similarities: a merge along one axis leaves the other axis intact,
    so granularity differences are not penalized while the score stays
    orientation-neutral.  Index accuracy is the fraction of GT unit
    cells whose shifted position is occupied in the prediction by a
    cell whose content clears the gate.
    """
    content, index, _ = next(_shift_scores(p, g, [shift], index_gate))
    return content, index


def content_index_accuracy(
    p: NormalizedTable,
    g: NormalizedTable,
    n: int = 2,
    index_gate: float = 0.5,
) -> CellAccuracy:
    """Best cell alignment over all grid shifts within [-n, n] squared.

    One shift is chosen jointly for both scores; ties prefer the
    smallest displacement, then lexicographic order, so results do not
    depend on evaluation order.
    """
    if n < 0:
        raise InvalidThreshold(f"shift bound must be >= 0, got {n}")
    # A delta at or past the tables' extent leaves no row (column)
    # overlapping, so it scores no better than delta 0 and loses the
    # displacement tie.
    rows = range(-min(n, max(g.n_rows - 1, 0)), min(n, max(p.n_rows - 1, 0)) + 1)
    cols = range(-min(n, max(g.n_cols - 1, 0)), min(n, max(p.n_cols - 1, 0)) + 1)
    shifts = [(d_row, d_col) for d_row in rows for d_col in cols]
    content, index, shift = min(
        _shift_scores(p, g, shifts, index_gate),
        key=lambda s: (-(s[0] + s[1]), abs(s[2][0]) + abs(s[2][1]), s[2]),
    )
    return CellAccuracy(content_acc=content, index_acc=index, best_shift=shift)


@dataclass
class TableTree:
    """Rooted ordered tree over 'table' / 'tr' / 'td' nodes."""

    label: str
    content: str = ""
    rowspan: int = 1
    colspan: int = 1
    children: list["TableTree"] = field(default_factory=list)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


def build_table_tree(t: NormalizedTable) -> TableTree:
    """table -> one tr per row -> one td per anchored cell, in col order."""
    root = TableTree("table")
    by_row: dict[int, list[Cell]] = {}
    for cell in t.cells:
        by_row.setdefault(cell.row, []).append(cell)
    for row in range(t.n_rows):
        tr = TableTree("tr")
        for cell in sorted(by_row.get(row, []), key=lambda c: c.col):
            tr.children.append(
                TableTree("td", content=cell.content, rowspan=cell.rowspan, colspan=cell.colspan)
            )
        root.children.append(tr)
    return root


def _substitution_cost(a: TableTree, b: TableTree) -> float:
    if a.label != b.label:
        return 1.0
    if a.label == "td":
        if a.rowspan != b.rowspan or a.colspan != b.colspan:
            return 1.0
        return 1.0 - ned(a.content, b.content)
    return 0.0


class _Annotated:
    """Postorder view with leftmost-descendant indices and keyroots."""

    def __init__(self, root: TableTree) -> None:
        self.nodes: list[TableTree] = []
        self.lmds: list[int] = []

        def walk(node: TableTree) -> int:
            first = None
            for child in node.children:
                lmd = walk(child)
                if first is None:
                    first = lmd
            self.nodes.append(node)
            index = len(self.nodes) - 1
            self.lmds.append(first if first is not None else index)
            return self.lmds[index]

        walk(root)
        keyroots = {self.lmds[i]: i for i in range(len(self.nodes))}
        self.keyroots = sorted(keyroots.values())


def tree_edit_distance(a: TableTree, b: TableTree) -> float:
    """Ordered tree edit distance with unit insert/delete costs."""
    ta, tb = _Annotated(a), _Annotated(b)
    la, lb = ta.lmds, tb.lmds
    na, nb = ta.nodes, tb.nodes
    dist = [[0.0] * len(nb) for _ in na]

    for i in ta.keyroots:
        for j in tb.keyroots:
            m = i - la[i] + 2
            n = j - lb[j] + 2
            fd = [[0.0] * n for _ in range(m)]
            ioff = la[i] - 1
            joff = lb[j] - 1
            for x in range(1, m):
                fd[x][0] = fd[x - 1][0] + 1.0
            for y in range(1, n):
                fd[0][y] = fd[0][y - 1] + 1.0
            for x in range(1, m):
                for y in range(1, n):
                    if la[i] == la[x + ioff] and lb[j] == lb[y + joff]:
                        fd[x][y] = min(
                            fd[x - 1][y] + 1.0,
                            fd[x][y - 1] + 1.0,
                            fd[x - 1][y - 1] + _substitution_cost(na[x + ioff], nb[y + joff]),
                        )
                        dist[x + ioff][y + joff] = fd[x][y]
                    else:
                        p = la[x + ioff] - 1 - ioff
                        q = lb[y + joff] - 1 - joff
                        fd[x][y] = min(
                            fd[x - 1][y] + 1.0,
                            fd[x][y - 1] + 1.0,
                            fd[p][q] + dist[x + ioff][y + joff],
                        )
    return dist[-1][-1]


def _table_rows(tree: TableTree) -> Optional[list[list[TableTree]]]:
    """The td lists of a table -> tr -> td tree, or None for any other shape."""
    if tree.label != "table" or any(tr.label != "tr" for tr in tree.children):
        return None
    rows = [tr.children for tr in tree.children]
    if any(td.label != "td" or td.children for row in rows for td in row):
        return None
    return rows


def _align(xs: Sequence[int], ys: Sequence[int], relax: Callable[[float, float, int, int], float]) -> float:
    """Edit distance of two cell sequences: unit indels, relabel by ``relax``.

    ``relax(base, m, i, j)`` is the cell's value ``min(m, base + cost)``,
    ``m`` being the cheaper of a deletion and an insertion.
    """
    prev = [float(k) for k in range(len(ys) + 1)]
    for i in xs:
        cur = [prev[0] + 1.0]
        for k, j in enumerate(ys):
            cur.append(relax(prev[k], min(prev[k + 1] + 1.0, cur[k] + 1.0), i, j))
        prev = cur
    return prev[-1]


def _row_distance(a_rows: Sequence[Sequence[TableTree]], b_rows: Sequence[Sequence[TableTree]]) -> float:
    """``tree_edit_distance`` of two table -> tr -> td trees, bit for bit.

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
      them: td-td ``_substitution_cost``; tr-tr the cells' sequence
      distance; tr-td ``min(len(row) + 1.0, fold + 1.0)``, with ``fold``
      the row's cells against the one td, grouped as Zhang-Shasha's
      relabel and descend arms are.  Same operands added in the same
      order give the same floats.
    - A match is skipped only when a lower bound on it already reaches
      the cheaper indel, so the minimum keeps its value.  A td pair's
      bound is ``1 - ned_upper_bound``, which never exceeds ``1 - ned``
      in floating point.  A match with a tr is first bounded by the
      indels every alignment makes (the rows' length difference, or the
      row's length against a td; integers, so exact), then by the same
      alignment run on bound costs, as min and rounded addition are
      monotone.  A tr-td bound keeps its ``len(row) + 1.0`` arm: an
      empty row against a td costs 1.0, below ``fold + 1.0``.
    """
    a_cells = [td for row in a_rows for td in row]
    b_cells = [td for row in b_rows for td in row]
    lower = [
        [
            1.0 if a.rowspan != b.rowspan or a.colspan != b.colspan
            else 1.0 - ned_upper_bound(a.content, b.content)
            for b in b_cells
        ]
        for a in a_cells
    ]
    exact: dict[tuple[int, int], float] = {}

    def relax_bound(base: float, m: float, i: int, j: int) -> float:
        return min(m, base + lower[i][j])

    def relax(base: float, m: float, i: int, j: int) -> float:
        if base + lower[i][j] >= m:
            return m
        cost = exact.get((i, j))
        if cost is None:
            cost = exact[i, j] = _substitution_cost(a_cells[i], b_cells[j])
        return min(m, base + cost)

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

    def states(rows: Sequence[Sequence[TableTree]]) -> list[tuple[list[int], bool, int]]:
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


def teds(a: TableTree, b: TableTree) -> float:
    """Tree edit distance similarity normalized by the larger tree.

    Two trees of ``build_table_tree``'s shape take the exact row-level
    reduction ``_row_distance``; any other pair runs
    ``tree_edit_distance``.
    """
    a_rows, b_rows = _table_rows(a), _table_rows(b)
    if a_rows is None or b_rows is None:
        distance = tree_edit_distance(a, b)
    else:
        distance = _row_distance(a_rows, b_rows)
    return max(0.0, 1.0 - distance / max(a.size(), b.size()))
