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
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import InvalidThreshold, MalformedInput, OverlappingCells
from .textmetrics import DEFAULT_TOKENIZER, TokenizerConfig, bag_similarity, ned, ned_upper_bound, tokenize

# Preference for higher-cardinality matchings among equal-similarity
# optima; small enough never to override a real similarity difference.
_CARDINALITY_BONUS = 1e-9


@dataclass(frozen=True, order=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class NormalizedTable:
    """Canonical cell-tuple representation shared by all table parsers.

    Construction puts the cells in (row, col) order and refuses a cell
    anchored before row or column 0, a span below 1, and two cells
    covering one grid position; so tables holding the same cells are
    equal, however the cells were ordered.
    """

    cells: tuple[Cell, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.cells, key=lambda c: (c.row, c.col)))
        occupied: dict[tuple[int, int], Cell] = {}
        for cell in ordered:
            if cell.row < 0 or cell.col < 0 or cell.rowspan < 1 or cell.colspan < 1:
                raise MalformedInput(
                    f"cell {cell.content!r} at ({cell.row},{cell.col}) spanning "
                    f"{cell.rowspan}x{cell.colspan}: anchors must be >= 0 and spans >= 1"
                )
            for pos in cell.positions():
                other = occupied.get(pos)
                if other is not None:
                    raise OverlappingCells(
                        f"cells {other.content!r} at ({other.row},{other.col}) and "
                        f"{cell.content!r} at ({cell.row},{cell.col}) both cover {pos}"
                    )
                occupied[pos] = cell
        object.__setattr__(self, "cells", ordered)

    @classmethod
    def from_cells(cls, cells: Sequence[Cell]) -> "NormalizedTable":
        """The table of these cells, in any order; the constructor validates them."""
        return cls(tuple(cells))

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


@dataclass(frozen=True, slots=True)
class DetectionResult:
    """Content-based table detection outcome for one page."""

    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    f_beta: float
    pairs: tuple[tuple[int, int, float], ...]  # (pred index, gt index, similarity)


@dataclass(frozen=True, slots=True)
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
    sims: Optional[Sequence[Sequence[float]]] = None,
) -> DetectionResult:
    """One-to-one table matching maximizing total content similarity.

    Each table is given by the token bag of its cell contents
    (``tokenize(table.flat_text(), cfg)``), so a pair's similarity is
    ``table_similarity``; ``sims[i][j]``, pred table i against GT table
    j, is computed from the bags when None.  Only pairs at or above the
    similarity threshold count; the optimal assignment is computed
    exactly, preferring more pairs among equal-similarity optima.
    """
    if not 0.0 < tau <= 1.0:
        raise InvalidThreshold(f"tau must be in (0, 1], got {tau}")
    if not (beta > 0.0 and math.isfinite(beta * beta)):
        raise InvalidThreshold(f"beta must be positive with a finite square, got {beta}")

    if sims is None:
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


def _lines(t: NormalizedTable, axis: str = "row") -> list[list[Cell]]:
    """The cells anchored at each row (or column) index, in cross-axis order."""
    if axis not in ("row", "col"):
        raise ValueError(f"axis must be 'row' or 'col', got {axis!r}")
    by_row = axis == "row"
    lines: list[list[Cell]] = [[] for _ in range(t.n_rows if by_row else t.n_cols)]
    for cell in t.cells:  # (row, col) order fills every row and every column in order
        lines[cell.row if by_row else cell.col].append(cell)
    return lines


def flatten(t: NormalizedTable, axis: str = "row") -> list[str]:
    """One string per index along the axis; spanned cells count once.

    Cells are joined with single spaces in increasing cross-axis order;
    indices with no anchored cell yield empty strings.
    """
    return [" ".join(c.content for c in line if c.content) for line in _lines(t, axis)]


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


def _best_shift(
    p: NormalizedTable,
    g: NormalizedTable,
    shifts: Sequence[tuple[int, int]],
    index_gate: float,
    ned_of: Callable[[str, str], float],
) -> tuple[float, float, tuple[int, int]]:
    """(content, index, shift) of the GT grid shift with the least key
    ``(-(content + index), |d_row| + |d_col|, shift)``.

    What no shift changes (flattened axes, occupancy, GT unit positions)
    is built once; NEDs are read from ``ned_of(pred string, GT string)``.
    The shifts are walked once in order of a bound key ``(-(c + 1.0),
    ...)``, with ``c`` the larger of the two axis scores on
    ``ned_upper_bound``, and the walk stops at the first bound key at or
    above the best exact key.  No shift left can have a smaller exact key:

    - ``ned_upper_bound`` is at least ``ned`` in floating point; both axis
      scores sum the same strings in the same order over the same weights,
      and rounded multiplication, addition and division are monotone, so
      the bound axis score is at least the exact one, bit for bit.
    - ``index`` is ``hits / units`` <= 1.0, and rounded addition is
      monotone, so a bound key is never above the exact key.

    Content is ``max(row score, column score)``.  The axis with the larger
    bound is scored first (rows on a tie); the other is scored only if its
    bound is above that score, as otherwise ``max`` gives the first score.
    The index loop is skipped when ``content + 1.0`` cannot beat the best.
    """
    p_rows, g_rows = flatten(p, "row"), flatten(g, "row")
    p_cols, g_cols = flatten(p, "col"), flatten(g, "col")
    strings = ((p_rows, g_rows), (p_cols, g_cols))
    bound = functools.cache(lambda axis, d: _axis_score(*strings[axis], d, ned_upper_bound))
    exact = functools.cache(lambda axis, d: _axis_score(*strings[axis], d, ned_of))

    def bound_key(shift: tuple[int, int]) -> tuple[float, int, tuple[int, int]]:
        return -(max(bound(0, shift[0]), bound(1, shift[1])) + 1.0), abs(shift[0]) + abs(shift[1]), shift

    occupied = p.occupancy()
    units = [(r, c, cell.content) for cell in g.cells for r, c in cell.positions()]
    best_key, best = None, None
    for key in sorted(map(bound_key, shifts)):
        if best_key is not None and key >= best_key:
            break
        _, displacement, shift = key
        first = 0 if bound(0, shift[0]) >= bound(1, shift[1]) else 1
        content = exact(first, shift[first])
        if bound(1 - first, shift[1 - first]) > content:
            content = max(content, exact(1 - first, shift[1 - first]))
        if best_key is not None and (-(content + 1.0), displacement, shift) >= best_key:
            continue
        d_row, d_col = shift
        hits = 0
        for r, c, unit in units:
            pred_cell = occupied.get((r + d_row, c + d_col))
            if pred_cell is not None and ned_of(pred_cell.content, unit) >= index_gate:
                hits += 1
        index = hits / len(units) if units else 1.0
        key = (-(content + index), displacement, shift)
        if best_key is None or key < best_key:
            best_key, best = key, (content, index, shift)
    return best


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
    content, index, _ = _best_shift(p, g, [shift], index_gate, functools.cache(ned))
    return content, index


def content_index_accuracy(
    p: NormalizedTable,
    g: NormalizedTable,
    n: int = 2,
    index_gate: float = 0.5,
    ned_of: Optional[Callable[[str, str], float]] = None,
) -> CellAccuracy:
    """Best cell alignment over all grid shifts within [-n, n] squared.

    One shift is chosen jointly for both scores; ties prefer the
    smallest displacement, then lexicographic order, so results do not
    depend on evaluation order.  NEDs are read from ``ned_of(pred string,
    GT string)``, a fresh ``functools.cache(ned)`` when it is None.

    Equal tables at a gate of at most 1.0 return the search's own result,
    ``(1.0, 1.0, (0, 0))``, without searching: at delta 0 each axis
    score sums ``weight * 1.0`` and ``weight`` over the same weights in
    the same order, so it is ``x / x = 1.0`` (1.0 when all are empty);
    every GT unit hits, as ``ned(x, x) = 1.0`` clears the gate; and
    ``(0, 0)`` is always searched, its key ``(-2.0, 0, (0, 0))`` the least
    a key can be.  Above 1.0 (or NaN) no unit clears the gate, so those
    gates still search.  ``ned_of`` must give 1.0 on equal strings, as
    ``ned`` does.
    """
    if n < 0:
        raise InvalidThreshold(f"shift bound must be >= 0, got {n}")
    if p == g and index_gate <= 1.0:
        return CellAccuracy(content_acc=1.0, index_acc=1.0, best_shift=(0, 0))
    # A delta at or past the tables' extent leaves no row (column)
    # overlapping, so it scores no better than delta 0 and loses the
    # displacement tie.
    rows = range(-min(n, max(g.n_rows - 1, 0)), min(n, max(p.n_rows - 1, 0)) + 1)
    cols = range(-min(n, max(g.n_cols - 1, 0)), min(n, max(p.n_cols - 1, 0)) + 1)
    shifts = [(d_row, d_col) for d_row in rows for d_col in cols]
    ned_of = ned_of if ned_of is not None else functools.cache(ned)
    content, index, shift = _best_shift(p, g, shifts, index_gate, ned_of)
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


# A td as the row-level TEDS reads it: content, rowspan and colspan.
_Td = Union[Cell, TableTree]


def build_table_tree(t: NormalizedTable) -> TableTree:
    """table -> one tr per row -> one td per anchored cell, in col order."""
    rows = [[TableTree("td", content=c.content, rowspan=c.rowspan, colspan=c.colspan) for c in line]
            for line in _lines(t)]
    return TableTree("table", children=[TableTree("tr", children=row) for row in rows])


def _cell_cost(a: _Td, b: _Td, ned_of: Callable[[str, str], float]) -> float:
    """A td relabel: 1.0 across differing spans, else ``1 - ned_of(a content, b content)``."""
    if a.rowspan != b.rowspan or a.colspan != b.colspan:
        return 1.0
    return 1.0 - ned_of(a.content, b.content)


def _substitution_cost(a: TableTree, b: TableTree, ned_of: Callable[[str, str], float]) -> float:
    if a.label != b.label:
        return 1.0
    return _cell_cost(a, b, ned_of) if a.label == "td" else 0.0


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
                            fd[x - 1][y - 1] + _substitution_cost(na[x + ioff], nb[y + joff], ned),
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


def _row_distance(a_rows: Sequence[Sequence[_Td]], b_rows: Sequence[Sequence[_Td]],
                  ned_of: Callable[[str, str], float]) -> float:
    """``tree_edit_distance`` of two table -> tr -> td trees given as rows of tds, bit for bit.

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
      on ``ned`` in floating point.  A match with a tr is bounded by the
      indels every alignment makes (the rows' length difference, or the
      row's length against a td; integers, so exact).
    - Only a diagonal band of the table is filled (Ukkonen's cutoff, as
      Touzet 2005 applies it to trees).  Every indel costs 1 and changes
      a forest's size by 1, and matching subtrees of u and v nodes costs
      at least ``|u - v|``; so with A and B the forests' sizes and
      ``k = A - B``, a script through the prefix pair (x, y) costs at
      least the integer ``|x - y| + |k - (x - y)|``.  A pass with
      threshold t fills the pairs whose bound is at most t and reads
      every other pair, the ``fd[p][q]`` a subtree match reads included,
      as inf; ``min(m, base + cost)`` is the same function of its
      operands whatever they are, so each filled value is at least the
      full table's, and equal to it where the full table's argmin chain
      stays in the band.  The chain to the result D, subtree distances
      included, is fewer than 2**26 rounded additions below 2**26, which
      move D by far less than one unit from the exact sum of its costs;
      so a float D <= t rules out every chain pair with bound >= t + 1,
      and a pass whose result is at most t returns D itself.  Passes
      start at ``t = max(|k|, 1)``.  A finite result is the cost of an
      edit script inside the band, so it bounds D from above, and a wider
      band never gives a larger result: the next pass runs at ``t =
      min(ceil(result), 4 * t)``, so a pass at ``ceil(result)`` is the
      last, and at ``2 * t`` after an inf.  Exactness rests only on the
      exit test, whatever the schedule.
    - Equal rows give 0.0 without a pass: each td relabels onto its copy
      at ``1.0 - ned(x, x) = 0.0`` and each tr onto its copy at 0.0, and
      no cost is negative, so every float on that script is 0.0 and it
      is the minimum.
    """
    if a_rows == b_rows:
        return 0.0
    a_cells = [td for row in a_rows for td in row]
    b_cells = [td for row in b_rows for td in row]

    @functools.cache
    def lower(i: int, j: int) -> float:
        return _cell_cost(a_cells[i], b_cells[j], ned_upper_bound)

    def relax(base: float, m: float, i: int, j: int) -> float:
        if base + lower(i, j) >= m:
            return m
        return min(m, base + _cell_cost(a_cells[i], b_cells[j], ned_of))

    @functools.cache
    def subtree(x: int, y: int) -> float:
        """The distance of a-state x's subtree to b-state y's; kept across
        the band passes."""
        (xs, x_row, _), (ys, y_row, _) = a_states[x], b_states[y]
        distance = _align(xs, ys, relax)
        if x_row == y_row:
            return distance
        return min((len(xs) if x_row else len(ys)) + 1.0, distance + 1.0)

    def match(base: float, m: float, x: int, y: int) -> float:
        """``min(m, base + distance)`` for two subtrees of which one is a tr."""
        (xs, x_row, _), (ys, y_row, _) = a_states[x], b_states[y]
        floor = abs(len(xs) - len(ys)) if x_row == y_row else len(xs) if x_row else len(ys)
        if base + floor >= m:
            return m
        return min(m, base + subtree(x, y))

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
    n_b = len(b_states)
    k = len(a_states) - n_b

    def banded(t: int) -> float:
        """The forest table's last value with only the pairs of bound <= t
        filled; row x keeps its band as (first y, values)."""
        reach = (t - abs(k)) // 2
        low_d, high_d = min(0, k) - reach, max(0, k) + reach  # low_d <= x - y <= high_d
        fd = [(0, [float(y) for y in range(min(n_b, -low_d) + 1)])]
        for x, (xs, x_row, p) in enumerate(a_states, 1):
            first = max(0, x - high_d)
            (up_first, up), (before_first, before) = fd[x - 1], fd[p]
            cur: list[float] = []
            left = math.inf
            for y in range(first, min(n_b, x - low_d) + 1):
                i = y - up_first
                m = min(up[i] + 1.0 if i < len(up) else math.inf, left + 1.0)
                if y:
                    ys, y_row, q = b_states[y - 1]
                    j = q - before_first
                    base = before[j] if 0 <= j < len(before) else math.inf
                    if x_row or y_row:
                        m = match(base, m, x - 1, y - 1)
                    else:
                        m = relax(base, m, xs[0], ys[0])
                cur.append(m)
                left = m
            fd.append((first, cur))
        first, last = fd[-1]
        return last[n_b - first]

    t = max(abs(k), 1)
    while (distance := banded(t)) > t:
        # a finite result is a script's cost, so a band that holds it is enough
        t = min(math.ceil(distance), 4 * t) if distance < math.inf else 2 * t
    return distance


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
        distance = _row_distance(a_rows, b_rows, functools.cache(ned))
    return max(0.0, 1.0 - distance / max(a.size(), b.size()))


def _table_teds(p: NormalizedTable, g: NormalizedTable, ned_of: Callable[[str, str], float]) -> float:
    """``teds`` of the tables' trees computed on their rows, with NEDs from
    ``ned_of(pred content, GT content)``.  A tree is the root, one tr per
    row index and one td per cell."""
    p_rows, g_rows = _lines(p), _lines(g)
    size = max(1 + len(p_rows) + len(p.cells), 1 + len(g_rows) + len(g.cells))
    return max(0.0, 1.0 - _row_distance(p_rows, g_rows, ned_of) / size)
