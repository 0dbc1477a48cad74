"""Seeded corpus generators for the benchmark workloads.

Each generator maps (seed, size) to a dict of relative path -> file
bytes under ``gt/`` and ``pred/``.  Nothing here imports the program or
its test suite: the program under test receives only the written files.
The same seed always yields byte-identical files; ``corpus_digest``
makes that checkable.  The seed picks words, labels and letters; sizes,
positions and edits come from a stream that is the same for every seed
(see ``Draw``).

Every generated table is a gap-free, non-overlapping grid with integer
spans.  Inputs that abort a whole CLI run today (overlapping coordinate
cells, non-integer ``w``/``h``/spans) are left out on purpose: they are
a known defect, not a passing case, and would fail every page.
"""

from __future__ import annotations

import hashlib
import html
import json
import random
from pathlib import Path

# Vocabulary of the small test-style pages (the same word and label
# distribution as the test suite's random page pairs).
WORDS = (
    "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima "
    "mike november oscar papa quebec romeo sierra tango uniform victor whiskey "
    "revenue total q1 q2 q3 q4 2024 2025 $100K $200K 15% north south east west"
).split()

LABELS = (
    "Title", "sub-heading", "Text", "NarrativeText", "paragraph", "List",
    "ListItem", "Figure", "Image", "Caption", "Header", "Footer", "Formula",
    "CustomLabel",
)

# Prose vocabulary: deterministic one- and two-syllable pseudo-words, so
# long pages are not dominated by a handful of repeated tokens.
_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "de", "pa", "gri", "mon", "tel", "far", "qui")
PROSE_WORDS = _SYLLABLES + tuple(a + b for a in _SYLLABLES for b in _SYLLABLES)

# One planted bad stem (missing or truncated prediction) per this many pages.
BAD_STEM_EVERY = 50
TYPO_RATES = (0.0, 0.01, 0.03, 0.08)
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _dump(items: list) -> bytes:
    return (json.dumps(items, ensure_ascii=False) + "\n").encode("utf-8")


class Draw:
    """The two random streams of a generator.

    ``shape`` draws every size, position and edit (element and word
    counts, tables and spans, drops, flips, shifts, moves, where typos
    fall) and is the same for every seed; ``pick``, seeded, draws the
    words, labels and letters.  So the seed changes every file but not
    what a page costs: with shapes drawn from the seed, the median page
    of a small-pages corpus moved by up to a third between seeds.
    """

    def __init__(self, name: str, seed: int) -> None:
        self.shape = random.Random(f"{name}:shape")
        self.pick = random.Random(f"{name}:{seed}")

    def words(self, lo: int, hi: int, vocab: tuple = WORDS) -> str:
        return " ".join(self.pick.choice(vocab) for _ in range(self.shape.randint(lo, hi)))


# -- tables as (row, col, rowspan, colspan, content) tuples ------------------

def _grid_cells(d: Draw, rows: int, cols: int) -> list[tuple]:
    return [(r, c, 1, 1, f"{d.words(1, 3)} {r}{c}") for r in range(rows) for c in range(cols)]


def _span_cells(d: Draw, rows: int, cols: int) -> list[tuple]:
    """Gap-free, non-overlapping layout with occasional row/col spans."""
    taken: set[tuple[int, int]] = set()
    cells = []
    for r in range(rows):
        c = 0
        while c < cols:
            if (r, c) in taken:
                c += 1
                continue
            free = 0
            while c + free < cols and (r, c + free) not in taken:
                free += 1
            colspan = d.shape.randint(2, 3) if d.shape.random() < 0.1 else 1
            rowspan = d.shape.randint(2, 3) if d.shape.random() < 0.08 else 1
            colspan = min(colspan, free)
            rowspan = min(rowspan, rows - r)
            cells.append((r, c, rowspan, colspan, d.words(1, 3)))
            for rr in range(r, r + rowspan):
                for cc in range(c, c + colspan):
                    taken.add((rr, cc))
            c += colspan
    return cells


def _translate(cells: list[tuple], d_row: int, d_col: int) -> list[tuple]:
    return [(r + d_row, c + d_col, rs, cs, t) for r, c, rs, cs, t in cells]


def to_coord(cells: list[tuple]) -> list[dict]:
    return [{"x": c, "y": r, "w": cs, "h": rs, "content": t} for r, c, rs, cs, t in cells]


def to_html(cells: list[tuple], pad: bool = False) -> str:
    """Row-major table markup.

    Without ``pad`` a column translation is lost on parsing, as in the
    test suite's serializer; with it, each row starts with empty cells
    up to its first occupied column, so the translation survives.
    """
    by_row: dict[int, list[tuple]] = {}
    for cell in cells:
        by_row.setdefault(cell[0], []).append(cell)
    covered = {(rr, cc) for r, c, rs, cs, _ in cells for rr in range(r, r + rs) for cc in range(c, c + cs)}
    n_rows = max((r for r, _ in covered), default=-1) + 1
    parts = ["<table>"]
    for row in range(n_rows):
        parts.append("<tr>")
        anchored = sorted(by_row.get(row, []), key=lambda x: x[1])
        if pad and anchored:
            lead = 0
            while (row, lead) not in covered:
                lead += 1
            parts.append("<td></td>" * lead)
        for _, _, rs, cs, text in anchored:
            attrs = (f' rowspan="{rs}"' if rs != 1 else "") + (f' colspan="{cs}"' if cs != 1 else "")
            parts.append(f"<td{attrs}>{html.escape(text)}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def _typo(d: Draw, text: str, rate: float) -> str:
    """Substitute, insert or delete letters at the given per-character rate."""
    if rate <= 0.0:
        return text
    # One draw from the shape stream per call: the text's length comes
    # from the seed, and must not move the shapes drawn after it.
    where = random.Random(d.shape.random())
    out = []
    for ch in text:
        if where.random() >= rate:
            out.append(ch)
            continue
        kind = where.randrange(3)
        if kind == 0:
            out.append(d.pick.choice(_LETTERS))            # substitution
        elif kind == 1:
            out.append(ch + d.pick.choice(_LETTERS))       # insertion
        # kind 2: deletion
    return "".join(out)


# -- small-pages: test-style pages -------------------------------------------

def _small_items(d: Draw) -> list[dict]:
    items = []
    for _ in range(d.shape.randint(0, 5)):
        if d.shape.random() < 0.25:
            cells = _grid_cells(d, d.shape.randint(1, 3), d.shape.randint(1, 3))
            items.append({"type": "Table", "text": to_coord(cells)})
        else:
            items.append({"type": d.pick.choice(LABELS), "text": d.words(1, 8)})
    return items


def _small_perturb(d: Draw, items: list[dict]) -> list[dict]:
    """Drops, relabels, text corruption, HTML flips, translations, shuffles."""
    out = []
    for item in items:
        roll = d.shape.random()
        if roll < 0.1:
            continue
        item = dict(item)
        if roll < 0.2:
            item["type"] = d.pick.choice(LABELS)
        if isinstance(item["text"], str):
            if roll < 0.35:
                item["text"] = item["text"] + " " + d.words(1, 2)
            elif roll < 0.45:
                item["text"] = d.words(1, 8)
        else:
            flip = d.shape.random()
            cells = [(c["y"], c["x"], c["h"], c["w"], c["content"]) for c in item["text"]]
            if flip < 0.3:
                cells = _translate(cells, d.shape.randint(0, 2), d.shape.randint(0, 2))
            item = {"type": item["type"], "text": to_html(cells) if flip < 0.5 else to_coord(cells)}
        out.append(item)
    if len(out) > 1 and d.shape.random() < 0.3:
        d.shape.shuffle(out)
    if d.shape.random() < 0.15:
        out.append({"type": d.pick.choice(LABELS), "text": d.words(1, 8)})
    return out


def small_pages(seed: int, pages: int) -> dict[str, bytes]:
    """Test-style pages: at most five elements, 3x3 coordinate-cell tables."""
    d = Draw("small-pages", seed)
    files: dict[str, bytes] = {}
    for i in range(pages):
        stem = f"p{i:05d}"
        gt_items = _small_items(d)
        files[f"gt/{stem}.json"] = _dump(gt_items)
        files[f"pred/{stem}.json"] = _dump(_small_perturb(d, gt_items))
    return files


def _spread(lo: int, hi: int, n: int) -> list[int]:
    """n whole numbers spread evenly over [lo, hi]."""
    return [lo + (k * (hi - lo)) // max(1, n - 1) for k in range(n)]


# -- text-pages: long prose ----------------------------------------------------

def _paragraph(d: Draw, n_words: int) -> str:
    words = d.words(n_words, n_words, PROSE_WORDS)
    return words[0].upper() + words[1:] + "."


def text_pages(seed: int, pages: int) -> dict[str, bytes]:
    """Prose pages with one small table; typos and reading-path moves.

    Paragraph counts (8-12) and lengths (10-60 words), typo rates and
    moves follow the page index.
    """
    d = Draw("text-pages", seed)
    files: dict[str, bytes] = {}
    for i in range(pages):
        stem = f"t{i:05d}"
        lengths = _spread(10, 60, 8 + (i * 4) // max(1, pages - 1))
        d.shape.shuffle(lengths)
        paragraphs = [_paragraph(d, n) for n in lengths]
        cells = _grid_cells(d, 3, 3)
        at = d.shape.randint(1, len(paragraphs) - 1)
        rate = TYPO_RATES[i % len(TYPO_RATES)]
        move = (i + i // len(TYPO_RATES)) % 2 == 1

        gt = [{"type": "Title", "text": paragraphs[0][:40]}]
        gt += [{"type": "Text", "text": p} for p in paragraphs[1:at]]
        gt.append({"type": "Table", "text": to_coord(cells)})
        gt += [{"type": "Text", "text": p} for p in paragraphs[at:]]

        pred = [dict(item) for item in gt]
        for item in pred:
            if isinstance(item["text"], str):
                item["text"] = _typo(d, item["text"], rate)
        pred[at] = {"type": "Table", "text": to_html([c[:4] + (_typo(d, c[4], rate),) for c in cells])}
        if move:
            lo = d.shape.randint(1, len(pred) - 6)
            block = pred[lo:lo + d.shape.randint(3, 5)]
            rest = pred[:lo] + pred[lo + len(block):]
            dest = d.shape.randint(1, len(rest))
            pred = rest[:dest] + block + rest[dest:]
        files[f"gt/{stem}.json"] = _dump(gt)
        files[f"pred/{stem}.json"] = _dump(pred)
    return files


# -- table-pages: several spanned tables ---------------------------------------

def table_pages(seed: int, pages: int) -> dict[str, bytes]:
    """2-3 spanned tables per page; GT coordinate cells, prediction HTML.

    Table sizes (8-14 rows, 4-7 columns) cycle with the table index, and
    so do the missing (1 in 7) and shifted (3 in 10) tables and the pages
    with a spurious table (1 in 4).
    """
    d = Draw("table-pages", seed)
    shifts = ((1, 0), (2, 0), (0, 1), (0, 2), (1, 1))
    files: dict[str, bytes] = {}
    t = 0
    for i in range(pages):
        stem = f"b{i:05d}"
        gt = [{"type": "Title", "text": d.words(3, 6)}]
        pred = [dict(gt[0])]
        for k in range(2 + i % 2):
            caption = {"type": "Caption", "text": f"Table {k + 1}: {d.words(4, 10)}"}
            cells = _span_cells(d, 8 + (t * 3) % 7, 4 + (t * 3) % 4)
            gt += [caption, {"type": "Table", "text": to_coord(cells)}]
            pred.append(dict(caption))
            if t % 7 != 3:  # else the table is missing from the prediction
                noisy = [(r, c, rs, cs, _typo(d, text, 0.05)) for r, c, rs, cs, text in cells]
                if t % 10 in (1, 4, 7):
                    noisy = _translate(noisy, *shifts[t % len(shifts)])
                pred.append({"type": "Table", "text": to_html(noisy, pad=True)})
            t += 1
        if i % 4 == 2:
            spurious = _span_cells(d, d.shape.randint(3, 6), d.shape.randint(2, 4))
            pred.append({"type": "Table", "text": to_html(spurious)})
        files[f"gt/{stem}.json"] = _dump(gt)
        files[f"pred/{stem}.json"] = _dump(pred)
    return files


CORPORA = {
    "small-pages": small_pages,
    "text-pages": text_pages,
    "table-pages": table_pages,
}


def make_corpus(name: str, seed: int, pages: int) -> tuple[dict[str, bytes], list[str]]:
    """``pages`` good pairs plus one planted bad stem per BAD_STEM_EVERY pages (at least one).

    A planted stem copies a good page's ground truth; its prediction is
    truncated JSON or missing, alternately, so the CLI must skip it with
    a notice.  Returns the files and the planted stems.
    """
    files = CORPORA[name](seed, pages)
    gt_names = sorted(n for n in files if n.startswith("gt/"))
    bad = []
    for k in range(max(1, pages // BAD_STEM_EVERY)):
        source = gt_names[(k * BAD_STEM_EVERY + BAD_STEM_EVERY // 2) % len(gt_names)]
        stem = source[3:-len(".json")] + "x"
        files[f"gt/{stem}.json"] = files[source]
        if k % 2 == 0:
            pred = files["pred/" + source[3:]]
            files[f"pred/{stem}.json"] = pred[: len(pred) // 2]
        bad.append(stem)
    return files, bad


def corpus_digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode("utf-8") + b"\0" + hashlib.sha256(files[name]).digest())
    return h.hexdigest()


def write_corpus(files: dict[str, bytes], root: Path) -> None:
    for sub in ("gt", "pred"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        (root / name).write_bytes(payload)


def read_corpus(root: Path) -> dict[str, bytes]:
    return {
        f"{sub}/{p.name}": p.read_bytes()
        for sub in ("gt", "pred")
        for p in sorted((root / sub).iterdir())
    }
