"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import functools
import json
import random
import time
from pathlib import Path

import pytest

from conftest import (
    rand_grid_table,
    rand_page_pair,
    table_bags,
    to_coord_cells,
    to_html,
    to_rowcol_cells,
    translate_table,
    write_rand_dataset,
)
from oracles import best_assignment, edit_distance_recursive, f_measure, tree_distance_by_mappings
from score_eval.cli import main
from score_eval.hierarchy import NOMATCH, CategoryMap, PreparedPage, build_confusion, match_elements
from score_eval.ingest import (
    CoordCell,
    DocumentPage,
    Element,
    PagePair,
    normalize_coord_cells,
    parse_document,
    parse_table_html,
    parse_table_rowcol,
)
from score_eval.report import RunConfig, evaluate_page
from score_eval.tableeval import (
    NormalizedTable,
    TableTree,
    build_table_tree,
    content_index_accuracy,
    match_tables,
    table_similarity,
    teds,
    tree_edit_distance,
)
from score_eval.textmetrics import (
    content_tokens,
    levenshtein,
    tokenize,
    tokens_added,
    tokens_found,
)

FIXTURES = Path(__file__).parent / "fixtures"


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} ({title}): FAIL")
                raise
            print(f"\n[acceptance] criterion {number} ({title}): PASS")
            return result

        return wrapper

    return decorate


def best_time(fn, repeats=5, warmup=2):
    # CPU time of the pure computation; immune to scheduler preemption,
    # and the minimum over repeats discards residual noise
    for _ in range(warmup):
        fn()
    elapsed = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        elapsed.append(time.process_time() - start)
    return min(elapsed)


def load_pair(name):
    gt = parse_document((FIXTURES / f"{name}_gt.json").read_bytes(), page_id=name)
    pred = parse_document((FIXTURES / f"{name}_pred.json").read_bytes(), page_id=name)
    return PagePair(name, gt, pred)


@criterion(1, "token diagnostics worked example")
def test_criterion_1_token_worked_example():
    gt_bag = tokenize("Q1 $100K Q2 $200K")
    pred_bag = tokenize("Q1 Q2 $100K $300K $100K")
    assert tokens_found(pred_bag, gt_bag) == 0.75
    assert tokens_added(pred_bag, gt_bag) == 0.40
    runtime = best_time(lambda: (tokens_found(pred_bag, gt_bag), tokens_added(pred_bag, gt_bag)), repeats=20)
    assert runtime < 0.001, f"took {runtime * 1e3:.3f} ms"


@criterion(2, "confusion matrix worked example")
def test_criterion_2_confusion_worked_example():
    gt = DocumentPage("c2", [
        Element("title", "Quarterly Report 2024", source_order=0),
        Element("text", "Revenue grew steadily across all segments this year.", source_order=1),
        Element("text", "Operating costs held flat despite expansion.", source_order=2),
        Element("figure", "Chart of revenue by quarter", source_order=3),
    ])
    pred = DocumentPage("c2", [
        Element("title", "Quarterly Report 2024", source_order=0),
        Element("table", "Q1 $100K Q2 $200K", source_order=1),
        Element("text", "Revenue grew steadily across all segments this year.", source_order=2),
    ])
    cmap = CategoryMap.default()

    def build():
        return build_confusion(match_elements(gt, pred, 0.5), gt, pred, cmap)

    matrix = build()
    assert matrix.nonzero_entries() == {
        ("TITLE", "TITLE"): 1,
        ("TEXT", "TEXT"): 1,
        ("TEXT", NOMATCH): 1,
        ("FIGURE", NOMATCH): 1,
        (NOMATCH, "TABLE"): 1,
    }
    runtime = best_time(build, repeats=20)
    assert runtime < 0.001, f"took {runtime * 1e3:.3f} ms"


@criterion(3, "reading-path fixture: raw vs adjusted bands")
def test_criterion_3_reading_path_fixture():
    pair = load_pair("wikimedia")
    cfg = RunConfig()
    report = evaluate_page(pair, cfg)
    raw = report.fidelity.ned
    adjusted = report.fidelity.adjusted_ned
    print(f"\n  measured: raw={raw:.4f} adjusted={adjusted:.4f} gap={adjusted - raw:.4f}")

    # Raw NED compares each system's own serialization, read here straight
    # from the fixture files: the coordinate-cell GT table has none of its
    # own, so it is the cell contents in (y, x) order; the prediction's is
    # its HTML as stored.
    [gt_item] = json.loads((FIXTURES / "wikimedia_gt.json").read_text(encoding="utf-8"))
    [pred_item] = json.loads((FIXTURES / "wikimedia_pred.json").read_text(encoding="utf-8"))
    gt_cells = sorted(gt_item["text"], key=lambda c: (c["y"], c["x"]))
    gt_text = " ".join(c["content"] for c in gt_cells)
    pred_text = pred_item["text"]
    # Each edit changes the length by at most one, so the edit distance is
    # at least len(pred) - len(gt).  The GT text is a subsequence of the
    # HTML, so deleting every other character (the markup) reaches it in
    # exactly that many edits.  The distance is therefore the length gap,
    # and raw NED sits on its ceiling len(gt) / len(pred) = 153 / 1135.
    chars = iter(pred_text)
    assert all(ch in chars for ch in gt_text), "GT cell text is not a subsequence of the HTML"
    assert raw == 1 - (len(pred_text) - len(gt_text)) / len(pred_text)

    # Once normalized, both tables are the same (row, col, rowspan, colspan,
    # content) tuples, so their token-bag overlap is 1.0 and adjusted NED,
    # max(raw, word-weighted alignment), is exactly 1.0.
    cmap = cfg.category_map()
    [gt_elem] = PreparedPage(pair.gt, cfg.tokenizer, cmap).page.elements
    [pred_elem] = PreparedPage(pair.pred, cfg.tokenizer, cmap).page.elements
    assert gt_elem.table is not None and gt_elem.table == pred_elem.table
    assert adjusted == 1.0

    assert adjusted - raw >= 0.3
    runtime = best_time(lambda: evaluate_page(pair, cfg), repeats=3)
    assert runtime < 0.050, f"took {runtime * 1e3:.1f} ms (budget 50 ms)"


@criterion(4, "single-cell fixture: content accuracy beats structure score")
def test_criterion_4_single_cell_fixture():
    pair = load_pair("persona")
    report = evaluate_page(pair, RunConfig())
    table = report.table
    assert table is not None and table.content_acc is not None
    print(f"\n  measured: content={table.content_acc:.4f} teds={table.teds:.4f}")
    assert table.content_acc - table.teds >= 0.2
    runtime = best_time(lambda: evaluate_page(pair, RunConfig()), repeats=3)
    assert runtime < 0.100, f"took {runtime * 1e3:.1f} ms"


@criterion(5, "edit-distance oracle equivalence")
def test_criterion_5_edit_distance_oracle():
    rng = random.Random(20240501)
    mismatches = 0
    for _ in range(10_000):
        a = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        b = "".join(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        if levenshtein(a, b) != edit_distance_recursive(a, b):
            mismatches += 1
    assert mismatches == 0


def _random_structural_tree(rng):
    nodes = [TableTree(rng.choice("xy"))]
    for _ in range(rng.randint(0, 5)):
        parent = rng.choice(nodes)
        child = TableTree(rng.choice("xy"))
        parent.children.append(child)
        nodes.append(child)
    return nodes[0]


def _random_cell_tree(rng):
    root = TableTree("table")
    budget = 5
    while budget > 0 and rng.random() < 0.7:
        tr = TableTree("tr")
        budget -= 1
        for _ in range(rng.randint(0, min(2, budget))):
            tr.children.append(TableTree("td", content=rng.choice(["a", "ab", "b", ""])))
            budget -= 1
        root.children.append(tr)
    return root


@criterion(6, "tree-edit oracle equivalence")
def test_criterion_6_tree_edit_oracle():
    rng = random.Random(20240502)
    for trial in range(500):
        if trial % 2:
            a, b = _random_structural_tree(rng), _random_structural_tree(rng)
        else:
            a, b = _random_cell_tree(rng), _random_cell_tree(rng)
        assert a.size() <= 6 and b.size() <= 6
        got = tree_edit_distance(a, b)
        want = tree_distance_by_mappings(a, b)
        assert got == pytest.approx(want, abs=1e-9)
        sim = teds(a, b)
        assert sim == pytest.approx(max(0.0, 1 - want / max(a.size(), b.size())), abs=1e-9)


@criterion(7, "detection matching oracle equivalence")
def test_criterion_7_detection_oracle():
    rng = random.Random(20240503)
    for _ in range(500):
        gts = [rand_grid_table(rng, 3, 3) for _ in range(rng.randint(0, 4))]
        preds = []
        for _ in range(rng.randint(0, 4)):
            if gts and rng.random() < 0.3:
                preds.append(rng.choice(gts))  # exact copy: forces tie handling
            else:
                preds.append(rand_grid_table(rng, 3, 3))
        tau, beta = 0.4, rng.choice([0.5, 1.0, 2.0])
        result = match_tables(table_bags(preds), table_bags(gts), tau=tau, beta=beta)
        sims = [[table_similarity(p, g) for g in gts] for p in preds]
        want_total, want_count = best_assignment(sims, tau)
        assert result.true_positives == want_count
        assert result.false_positives == len(preds) - want_count
        assert result.false_negatives == len(gts) - want_count
        got_total = sum(sim for _, _, sim in result.pairs)
        assert got_total == pytest.approx(want_total, abs=1e-9)
        want_f = f_measure(want_count, len(preds) - want_count, len(gts) - want_count, beta)
        assert result.f_beta == pytest.approx(want_f, abs=1e-9)


@criterion(8, "shift tolerance recovers uniform translations")
def test_criterion_8_shift_property():
    rng = random.Random(20240504)
    n = 2
    for _ in range(100):
        base = rand_grid_table(rng, 3, 3)
        d_row, d_col = rng.randint(0, n), rng.randint(0, n)
        pred = translate_table(base, d_row, d_col)
        accuracy = content_index_accuracy(pred, base, n)
        assert (accuracy.content_acc, accuracy.index_acc) == (1.0, 1.0)
        assert accuracy.best_shift == (d_row, d_col)
        # translated ground truth recovers the negative shift
        flipped = content_index_accuracy(base, pred, n)
        assert (flipped.content_acc, flipped.index_acc) == (1.0, 1.0)
        assert flipped.best_shift == (-d_row, -d_col)
        if max(d_row, d_col) > 0:
            small = max(d_row, d_col) - 1
            limited = content_index_accuracy(pred, base, small)
            assert limited.index_acc < 1.0


@criterion(9, "format invariance across the three table encodings")
def test_criterion_9_format_invariance():
    rng = random.Random(20240505)
    for _ in range(200):
        table = rand_grid_table(rng, 4, 4)
        partner = translate_table(rand_grid_table(rng, 4, 4), rng.randint(0, 1), 0)
        parses = {
            "html": parse_table_html(to_html(table)),
            "rowcol": parse_table_rowcol(json.dumps(to_rowcol_cells(table))),
            "coord": normalize_coord_cells(
                [CoordCell(c["x"], c["y"], c["w"], c["h"], c["content"])
                 for c in to_coord_cells(table)]
            ),
        }
        assert parses["html"] == parses["rowcol"] == parses["coord"] == table
        scores = set()
        for parsed in parses.values():
            accuracy = content_index_accuracy(parsed, partner, 2)
            scores.add((
                table_similarity(parsed, partner),
                accuracy.content_acc,
                accuracy.index_acc,
                accuracy.best_shift,
                teds(build_table_tree(parsed), build_table_tree(partner)),
            ))
        assert len(scores) == 1  # bit-equal downstream scores


@criterion(10, "global invariant sweep over 1,000 random page pairs")
def test_criterion_10_global_sweep(tmp_path):
    start = time.perf_counter()
    rng = random.Random(20240506)
    pairs = [rand_page_pair(rng, f"page{i:04d}") for i in range(1000)]
    cfg = RunConfig()
    cmap = cfg.category_map()
    reports = [evaluate_page(pair, cfg, cmap) for pair in pairs]

    for pair, report in zip(pairs, reports):
        f = report.fidelity
        for value in (f.ned, f.adjusted_ned, f.tokens_found, f.tokens_added, report.consistency):
            assert 0.0 <= value <= 1.0
        for rate in (f.cer, f.wer):
            assert rate is None or rate >= 0.0
        assert f.adjusted_ned >= f.ned
        if report.table is not None:
            d = report.table.detection
            for value in (d.precision, d.recall, d.f_beta):
                assert 0.0 <= value <= 1.0
            for value in (report.table.content_acc, report.table.index_acc, report.table.teds):
                assert value is None or 0.0 <= value <= 1.0
        # conservation: kept + missed reference tokens add up exactly,
        # on pages prepared as the report prepared them
        gt_bag = content_tokens(pair.gt, cfg.tokenizer)
        pred_bag = content_tokens(pair.pred, cfg.tokenizer)
        kept = sum(min(n, pred_bag.get(t, 0)) for t, n in gt_bag.items())
        missed = sum(max(0, n - pred_bag.get(t, 0)) for t, n in gt_bag.items())
        assert kept + missed == gt_bag.total()
        if gt_bag.total():
            assert f.tokens_found == pytest.approx(kept / gt_bag.total(), abs=1e-12)

    # byte-identical reports whatever --jobs says, on a dataset written to disk
    write_rand_dataset(random.Random(20240507), tmp_path, 120)
    blobs = []
    for jobs in ("1", "2", "4"):
        out = tmp_path / f"out{jobs}"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--out", str(out), "--jobs", jobs])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    elapsed = time.perf_counter() - start
    print(f"\n  sweep over 1000 pages took {elapsed:.1f} s")
    assert elapsed < 60.0
