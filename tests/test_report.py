import dataclasses
import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import rand_page_pair, to_coord_cells, to_html, write_rand_dataset
from oracles import match_elements_ned_tables
from score_eval.cli import main
from score_eval.errors import EmptyDataset
from score_eval.hierarchy import LABELS, PreparedPage
from score_eval.ingest import PagePair, pair_pages, parse_document
from score_eval.report import (
    PageReport,
    RunConfig,
    aggregate,
    evaluate_page,
    evaluate_pairs,
    render,
    write_reports,
)
from score_eval.tableeval import Cell, NormalizedTable


def simple_pair(gt_items, pred_items, page_id="p") -> PagePair:
    return PagePair(
        page_id=page_id,
        gt=parse_document(json.dumps(gt_items), page_id=page_id),
        pred=parse_document(json.dumps(pred_items), page_id=page_id),
    )


PERFECT_ITEMS = [
    {"type": "Title", "text": "Annual Report"},
    {"type": "Text", "text": "Revenue rose in every quarter."},
    {"type": "Table", "text": [
        {"x": 0, "y": 0, "w": 1, "h": 1, "content": "Q1"},
        {"x": 1, "y": 0, "w": 1, "h": 1, "content": "$100K"},
        {"x": 0, "y": 1, "w": 1, "h": 1, "content": "Q2"},
        {"x": 1, "y": 1, "w": 1, "h": 1, "content": "$200K"},
    ]},
]


def count_calls(monkeypatch, module, name) -> list[tuple]:
    """The arguments of every call of ``module.name``, in every score_eval module that binds it."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, bound in list(sys.modules.items()):
        if module_name.startswith("score_eval") and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counting)
    return calls


def count_neds(monkeypatch) -> list[tuple[str, str]]:
    """The (s, g) of every ``ned`` call."""
    from score_eval import textmetrics

    return count_calls(monkeypatch, textmetrics, "ned")


class TestEvaluatePage:
    def test_perfect_page_scores_one(self):
        report = evaluate_page(simple_pair(PERFECT_ITEMS, PERFECT_ITEMS))
        f = report.fidelity
        assert f.ned == 1.0
        assert f.adjusted_ned == 1.0
        assert f.tokens_found == 1.0
        assert f.tokens_added == 0.0
        assert f.cer == 0.0 and f.wer == 0.0
        assert report.table.content_acc == 1.0
        assert report.table.index_acc == 1.0
        assert report.table.teds == 1.0
        assert report.table.detection.f_beta == 1.0
        assert report.consistency == 1.0
        assert report.notices == []

    def test_each_element_pair_ned_is_computed_once(self, monkeypatch):
        # adjusted NED and element matching read the page's one NED source
        calls = count_neds(monkeypatch)
        gt_texts = ["alpha beta gamma", "delta epsilon zeta", "eta theta iota"]
        pred_texts = ["delta epsilon zeda", "alpha beta gamna", "eta theta iotta"]
        pair = simple_pair(
            [{"type": "Text", "text": t} for t in gt_texts],
            [{"type": "Text", "text": t} for t in pred_texts],
        )
        report = evaluate_page(pair)
        assert report.consistency == 1.0
        as_pred_gt = [(s, g) if s in pred_texts else (g, s) for s, g in calls]
        # both greedy passes compute a NED only when its length bound comes
        # first among free pairs: here that is just the three matched pairs
        assert set(as_pred_gt) == set(zip(pred_texts, [gt_texts[1], gt_texts[0], gt_texts[2]]))
        assert len(as_pred_gt) == len(set(as_pred_gt))

    def test_each_string_pair_ned_is_computed_once_per_page(self, monkeypatch):
        # alignment, matching, shift search and TEDS read one NED source
        calls = count_neds(monkeypatch)
        gt_table = [
            {"x": 0, "y": 0, "content": "Q1"}, {"x": 1, "y": 0, "content": "$100K"},
            {"x": 0, "y": 1, "content": "Q2"}, {"x": 1, "y": 1, "content": "$200K"},
        ]
        gt_items = [
            {"type": "Text", "text": "Revenue rose in every quarter."},
            {"type": "Table", "text": gt_table},
            {"type": "Text", "text": "Costs fell in the second half."},
        ]
        pred_items = [
            {"type": "Text", "text": "Revenue rose in every quarter"},
            {"type": "Table", "text": "<table><tr><td>Q1</td><td>$10OK</td></tr>"
                                      "<tr><td>Q2</td><td>$200K</td></tr></table>"},
            {"type": "Text", "text": "Costs fell in the second half!"},
        ]
        report = evaluate_page(simple_pair(gt_items, pred_items))
        assert report.table.detection.true_positives == 1
        assert 0.0 < report.table.teds < 1.0 and report.table.index_acc == 1.0
        # element texts and cell contents alike, each once, as (pred, GT)
        assert ("Revenue rose in every quarter", "Revenue rose in every quarter.") in calls
        assert ("$10OK", "$100K") in calls and ("$100K", "$10OK") not in calls
        assert len(calls) == len(set(calls))

    def test_shift_search_reads_the_page_cache(self, monkeypatch):
        # one public content_index_accuracy call per matched GT table, each
        # with the page's one NED source, a fresh one on the next page
        from score_eval.tableeval import content_index_accuracy

        calls = []

        def spy(p, g, n, index_gate, ned_of=None):
            calls.append((g, ned_of))
            return content_index_accuracy(p, g, n, index_gate, ned_of)

        monkeypatch.setattr("score_eval.report.content_index_accuracy", spy)
        grids = [[["Q1", "$100K"], ["Q2", "$200K"]], [["north", "12"], ["south", "15"]],
                 [["alpha", "bravo"], ["charlie", "delta"]]]

        def table(rows):
            return {"type": "Table", "text": [
                {"x": x, "y": y, "content": text} for y, row in enumerate(rows) for x, text in enumerate(row)
            ]}

        gt_items = [table(rows) for rows in grids]
        # the third GT table is missed
        pred_items = [table(grids[0]), table([["north", "12"], ["south", "51"]])]
        for _ in range(2):
            report = evaluate_page(simple_pair(gt_items, pred_items))
            assert report.table.detection.true_positives == 2
        assert [[c.content for c in g.cells] for g, _ in calls] == [sum(rows, []) for rows in grids[:2]] * 2
        first, second = {id(ned_of) for _, ned_of in calls[:2]}, {id(ned_of) for _, ned_of in calls[2:]}
        assert len(first) == len(second) == 1 and first != second

    def test_matching_and_token_bags_go_through_the_public_functions(self, monkeypatch):
        # one match_elements call with the page's NED cache and detection's
        # table pairs, and two content_tokens calls per page, bound in
        # report's namespace
        from score_eval import report as report_module

        match_elements, content_tokens = report_module.match_elements, report_module.content_tokens
        content_index_accuracy = report_module.content_index_accuracy
        matches, bags, shift_caches = [], [], []

        def match_spy(gt, pred, sim_threshold=0.5, ned_of=None, table_pairs=None):
            matches.append((gt, pred, sim_threshold, ned_of, table_pairs))
            return match_elements(gt, pred, sim_threshold, ned_of, table_pairs)

        def tokens_spy(page, *args):
            bags.append(page)
            return content_tokens(page, *args)

        def shift_spy(p, g, n, index_gate, ned_of=None):
            shift_caches.append(ned_of)
            return content_index_accuracy(p, g, n, index_gate, ned_of)

        monkeypatch.setattr(report_module, "match_elements", match_spy)
        monkeypatch.setattr(report_module, "content_tokens", tokens_spy)
        monkeypatch.setattr(report_module, "content_index_accuracy", shift_spy)
        pred_items = [PERFECT_ITEMS[0], {"type": "Text", "text": "Revenue rose in each quarter."}, PERFECT_ITEMS[2]]
        reports = [evaluate_page(simple_pair(PERFECT_ITEMS, pred_items), RunConfig(sim_threshold=0.4))
                   for _ in range(2)]
        for report in reports:
            assert report.fidelity.tokens_found == 10 / 11 and report.consistency == 1.0
        assert len(matches) == len(shift_caches) == 2 and len(bags) == 4
        for k, (gt, pred, sim_threshold, ned_of, table_pairs) in enumerate(matches):
            assert isinstance(gt, PreparedPage) and isinstance(pred, PreparedPage)
            assert bags[2 * k] is gt and bags[2 * k + 1] is pred
            assert sim_threshold == 0.4
            assert ned_of is shift_caches[k]  # the page's one NED source
            # detection's pairs, as element indices
            detected = [(gt.tables[gi], pred.tables[pi], sim) for pi, gi, sim in reports[k].table.detection.pairs]
            assert list(table_pairs) == detected == [(2, 2, 1.0)]
        assert matches[0][3] is not matches[1][3]
        # a page without a table passes no table pair
        evaluate_page(simple_pair(PERFECT_ITEMS[:2], pred_items[:2]))
        assert matches[2][4] == ()

    def test_a_transposed_table_is_one_element_pair(self):
        # A 12x4 GT table of coordinate cells against its transpose in HTML.
        # The adjusted-NED alignment and detection pair the two tables by
        # their token bags, and element matching takes detection's pair, so
        # the consistency is 1.  Paired by the NED of their row-major flat
        # texts, as before, they stayed unmatched and it was 0.
        words = ("alpha", "bravo", "charlie", "delta")
        cells = [Cell(r, c, 1, 1, f"{word} {r}") for r in range(12) for c, word in enumerate(words)]
        transposed = NormalizedTable.from_cells([Cell(c.col, c.row, 1, 1, c.content) for c in cells])
        pair = simple_pair([{"type": "Table", "text": to_coord_cells(NormalizedTable.from_cells(cells))}],
                           [{"type": "Table", "text": to_html(transposed)}])
        report = evaluate_page(pair)
        assert report.fidelity.adjusted_ned == 1.0
        assert report.table.detection.pairs == ((0, 0, 1.0),)
        assert report.consistency == 1.0
        gt, pred = PreparedPage(pair.gt), PreparedPage(pair.pred)
        assert match_elements_ned_tables(gt, pred) == []

    def test_equal_tables_are_scored_without_a_search(self):
        # An HTML prediction holding the GT's cells is the GT's table, so
        # neither the shift search nor a TEDS band pass runs; one changed
        # cell runs both.  Counted by name through a profile hook, as the
        # band passes are a nested function.
        from score_eval import tableeval

        def calls_of(pred_table: NormalizedTable) -> tuple[Counter, PageReport]:
            pair = simple_pair([{"type": "Table", "text": to_coord_cells(table)}],
                               [{"type": "Table", "text": to_html(pred_table)}])
            calls: Counter = Counter()

            def profile(frame, event, arg):
                if event == "call" and frame.f_code.co_filename == tableeval.__file__:
                    calls[frame.f_code.co_name] += 1

            sys.setprofile(profile)
            try:
                report = evaluate_page(pair)
            finally:
                sys.setprofile(None)
            return calls, report

        table = NormalizedTable.from_cells([Cell(0, 0, 1, 2, "Quarter"), Cell(1, 0, 1, 1, "Q1"),
                                            Cell(1, 1, 1, 1, "$100K"), Cell(2, 0, 1, 1, "Q2"),
                                            Cell(2, 1, 1, 1, "$200K")])
        calls, report = calls_of(table)
        assert calls["_best_shift"] == calls["banded"] == 0, calls
        assert (report.table.content_acc, report.table.index_acc, report.table.teds) == (1.0, 1.0, 1.0)
        changed = NormalizedTable.from_cells([*table.cells[:-1], Cell(2, 1, 1, 1, "$250K")])
        calls, report = calls_of(changed)
        assert calls["_best_shift"] == 1 and calls["banded"] >= 1, calls
        assert report.table.teds < 1.0

    def test_each_element_is_tokenized_once(self, monkeypatch):
        # table detection reads the token bags of the prepared pages
        from score_eval import textmetrics

        calls = count_calls(monkeypatch, textmetrics, "tokenize")
        gt_items = PERFECT_ITEMS + [{"type": "Table", "text": [
            {"x": 0, "y": 0, "w": 1, "h": 1, "content": "Q3"},
            {"x": 1, "y": 0, "w": 1, "h": 1, "content": "$300K"},
        ]}]
        pred_items = PERFECT_ITEMS + [
            {"type": "Table", "text": "<table><tr><td>Q3</td><td>$300K</td></tr></table>"}
        ]
        report = evaluate_page(simple_pair(gt_items, pred_items))
        assert report.table.detection.true_positives == 2
        assert len(calls) == len(gt_items) + len(pred_items)

    def test_each_table_pair_similarity_is_computed_once(self, monkeypatch):
        # detection and the adjusted-NED alignment read one matrix per page
        from score_eval import tableeval, textmetrics

        rng = random.Random(644)
        pairs = [rand_page_pair(rng, f"p{i:03d}") for i in range(300)]
        sims = count_calls(monkeypatch, textmetrics, "bag_similarity")
        detections = count_calls(monkeypatch, tableeval, "match_tables")
        several = 0
        for pair in pairs:
            n_pred, n_gt = (len(PreparedPage(page).tables) for page in (pair.pred, pair.gt))
            sims.clear()
            detections.clear()
            evaluate_page(pair)
            assert len(sims) == n_pred * n_gt
            assert len(detections) == (1 if n_pred or n_gt else 0)
            several += n_pred * n_gt > 1
        assert several > 20

    def test_prediction_without_tables(self):
        pred_items = [item for item in PERFECT_ITEMS if item["type"] != "Table"]
        report = evaluate_page(simple_pair(PERFECT_ITEMS, pred_items))
        assert report.table is not None
        assert report.table.detection.f_beta == 0.0
        assert report.table.detection.false_negatives == 1
        # a missed table scores zero in the per-page accuracy means
        assert report.table.content_acc == 0.0
        assert report.table.teds == 0.0
        # fidelity is still computed
        assert 0.0 < report.fidelity.ned < 1.0

    def test_html_table_prediction_attached(self):
        pred_items = [
            {"type": "Table",
             "text": "<table><tr><td>Q1</td><td>$100K</td></tr>"
                     "<tr><td>Q2</td><td>$200K</td></tr></table>"}
        ]
        gt_items = [PERFECT_ITEMS[2]]
        report = evaluate_page(simple_pair(gt_items, pred_items))
        assert report.table.detection.true_positives == 1
        assert report.table.content_acc == 1.0
        assert report.fidelity.tokens_added == 0.0  # markup is not content
        assert report.fidelity.ned < 1.0  # raw serialization differs

    def test_unparseable_table_markup_is_a_notice(self):
        pred_items = [{"type": "Table", "text": "<p>no table here</p>"}]
        gt_items = [PERFECT_ITEMS[2]]
        report = evaluate_page(simple_pair(gt_items, pred_items))
        assert any("not parsed" in n for n in report.notices)
        assert report.table.detection.false_negatives == 1

    def test_table_block_absent_without_tables(self):
        items = [{"type": "Text", "text": "plain"}]
        report = evaluate_page(simple_pair(items, items))
        assert report.table is None

    def test_empty_pages(self):
        report = evaluate_page(simple_pair([], []))
        assert report.fidelity.ned == 1.0
        assert report.fidelity.adjusted_ned == 1.0
        assert report.fidelity.cer is None  # empty reference, noted
        assert report.consistency == 1.0
        assert any("cer" in n for n in report.notices)

    def test_gt_tables_without_pred_counterparts_score_zero(self):
        gt_items = [PERFECT_ITEMS[2], PERFECT_ITEMS[2]]
        pred_items = [PERFECT_ITEMS[2]]
        report = evaluate_page(simple_pair(gt_items, pred_items))
        # one matched (scores 1), one missed (scores 0) -> mean 0.5
        assert report.table.content_acc == pytest.approx(0.5)
        assert report.table.teds == pytest.approx(0.5)

    def test_mislabeled_table_payload_is_a_notice(self):
        items = [{"type": "Chart", "text": [
            {"x": 0, "y": 0, "w": 1, "h": 1, "content": "Q1"},
        ]}]
        report = evaluate_page(simple_pair(items, items))
        assert any("non-table element" in n for n in report.notices)

    def test_reading_path_fixture_detection(self, fixtures_dir):
        gt = parse_document((fixtures_dir / "wikimedia_gt.json").read_bytes(), page_id="w")
        pred = parse_document((fixtures_dir / "wikimedia_pred.json").read_bytes(), page_id="w")
        report = evaluate_page(PagePair("w", gt, pred))
        assert report.table.detection.true_positives == 1
        assert report.fidelity.adjusted_ned > report.fidelity.ned


class TestRunConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shift_n": -1},
            {"det_tau": 0.0},
            {"det_tau": 1.5},
            {"det_beta": -1.0},
            {"sim_threshold": 2.0},
            {"diff_epsilon": -0.1},
            {"index_gate": 1.5},
            {"det_tau": float("nan")},
            {"det_beta": float("nan")},
            {"det_beta": float("inf")},
            {"sim_threshold": float("nan")},
            {"index_gate": float("inf")},
            {"diff_epsilon": float("nan")},
            {"diff_epsilon": float("inf")},
            {"formats": ("yaml",)},
            {"formats": ()},
            {"det_beta": 1e200},
        ],
    )
    def test_validate_rejects_bad_values(self, kwargs):
        from score_eval.errors import MalformedInput

        with pytest.raises(MalformedInput):
            RunConfig(**kwargs).validate()

    def test_defaults_are_valid(self):
        RunConfig().validate()


class TestAggregate:
    def test_single_perfect_page(self):
        report = evaluate_page(simple_pair(PERFECT_ITEMS, PERFECT_ITEMS))
        agg = aggregate([report], RunConfig())
        assert agg.page_count == 1
        assert agg.means["adjusted_ned"] == 1.0
        assert agg.means["consistency"] == 1.0
        assert agg.diff_count == 0
        assert agg.diff_avg is None

    def test_diff_statistics(self):
        pages = [
            simple_pair([{"type": "Text", "text": "aaaa"}], [{"type": "Text", "text": "aaaa"}], "a"),
            simple_pair(
                [{"type": "Text", "text": "one two"}, {"type": "Text", "text": "three four"}],
                [{"type": "Text", "text": "three four"}, {"type": "Text", "text": "one two"}],
                "b",
            ),
        ]
        reports = evaluate_pairs(pages, RunConfig())
        agg = aggregate(reports, RunConfig(diff_epsilon=0.01))
        gaps = [r.fidelity.adjusted_ned - r.fidelity.ned for r in reports]
        expected = [g for g in gaps if g >= 0.01]
        assert agg.diff_count == len(expected) == 1
        assert agg.diff_avg == pytest.approx(sum(expected) / len(expected))

    def test_diff_arithmetic_on_synthetic_reports(self):
        # pages scoring (ned, adjusted) = (0.5, 0.5) and (0.4, 0.6); a page
        # whose adjusted similarity does not exceed the raw one is no diff
        # page, even at eps 0
        from score_eval.hierarchy import ConfusionMatrix
        from score_eval.report import PageReport
        from score_eval.textmetrics import FidelityScores

        def page_with(ned_value, adj_value, page_id):
            fidelity = FidelityScores(ned_value, adj_value, 1.0, 0.0, 0.0, 0.0)
            return PageReport(page_id, fidelity, None, 1.0, ConfusionMatrix.zeros(), [])

        reports = [page_with(0.5, 0.5, "a"), page_with(0.4, 0.6, "b")]
        for eps in (0.01, 0.0):
            agg = aggregate(reports, RunConfig(diff_epsilon=eps))
            assert agg.diff_count == 1
            assert agg.diff_avg == pytest.approx(0.2)

    def test_diff_count_monotone_in_epsilon(self):
        rng = random.Random(89)
        pairs = [rand_page_pair(rng, f"p{i:03d}") for i in range(40)]
        reports = evaluate_pairs(pairs, RunConfig())
        counts = [
            aggregate(reports, RunConfig(diff_epsilon=eps)).diff_count
            for eps in (0.0, 0.01, 0.05, 0.2, 0.5)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_permutation_invariance(self):
        rng = random.Random(97)
        pairs = [rand_page_pair(rng, f"p{i:03d}") for i in range(10)]
        reports = evaluate_pairs(pairs, RunConfig())
        shuffled = reports[::-1]
        a = aggregate(reports, RunConfig())
        b = aggregate(shuffled, RunConfig())
        assert a.means == b.means and a.diff_count == b.diff_count

    def test_empty_raises(self):
        with pytest.raises(EmptyDataset):
            aggregate([], RunConfig())


class TestRender:
    @pytest.fixture
    def run(self):
        rng = random.Random(101)
        pairs = [rand_page_pair(rng, f"p{i:03d}") for i in range(5)]
        cfg = RunConfig()
        reports = evaluate_pairs(pairs, cfg)
        return aggregate(reports, cfg), reports

    def test_csv_one_row_per_page(self, run):
        agg, reports = run
        lines = render(agg, reports, "csv").decode("utf-8").strip().splitlines()
        assert len(lines) == 1 + len(reports)
        assert lines[0].startswith("Page,Adj. NED,NED,T. Found,T. Added")

    def test_markdown_has_table_one_columns(self, run):
        agg, reports = run
        text = render(agg, reports, "markdown").decode("utf-8")
        for column in ("Adj. NED", "NED", "T. Added", "T. Found", "Diff", "Avg."):
            assert column in text

    def test_json_roundtrip_exact(self, run):
        agg, reports = run
        blob = render(agg, reports, "json")
        parsed = json.loads(blob)
        assert parsed["aggregate"]["page_count"] == len(reports)
        for page_dict, report in zip(parsed["pages"], reports):
            assert page_dict["fidelity"]["ned"] == report.fidelity.ned
            assert page_dict["fidelity"]["adjusted_ned"] == report.fidelity.adjusted_ned
            assert page_dict["consistency"] == report.consistency
        # a second render is byte-identical
        assert render(agg, reports, "json") == blob

        # every object holds its record's fields, in field order
        def names(record):
            return [f.name for f in dataclasses.fields(record)]

        assert list(parsed["aggregate"]) == names(agg)
        assert list(parsed["aggregate"]["run_config"]) == names(agg.run_config)
        assert list(parsed["aggregate"]["run_config"]["tokenizer"]) == names(agg.run_config.tokenizer)
        tables = 0
        for page_dict, report in zip(parsed["pages"], reports, strict=True):
            assert list(page_dict) == names(report)
            assert list(page_dict["fidelity"]) == names(report.fidelity)
            if report.table is not None:
                tables += 1
                assert list(page_dict["table"]) == names(report.table)
                assert list(page_dict["table"]["detection"]) == names(report.table.detection)
            counts = report.confusion.counts
            by_label = {
                LABELS[i]: {LABELS[j]: n for j, n in enumerate(row) if n}
                for i, row in enumerate(counts) if any(row)
            }
            assert json.dumps(page_dict["confusion"]) == json.dumps(by_label)
        assert tables > 0

    def test_write_reports_creates_files(self, run, tmp_path):
        agg, reports = run
        paths = write_reports(agg, reports, tmp_path / "out")
        names = sorted(p.name for p in paths)
        assert names == ["pages.csv", "report.json", "summary.md"]
        for p in paths:
            assert p.stat().st_size > 0


def write_dataset(root, items_by_stem, side):
    directory = root / side
    directory.mkdir(exist_ok=True)
    for stem, items in items_by_stem.items():
        (directory / f"{stem}.json").write_text(json.dumps(items), encoding="utf-8")
    return directory


# Every config-file key: a value other than its default, and the
# run_config field that echoes it (none for jobs, which is only accepted).
EVERY_SETTING = [
    ("det_tau", "0.7", ("det_tau",), 0.7),
    ("det_beta", "2.5", ("det_beta",), 2.5),
    ("sim_threshold", "0.8", ("sim_threshold",), 0.8),
    ("index_gate", "0.25", ("index_gate",), 0.25),
    ("diff_epsilon", "0.2", ("diff_epsilon",), 0.2),
    ("shift_n", "4", ("shift_n",), 4),
    ("jobs", "3", (), None),
    ("case_fold", "no", ("tokenizer", "case_fold"), False),
    ("strip_punct", "yes", ("tokenizer", "strip_punct"), True),
    ("unicode_normalize", "NFKC", ("tokenizer", "unicode_normalize"), "NFKC"),
    ("category_map", "map.txt", ("category_map_path",), "map.txt"),
    ("formats", "json", ("formats",), ["json"]),
]

# Every flag with a config-file twin: the file's value, the flag's value
# and where the flag's value shows.  The file's jobs, category map and
# formats would fail the run or write no report.json on their own.
EVERY_FLAG = [
    ("--tau", "det_tau", "0.7", "0.9", ("det_tau",), 0.9),
    ("--beta", "det_beta", "2.5", "0.5", ("det_beta",), 0.5),
    ("--diff-epsilon", "diff_epsilon", "0.2", "0.3", ("diff_epsilon",), 0.3),
    ("--shift-n", "shift_n", "4", "1", ("shift_n",), 1),
    ("--jobs", "jobs", "3", "2", (), None),
    ("--category-map", "category_map", "absent.txt", "map.txt", ("category_map_path",), "map.txt"),
    ("--format", "formats", "csv", "json", ("formats",), ["json"]),
]


def run_with_config(tmp_path, monkeypatch, config_text, *flags) -> dict:
    """run_config of report.json from a run in tmp_path with this config file and flags."""
    monkeypatch.chdir(tmp_path)
    write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
    write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
    Path("map.txt").write_text("blurb = TEXT\n", encoding="utf-8")
    Path("run.cfg").write_text(config_text, encoding="utf-8")
    code = main(["--gt", "gt", "--pred", "pred", "--config", "run.cfg", "--out", "out", *flags])
    assert code == 0
    return json.loads(Path("out/report.json").read_text(encoding="utf-8"))["aggregate"]["run_config"]


def default_run_config_with(field, value) -> dict:
    """The default run_config of an --out run, with one (nested) field set to a value it does not hold."""
    expected = RunConfig(formats=("json", "csv", "markdown")).to_dict()
    if field:
        *outer, name = field
        holder = expected[outer[0]] if outer else expected
        assert holder[name] != value
        holder[name] = value
    return expected


class TestCli:
    def test_markdown_to_stdout(self, tmp_path, capsys):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--format", "markdown"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Adj. NED" in out

    def test_missing_gt_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pred", "somewhere"])
        assert excinfo.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_empty_dataset_exits_two(self, tmp_path):
        (tmp_path / "gt").mkdir()
        (tmp_path / "pred").mkdir()
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred")])
        assert code == 2

    def test_bad_directory_exits_one(self, tmp_path):
        code = main(["--gt", str(tmp_path / "nope"), "--pred", str(tmp_path / "nope")])
        assert code == 1

    def test_three_pages_write_all_reports(self, tmp_path):
        stems = {f"page{i}": PERFECT_ITEMS for i in range(3)}
        write_dataset(tmp_path, stems, "gt")
        write_dataset(tmp_path, stems, "pred")
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["aggregate"]["page_count"] == 3
        assert len(report["pages"]) == 3
        assert (out / "pages.csv").exists() and (out / "summary.md").exists()

    def test_defaults_come_from_run_config(self, tmp_path):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["aggregate"]["run_config"] == RunConfig(formats=("json", "csv", "markdown")).to_dict()

    def test_config_file_and_flag_precedence(self, tmp_path):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        config = tmp_path / "run.cfg"
        config.write_text("det_tau = 0.7\nshift_n = 1\njobs = 2\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--config", str(config), "--tau", "0.9", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        cfg = report["aggregate"]["run_config"]
        assert cfg["det_tau"] == 0.9  # flag beats config file
        assert cfg["shift_n"] == 1

    @pytest.mark.parametrize("key, raw, field, value", EVERY_SETTING, ids=[row[0] for row in EVERY_SETTING])
    def test_every_config_key_reaches_run_config(self, tmp_path, monkeypatch, key, raw, field, value):
        run_config = run_with_config(tmp_path, monkeypatch, f"{key} = {raw}\n")
        assert run_config == default_run_config_with(field, value)

    @pytest.mark.parametrize("flag, key, file_raw, flag_raw, field, value", EVERY_FLAG,
                             ids=[row[0] for row in EVERY_FLAG])
    def test_every_flag_beats_the_config_file(self, tmp_path, monkeypatch,
                                              flag, key, file_raw, flag_raw, field, value):
        run_config = run_with_config(tmp_path, monkeypatch, f"{key} = {file_raw}\n", flag, flag_raw)
        assert run_config == default_run_config_with(field, value)

    def test_bad_config_value_exits_one(self, tmp_path):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        config = tmp_path / "run.cfg"
        config.write_text("det_tau = 7.0\n", encoding="utf-8")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--config", str(config)])
        assert code == 1

    @pytest.mark.parametrize("line", ["shift_n = 1_0", "det_tau = 0.5_5", "jobs = \u0663"],
                             ids=["int-underscore", "float-underscore", "arabic-indic-digit"])
    def test_config_number_must_be_plain_ascii(self, tmp_path, capsys, line):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--config", str(config), "--format", "json"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        key, raw = line.split(" = ")
        assert captured.err.splitlines() == [
            f"score-eval: configuration error: {config}:1: {key}: expected an ASCII number without '_', got {raw!r}"
        ]

    @pytest.mark.parametrize("line, reason", [
        ("det_tau = x", "could not convert string to float: 'x'"),
        ("shift_n = 1_0", "expected an ASCII number without '_', got '1_0'"),
        ("case_fold = maybe", "expected a boolean, got 'maybe'"),
        ("det_tau = 7.0", "det_tau must be in (0, 1], got 7.0"),
        ("jobs = 0", "jobs must be >= 1, got 0"),
        ("unicode_normalize = NFX", "unicode_normalize must be one of ('none', 'NFC', 'NFKC')"),
        ("shift_n = -1", "shift_n must be >= 0, got -1"),
    ], ids=["float", "int-underscore", "bool", "det_tau-range", "jobs-range", "unicode_normalize-range",
            "shift_n-range"])
    def test_config_value_error_names_its_line(self, tmp_path, capsys, line, reason):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        config = tmp_path / "run.cfg"
        config.write_text(f"# settings\n\n{line}\n", encoding="utf-8")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), "--config", str(config)])
        assert code == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"score-eval: configuration error: {config}:3: {key}: {reason}"
        ]

    @pytest.mark.parametrize("flag, data, reason", [
        ("--category-map", b"# map\n\nfoo = BAR\n", ":3: unknown category 'BAR' for label 'foo'"),
        ("--category-map", b"# map\n\nfoo\n", ":3: expected key=value"),
        ("--category-map", b"foo = TEXT\n\xff\n",
         ": not UTF-8: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
        ("--config", b"det_tau = 0.7\n\xff\n",
         ": not UTF-8: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
    ], ids=["map-category", "map-no-equals", "map-not-utf8", "config-not-utf8"])
    def test_settings_file_error_names_its_place(self, tmp_path, capsys, flag, data, reason):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        settings = tmp_path / "settings.txt"
        settings.write_bytes(data)
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), flag, str(settings)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"score-eval: configuration error: {settings}{reason}"]

    @pytest.mark.parametrize("flag, raw, kind", [("--shift-n", "1_0", "int"), ("--jobs", "\u0663", "int"),
                                                 ("--tau", "0.5_5", "float")])
    def test_flag_number_must_be_plain_ascii(self, tmp_path, capsys, flag, raw, kind):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        with pytest.raises(SystemExit) as excinfo:
            main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), flag, raw])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: score-eval")
        assert err[-1] == f"score-eval: error: argument {flag}: invalid {kind} value: {raw!r}"

    def test_non_finite_beta_exits_one(self, tmp_path):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--beta", "nan", "--format", "json"])
        assert code == 1

    def test_beta_with_infinite_square_exits_one(self, tmp_path, capsys):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--beta", "1e200", "--format", "json"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "score-eval: configuration error: "
            "det_beta must be at most about 1.34e154 (its square must be finite), got 1e+200"
        ]

    def test_unknown_config_key_exits_one(self, tmp_path):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        config = tmp_path / "run.cfg"
        config.write_text("mystery = 1\n", encoding="utf-8")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--config", str(config)])
        assert code == 1

    def test_unmatched_stem_is_a_notice_not_fatal(self, tmp_path, capsys):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS, "b": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--format", "json"])
        assert code == 0
        err = capsys.readouterr().err
        assert "missing prediction: b" in err

    def test_bad_tables_and_duplicate_stems_are_notices_not_fatal(self, tmp_path, capsys):
        overlap = [{"type": "Table", "text": [{"x": 0, "y": 0, "w": 2}, {"x": 1, "y": 0}]}]
        bad_span = [{"type": "Table", "text": [{"row": 0, "col": 0, "rowspan": "two"}]}]
        write_dataset(tmp_path, {"a": PERFECT_ITEMS, "b": overlap, "c": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS, "b": PERFECT_ITEMS, "c": bad_span}, "pred")
        (tmp_path / "pred" / "a.txt").write_text(json.dumps(PERFECT_ITEMS), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        assert "failed to parse ground truth b:" in err
        assert "failed to parse prediction c: element 0: cell 0 needs integer 'rowspan'" in err
        assert "duplicate prediction stem a: kept a.txt, ignored a.json" in err
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [page["page_id"] for page in report["pages"]] == ["a"]
        assert report["pages"][0]["fidelity"]["adjusted_ned"] == 1.0

    @pytest.mark.parametrize("nest", ["[" * 100_000, "[" * 100_000 + "]" * 100_000], ids=["unclosed", "closed"])
    def test_deeply_nested_prediction_is_a_notice(self, tmp_path, capsys, nest):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS, "b": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        (tmp_path / "pred" / "b.json").write_text(nest, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), "--out", str(out)])
        assert code == 0
        assert "notice: failed to parse prediction b: JSON nests too deeply" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [page["page_id"] for page in report["pages"]] == ["a"]

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="no limit on integer string conversion")
    def test_too_long_integer_in_prediction_is_a_notice(self, tmp_path, capsys):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS, "b": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        page = f'[{{"type": "Text", "text": "x", "n": {digits}}}]'
        (tmp_path / "pred" / "b.json").write_text(page, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), "--out", str(out)])
        assert code == 0
        assert "notice: failed to parse prediction b: invalid JSON: " in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [page["page_id"] for page in report["pages"]] == ["a"]

    @staticmethod
    def fail_on(monkeypatch, stems) -> None:
        """Make ``report.evaluate_page`` raise on the pages of these stems."""
        from score_eval import report as report_module

        evaluate = report_module.evaluate_page

        def failing(pair, *args):
            if pair.page_id in stems:
                raise RuntimeError(f"planted failure on {pair.page_id}")
            return evaluate(pair, *args)

        monkeypatch.setattr(report_module, "evaluate_page", failing)

    def test_a_page_that_fails_to_evaluate_is_a_notice(self, tmp_path, capsys, monkeypatch):
        # the failing page is left out; the other pages' reports are the
        # bytes of a run without it
        pages = {"a": PERFECT_ITEMS, "b": PERFECT_ITEMS, "c": PERFECT_ITEMS[:2]}
        for name, stems in (("without-b", ("a", "c")), ("all", ("a", "b", "c"))):
            (tmp_path / name).mkdir()
            write_dataset(tmp_path / name, {stem: pages[stem] for stem in stems}, "gt")
            write_dataset(tmp_path / name, {stem: PERFECT_ITEMS for stem in stems}, "pred")
        assert main(["--gt", str(tmp_path / "without-b" / "gt"), "--pred", str(tmp_path / "without-b" / "pred"),
                     "--out", str(tmp_path / "want")]) == 0
        capsys.readouterr()
        self.fail_on(monkeypatch, {"b"})
        code = main(["--gt", str(tmp_path / "all" / "gt"), "--pred", str(tmp_path / "all" / "pred"),
                     "--out", str(tmp_path / "got")])
        assert code == 0
        note = "failed to evaluate b: RuntimeError: planted failure on b"
        assert f"score-eval: notice: {note}\n" in capsys.readouterr().err
        want, got = (json.loads((tmp_path / side / "report.json").read_text(encoding="utf-8"))
                     for side in ("want", "got"))
        assert got["pages"] == want["pages"] and [p["page_id"] for p in got["pages"]] == ["a", "c"]
        assert got["aggregate"] == {**want["aggregate"], "notices": [note]}
        assert (tmp_path / "got" / "pages.csv").read_bytes() == (tmp_path / "want" / "pages.csv").read_bytes()

    def test_no_page_evaluated_exits_two(self, tmp_path, capsys, monkeypatch):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS, "b": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS, "b": PERFECT_ITEMS}, "pred")
        self.fail_on(monkeypatch, {"a", "b"})
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "failed to evaluate a: RuntimeError: planted failure on a" in err
        assert "failed to evaluate b: RuntimeError: planted failure on b" in err
        assert err.endswith("score-eval: no page could be evaluated\n")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_library_callers_opt_in_to_failure_notices(self, monkeypatch):
        self.fail_on(monkeypatch, {"b"})
        pairs = [simple_pair(PERFECT_ITEMS, PERFECT_ITEMS, stem) for stem in "bac"]
        with pytest.raises(RuntimeError, match="planted failure on b"):
            evaluate_pairs(pairs)
        notices: list[str] = ["earlier notice"]
        reports = evaluate_pairs(pairs, notices=notices)
        assert [r.page_id for r in reports] == ["a", "c"]
        assert notices == ["earlier notice", "failed to evaluate b: RuntimeError: planted failure on b"]

    def test_unreadable_prediction_is_a_notice(self, tmp_path, capsys, monkeypatch):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS, "b": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS, "b": PERFECT_ITEMS}, "pred")
        blocked = tmp_path / "pred" / "b.json"
        read_bytes = Path.read_bytes

        def guarded(path):
            if path == blocked:
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", guarded)
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), "--out", str(out)])
        assert code == 0
        assert "notice: failed to read prediction b: [Errno 13] Permission denied" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [page["page_id"] for page in report["pages"]] == ["a"]

    @pytest.mark.parametrize("flag", ["--gt", "--pred"])
    def test_unlistable_directory_is_a_configuration_error(self, tmp_path, capsys, monkeypatch, flag):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        blocked = tmp_path / flag[2:]
        iterdir = Path.iterdir

        def guarded(path):
            if path == blocked:
                raise PermissionError(13, "Permission denied", str(path))
            return iterdir(path)

        monkeypatch.setattr(Path, "iterdir", guarded)
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"score-eval: configuration error: [Errno 13] Permission denied: '{blocked}'"
        ]
        assert not out.exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="needs a file system that takes any bytes as a name")
    def test_non_utf8_file_name_is_skipped_with_a_notice(self, tmp_path, capsys):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        for side in ("gt", "pred"):
            with open(os.path.join(os.fsencode(tmp_path / side), b"b\xff.json"), "w", encoding="utf-8") as f:
                json.dump(PERFECT_ITEMS, f)
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), "--out", str(out)])
        assert code == 0
        notice = "skipped ground truth file b\\xff.json: name is not UTF-8"
        assert f"notice: {notice}" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [page["page_id"] for page in report["pages"]] == ["a"]
        assert notice in report["aggregate"]["notices"]
        assert (out / "pages.csv").is_file() and (out / "summary.md").is_file()

    def test_jobs_do_not_change_bytes(self, tmp_path):
        write_rand_dataset(random.Random(103), tmp_path, 12)
        blobs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"out{jobs}"
            code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                         "--out", str(out), "--jobs", jobs])
            assert code == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("source", ["flag", "config", "config-under-flag"])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, source):
        # a file value is checked where it is read, so a flag overriding
        # it does not hide it
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        config = tmp_path / "run.cfg"
        config.write_text("jobs = 0\n", encoding="utf-8")
        extra = {"flag": ["--jobs", "0"], "config": ["--config", str(config)],
                 "config-under-flag": ["--config", str(config), "--jobs", "2"]}[source]
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), *extra])
        assert code == 1
        where = "" if source == "flag" else f"{config}:1: jobs: "
        assert capsys.readouterr().err.splitlines() == [
            f"score-eval: configuration error: {where}jobs must be >= 1, got 0"
        ]

    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--config", "absent.cfg"),
            ("--config", "gt"),
            ("--category-map", "latin1_map.txt"),
            ("--out", "taken"),
            ("--out", "taken/reports"),
            ("--gt", "absent"),
            ("--pred", "taken"),
        ],
        ids=["missing-config", "config-is-a-directory", "non-utf8-category-map",
             "out-is-a-file", "out-under-a-file", "gt-is-missing", "pred-is-a-file"],
    )
    def test_unusable_file_is_a_configuration_error(self, tmp_path, capsys, monkeypatch, flag, name):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        (tmp_path / "latin1_map.txt").write_bytes("caf\xe9 = TEXT\n".encode("latin-1"))
        (tmp_path / "taken").write_text("", encoding="utf-8")

        def no_evaluation(*args):
            raise AssertionError("evaluation ran before the configuration was checked")

        monkeypatch.setattr("score_eval.cli.evaluate_pairs", no_evaluation)
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     flag, str(tmp_path / name)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("score-eval: configuration error: ")

    def test_custom_category_map(self, tmp_path):
        gt_items = [{"type": "blurb", "text": "hello world"}]
        write_dataset(tmp_path, {"a": gt_items}, "gt")
        write_dataset(tmp_path, {"a": gt_items}, "pred")
        cmap = tmp_path / "map.txt"
        cmap.write_text("blurb = TEXT\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--category-map", str(cmap), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["pages"][0]["confusion"] == {"TEXT": {"TEXT": 1}}


# Runs in a fresh interpreter: imports the CLI, then scores the wikimedia
# pair, whose table detection goes through the assignment solver.
_IMPORT_PROBE = """
import sys
from pathlib import Path

import score_eval.cli
from score_eval.ingest import PagePair, parse_document
from score_eval.report import evaluate_page

fixtures = Path(sys.argv[1])
gt, pred = (
    parse_document((fixtures / f"wikimedia_{side}.json").read_bytes(), page_id="wikimedia")
    for side in ("gt", "pred")
)
report = evaluate_page(PagePair("wikimedia", gt, pred))
print(report.table.detection.true_positives)
print(sorted(
    name for name in sys.modules if name.partition(".")[0] in ("numpy", "scipy", "concurrent")
))
"""


def test_import_and_evaluation_load_no_numpy_or_scipy(fixtures_dir):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(fixtures_dir)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.splitlines() == ["1", "[]"]


# sha256 of report.json, pages.csv and summary.md rendered in process for the
# benchmark's corpora (page counts as in perfbench/run.py), seeds 1 and 2.
# A change that moves report bytes updates these and says why in CHANGES.md.
_REPORT_DIGESTS = {
    ("small-pages", 1): (
        "30c4645f4706a391da978b5599d71c9b429cdb76a2a64fd093c566f4d45d8b16",
        "2c6e28759105d434396219837c7bcb045e189ac60d47098fdcbacf90d633e287",
        "59155bf16da60bf8048c731e4efdd30e7b81901cfdf8caa40cd9759d909121ec",
    ),
    ("small-pages", 2): (
        "f1552942f3485dc674a344e0f32bb7ebe44c0c4c812a688cb12aeca56fc5508d",
        "cd2f71f0af5ed9a5c9d9f19768a2b2cb671cc49e5fa565bbde128876fa6a3847",
        "ab253b474127dbd8578a06a3aa42c8a03d5be4e1bef1fcdcc842b6e175ef91b9",
    ),
    ("text-pages", 1): (
        "ed59ad32bccbce42b9e72fbd006652633fcd6d6c2b8889c2184267f7bb56a999",
        "cc42cac26a5e2ba46a2ac1a721cf8c187137645f338ada7328fbff04fe878e96",
        "c33fe5af2546db29a8a44fbfd2f021d4a1873abcd158a94ed5dc7909b4a87372",
    ),
    ("text-pages", 2): (
        "d71755c83e4864c9f6cd9c9fde658bd20967ad49d022c1f91e3de222e9c6019f",
        "b64a964e86cbdd4384cc4074be516293f9f2b7582c6d34d8c73f2873cf387e30",
        "12ccf0b93735b87a79ad99f32591d5bd6100ca91b71fbba60d8e3225a5bb4e55",
    ),
    ("table-pages", 1): (
        "19a2cd2e81601d90a3b69f56da95f5b001b95304419f7d1a93e070b3651447e4",
        "d944f59cd3abb75ac43219d95236a55b642af37447b69c508e9ff074c2001607",
        "66905a18d1b6300b3e28947b660e7dabb7218b440af8cf9143cba6f639c1df9e",
    ),
    ("table-pages", 2): (
        "35d5ffff347bc921aaa63822314908313e29fc123dc66baed874854af491abab",
        "ead99c1d912a53fe2aa32cfa33778b494007dee695c2264e6ff65b3b20edbecb",
        "37e35990179f954096b9766cd7e9b921acd2038ea4b24ce506d4b5ac60fcc7d5",
    ),
}


@pytest.mark.parametrize("workload, pages, seed", [
    (workload, pages, seed)
    for workload, pages in (("small-pages", 700), ("text-pages", 12), ("table-pages", 8))
    for seed in (1, 2)
])
def test_benchmark_corpora_render_the_pinned_report_bytes(tmp_path, workload, pages, seed):
    # the benchmark's seeded generator, imported by path and only read
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    files, _ = corpus.make_corpus(workload, seed, pages)
    corpus.write_corpus(files, tmp_path)
    pairs, notices = pair_pages(tmp_path / "gt", tmp_path / "pred")
    cfg = RunConfig()
    reports = evaluate_pairs(pairs, cfg)
    agg = aggregate(reports, cfg, notices)
    digests = tuple(hashlib.sha256(render(agg, reports, fmt)).hexdigest() for fmt in ("json", "csv", "markdown"))
    assert digests == _REPORT_DIGESTS[workload, seed]
