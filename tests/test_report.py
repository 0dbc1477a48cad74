import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import rand_page_pair, write_rand_dataset
from score_eval.cli import main
from score_eval.errors import EmptyDataset
from score_eval.ingest import PagePair, parse_document
from score_eval.report import (
    RunConfig,
    aggregate,
    evaluate_page,
    evaluate_pairs,
    render,
    write_reports,
)


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
        # adjusted NED and element matching share one table of element NEDs
        from score_eval import textmetrics

        original = textmetrics.ned
        calls = []

        def counting_ned(s, g):
            calls.append((s, g))
            return original(s, g)

        for name, module in list(sys.modules.items()):
            if name.startswith("score_eval") and getattr(module, "ned", None) is original:
                monkeypatch.setattr(module, "ned", counting_ned)
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

    def test_each_element_is_tokenized_once(self, monkeypatch):
        # table detection reads the token bags of the prepared pages
        from score_eval import textmetrics

        original = textmetrics.tokenize
        calls = []

        def counting_tokenize(text, cfg=textmetrics.DEFAULT_TOKENIZER):
            calls.append(text)
            return original(text, cfg)

        for name, module in list(sys.modules.items()):
            if name.startswith("score_eval") and getattr(module, "tokenize", None) is original:
                monkeypatch.setattr(module, "tokenize", counting_tokenize)
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
        # pages scoring (ned, adjusted) = (0.5, 0.5) and (0.4, 0.6)
        from score_eval.hierarchy import ConfusionMatrix
        from score_eval.report import PageReport
        from score_eval.textmetrics import FidelityScores

        def page_with(ned_value, adj_value, page_id):
            fidelity = FidelityScores(ned_value, adj_value, 1.0, 0.0, 0.0, 0.0)
            return PageReport(page_id, fidelity, None, 1.0, ConfusionMatrix.zeros(), [])

        reports = [page_with(0.5, 0.5, "a"), page_with(0.4, 0.6, "b")]
        agg = aggregate(reports, RunConfig(diff_epsilon=0.01))
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

    def test_bad_config_value_exits_one(self, tmp_path):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        config = tmp_path / "run.cfg"
        config.write_text("det_tau = 7.0\n", encoding="utf-8")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--config", str(config)])
        assert code == 1

    def test_non_finite_beta_exits_one(self, tmp_path):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"),
                     "--beta", "nan", "--format", "json"])
        assert code == 1

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

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, source):
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "gt")
        write_dataset(tmp_path, {"a": PERFECT_ITEMS}, "pred")
        config = tmp_path / "run.cfg"
        config.write_text("jobs = 0\n", encoding="utf-8")
        extra = ["--jobs", "0"] if source == "flag" else ["--config", str(config)]
        code = main(["--gt", str(tmp_path / "gt"), "--pred", str(tmp_path / "pred"), *extra])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "score-eval: configuration error: jobs must be >= 1, got 0"
        ]

    @pytest.mark.parametrize(
        "flag, name",
        [
            ("--config", "absent.cfg"),
            ("--config", "gt"),
            ("--category-map", "latin1_map.txt"),
            ("--out", "taken"),
            ("--out", "taken/reports"),
        ],
        ids=["missing-config", "config-is-a-directory", "non-utf8-category-map",
             "out-is-a-file", "out-under-a-file"],
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
