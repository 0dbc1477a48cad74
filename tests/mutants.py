"""Mutation checks: each mutant of the source must make one of its tests fail.

Run from anywhere, with pytest installed::

    python tests/mutants.py

A mutant is one exact piece of source text (a line, or a few lines where
one is not unique) and its replacement.  For each mutant the script
copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the mutant there and runs only the tests it lists.
Before any mutant, the listed tests run once on the unmutated copy and
must pass.  The script exits 1 if a mutant survives (its tests pass), if
its text does not occur exactly once, or if its tests cannot run (a test
id that no longer exists does not count as a kill).  It uses the
standard library only; pytest does not collect it, as its name does not
start with ``test_``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/score_eval
    text: str  # must occur exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids under tests/


INGEST = "tests/test_ingest.py::TestParseTableHtml::"
SHIFT = ("tests/test_tableeval.py::TestContentIndexAccuracy", "tests/test_tableeval.py::TestLazyAxisScores")
TEDS = "tests/test_tableeval.py::TestTeds"
EQUAL = "tests/test_tableeval.py::TestEqualTables::"
PAGE = "tests/test_report.py::TestEvaluatePage::"
MATCH = "tests/test_hierarchy.py::TestMatchElements::"
KERNEL = ("tests/test_textmetrics.py::TestKernelDifferential::test_equals_the_branching_kernel",)

MUTANTS = [
    # edit-distance kernel
    Mutant("kernel: no carry-in of 1", "textmetrics.py",
           "        hp = ((hp << 1) | 1) & width",
           "        hp = (hp << 1) & width",
           KERNEL),
    Mutant("kernel: negative vertical deltas added", "textmetrics.py",
           "    return len(a) + vp.bit_count() - vn.bit_count()",
           "    return len(a) + vp.bit_count() + vn.bit_count()",
           KERNEL),
    Mutant("kernel: an unmasked hn << 1", "textmetrics.py",
           "        hn = (hn << 1) & width",
           "        hn = hn << 1",
           KERNEL),
    Mutant("kernel: vp left out of the hp complement", "textmetrics.py",
           "        hp = vn | ((xh | vp) ^ width)",
           "        hp = vn | (xh ^ width)",
           KERNEL),
    # HTML table layout
    Mutant("layout: skip one covered column only", "ingest.py",
           "                while (r, c) in taken:",
           "                if (r, c) in taken:",
           (INGEST + "test_span_expansion_matches_matrix_oracle",)),
    Mutant("layout: step one column past a cell", "ingest.py",
           "                c += colspan",
           "                c += 1",
           (INGEST + "test_span_expansion_matches_matrix_oracle", INGEST + "test_same_parses_as_the_incremental_parser")),
    Mutant("layout: no row group boundary at an end tag", "ingest.py",
           "            self._close_cell()\n        else:\n            self._top_level_tag(tag)",
           "            self._close_cell()\n        else:\n            self._block_boundary(tag)",
           (INGEST + "test_zero_rowspan_stops_at_the_end_of_its_row_group",)),
    Mutant("layout: a rowspan of 0 read as 1", "ingest.py",
           "                rowspan = rowspan or min(end for end in group_ends if end > r) - r",
           "                rowspan = rowspan or 1",
           (INGEST + "test_zero_rowspan_spans_to_the_end_of_the_table",)),
    Mutant("spans: the two caps swapped", "ingest.py",
           '_SPAN_CAP = {"colspan": 1000, "rowspan": 65534}',
           '_SPAN_CAP = {"colspan": 65534, "rowspan": 1000}',
           (INGEST + "test_spans_parse_as_browsers_do",)),
    Mutant("spans: leading zeros kept", "ingest.py",
           '    digits = match.group(1).lstrip("0")[:6]',
           "    digits = match.group(1)[:6]",
           (INGEST + "test_spans_parse_as_browsers_do",)),
    # shift search
    Mutant("shift: smaller-bound axis scored first", "tableeval.py",
           "        first = 0 if bound(0, shift[0]) >= bound(1, shift[1]) else 1",
           "        first = 1 if bound(0, shift[0]) >= bound(1, shift[1]) else 0",
           SHIFT),
    Mutant("shift: no + 1.0 in the bound key", "tableeval.py",
           "        return -(max(bound(0, shift[0]), bound(1, shift[1])) + 1.0), abs(shift[0]) + abs(shift[1]), shift",
           "        return -max(bound(0, shift[0]), bound(1, shift[1])), abs(shift[0]) + abs(shift[1]), shift",
           SHIFT),
    Mutant("shift: second axis scored on a tie", "tableeval.py",
           "        if bound(1 - first, shift[1 - first]) > content:",
           "        if bound(1 - first, shift[1 - first]) >= content:",
           SHIFT),
    Mutant("shift: second axis never scored", "tableeval.py",
           "        if bound(1 - first, shift[1 - first]) > content:",
           "        if False:",
           SHIFT),
    Mutant("shift: a bound key of content + 0.99", "tableeval.py",
           "        return -(max(bound(0, shift[0]), bound(1, shift[1])) + 1.0), abs(shift[0]) + abs(shift[1]), shift",
           "        return -(max(bound(0, shift[0]), bound(1, shift[1])) + 0.99), abs(shift[0]) + abs(shift[1]), shift",
           SHIFT),
    Mutant("shift: None passed for the page cache", "report.py",
           "            accuracy = content_index_accuracy(p, g, cfg.shift_n, cfg.index_gate, ned_of)",
           "            accuracy = content_index_accuracy(p, g, cfg.shift_n, cfg.index_gate, None)",
           (PAGE + "test_shift_search_reads_the_page_cache",)),
    # equal tables, scored without a search
    Mutant("equal tables: the gate guard dropped", "tableeval.py",
           "    if p == g and index_gate <= 1.0:",
           "    if p == g:",
           (EQUAL + "test_shift_accuracy_equals_the_searches", EQUAL + "test_a_gate_above_one_still_searches")),
    Mutant("equal tables: equal by flat text, which ignores spans", "tableeval.py",
           "    if p == g and index_gate <= 1.0:",
           "    if p.flat_text() == g.flat_text() and index_gate <= 1.0:",
           (EQUAL + "test_tables_alike_but_for_spans_are_searched",)),
    Mutant("equal tables: shift (0, 1) returned", "tableeval.py",
           "        return CellAccuracy(content_acc=1.0, index_acc=1.0, best_shift=(0, 0))",
           "        return CellAccuracy(content_acc=1.0, index_acc=1.0, best_shift=(0, 1))",
           (EQUAL + "test_shift_accuracy_equals_the_searches",)),
    Mutant("equal tables: the shift search run", "tableeval.py",
           "    if p == g and index_gate <= 1.0:",
           "    if False:",
           (PAGE + "test_equal_tables_are_scored_without_a_search",)),
    Mutant("equal tables: equal rows run the band", "tableeval.py",
           "    if a_rows == b_rows:\n        return 0.0\n",
           "",
           (PAGE + "test_equal_tables_are_scored_without_a_search",)),
    # row-level TEDS
    Mutant("teds: no integer floor on a match with a tr", "tableeval.py",
           "        floor = abs(len(xs) - len(ys)) if x_row == y_row else len(xs) if x_row else len(ys)",
           "        floor = 0",
           (TEDS + "::test_row_matches_are_skipped_below_their_integer_floor",)),
    Mutant("teds: subtree distances not kept", "tableeval.py",
           "    @functools.cache\n    def subtree(",
           "    def subtree(",
           (TEDS,)),
    Mutant("teds: a pass accepted at twice its threshold", "tableeval.py",
           "    while (distance := banded(t)) > t:",
           "    while (distance := banded(t)) > 2 * t:",
           (TEDS,)),
    Mutant("teds: a band one step narrower", "tableeval.py",
           "        reach = (t - abs(k)) // 2",
           "        reach = (t - abs(k)) // 2 - 1",
           (TEDS,)),
    Mutant("teds: a first pass at t = 1", "tableeval.py",
           "    t = max(abs(k), 1)",
           "    t = 1",
           (TEDS,)),
    Mutant("teds: t doubled after every pass", "tableeval.py",
           "        t = min(math.ceil(distance), 4 * t) if distance < math.inf else 2 * t",
           "        t *= 2",
           (TEDS + "::test_each_pass_result_sets_the_next_threshold",)),
    # element matching and the confusion matrix
    Mutant("matching: a pair at the threshold not seeded", "hierarchy.py",
           "            if bound >= sim_threshold:",
           "            if bound > sim_threshold:",
           (MATCH + "test_a_pair_at_the_threshold_is_kept",)),
    Mutant("matching: no reading-order gap in the exact key", "hierarchy.py",
           "        return (-score, gap(i, j), i, j) if score >= sim_threshold else None",
           "        return (-score, 0, i, j) if score >= sim_threshold else None",
           (MATCH + "test_equal_scores_prefer_the_nearby_element_once_both_are_computed",)),
    Mutant("greedy: a taken b offered again", "textmetrics.py",
           "        if a in taken_a or b in taken_b:",
           "        if a in taken_a:",
           (MATCH + "test_order_tiebreak_prefers_nearby_elements",
            "tests/test_textmetrics.py::TestLazyGreedy::test_matches_eager_oracle")),
    Mutant("prepare: a prepared page re-prepared with the default tokenizer", "hierarchy.py",
           "        return page if isinstance(page, cls) else cls(page, tokenizer)",
           "        return cls(page.page if isinstance(page, cls) else page, tokenizer)",
           ("tests/test_hierarchy.py::TestPreparedPageOf::test_a_prepared_page_keeps_its_tokenizer_and_category_map",)),
    Mutant("matching: the page cache not passed", "report.py",
           "    matching = match_elements(gt, pred, cfg.sim_threshold, ned_of, table_pairs)",
           "    matching = match_elements(gt, pred, cfg.sim_threshold, None, table_pairs)",
           (PAGE + "test_matching_and_token_bags_go_through_the_public_functions",)),
    Mutant("matching: detection's pairs not passed", "report.py",
           "    matching = match_elements(gt, pred, cfg.sim_threshold, ned_of, table_pairs)",
           "    matching = match_elements(gt, pred, cfg.sim_threshold, ned_of)",
           (PAGE + "test_matching_and_token_bags_go_through_the_public_functions",)),
    Mutant("matching: table-table pairs seeded by NED again", "hierarchy.py",
           "            if j in taken_pred or (i in gt_tables and j in pred_tables):",
           "            if j in taken_pred:",
           (MATCH + "test_no_ned_between_two_tables",)),
    Mutant("matching: detection pairs ignored", "hierarchy.py",
           "    return sorted([*table_pairs, *((i, j, -key[0]) for key, i, j in",
           "    return sorted([*((i, j, -key[0]) for key, i, j in",
           (MATCH + "test_agrees_with_the_ned_table_matcher_on_seeded_pages",
            PAGE + "test_a_transposed_table_is_one_element_pair")),
    Mutant("consistency: NOMATCH scored as a category", "hierarchy.py",
           "    for k, _ in enumerate(CATEGORIES):",
           "    for k, _ in enumerate(LABELS):",
           ("tests/test_hierarchy.py::TestConsistencyScore::test_worked_example_macro_f1",)),
    Mutant("confusion: an unmatched prediction in the GT row", "hierarchy.py",
           "            matrix.add(NOMATCH, cmap.category(p.raw_label))",
           "            matrix.add(cmap.category(p.raw_label), NOMATCH)",
           ("tests/test_hierarchy.py::TestBuildConfusion::test_empty_gt_all_nomatch_row",)),
    # one table similarity matrix per page
    Mutant("tables: match_tables not given the page matrix", "report.py",
           "cfg.det_tau, cfg.det_beta, table_sims",
           "cfg.det_tau, cfg.det_beta",
           (PAGE + "test_each_table_pair_similarity_is_computed_once",)),
    Mutant("tables: matrix rows zipped against the GT's indices", "textmetrics.py",
           "        for i, row in zip(pred.tables, table_sims)",
           "        for i, row in zip(gt.tables, table_sims)",
           ("tests/test_textmetrics.py::TestAdjustedNed::test_alignment_reads_the_table_matrix_as_the_per_pair_oracle",)),
    # reports and settings
    Mutant("diff pages: gap > 0 dropped", "report.py",
           "            if gap > 0.0 and gap >= cfg.diff_epsilon]",
           "            if gap >= cfg.diff_epsilon]",
           ("tests/test_report.py::TestAggregate::test_diff_arithmetic_on_synthetic_reports",)),
    Mutant("settings: lines counted from 0", "ingest.py",
           "    for lineno, line in enumerate(text.splitlines(), start=1):",
           "    for lineno, line in enumerate(text.splitlines()):",
           ("tests/test_report.py::TestCli::test_config_value_error_names_its_line",
            "tests/test_report.py::TestCli::test_settings_file_error_names_its_place")),
]


def _copy_tree(work: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")


def _pytest(work: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=work, capture_output=True, text=True)


def _tail(result: subprocess.CompletedProcess) -> str:
    return "\n".join((result.stdout + result.stderr).strip().splitlines()[-5:])


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="score-eval-mutants-") as tmp:
        baseline = Path(tmp) / "baseline"
        _copy_tree(baseline)
        listed = tuple(dict.fromkeys(test for m in MUTANTS for test in m.tests))
        result = _pytest(baseline, listed)
        if result.returncode != 0:
            print(f"the listed tests fail without any mutant:\n{_tail(result)}")
            return 1
        for i, mutant in enumerate(MUTANTS):
            work = Path(tmp) / f"mutant-{i}"
            _copy_tree(work)
            path = work / "src" / "score_eval" / mutant.file
            source = path.read_text(encoding="utf-8")
            count = source.count(mutant.text)
            if count != 1:
                failures.append(f"{mutant.name}: its text occurs {count} times in {mutant.file}")
                continue
            path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
            result = _pytest(work, mutant.tests)
            if result.returncode == 0:
                failures.append(f"{mutant.name}: survived {', '.join(mutant.tests)}")
            elif result.returncode != 1:  # 1 is failed tests; the rest is an error
                failures.append(f"{mutant.name}: tests did not run (pytest exit {result.returncode}):\n"
                                f"{_tail(result)}")
            else:
                print(f"killed: {mutant.name}")
            shutil.rmtree(work)
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
