"""Command-line entry point.

Exit codes: 0 on success, 1 on configuration errors, 2 when no page
pairs could be formed.  Page-level parse problems are reported as
notices and never abort a run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .errors import EmptyDataset, ScoreEvalError
from .ingest import pair_pages
from .report import FLOAT_FIELDS, RunConfig, aggregate, evaluate_pairs, render, write_reports
from .textmetrics import TokenizerConfig

_BOOL_KEYS = {"case_fold", "strip_punct"}
_INT_KEYS = {"shift_n", "jobs"}
_STR_KEYS = {"unicode_normalize", "category_map", "formats"}


class _ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default; this tool reserves 2 for empty datasets
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise _ConfigError(f"expected a boolean, got {value!r}")


def _load_config_file(path: Path) -> dict:
    """Flat key=value file mirroring RunConfig; '#' starts a comment."""
    values: dict = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _ConfigError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in _BOOL_KEYS:
            values[key] = _parse_bool(raw)
        elif key in FLOAT_FIELDS:
            values[key] = float(raw)
        elif key in _INT_KEYS:
            values[key] = int(raw)
        elif key in _STR_KEYS:
            values[key] = raw
        else:
            raise _ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        values = _load_config_file(Path(args.config))

    def pick(cli_value, key, default):
        if cli_value is not None:
            return cli_value
        return values.get(key, default)

    base = RunConfig()
    tokenizer = TokenizerConfig(
        case_fold=values.get("case_fold", base.tokenizer.case_fold),
        strip_punct=values.get("strip_punct", base.tokenizer.strip_punct),
        unicode_normalize=values.get("unicode_normalize", base.tokenizer.unicode_normalize),
    )
    formats = pick(args.format, "formats", "json,csv,markdown" if args.out else "markdown")
    cfg = RunConfig(
        tokenizer=tokenizer,
        shift_n=pick(args.shift_n, "shift_n", base.shift_n),
        det_tau=pick(args.tau, "det_tau", base.det_tau),
        det_beta=pick(args.beta, "det_beta", base.det_beta),
        sim_threshold=values.get("sim_threshold", base.sim_threshold),
        index_gate=values.get("index_gate", base.index_gate),
        diff_epsilon=pick(args.diff_epsilon, "diff_epsilon", base.diff_epsilon),
        category_map_path=pick(args.category_map, "category_map", base.category_map_path),
        formats=tuple(part.strip() for part in formats.split(",") if part.strip()),
    )
    cfg.validate()
    jobs = pick(args.jobs, "jobs", 1)
    if jobs < 1:
        raise _ConfigError(f"jobs must be >= 1, got {jobs}")
    if cfg.category_map_path and not Path(cfg.category_map_path).is_file():
        raise _ConfigError(f"category map not found: {cfg.category_map_path}")
    if args.out:
        out = Path(args.out)
        if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
            raise _ConfigError(f"--out is not a directory: {out}")
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _Parser(
        prog="score-eval",
        description="Evaluate document parsing predictions against ground truth.",
    )
    parser.add_argument("--gt", required=True, help="directory of ground-truth pages")
    parser.add_argument("--pred", required=True, help="directory of predicted pages")
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--out", help="directory for report.json / pages.csv / summary.md")
    parser.add_argument("--format", help="comma list of output formats (json,csv,markdown)")
    parser.add_argument("--shift-n", dest="shift_n", type=int, help="max cell shift tolerance")
    parser.add_argument("--tau", type=float, help="table detection similarity threshold")
    parser.add_argument("--beta", type=float, help="detection F-measure beta")
    parser.add_argument("--diff-epsilon", dest="diff_epsilon", type=float,
                        help="min adjusted-raw gap for a diff page")
    parser.add_argument("--category-map", dest="category_map", help="label mapping file")
    parser.add_argument("--jobs", type=int,
                        help="accepted for compatibility; pages are evaluated one after another")
    args = parser.parse_args(argv)

    try:
        cfg = _build_config(args)
        cmap = cfg.category_map()
    except (_ConfigError, ScoreEvalError, ValueError, OSError) as exc:
        print(f"score-eval: configuration error: {exc}", file=sys.stderr)
        return 1

    gt_dir, pred_dir = Path(args.gt), Path(args.pred)
    for label, directory in (("--gt", gt_dir), ("--pred", pred_dir)):
        if not directory.is_dir():
            print(f"score-eval: {label} is not a directory: {directory}", file=sys.stderr)
            return 1

    try:
        pairs, notices = pair_pages(gt_dir, pred_dir)
    except EmptyDataset as exc:
        print(f"score-eval: {exc}", file=sys.stderr)
        return 2

    for note in notices:
        print(f"score-eval: notice: {note}", file=sys.stderr)

    reports = evaluate_pairs(pairs, cfg, cmap)
    agg = aggregate(reports, cfg, notices)

    if args.out:
        for path in write_reports(agg, reports, args.out):
            print(f"score-eval: wrote {path}", file=sys.stderr)
    else:
        for fmt in cfg.formats:
            sys.stdout.write(render(agg, reports, fmt).decode("utf-8"))
    return 0


def entrypoint() -> None:  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
