"""Command-line entry point.

Exit codes: 0 on success, 1 on configuration errors, 2 when no page
pairs could be formed or none could be evaluated.  Page-level parse
and evaluation problems are reported as notices and never abort a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

from .errors import EmptyDataset, MalformedInput, ScoreEvalError
from .ingest import _read_key_values, pair_pages
from .report import FLOAT_FIELDS, RunConfig, aggregate, evaluate_pairs, render, write_reports
from .textmetrics import TokenizerConfig


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
    raise MalformedInput(f"expected a boolean, got {value!r}")


def _strict(number: Callable[[str], object]) -> Callable[[str], object]:
    """``number`` (``int`` or ``float``) refusing what it reads but a setting
    should not: digit-group underscores and non-ASCII digits.  The reader
    keeps ``number``'s name, which argparse prints for a bad flag value."""

    def read(value: str) -> object:
        if not value.isascii() or "_" in value:
            raise ValueError(f"expected an ASCII number without '_', got {value!r}")
        return number(value)

    read.__name__ = number.__name__
    return read


# Every setting and how a config-file value is read; the flags store
# under the same names, so the file and the flags meet in one dict.
_KEYS: dict[str, Callable[[str], object]] = {
    **dict.fromkeys(FLOAT_FIELDS, _strict(float)),
    "shift_n": _strict(int),
    "jobs": _strict(int),
    "case_fold": _parse_bool,
    "strip_punct": _parse_bool,
    "unicode_normalize": str,
    "category_map": str,
    "formats": str,
}


def _load_config_file(path: Path) -> dict:
    """Flat key=value file mirroring RunConfig; '#' starts a comment."""
    values: dict = {}
    for place, key, raw in _read_key_values(path):
        if key not in _KEYS:
            raise MalformedInput(f"{place}: unknown key {key!r}")
        try:
            values[key] = _KEYS[key](raw)
            _run_config({key: values[key]})
        except (ValueError, ScoreEvalError) as exc:
            raise MalformedInput(f"{place}: {key}: {exc}") from exc
    return values


def _run_config(settings: dict, formats: str = "markdown") -> RunConfig:
    """The validated ``RunConfig`` of these settings (``_KEYS`` names) over
    the defaults, `formats` standing in for an absent ``formats``; a
    value out of range raises ``MalformedInput``."""
    values = dict(settings)
    jobs = values.pop("jobs", 1)
    formats = values.pop("formats", formats)
    base = RunConfig()
    tokenizer = {f.name: values.pop(f.name) for f in dataclasses.fields(TokenizerConfig) if f.name in values}
    # what is left are RunConfig fields under their own names
    cfg = dataclasses.replace(
        base,
        tokenizer=dataclasses.replace(base.tokenizer, **tokenizer),
        category_map_path=values.pop("category_map", base.category_map_path),
        formats=tuple(part.strip() for part in formats.split(",") if part.strip()),
        **values,
    )
    cfg.validate()
    if jobs < 1:
        raise MalformedInput(f"jobs must be >= 1, got {jobs}")
    return cfg


def _build_config(args: argparse.Namespace) -> RunConfig:
    values = _load_config_file(Path(args.config)) if args.config else {}
    values.update((key, value) for key, value in vars(args).items() if key in _KEYS and value is not None)
    cfg = _run_config(values, "json,csv,markdown" if args.out else "markdown")
    if cfg.category_map_path and not Path(cfg.category_map_path).is_file():
        raise MalformedInput(f"category map not found: {cfg.category_map_path}")
    if args.out:
        out = Path(args.out)
        if any(path.exists() and not path.is_dir() for path in (out, *out.parents)):
            raise MalformedInput(f"--out is not a directory: {out}")
    for label, directory in (("--gt", args.gt), ("--pred", args.pred)):
        if not Path(directory).is_dir():
            raise MalformedInput(f"{label} is not a directory: {directory}")
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
    parser.add_argument("--format", dest="formats", help="comma list of output formats (json,csv,markdown)")
    parser.add_argument("--shift-n", dest="shift_n", type=_KEYS["shift_n"], help="max cell shift tolerance")
    parser.add_argument("--tau", dest="det_tau", type=_KEYS["det_tau"], help="table detection similarity threshold")
    parser.add_argument("--beta", dest="det_beta", type=_KEYS["det_beta"], help="detection F-measure beta")
    parser.add_argument("--diff-epsilon", dest="diff_epsilon", type=_KEYS["diff_epsilon"],
                        help="min adjusted-raw gap for a diff page")
    parser.add_argument("--category-map", dest="category_map", help="label mapping file")
    parser.add_argument("--jobs", type=_KEYS["jobs"],
                        help="accepted for compatibility; pages are evaluated one after another")
    args = parser.parse_args(argv)

    try:
        cfg = _build_config(args)
        cmap = cfg.category_map()
    except (ScoreEvalError, ValueError, OSError) as exc:
        print(f"score-eval: configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        pairs, notices = pair_pages(Path(args.gt), Path(args.pred))
    except EmptyDataset as exc:
        print(f"score-eval: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a directory that cannot be listed
        print(f"score-eval: configuration error: {exc}", file=sys.stderr)
        return 1

    reports = evaluate_pairs(pairs, cfg, cmap, notices)
    for note in notices:
        print(f"score-eval: notice: {note}", file=sys.stderr)
    if not reports:
        print("score-eval: no page could be evaluated", file=sys.stderr)
        return 2
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
