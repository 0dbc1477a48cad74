"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions of the ``score_eval`` modules in every
module namespace that binds them: ``report`` imports ``ned`` and friends
by name, and ``textmetrics``, ``tableeval`` and ``hierarchy`` each call
their own global ``ned``, so patching one namespace would miss calls.
Each call becomes a span (name, start, end, parent span, page id) kept
in memory; ``summarize`` turns the spans into per-layer metrics after
the run.  A hook point that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Optional

LAYERS = ("cli", "ingest", "report", "textmetrics", "tableeval", "hierarchy")


def _page_of_pair(args, kwargs):
    pair = args[0] if args else kwargs.get("pair")
    return getattr(pair, "page_id", None)


def _page_kwarg(args, kwargs):
    return kwargs.get("page_id") if "page_id" in kwargs else (args[2] if len(args) > 2 else None)


def _len_product(args, kwargs, result):
    return len(args[0]) * len(args[1])


def _input_bytes(args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    return len(data.encode("utf-8")) if isinstance(data, str) else len(data)


def _tree_pairs(args, kwargs, result):
    return args[0].size() * args[1].size()


def _result_len(args, kwargs, result):
    return len(result)


# (layer, function, page id of the call, work measure of the call)
HOOKS: tuple[tuple[str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("cli", "main", None, None),
    ("ingest", "pair_pages", None, None),
    ("ingest", "parse_document", _page_kwarg, _input_bytes),
    ("ingest", "parse_table_html", None, None),
    ("report", "evaluate_pairs", None, None),
    ("report", "evaluate_page", _page_of_pair, None),
    ("report", "aggregate", None, None),
    ("report", "write_reports", None, None),
    ("textmetrics", "levenshtein", None, _len_product),
    ("textmetrics", "ned", None, None),
    ("textmetrics", "cer", None, None),
    ("textmetrics", "wer", None, None),
    ("textmetrics", "adjusted_ned", None, None),
    ("textmetrics", "content_tokens", None, None),
    ("textmetrics", "tokenize", None, None),
    ("tableeval", "match_tables", None, None),
    ("tableeval", "content_index_accuracy", None, None),
    ("tableeval", "teds", None, _tree_pairs),
    ("tableeval", "tree_edit_distance", None, None),
    ("hierarchy", "match_elements", None, _result_len),
    ("hierarchy", "build_confusion", None, None),
    ("hierarchy", "consistency_score", None, None),
)

NAMES = tuple(f"{layer}.{fn}" for layer, fn, _, _ in HOOKS)


class Tracer:
    """Installs span-recording wrappers; ``remove`` restores the originals."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, hook, start, end, parent, page, work)
        self.bindings: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = (
                self._main_stack if threading.current_thread() is threading.main_thread() else []
            )
        return stack

    def _wrap(self, hook: int, fn, page_of, work_of):
        spans, ids, clock, stack_of, main_stack = (
            self.spans, self._ids, time.perf_counter, self._stack, self._main_stack
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            # a worker thread's first span hangs under the span that is
            # open on the main thread (evaluate_pairs for a thread pool)
            parent, page = (stack or main_stack or [(None, None)])[-1]
            if page_of is not None:
                page = page_of(args, kwargs)
            span_id = next(ids)
            stack.append((span_id, page))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = work_of(args, kwargs, result) if work_of is not None and result is not None else 0
                spans.append((span_id, hook, start, end, parent, page, work))

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "score_eval" or name.startswith("score_eval."))]
        for hook, (layer, fn_name, page_of, work_of) in enumerate(HOOKS):
            home = sys.modules.get(f"score_eval.{layer}")
            original = getattr(home, fn_name, None) if home is not None else None
            name = NAMES[hook]
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(hook, original, page_of, work_of)
            bound = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        bound.append(f"{module.__name__}.{attr}")
            self.bindings[name] = bound

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, start, end, parent, page, work."""
        with path.open("w", encoding="utf-8") as out:
            for span_id, hook, start, end, parent, page, work in sorted(self.spans):
                out.write(json.dumps({
                    "id": span_id, "name": NAMES[hook], "start": start, "end": end,
                    "parent": parent, "page": page, "work": work,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# Per-layer metrics reported by a traced run: name -> unit.
LAYER_METRICS = {
    "ingest.pair_pages_s": "s",
    "ingest.parse_document_calls": "count",
    "ingest.bytes_read": "bytes",
    "ingest.parse_table_html_s": "s",
    "ingest.parse_table_html_calls": "count",
    "report.evaluate_page_s": "s",
    "report.evaluate_page_self_s": "s",
    "report.write_reports_s": "s",
    "report.aggregate_s": "s",
    "report.evaluate_pairs_busy_ratio": "ratio",
    "textmetrics.levenshtein_s": "s",
    "textmetrics.levenshtein_calls": "count",
    "textmetrics.levenshtein_cells": "count",
    "textmetrics.ned_calls": "count",
    "textmetrics.cer_s": "s",
    "textmetrics.wer_s": "s",
    "textmetrics.adjusted_ned_s": "s",
    "textmetrics.adjusted_ned_ned_calls": "count",
    "textmetrics.content_tokens_s": "s",
    "textmetrics.tokenize_calls": "count",
    "tableeval.match_tables_s": "s",
    "tableeval.content_index_accuracy_s": "s",
    "tableeval.content_index_accuracy_ned_calls": "count",
    "tableeval.teds_s": "s",
    "tableeval.tree_edit_distance_self_s": "s",
    "tableeval.teds_node_pairs": "count",
    "hierarchy.match_elements_s": "s",
    "hierarchy.match_elements_ned_calls": "count",
    "hierarchy.match_elements_yield": "ratio",
    "hierarchy.build_confusion_s": "s",
    "hierarchy.consistency_score_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.owned_s": "s" for layer in LAYERS},
    "trace.hooks_missing": "count",
    "trace.overhead_ratio": "ratio",
}

# Metrics that count work; they must repeat exactly across traced passes.
COUNT_METRICS = tuple(
    name for name, unit in LAYER_METRICS.items()
    if unit in ("count", "bytes") and name != "trace.hooks_missing"
)


GLUE = ("cli", "report")


def summarize(spans: list[tuple], jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (everything but the overhead).

    Self time is a span's duration minus the time its children cover.
    Owned time gives each span's self time to the layer that the glue
    (cli, report) called into: ``ned`` inside ``teds`` is owned by
    tableeval, ``ned`` inside ``match_elements`` by hierarchy.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] in by_id:
            children[span[4]].append((span[2], span[3]))
    hook_id = {name: i for i, name in enumerate(NAMES)}
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    layer_self = defaultdict(float)
    layer_owned = defaultdict(float)
    owner: dict[int, str] = {}

    def owner_of(span: tuple) -> str:
        first, chain = span[0], []
        while span[0] not in owner:
            layer = HOOKS[span[1]][0]
            parent = by_id.get(span[4])
            if layer in GLUE or parent is None or HOOKS[parent[1]][0] in GLUE:
                owner[span[0]] = layer
                break
            chain.append(span[0])
            span = parent
        for span_id in chain:
            owner[span_id] = owner[span[0]]
        return owner[first]

    ned_under = defaultdict(int)
    watched = {hook_id[n] for n in ("textmetrics.adjusted_ned", "tableeval.content_index_accuracy",
                                    "hierarchy.match_elements")}
    ned = hook_id["textmetrics.ned"]
    for span in spans:
        span_id, hook, start, end, parent, _, amount = span
        own = (end - start) - _covered(children.get(span_id, []), start, end)
        total[hook] += end - start
        self_time[hook] += own
        calls[hook] += 1
        work[hook] += amount
        layer_self[HOOKS[hook][0]] += own
        layer_owned[owner_of(span)] += own
        if hook == ned:
            while parent in by_id:
                ancestor = by_id[parent]
                if ancestor[1] in watched:
                    ned_under[ancestor[1]] += 1
                    break
                parent = ancestor[4]

    def t(name: str) -> float:
        return total[hook_id[name]]

    busy_base = jobs * t("report.evaluate_pairs")
    match_ned = ned_under[hook_id["hierarchy.match_elements"]]
    out = {
        "ingest.pair_pages_s": t("ingest.pair_pages"),
        "ingest.parse_document_calls": calls[hook_id["ingest.parse_document"]],
        "ingest.bytes_read": work[hook_id["ingest.parse_document"]],
        "ingest.parse_table_html_s": t("ingest.parse_table_html"),
        "ingest.parse_table_html_calls": calls[hook_id["ingest.parse_table_html"]],
        "report.evaluate_page_s": t("report.evaluate_page"),
        "report.evaluate_page_self_s": self_time[hook_id["report.evaluate_page"]],
        "report.write_reports_s": t("report.write_reports"),
        "report.aggregate_s": t("report.aggregate"),
        "report.evaluate_pairs_busy_ratio": t("report.evaluate_page") / busy_base if busy_base else 0.0,
        "textmetrics.levenshtein_s": t("textmetrics.levenshtein"),
        "textmetrics.levenshtein_calls": calls[hook_id["textmetrics.levenshtein"]],
        "textmetrics.levenshtein_cells": work[hook_id["textmetrics.levenshtein"]],
        "textmetrics.ned_calls": calls[ned],
        "textmetrics.cer_s": t("textmetrics.cer"),
        "textmetrics.wer_s": t("textmetrics.wer"),
        "textmetrics.adjusted_ned_s": t("textmetrics.adjusted_ned"),
        "textmetrics.adjusted_ned_ned_calls": ned_under[hook_id["textmetrics.adjusted_ned"]],
        "textmetrics.content_tokens_s": t("textmetrics.content_tokens"),
        "textmetrics.tokenize_calls": calls[hook_id["textmetrics.tokenize"]],
        "tableeval.match_tables_s": t("tableeval.match_tables"),
        "tableeval.content_index_accuracy_s": t("tableeval.content_index_accuracy"),
        "tableeval.content_index_accuracy_ned_calls": ned_under[hook_id["tableeval.content_index_accuracy"]],
        "tableeval.teds_s": t("tableeval.teds"),
        "tableeval.tree_edit_distance_self_s": self_time[hook_id["tableeval.tree_edit_distance"]],
        "tableeval.teds_node_pairs": work[hook_id["tableeval.teds"]],
        "hierarchy.match_elements_s": t("hierarchy.match_elements"),
        "hierarchy.match_elements_ned_calls": match_ned,
        "hierarchy.match_elements_yield": (
            work[hook_id["hierarchy.match_elements"]] / match_ned if match_ned else 0.0
        ),
        "hierarchy.build_confusion_s": t("hierarchy.build_confusion"),
        "hierarchy.consistency_score_s": t("hierarchy.consistency_score"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.owned_s"] = layer_owned[layer]
    return out
