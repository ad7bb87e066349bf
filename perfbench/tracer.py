"""Run the collabmap CLI with every layer's public functions wrapped in spans.

Usage (one process per CLI command, as the benchmark launches it):

    python3 perfbench/tracer.py SPANS_OUT SRC_DIR -- <collabmap arguments>

The wrappers replace module attributes where the CLI looks them up, so no
file of the package changes. Each call records a span ``[name, start, end,
parent]`` (parent is the index of the enclosing span, or -1) and bumps
per-layer item counters. Spans stay in memory and are written once, as
JSON, when the command ends. ``aggregate`` folds span files into
per-layer self times and call counts; it is imported by ``run.py``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, span name) for every wrapped call site. The module
# is the one the caller resolves the name through at call time.
WRAPPED = [
    ("collabmap.corpus.records", "parse_records", "records.parse"),
    ("collabmap.corpus.filtering", "filter_documents", "filtering.filter"),
    ("collabmap.corpus.registry", "load_registry", "registry.load"),
    ("collabmap.cli", "documents_jsonl", "cli.jsonl_write"),
    ("collabmap.cli", "load_documents", "cli.jsonl_load"),
    ("collabmap.cli", "update_manifest", "cli.manifest"),
    ("collabmap.cli", "layout_components", "layout.components"),
    ("collabmap.counting", "build_incidence", "counting.incidence"),
    ("collabmap.counting", "fractional_counts", "counting.fractional"),
    ("collabmap.counting", "integer_counts", "counting.integer"),
    ("collabmap.counting", "summarize", "counting.summarize"),
    ("collabmap.network", "build_coauth_network", "network.build"),
    ("collabmap.network", "cosine_similarity", "network.cosine"),
    ("collabmap.network", "threshold_network", "network.extract"),
    ("collabmap.network", "extract_core", "network.extract"),
    ("collabmap.network", "ego_network", "network.extract"),
    ("collabmap.network", "subnetwork_by_list", "network.extract"),
    ("collabmap.network", "network_stats", "network.stats"),
    ("collabmap.network", "cooccurrence_triples_csv", "network.csv"),
    ("collabmap.network", "similarity_triples_csv", "network.csv"),
    ("collabmap.network", "cooccurrence_square_csv", "network.csv"),
    ("collabmap.network", "similarity_square_csv", "network.csv"),
    ("collabmap.layout", "ideal_distances", "layout.distances"),
    ("collabmap.layout", "minimize_stress", "layout.minimize"),
    ("collabmap.exports.geo", "export_geo", "exports.geo"),
    ("collabmap.exports.pajek", "export_pajek", "exports.pajek"),
    ("collabmap.exports.vosviewer", "export_vosviewer", "exports.vosviewer"),
    ("collabmap.exports.report", "export_report", "exports.report"),
]


def _count_parse(counters, args, kwargs, result):
    counters["records.parse.records"] += len(result[0])
    counters["records.parse.issues"] += len(result[1])


def _count_filter(counters, args, kwargs, result):
    counters["filtering.records_in"] += result[1].n_records
    counters["filtering.retained"] += result[1].n_retained


def _count_build(counters, args, kwargs, result):
    counters["network.edges"] += len(result.edges)


def _count_minimize(counters, args, kwargs, result):
    d = args[0]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    n = len(d)
    cap = cfg.max_outer_iterations if cfg.max_outer_iterations is not None else 200 * max(n, 1)
    counters["layout.nodes"] += n
    counters["layout.iterations"] += result.iterations_used
    counters["layout.capped"] += int(result.iterations_used >= cap)


COUNTERS = {
    "records.parse": _count_parse,
    "filtering.filter": _count_filter,
    "network.build": _count_build,
    "layout.minimize": _count_minimize,
}


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {
            "records.parse.records": 0,
            "records.parse.issues": 0,
            "filtering.records_in": 0,
            "filtering.retained": 0,
            "network.edges": 0,
            "layout.nodes": 0,
            "layout.iterations": 0,
            "layout.capped": 0,
        }

    def wrap(self, func, name):
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, clock(), 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                self.stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name))
        cli = importlib.import_module("collabmap.cli")
        for stage, func in list(cli._STAGE_FUNCS.items()):
            cli._STAGE_FUNCS[stage] = self.wrap(func, f"cli.stage.{stage}")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def aggregate(payloads: list[dict]) -> tuple[dict[str, float], dict[str, int], dict[str, int], float]:
    """Self time and calls per span name, summed counters, and root-span time."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    root_s = 0.0
    for payload in payloads:
        spans = payload["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                root_s += end - start
        for (name, start, end, _parent), covered in zip(spans, child_s):
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1
        for key, value in payload["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return self_s, calls, counters, root_s


def main(argv: list[str]) -> int:
    spans_out, src = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS_OUT SRC_DIR -- <collabmap arguments>")
    sys.path.insert(0, src)
    tracer = Tracer()
    tracer.install()
    from collabmap import cli

    try:
        return cli.main(argv[3:])
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
