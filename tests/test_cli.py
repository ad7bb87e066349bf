import dataclasses
import importlib
import importlib.util
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import pytest

from collabmap import cli, counting, layout, network
from collabmap.corpus import filtering, registry as registry_mod
from collabmap.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_PARSE,
    OPTIONS,
    RunConfig,
    Workspace,
    _STAGE_FUNCS,
    _run_stage,
    build_parser,
    main,
)

from conftest import DATA_DIR, GOLDEN_DIR


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)).replace("\\", "/"): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("synth") / "corpus.txt"
    rc = main(["synth", "--out", str(out), "--docs", "150", "--countries", "12",
               "--intl-prob", "0.45", "--seed", "13"])
    assert rc == EXIT_OK
    return out


RUN_FLAGS = [
    "--min-node-fractional", "2", "--min-link-weight", "2",
    "--core-k", "2", "--core-min-link-weight", "2",
]


def focus_country(ws: Path) -> str:
    lines = (ws / "network" / "nodes.csv").read_text().splitlines()[1:]
    by_degree = sorted(lines, key=lambda line: (-int(line.split(",")[3]), line.split(",")[0]))
    return by_degree[0].split(",")[0]


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_is_seed_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["synth", "--out", str(out), "--docs", "30", "--seed", "5"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.txt"
    assert main(["synth", "--out", str(c), "--docs", "30", "--seed", "6"]) == EXIT_OK
    assert c.read_bytes() != a.read_bytes()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_input_is_config_error(tmp_path):
    rc = main(["ingest", "--workspace", str(tmp_path / "ws"), "--input", str(tmp_path / "nope.txt")])
    assert rc == EXIT_CONFIG


def test_strict_parse_error_exit_code(tmp_path):
    rc = main([
        "ingest", "--workspace", str(tmp_path / "ws"),
        "--input", str(DATA_DIR / "records_malformed.txt"), "--strict",
    ])
    assert rc == EXIT_PARSE


def test_unknown_focus_is_data_error(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    rc = main(["ego", "--workspace", str(ws), "--focus", "NOWHERELAND"])
    assert rc == EXIT_DATA


def test_missing_intermediate_is_config_error(tmp_path):
    rc = main(["summary", "--workspace", str(tmp_path / "empty")])
    assert rc == EXIT_CONFIG


def test_bad_fraction_threshold_is_config_error(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    rc = main(["net", "--workspace", str(ws), "--min-node-fractional", "lots"])
    assert rc == EXIT_CONFIG


def test_bad_config_file_values_are_config_errors(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    config_path = tmp_path / "config.json"
    for bad in (
        {"comparator": "sideways"},
        {"layout_transform": "banana"},
        {"min_edge_weight": "x"},
        {"layout_diameter": "big"},
        {"layout_tolerance": float("nan")},
    ):
        config_path.write_text(json.dumps(bad))
        assert main(["--config", str(config_path), "net", "--workspace", str(ws)]) == EXIT_CONFIG, bad


def test_bad_layout_values_fail_before_any_write(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    rc = main(["run", "--workspace", str(ws), "--input", str(corpus_file),
               "--layout-tolerance", "-1"])
    assert rc == EXIT_CONFIG
    assert not ws.exists()

    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    assert main(["net", "--workspace", str(ws)]) == EXIT_OK
    before = tree_bytes(ws)
    assert main(["net", "--workspace", str(ws), "--layout-max-iter", "0"]) == EXIT_CONFIG
    assert tree_bytes(ws) == before


def test_negative_counts_are_config_errors(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    assert main(["net", "--workspace", str(ws)]) == EXIT_OK
    before = (ws / "run-manifest.json").read_bytes()
    for command, *flags in (
        ["core", "--core-k", "-1"],
        ["core", "--core-k", "2", "--core-min-link-weight", "-3"],
        ["ego", "--focus", focus_country(ws), "--ego-min-link-weight", "-3"],
    ):
        assert main([command, "--workspace", str(ws)] + flags) == EXIT_CONFIG, flags
    assert (ws / "run-manifest.json").read_bytes() == before


def test_failed_stage_leaves_no_partial_outputs(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    before = tree_bytes(ws)
    assert main(["ego", "--workspace", str(ws), "--focus", "NOWHERELAND"]) == EXIT_DATA
    assert tree_bytes(ws) == before
    assert not (ws / "ego").exists()


# ---------------------------------------------------------------------------
# pipeline determinism and stage composition
# ---------------------------------------------------------------------------

def test_run_twice_is_byte_identical(tmp_path, corpus_file):
    ws1, ws2 = tmp_path / "one", tmp_path / "two"
    probe = tmp_path / "probe"
    assert main(["run", "--workspace", str(probe), "--input", str(corpus_file)] + RUN_FLAGS) == EXIT_OK
    focus = focus_country(probe)
    flags = RUN_FLAGS + ["--focus", focus]
    for ws in (ws1, ws2):
        assert main(["run", "--workspace", str(ws), "--input", str(corpus_file)] + flags) == EXIT_OK
    assert tree_bytes(ws1) == tree_bytes(ws2)
    expected = {
        "documents.jsonl", "filter-report.json", "parse-issues.json", "summary.json",
        "counts.csv", "report.json", "run-manifest.json",
        "network/edges.csv", "network/nodes.csv", "network/cosine.csv",
        "thresholded/edges.csv", "thresholded/nodes.csv", "thresholded/stats.json",
        "thresholded/layout.csv", "thresholded/network.net",
        "thresholded/vos-map.txt", "thresholded/vos-network.txt",
        "geo/map.geojson", "geo/nodes.csv", "geo/links.csv",
        "core/edges.csv", "core/nodes.csv", "core/stats.json", "core/layout.csv",
        "core/network.net", "core/vos-map.txt", "core/vos-network.txt",
        f"ego/{focus}/focus.json",
    }
    assert expected <= set(tree_bytes(ws1))


def test_subcommand_chain_equals_monolithic_run(tmp_path, corpus_file):
    monolithic = tmp_path / "mono"
    assert main(["run", "--workspace", str(monolithic), "--input", str(corpus_file)] + RUN_FLAGS) == EXIT_OK
    focus = focus_country(monolithic)
    flags = RUN_FLAGS + ["--focus", focus]
    monolithic = tmp_path / "mono2"
    assert main(["run", "--workspace", str(monolithic), "--input", str(corpus_file)] + flags) == EXIT_OK

    chained = tmp_path / "chain"
    threshold_flags = ["--min-node-fractional", "2", "--min-link-weight", "2"]
    assert main(["ingest", "--workspace", str(chained), "--input", str(corpus_file)]) == EXIT_OK
    assert main(["summary", "--workspace", str(chained)]) == EXIT_OK
    assert main(["net", "--workspace", str(chained)] + threshold_flags) == EXIT_OK
    assert main(["geo", "--workspace", str(chained)] + threshold_flags) == EXIT_OK
    assert main(["core", "--workspace", str(chained), "--core-k", "2",
                 "--core-min-link-weight", "2"]) == EXIT_OK
    assert main(["ego", "--workspace", str(chained), "--focus", focus]) == EXIT_OK
    assert main(["export", "--workspace", str(chained), "--focus", focus]) == EXIT_OK

    assert tree_bytes(chained) == tree_bytes(monolithic)


def test_run_builds_the_corpus_once(tmp_path, corpus_file, monkeypatch):
    probe = tmp_path / "probe"
    assert main(["run", "--workspace", str(probe), "--input", str(corpus_file)] + RUN_FLAGS) == EXIT_OK
    calls = Counter()

    def count(module, name):
        func = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cli, "load_documents")
    count(counting, "build_incidence")
    count(counting, "fractional_counts")
    count(network, "build_coauth_network")
    count(network, "cosine_similarity")
    count(registry_mod, "load_registry")
    flags = RUN_FLAGS + ["--focus", focus_country(probe), "--layout-weights", "cosine"]
    assert main(["run", "--workspace", str(tmp_path / "ws"), "--input", str(corpus_file)] + flags) == EXIT_OK
    assert calls["cosine_similarity"] <= 1
    del calls["cosine_similarity"]
    assert calls == dict.fromkeys(
        ["load_documents", "build_incidence", "fractional_counts", "build_coauth_network",
         "load_registry"], 1
    )


def test_workspace_rebuilds_the_corpus_when_documents_change(tmp_path, corpus_file, monkeypatch):
    other = tmp_path / "other.txt"
    assert main(["synth", "--out", str(other), "--docs", "80", "--countries", "10",
                 "--intl-prob", "0.5", "--seed", "3"]) == EXIT_OK
    loads = []
    load = cli.load_documents
    monkeypatch.setattr(cli, "load_documents", lambda text: loads.append(text) or load(text))

    reused = Workspace(tmp_path / "reused")
    for stage, path in (("ingest", corpus_file), ("net", None), ("ingest", other), ("net", None),
                        ("geo", None)):
        _run_stage(stage, RunConfig(inputs=[str(path)] if path else []), reused)
    assert len(loads) == 2

    fresh = Workspace(tmp_path / "fresh")
    for stage in ("ingest", "net", "geo"):
        _run_stage(stage, RunConfig(inputs=[str(other)]), fresh)
    assert tree_bytes(reused.root) == tree_bytes(fresh.root)


def test_config_file_drives_run(tmp_path, corpus_file):
    via_flags = tmp_path / "flags"
    flags = RUN_FLAGS + ["--exclude-countries", "Colombia"]
    assert main(["run", "--workspace", str(via_flags), "--input", str(corpus_file)] + flags) == EXIT_OK

    config = {
        "inputs": [str(corpus_file)],
        "min_node_fractional": 2,
        "min_edge_weight": 2,
        "core_k": 2,
        "core_min_edge_weight": 2,
        "exclude_countries": ["colombia"],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    via_config = tmp_path / "config-ws"
    assert main(["--config", str(config_path), "run", "--workspace", str(via_config)]) == EXIT_OK
    assert tree_bytes(via_config) == tree_bytes(via_flags)


def test_unknown_config_field_rejected(tmp_path, corpus_file):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"does_not_exist": 1}))
    rc = main(["--config", str(config_path), "run", "--workspace", str(tmp_path / "ws"),
               "--input", str(corpus_file)])
    assert rc == EXIT_CONFIG


# ---------------------------------------------------------------------------
# artifacts sanity
# ---------------------------------------------------------------------------

def test_manifest_records_every_stage(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["run", "--workspace", str(ws), "--input", str(corpus_file)] + RUN_FLAGS) == EXIT_OK
    manifest = json.loads((ws / "run-manifest.json").read_text())
    assert set(manifest["stages"]) == {"ingest", "summary", "net", "geo", "core", "export"}
    for stage in manifest["stages"].values():
        assert "config" in stage and "inputs" in stage and "artifacts" in stage
        for digest in stage["inputs"].values():
            assert len(digest) == 64
        for digest in stage["artifacts"].values():
            assert len(digest) == 64


def test_every_accepted_flag_is_recorded_in_the_manifest():
    """A subcommand accepts only flags whose value its stage records, so a
    flag that is accepted and then ignored cannot come back."""
    manifest_key = {opt.name: opt.key or opt.name for opt in OPTIONS}
    subcommands = build_parser()._subparsers._group_actions[0].choices
    for command, parser in subcommands.items():
        if command == "synth":
            continue
        recorded = set()
        for stage in _STAGE_FUNCS if command == "run" else [command]:
            for key, value in RunConfig().stage_view(stage).items():
                recorded |= {f"{key}.{sub}" for sub in value} if isinstance(value, dict) else {key}
        for action in parser._actions:
            if action.option_strings and action.dest not in ("help", "workspace"):
                assert manifest_key[action.dest] in recorded, (command, action.option_strings)


def test_net_example_thresholds(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    assert main(["net", "--workspace", str(ws), "--min-node-fractional", "500",
                 "--min-link-weight", "500"]) == EXIT_OK
    stats = json.loads((ws / "thresholded" / "stats.json").read_text())
    assert stats["n_nodes"] == 0
    assert stats["n_edges"] == 0

    assert main(["net", "--workspace", str(ws), "--min-node-fractional", "0",
                 "--min-link-weight", "0"]) == EXIT_OK
    stats = json.loads((ws / "thresholded" / "stats.json").read_text())
    assert stats["n_nodes"] > 0


def test_square_matrices_flag(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    assert main(["net", "--workspace", str(ws), "--square-matrices"]) == EXIT_OK
    assert (ws / "network" / "cooccurrence-square.csv").is_file()
    assert (ws / "network" / "cosine-square.csv").is_file()


def test_delimited_ingest(tmp_path):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(DATA_DIR / "records_small.csv"),
                 "--format", "delimited"]) == EXIT_OK
    docs = (ws / "documents.jsonl").read_text().splitlines()
    assert len(docs) == 2  # meeting abstract dropped
    report = json.loads((ws / "filter-report.json").read_text())
    assert report["n_records"] == 3
    assert report["n_dropped_type"] == 1


def test_run_matches_frozen_golden_tree(tmp_path):
    """Full pipeline on the frozen corpus reproduces the checked-in tree.

    Regenerate deliberately with UPDATE_GOLDENS=1 after a reviewed format
    change; the diff then documents exactly what moved.
    """
    ws = tmp_path / "ws"
    rc = main([
        "run", "--workspace", str(ws),
        "--input", str(DATA_DIR / "golden_corpus.txt"),
        "--min-node-fractional", "2", "--min-link-weight", "2",
        "--core-k", "2", "--core-min-link-weight", "2",
        "--focus", "LUXEMBOURG",
    ])
    assert rc == EXIT_OK
    golden_root = GOLDEN_DIR / "run_tree"
    if os.environ.get("UPDATE_GOLDENS") == "1":
        if golden_root.exists():
            shutil.rmtree(golden_root)
        shutil.copytree(ws, golden_root)
    produced = tree_bytes(ws)
    expected = tree_bytes(golden_root)
    assert sorted(produced) == sorted(expected)
    for relpath in expected:
        assert produced[relpath] == expected[relpath], f"artifact differs: {relpath}"


def test_exclude_countries_flag(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    assert main(["net", "--workspace", str(ws)]) == EXIT_OK
    all_nodes = (ws / "network" / "nodes.csv").read_text().splitlines()[1:]
    victim = all_nodes[0].split(",")[0]
    assert main(["net", "--workspace", str(ws), "--exclude-countries", victim]) == EXIT_OK
    remaining = [line.split(",")[0] for line in (ws / "network" / "nodes.csv").read_text().splitlines()[1:]]
    assert victim not in remaining
    assert len(remaining) == len(all_nodes) - 1


def test_restricted_network_degrees_count_kept_edges(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    assert main(["net", "--workspace", str(ws), "--exclude-countries", "COLOMBIA"]) == EXIT_OK
    edge_rows = Counter()
    for line in (ws / "network" / "edges.csv").read_text().splitlines()[1:]:
        a, b, _weight = line.split(",")
        edge_rows.update([a, b])
    nodes = [line.split(",") for line in (ws / "network" / "nodes.csv").read_text().splitlines()[1:]]
    assert "COLOMBIA" not in {row[0] for row in nodes}
    for country, _int, _frac, degree in nodes:
        assert int(degree) == edge_rows[country], country


def test_benchmark_trace_targets_exist():
    """perfbench/tracer.py wraps these names from outside the package, and
    tier-1 never runs its trace mode, so a rename would go unnoticed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, attr, _span in tracer.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
    assert set(_STAGE_FUNCS) == {"ingest", "summary", "net", "geo", "core", "ego", "export"}
    # result fields that the tracer's counters read
    for cls, name in ((layout.Layout, "iterations_used"),
                      (layout.LayoutConfig, "max_outer_iterations"),
                      (filtering.FilterReport, "n_records"),
                      (filtering.FilterReport, "n_retained"),
                      (network.CoauthNetwork, "edges")):
        assert name in {f.name for f in dataclasses.fields(cls)}, (cls.__name__, name)
