import gc
import hashlib
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmap import cli, layout, network
from collabmap.corpus import filtering, records as records_mod, registry as registry_mod
from collabmap.corpus.records import parse_records, write_tagged
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
    config_from_args,
    main,
)
from collabmap.errors import DataError
from collabmap.exports import vosviewer

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


@pytest.mark.parametrize("flags, code", [
    (["--countries", "100000"], EXIT_CONFIG),
    (["--countries", "211"], EXIT_CONFIG),
    (["--countries", "0"], EXIT_CONFIG),
    (["--countries", "-3"], EXIT_CONFIG),
    (["--docs", "-5"], EXIT_CONFIG),
    (["--intl-prob", "2"], EXIT_CONFIG),
    (["--intl-prob", "-0.1"], EXIT_CONFIG),
    (["--intl-prob", "nan"], EXIT_CONFIG),
    (["--intl-prob", "inf"], EXIT_CONFIG),
    (["--countries", "1"], EXIT_OK),
    (["--countries", "210"], EXIT_OK),
    (["--docs", "0"], EXIT_OK),
    (["--intl-prob", "0"], EXIT_OK),
    (["--intl-prob", "1"], EXIT_OK),
])
def test_synth_arguments_out_of_range_are_config_errors_before_any_write(tmp_path, capsys, flags, code):
    """The registry bundles 210 countries; the ends of each range are valid."""
    out = tmp_path / "sub" / "corpus.txt"
    assert main(["synth", "--out", str(out), "--docs", "20"] + flags) == code
    if code == EXIT_CONFIG:
        assert "configuration error: synth:" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()
    else:
        assert out.is_file()


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


def test_strict_parse_error_names_its_input_file(tmp_path, capsys):
    good = tmp_path / "good.txt"
    shutil.copy(DATA_DIR / "records_small.txt", good)
    bad = tmp_path / "bad.txt"
    bad.write_text("PT J\nUT B1\nDT Article\nPY 20x1\nC1 Univ Oslo, Oslo, Norway\nER\nEF\n")
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(good)]) == EXIT_OK
    before = tree_bytes(ws)
    capsys.readouterr()
    rc = main(["ingest", "--workspace", str(ws), "--strict", "--input", str(good), str(bad)])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == "collabmap: parse error: bad.txt: line 4: bad year '20x1' in B1\n"
    assert tree_bytes(ws) == before


def test_unknown_focus_is_data_error(tmp_path, corpus_file):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    rc = main(["ego", "--workspace", str(ws), "--focus", "NOWHERELAND"])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("scale", ["1e308", "-1e308"])
def test_overflowing_marker_size_is_data_error_before_any_write(tmp_path, net_workspace, capsys, scale):
    ws = tmp_path / "ws"
    shutil.copytree(net_workspace, ws)
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["geo", "--workspace", str(ws), f"--size-scale={scale}"]) == EXIT_DATA
    assert "error: geo/map.geojson: the marker size of " in capsys.readouterr().err
    assert tree_bytes(ws) == before


def test_negative_real_flag_value_is_written_with_equals(tmp_path, net_workspace):
    """argparse reads "-1e3" after a space as a flag; "--size-scale=-1e3"
    hands it to the option, which records the float."""
    ws = tmp_path / "ws"
    shutil.copytree(net_workspace, ws)
    assert main(["geo", "--workspace", str(ws), "--size-scale=-1e3", "--size-min=-2"]) == EXIT_OK
    config = json.loads((ws / "run-manifest.json").read_text(encoding="utf-8"))["stages"]["geo"]["config"]
    assert (config["size_scale"], config["size_min"]) == (-1000.0, -2.0)


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
    out = tmp_path / "synth" / "corpus.txt"
    for bad in (
        {"comparator": "sideways"},
        {"layout_transform": "banana"},
        {"min_edge_weight": "x"},
        {"layout_diameter": "big"},
        {"layout_tolerance": float("nan")},
        {"ego_focus": ""},
        {"ego_focus": " \t"},
        {"ego_focus": 7},
        {"type_synonyms": {"Article": "Article", "review": "Review"}},
        {"type_synonyms": {" article": "Article"}},
        {"include_countries": ["norway"], "exclude_countries": ["chile"]},
    ):
        config_path.write_text(json.dumps(bad))
        assert main(["--config", str(config_path), "net", "--workspace", str(ws)]) == EXIT_CONFIG, bad
        assert main(["--config", str(config_path), "synth", "--out", str(out)]) == EXIT_CONFIG, bad
        assert not out.parent.exists(), bad


@pytest.mark.parametrize("synonyms, code", [
    ({"Article": "Article", "review": "Review"}, EXIT_CONFIG),
    ({"article\t": "Article"}, EXIT_CONFIG),
    ({"article": "Article", "review": "Review"}, EXIT_OK),
])
def test_type_synonym_keys_are_lower_case_tags(tmp_path, capsys, synonyms, code):
    """Tags are looked up stripped and lower-cased, so a key of any other
    form could never match; ingest refuses it before anything is written."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"type_synonyms": synonyms}))
    ws = tmp_path / "ws"
    capsys.readouterr()
    rc = main(["--config", str(config_path), "ingest", "--workspace", str(ws),
               "--input", str(DATA_DIR / "records_synth20.txt")])
    assert rc == code
    if code == EXIT_CONFIG:
        assert "configuration error: bad value for type_synonyms: " in capsys.readouterr().err
        assert not ws.exists()
    else:
        assert json.loads((ws / "filter-report.json").read_text())["n_retained"] > 0


def test_a_type_outside_ascii_is_written_alike_in_every_json_artifact(tmp_path):
    """summary.json, filter-report.json and report.json write a retained type
    outside ASCII as its own characters, so the three files agree."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"type_synonyms": {"article": "Artículo"}}))
    ws = tmp_path / "ws"
    assert main(["--config", str(config_path), "run", "--workspace", str(ws),
                 "--input", str(DATA_DIR / "records_synth20.txt")]) == EXIT_OK
    texts = {name: (ws / name).read_text(encoding="utf-8")
             for name in ("summary.json", "filter-report.json", "report.json")}
    per_type = {name: json.loads(text)["per_type"] for name, text in texts.items()}
    assert list(per_type["summary.json"]) == ["Artículo"]
    assert per_type["filter-report.json"] == per_type["report.json"] == per_type["summary.json"]
    for name, text in texts.items():
        assert '"Artículo": ' in text and "\\u00ed" not in text, name


def test_registry_name_that_would_break_a_csv_row_is_config_error_before_any_write(tmp_path, capsys):
    """Country names go unquoted into every CSV and TSV artifact, so a
    registry name holding a comma stops the run before a workspace exists.
    Both files open with a byte-order mark, which the header check passes."""
    bundled = Path(registry_mod.__file__).parent / "data"
    countries, aliases = tmp_path / "countries.csv", tmp_path / "aliases.csv"
    countries.write_text((bundled / "countries.csv").read_text() + '"KOREA, REP",KOR,36.4,127.8\n',
                         encoding="utf-8-sig")
    aliases.write_text((bundled / "aliases.csv").read_text() + 'KOREAREP,"KOREA, REP"\n',
                       encoding="utf-8-sig")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text((DATA_DIR / "records_synth20.txt").read_text().replace("South Korea", "KoreaRep"))
    ws = tmp_path / "ws"
    capsys.readouterr()
    assert main(["run", "--workspace", str(ws), "--input", str(corpus), "--registry", str(countries),
                 "--aliases", str(aliases)]) == EXIT_CONFIG
    assert ("configuration error: registry: canonical name 'KOREA, REP' holds a comma, quote, tab "
            "or line break") in capsys.readouterr().err
    assert not ws.exists()


def test_registry_name_that_is_no_directory_name_is_config_error_before_any_write(tmp_path, capsys):
    """Each country's ego map goes into ego/<name>/, so a registry name that
    would lead that directory out of the workspace stops the run first."""
    bundled = Path(registry_mod.__file__).parent / "data"
    countries = tmp_path / "countries.csv"
    countries.write_text((bundled / "countries.csv").read_text() + "../../,XXX,0.0,0.0\n", encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text((DATA_DIR / "records_synth20.txt").read_text().replace("South Korea", "../../"))
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    assert main(["run", "--workspace", str(tmp_path / "outer" / "ws"), "--input", str(corpus),
                 "--registry", str(countries), "--focus", "../../"]) == EXIT_CONFIG
    assert ("configuration error: registry: canonical name '../../' is . or .., or holds a slash, "
            "backslash or NUL") in capsys.readouterr().err
    assert tree_bytes(tmp_path) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "countries.csv"]


@pytest.mark.parametrize("focus", ["", " ", "\t \n"])
def test_blank_focus_is_config_error_before_any_write(tmp_path, net_workspace, corpus_file, capsys, focus):
    ws = tmp_path / "ws"
    shutil.copytree(net_workspace, ws)
    before = tree_bytes(ws)
    for command, *flags in (["run", "--input", str(corpus_file)], ["ego"], ["export"]):
        capsys.readouterr()
        assert main([command, "--workspace", str(ws), "--focus", focus] + flags) == EXIT_CONFIG, command
        assert f"configuration error: bad value for ego_focus: {focus!r}" in capsys.readouterr().err
        assert tree_bytes(ws) == before, command
    fresh = tmp_path / "fresh"
    assert main(["run", "--workspace", str(fresh), "--input", str(corpus_file), "--focus", focus]) == EXIT_CONFIG
    assert not fresh.exists()


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


@pytest.mark.parametrize("field, value, message", [
    *((field, value, f"bad value for {field}: ")
      for field in ("layout_tolerance", "layout_diameter", "layout_spring", "layout_max_iterations")
      for value in (0, -1, float("nan"))),
    ("layout_transform", "banana", "layout_transform must be one of "),
])
def test_bad_layout_config_values_fail_on_every_command(tmp_path, net_workspace, corpus_file, capsys,
                                                        field, value, message):
    """Each layout option's row checks its range, so a bad value in a config
    file stops even a command that draws no map, before anything is written."""
    ws = tmp_path / "ws"
    shutil.copytree(net_workspace, ws)
    before = tree_bytes(ws)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({field: value}))
    out = tmp_path / "corpus.txt"
    for command, *flags in (["ingest", "--input", str(corpus_file)], ["summary"], ["geo"],
                            ["export"], ["net"], ["synth", "--out", str(out)]):
        capsys.readouterr()
        where = [] if command == "synth" else ["--workspace", str(ws)]
        argv = ["--config", str(config_path), command] + where + flags
        assert main(argv) == EXIT_CONFIG, command
        assert f"configuration error: {message}" in capsys.readouterr().err, command
        assert tree_bytes(ws) == before, command
    assert not out.exists()


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


def test_artifact_path_that_would_leave_the_workspace_is_data_error_before_any_write(tmp_path, capsys):
    """A country of network.json names ego's directory, so one named
    ../../X would send the ego map out of the workspace; the write is
    refused before any file is made."""
    ws = tmp_path / "outer" / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(DATA_DIR / "records_synth20.txt")]) == EXIT_OK
    network_json = ws / "network.json"
    network_json.write_text(network_json.read_text(encoding="utf-8").replace('"COMOROS"', '"../../COMOROS"'),
                            encoding="utf-8")
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    assert main(["ego", "--workspace", str(ws), "--focus", "../../COMOROS"]) == EXIT_DATA
    assert (f"workspace {ws}: artifact 'ego/../../COMOROS/edges.csv' is not a path inside the workspace"
            in capsys.readouterr().err)
    assert tree_bytes(tmp_path) == before
    assert sorted(p.name for p in tmp_path.rglob("*") if ws not in (p, *p.parents)) == ["outer"]


def test_failed_rerun_keeps_the_previous_state(tmp_path, corpus_file, monkeypatch):
    """A stage that fails while computing writes nothing, so the earlier
    good files stay and the manifest still matches them, even on Ctrl-C."""
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    assert main(["net", "--workspace", str(ws)]) == EXIT_OK
    before = tree_bytes(ws)
    rerun = ["net", "--workspace", str(ws), "--min-link-weight", "3"]

    def fail(*args, **kwargs):
        raise DataError("layout failed")

    monkeypatch.setattr(cli, "layout_components", fail)
    assert main(rerun) == EXIT_DATA
    assert tree_bytes(ws) == before

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "layout_components", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(rerun)
    assert tree_bytes(ws) == before
    for stage in json.loads(before["run-manifest.json"])["stages"].values():
        for relpath, digest in stage["artifacts"].items():
            assert hashlib.sha256((ws / relpath).read_bytes()).hexdigest() == digest, relpath


@pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()])
def test_failed_write_keeps_the_previous_files(tmp_path, corpus_file, monkeypatch, error):
    """A rerun whose second write fails leaves the good files of the run
    before it, and the manifest that lists them, byte-identical."""
    ws = Workspace(tmp_path / "ws")
    _run_stage("ingest", RunConfig(inputs=[str(corpus_file)]), ws)
    before = tree_bytes(ws.root)
    write = Path.write_text
    written = []

    def write_until_second(path, *args, **kwargs):
        written.append(path.name)
        if len(written) == 2:
            raise error
        return write(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write_until_second)
    with pytest.raises(type(error)):
        _run_stage("ingest", RunConfig(inputs=[str(DATA_DIR / "records_small.txt")]), ws)
    assert written == ["documents.jsonl.tmp", "filter-report.json.tmp"]
    assert tree_bytes(ws.root) == before


@pytest.mark.parametrize("failing, fresh", [
    pytest.param("filter-report.json", False, id="second-stage-file"),
    pytest.param("run-manifest.json", False, id="manifest"),
    pytest.param("run-manifest.json", True, id="manifest-of-a-first-run"),
])
def test_failed_move_restores_the_files_and_the_manifest(tmp_path, corpus_file, monkeypatch,
                                                         failing, fresh):
    """A rerun whose move of a new file into place fails, after earlier
    moves succeeded, puts back every original and leaves no new file."""
    ws = Workspace(tmp_path / "ws")
    if not fresh:
        _run_stage("ingest", RunConfig(inputs=[str(corpus_file)]), ws)
    before = tree_bytes(ws.root)
    replace = os.replace
    placed = []

    def fail_on_the_move_into(src, dst):
        if Path(src).name.endswith(".tmp"):
            placed.append(Path(dst).name)
            if Path(dst).name == failing:
                raise OSError("rename failed")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_the_move_into)
    with pytest.raises(OSError, match="rename failed"):
        _run_stage("ingest", RunConfig(inputs=[str(DATA_DIR / "records_small.txt")]), ws)
    assert placed[-1] == failing and len(placed) >= 2
    assert tree_bytes(ws.root) == before


def tree_dirs(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_dir()}


def assert_manifest_matches_the_files(ws: Path) -> None:
    """Every file but the manifest is listed once, with its digest."""
    listed = {}
    for entry in json.loads((ws / "run-manifest.json").read_text(encoding="utf-8"))["stages"].values():
        listed.update(entry["artifacts"])
    tree = tree_bytes(ws)
    del tree["run-manifest.json"]
    assert {relpath: hashlib.sha256(data).hexdigest() for relpath, data in tree.items()} == listed


def test_run_removes_the_stages_it_does_not_run(tmp_path):
    """A run over a workspace that an earlier run with a core and an ego
    map filled leaves the tree a run into an empty workspace would write;
    a single stage still deletes nothing."""
    ws = tmp_path / "ws"
    first = ["run", "--workspace", str(ws), "--input", str(DATA_DIR / "records_synth20.txt"),
             "--core-k", "2", "--focus", "USA"]
    assert main(first) == EXIT_OK
    assert main(["ingest", "--workspace", str(ws), "--input", str(DATA_DIR / "records_small.txt")]) == EXIT_OK
    assert {"core", "ego/USA"} <= tree_dirs(ws)

    assert main(first) == EXIT_OK
    plain = ["--input", str(DATA_DIR / "records_small.txt")]
    assert main(["run", "--workspace", str(ws)] + plain) == EXIT_OK
    assert main(["run", "--workspace", str(tmp_path / "empty")] + plain) == EXIT_OK
    assert tree_bytes(ws) == tree_bytes(tmp_path / "empty")
    assert tree_dirs(ws) == tree_dirs(tmp_path / "empty") == {"geo", "network", "thresholded"}
    assert_manifest_matches_the_files(ws)


def test_run_with_another_focus_removes_the_old_ego_map(tmp_path):
    ws = tmp_path / "ws"
    run = ["run", "--workspace", str(ws), "--input", str(DATA_DIR / "records_synth20.txt")]
    for focus in ("USA", "GEORGIA"):
        assert main(run + ["--focus", focus]) == EXIT_OK
    assert "ego/USA" not in tree_dirs(ws) and "ego/GEORGIA" in tree_dirs(ws)
    assert json.loads((ws / "report.json").read_text(encoding="utf-8"))["focus"]["country"] == "GEORGIA"
    assert_manifest_matches_the_files(ws)


def test_failed_move_in_a_run_keeps_the_stages_it_would_delete(tmp_path, monkeypatch):
    """The deletions share ingest's batch, so a failed move puts every
    deleted file back and leaves its directory in place."""
    ws = tmp_path / "ws"
    assert main(["run", "--workspace", str(ws), "--input", str(DATA_DIR / "records_synth20.txt"),
                 "--core-k", "2", "--focus", "USA"]) == EXIT_OK
    before, dirs = tree_bytes(ws), tree_dirs(ws)
    replace = os.replace
    moved_aside = []

    def fail_on_the_manifest(src, dst):
        if Path(src).name == "run-manifest.json.tmp":
            raise OSError("rename failed")
        if Path(dst).name.endswith(".bak"):
            moved_aside.append(Path(src).relative_to(ws).as_posix())
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_the_manifest)
    with pytest.raises(OSError, match="rename failed"):
        main(["run", "--workspace", str(ws), "--input", str(DATA_DIR / "records_small.txt")])
    assert {"core/layout.csv", "ego/USA/focus.json", "report.json"} <= set(moved_aside)
    assert tree_bytes(ws) == before
    assert tree_dirs(ws) == dirs


def test_write_files_holds_deletions_and_targets_to_one_rule(tmp_path):
    """A deletion that a symbolic link leads out of the workspace is refused
    as such a target is, before anything is written, moved or deleted."""
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "victim.txt").write_text("keep me\n")
    ws = Workspace(tmp_path / "ws")
    ws.root.mkdir()
    (ws.root / "link").symlink_to(outside, target_is_directory=True)
    for files, delete, named in (({"a.txt": "x"}, ["link/victim.txt"], "link/victim.txt"),
                                 ({"a.txt": "x", "link/b.txt": "x"}, [], "link/b.txt")):
        with pytest.raises(DataError, match=f"artifact '{named}' is not a path inside the workspace"):
            ws.write_files(files, delete)
        assert os.listdir(ws.root) == ["link"]
        assert os.listdir(outside) == ["victim.txt"]
    assert (outside / "victim.txt").read_text() == "keep me\n"


@pytest.mark.parametrize("relpath", ["{victim}", "../outside/victim.txt", "core/../../outside/victim.txt",
                                     "./counts.csv", "", "link/victim.txt"])
def test_manifest_artifact_outside_the_workspace_is_data_error(tmp_path, capsys, relpath):
    """run deletes what the old manifest lists, so a listed path must name a
    file inside the workspace, through no symbolic link that leads out of
    it; any other is refused before any write."""
    ws = tmp_path / "ws"
    assert main(["run", "--workspace", str(ws), "--input", str(DATA_DIR / "records_small.txt")]) == EXIT_OK
    victim = tmp_path / "outside" / "victim.txt"
    victim.parent.mkdir()
    victim.write_text("keep me\n")
    (ws / "link").symlink_to(victim.parent, target_is_directory=True)
    relpath = relpath.format(victim=victim)  # an absolute path
    manifest = json.loads((ws / "run-manifest.json").read_text(encoding="utf-8"))
    manifest["stages"]["core"] = {"config": {}, "inputs": {}, "artifacts": {relpath: "0" * 64}}
    (ws / "run-manifest.json").write_text(json.dumps(manifest))
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["run", "--workspace", str(ws), "--input", str(DATA_DIR / "records_small.txt")]) == EXIT_DATA
    assert f"artifact {relpath!r} is not a path inside the workspace" in capsys.readouterr().err
    assert tree_bytes(ws) == before
    assert victim.read_text() == "keep me\n"


def refused_in_a_fresh_interpreter(tmp_path: Path, argv: list[str], code: int) -> str:
    """The one line a collabmap command prints when it exits with ``code``
    in a fresh interpreter, where an uncaught error would show as a
    traceback and exit 1; the command must change nothing under tmp_path."""

    def snapshot() -> dict[Path, bytes | None]:
        return {path: path.read_bytes() if path.is_file() else None for path in tmp_path.rglob("*")}

    before = snapshot()
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "collabmap.cli", *argv],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert snapshot() == before
    return line


@pytest.mark.parametrize("case", ["registry-missing", "aliases-missing", "registry-not-utf8",
                                  "config-not-utf8", "workspace-through-a-file", "out-a-directory",
                                  "out-through-a-file", "artifact-through-a-file", "artifact-a-directory"])
def test_unreadable_config_files_and_outputs_through_files_are_config_errors(tmp_path, case):
    """Each case runs in a fresh interpreter, where an uncaught OSError or
    UnicodeDecodeError would show as a traceback and exit 1: it exits 2 with
    one line that names the path, and changes nothing under tmp_path. A
    stage's artifact below a file, or one that is a directory, is refused
    before the stage writes anything."""
    afile, adir, nope = tmp_path / "afile", tmp_path / "adir", tmp_path / "nope.csv"
    afile.write_text("keep me\n")
    adir.mkdir()
    registry_csv, config_json = tmp_path / "countries.csv", tmp_path / "config.json"
    registry_csv.write_bytes(b"canonical_name,iso3,latitude,longitude\n\xff,XXX,0,0\n")
    config_json.write_bytes(b"\xff{}")
    records = ["--input", str(DATA_DIR / "records_small.txt")]
    ingest = ["ingest", "--workspace", str(tmp_path / "ws")] + records
    argv, named = {
        "registry-missing": (ingest + ["--registry", str(nope)], nope),
        "aliases-missing": (ingest + ["--aliases", str(nope)], nope),
        "registry-not-utf8": (ingest + ["--registry", str(registry_csv)], registry_csv),
        "config-not-utf8": (["--config", str(config_json)] + ingest, config_json),
        "workspace-through-a-file": (["ingest", "--workspace", str(afile / "ws")] + records, afile / "ws"),
        "out-a-directory": (["synth", "--out", str(adir)], adir),
        "out-through-a-file": (["synth", "--out", str(afile / "x.txt")], afile / "x.txt"),
        "artifact-through-a-file": (["net", "--workspace", str(tmp_path / "ws")],
                                    tmp_path / "ws" / "thresholded"),
        "artifact-a-directory": (["net", "--workspace", str(tmp_path / "ws")],
                                 tmp_path / "ws" / "thresholded" / "edges.csv"),
    }[case]
    if case.startswith("artifact"):
        assert main(ingest) == EXIT_OK
        if case == "artifact-through-a-file":
            named.write_text("x")
        else:
            assert main(argv) == EXIT_OK
            named.unlink()
            named.mkdir()
    line = refused_in_a_fresh_interpreter(tmp_path, argv, EXIT_CONFIG)
    assert line.startswith("collabmap: configuration error: ") and str(named) in line, line


def test_run_refuses_a_late_stage_s_artifact_path_before_any_stage_writes(tmp_path):
    """A run is one batch, so the core/ that a file blocks is refused before
    ingest, summary, net or geo write, in a workspace that is empty but for
    that file and in one that holds an earlier run."""
    ws = tmp_path / "ws"
    run = ["run", "--workspace", str(ws), "--input", str(DATA_DIR / "records_synth20.txt")]
    ws.mkdir()
    for earlier in (False, True):
        if earlier:
            (ws / "core").unlink()
            assert main(run) == EXIT_OK
        (ws / "core").write_text("x")
        line = refused_in_a_fresh_interpreter(tmp_path, run + ["--core-k", "2"], EXIT_CONFIG)
        assert str(ws / "core") in line, line


def test_run_with_a_focus_not_in_the_network_keeps_the_previous_run(tmp_path):
    """A data error in run's ego stage comes after ingest, summary, net, geo
    and core have computed, and leaves the previous run's ego map, report and
    manifest in place."""
    ws = tmp_path / "ws"
    run = ["run", "--workspace", str(ws), "--input", str(DATA_DIR / "records_synth20.txt"), "--core-k", "2"]
    assert main(run + ["--focus", "USA"]) == EXIT_OK
    line = refused_in_a_fresh_interpreter(tmp_path, run + ["--focus", "NOWHERELAND"], EXIT_DATA)
    assert line == "collabmap: error: unknown focus country: 'NOWHERELAND'"


@pytest.mark.parametrize("command", [["ego"], ["run", "--input", str(DATA_DIR / "records_synth20.txt")]])
def test_artifact_path_through_a_link_out_of_the_workspace_is_data_error_before_any_write(tmp_path, command):
    """A symbolic link inside the workspace that leads out of it is refused
    for a write as for a deletion: nothing is written through it."""
    ws, outside = tmp_path / "ws", tmp_path / "outside"
    assert main(["ingest", "--workspace", str(ws), "--input", str(DATA_DIR / "records_synth20.txt")]) == EXIT_OK
    outside.mkdir()
    (ws / "ego").mkdir()
    (ws / "ego" / "COMOROS").symlink_to(Path("..", "..", "outside"), target_is_directory=True)
    argv = [command[0], "--workspace", str(ws), *command[1:], "--focus", "COMOROS"]
    line = refused_in_a_fresh_interpreter(tmp_path, argv, EXIT_DATA)
    assert line == (f"collabmap: error: workspace {ws}: artifact 'ego/COMOROS/edges.csv' "
                    "is not a path inside the workspace")
    assert not any(outside.iterdir())


def test_workspace_that_is_a_file_is_config_error(tmp_path, corpus_file):
    not_a_dir = tmp_path / "corpus.txt"
    shutil.copy(corpus_file, not_a_dir)
    before = not_a_dir.read_bytes()
    for command, *flags in (["ingest", "--input", str(corpus_file)], ["net"],
                            ["run", "--input", str(corpus_file)]):
        assert main([command, "--workspace", str(not_a_dir)] + flags) == EXIT_CONFIG, command
    assert not_a_dir.read_bytes() == before


# ---------------------------------------------------------------------------
# input encoding and warnings
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, fmt", [("records_small.txt", "tagged"),
                                       ("records_small.csv", "delimited")])
def test_byte_order_mark_inputs_parse_like_plain_ones(tmp_path, name, fmt):
    marked = tmp_path / "bom" / name
    marked.parent.mkdir()
    marked.write_bytes(b"\xef\xbb\xbf" + (DATA_DIR / name).read_bytes())
    trees = []
    for label, path in (("plain", DATA_DIR / name), ("marked", marked)):
        ws = tmp_path / label
        assert main(["ingest", "--workspace", str(ws), "--input", str(path), "--format", fmt]) == EXIT_OK
        trees.append(tree_bytes(ws))
    assert trees[0]["documents.jsonl"]
    for relpath in ("documents.jsonl", "parse-issues.json", "filter-report.json"):
        assert trees[1][relpath] == trees[0][relpath], relpath


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("name, fmt", [("records_small.txt", "tagged"),
                                       ("records_small.csv", "delimited"),
                                       ("records_malformed.txt", "tagged")])
def test_library_and_ingest_parse_every_line_end_and_mark_alike(tmp_path, monkeypatch, name, fmt,
                                                                newline, bom):
    """parse_records of a file's bytes, of their text and the records ingest
    streams from the file give the records and issues of the plain LF file."""
    expected = parse_records((DATA_DIR / name).read_text(encoding="utf-8"), fmt, source_name=name)
    assert expected[0]
    data = bom + (DATA_DIR / name).read_bytes().replace(b"\n", newline)
    assert parse_records(data, fmt, source_name=name) == expected
    assert parse_records(data.decode("utf-8"), fmt, source_name=name) == expected

    path = tmp_path / "in" / name
    path.parent.mkdir()
    path.write_bytes(data)
    parsed = []
    stream = records_mod.iter_records

    def spy(chunks, issues, *args, **kwargs):
        streamed: list = []
        parsed.append((streamed, issues))
        for rec in stream(chunks, issues, *args, **kwargs):
            streamed.append(rec)
            yield rec

    monkeypatch.setattr(records_mod, "iter_records", spy)
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(path), "--format", fmt]) == EXIT_OK
    assert parsed == [expected]
    issues = json.loads((ws / "parse-issues.json").read_text(encoding="utf-8"))
    assert [(i["line_no"], i["message"]) for i in issues] == [tuple(i) for i in expected[1]]


def test_ingest_digest_is_of_the_input_bytes(tmp_path):
    plain = DATA_DIR / "records_small.txt"
    copies = {
        "crlf": plain.read_bytes().replace(b"\n", b"\r\n"),
        "cr": plain.read_bytes().replace(b"\n", b"\r"),
        "marked": b"\xef\xbb\xbf" + plain.read_bytes(),
    }
    inputs = [("plain", plain)]
    for label, data in copies.items():
        path = tmp_path / label / plain.name
        path.parent.mkdir()
        path.write_bytes(data)
        inputs.append((label, path))
    documents = []
    for label, path in inputs:
        ws = tmp_path / label
        assert main(["ingest", "--workspace", str(ws), "--input", str(path)]) == EXIT_OK
        manifest = json.loads((ws / "run-manifest.json").read_text())
        recorded = manifest["stages"]["ingest"]["inputs"][plain.name]
        assert recorded == hashlib.sha256(path.read_bytes()).hexdigest(), label
        documents.append((ws / "documents.jsonl").read_bytes())
    assert documents[0]
    assert documents == [documents[0]] * len(inputs)


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("relpath, stage", [("network.json", "net"), ("filter-report.json", "summary"),
                                            ("summary.json", "export"), ("thresholded/stats.json", "export")])
def test_workspace_digest_is_of_the_bytes_a_stage_read(tmp_path, net_workspace, relpath, stage, newline):
    plain, ws = tmp_path / "plain", tmp_path / "ws"
    shutil.copytree(net_workspace, plain)
    shutil.copytree(net_workspace, ws)
    path = ws / relpath
    path.write_bytes(path.read_bytes().replace(b"\n", newline))
    for root in (plain, ws):
        assert main([stage, "--workspace", str(root)]) == EXIT_OK
    manifest = json.loads((ws / "run-manifest.json").read_text())
    assert manifest["stages"][stage]["inputs"][relpath] == hashlib.sha256(path.read_bytes()).hexdigest()
    # the line ends are JSON white space, so the stage writes what it writes from the LF file
    expected = tree_bytes(plain)
    written = tree_bytes(ws)
    for name in expected.keys() - {relpath, "run-manifest.json"}:
        assert written[name] == expected[name], name


def test_non_utf8_input_is_data_error_before_any_write(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    record = "PT J\nUT X1\nDT Article\nPY 2001\nC1 Univ Zürich, Zürich, Switzerland\nER\nEF\n"
    latin1.write_bytes(record.encode("latin-1"))
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(latin1)]) == EXIT_DATA
    assert str(latin1) in capsys.readouterr().err
    assert not ws.exists()


def _tagged_record(ut: str | None) -> str:
    head = "PT J\n" + (f"UT {ut}\n" if ut else "")
    return head + "DT Article\nPY 2001\nC1 Univ Oslo, Oslo, Norway\nER\nEF\n"


# well over one 64 KiB read of valid records, so what follows them is met
# in a later read than what precedes them
_PADDING = "".join(f"PT J\nUT P{i}\nDT Article\nPY 2001\nC1 Univ Oslo, Oslo, Norway\nER\n"
                   for i in range(2000)).encode("utf-8")


def test_invalid_byte_after_ef_is_data_error_before_any_write(tmp_path, capsys):
    path = tmp_path / "tail.txt"
    path.write_bytes(_tagged_record("A1").encode("utf-8") + _PADDING + b"\xff\n")
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(path)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(path) in err
    assert not ws.exists()


def test_ingest_digest_covers_the_text_after_ef(tmp_path):
    digests, documents = [], []
    for label, tail in (("plain", b""), ("tail", b"trailing notes\n" + _PADDING)):
        path = tmp_path / label / "in.txt"
        path.parent.mkdir()
        path.write_bytes(_tagged_record("A1").encode("utf-8") + tail)
        ws = tmp_path / f"ws-{label}"
        assert main(["ingest", "--workspace", str(ws), "--input", str(path)]) == EXIT_OK
        manifest = json.loads((ws / "run-manifest.json").read_text(encoding="utf-8"))
        digests.append(manifest["stages"]["ingest"]["inputs"]["in.txt"])
        assert digests[-1] == hashlib.sha256(path.read_bytes()).hexdigest(), label
        documents.append((ws / "documents.jsonl").read_bytes())
    assert digests[0] != digests[1]
    assert documents[0] == documents[1]


def test_strict_issue_before_an_invalid_byte_is_data_error(tmp_path, capsys):
    path = tmp_path / "strict.txt"
    path.write_bytes(b"stray line\n" + _PADDING + b"\xff\nEF\n")
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--strict", "--input", str(path)]) == EXIT_DATA
    assert str(path) in capsys.readouterr().err
    assert not ws.exists()


def test_strict_issue_in_a_later_input_outranks_a_duplicate_id(tmp_path, capsys):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text(_tagged_record("A1"), encoding="utf-8")
    second.write_text("stray line\n" + _tagged_record("A1"), encoding="utf-8")
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--strict", "--input", str(first), str(second)]) == EXIT_PARSE
    assert "second.txt: line 1: content outside any record" in capsys.readouterr().err
    assert not ws.exists()


def test_bad_year_line_numbers_after_continuations_and_reopened_records(tmp_path):
    text = ("PT J\nUT A1\nTI a title\n   that runs on\nPY 20x1\nDT Article\nC1 Univ Oslo, Oslo, Norway\nER\n"
            "PT J\nUT B1\nPY 1999\n"
            "PT J\nUT B2\n   B2 runs on\nPY 19y9\nPY 2001\nDT Article\nC1 Univ Oslo, Oslo, Norway\nER\nEF\n")
    expected = [(5, "bad year '20x1' in A1"), (12, "record not terminated by ER; span dropped"),
                (15, "bad year '19y9' in B2")]
    records, issues = parse_records(text, "tagged")
    assert [r.record_id for r in records] == ["A1", "B2"]
    assert [tuple(i) for i in issues] == expected
    path = tmp_path / "years.txt"
    path.write_text(text, encoding="utf-8")
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(path)]) == EXIT_OK
    written = json.loads((ws / "parse-issues.json").read_text(encoding="utf-8"))
    assert [(i["line_no"], i["message"]) for i in written] == expected


@pytest.mark.parametrize("command", ["ingest", "run"])
@pytest.mark.parametrize("case", ["no-ids", "distinct-ids", "same-file"])
def test_inputs_sharing_a_file_name_are_config_errors_before_any_write(tmp_path, capsys, command, case):
    # the file name keys the manifest's input digest and seeds synthesized ids
    first, second = tmp_path / "a" / "savedrecs.txt", tmp_path / "b" / "savedrecs.txt"
    for path, ut in ((first, "A1"), (second, "B1")):
        path.parent.mkdir()
        path.write_text(_tagged_record(None if case == "no-ids" else ut), encoding="utf-8")
    inputs = [first, first] if case == "same-file" else [first, second]
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(DATA_DIR / "records_small.txt")]) == EXIT_OK
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main([command, "--workspace", str(ws), "--input", *map(str, inputs)]) == EXIT_CONFIG
    assert "configuration error: two inputs share the file name 'savedrecs.txt'" in capsys.readouterr().err
    assert tree_bytes(ws) == before
    fresh = tmp_path / "fresh"
    assert main([command, "--workspace", str(fresh), "--input", *map(str, inputs)]) == EXIT_CONFIG
    assert not fresh.exists()


def test_inputs_sharing_a_record_id_are_data_errors_before_any_write(tmp_path, capsys):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    for path in (first, second):
        path.write_text(_tagged_record("A1"), encoding="utf-8")
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(first), str(second)]) == EXIT_DATA
    assert "error: duplicate record id across inputs: 'A1'" in capsys.readouterr().err
    assert not ws.exists()


def test_ingest_memory_stays_below_the_input_size(tmp_path):
    """Ingest streams its input: its text, lines and records are read,
    parsed and filtered a chunk at a time, so what it allocates at its peak
    is less than the input's bytes."""
    words = "collaboration network country map science "
    path = tmp_path / "long-titles.txt"
    path.write_text("".join(
        f"PT J\nUT L{i}\nTI {i} {words * 48}\nDT Article\nPY 2001\nC1 Univ Oslo, Oslo, Norway\nER\n"
        for i in range(2000)) + "EF\n", encoding="utf-8")
    size = path.stat().st_size
    assert size > 4_000_000
    ws = tmp_path / "ws"
    tracemalloc.start()
    try:
        rc = main(["ingest", "--workspace", str(ws), "--input", str(path)])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == EXIT_OK
    assert json.loads((ws / "filter-report.json").read_text(encoding="utf-8"))["n_retained"] == 2000
    assert peak < size, (peak, size)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case, code", [("ok", EXIT_OK), ("strict-parse-error", EXIT_PARSE),
                                        ("duplicate-id-across-inputs", EXIT_DATA)])
def test_ingest_pauses_the_collector_and_restores_its_state(tmp_path, monkeypatch, enabled, case, code):
    """Ingest parses with the cyclic collector paused, and leaves it enabled
    or disabled as it found it, whether the stage succeeds or fails."""
    flags = ["--input", str(DATA_DIR / "records_small.txt")]
    if case == "strict-parse-error":
        flags = ["--input", str(DATA_DIR / "records_malformed.txt"), "--strict"]
    elif case == "duplicate-id-across-inputs":
        flags = ["--input"]
        for name in ("first.txt", "second.txt"):
            (tmp_path / name).write_text(_tagged_record("A1"), encoding="utf-8")
            flags.append(str(tmp_path / name))
    paused = []
    stream = records_mod.iter_records

    def spy(*args, **kwargs):
        paused.append(not gc.isenabled())
        return stream(*args, **kwargs)

    monkeypatch.setattr(records_mod, "iter_records", spy)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        rc = main(["ingest", "--workspace", str(tmp_path / "ws")] + flags)
        left_enabled = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert rc == code
    assert left_enabled == enabled
    assert paused and all(paused)


@pytest.mark.parametrize("line", [
    pytest.param('{"record_id": "X", "doc_type": "Article", ', id="not-json"),
    pytest.param('{"record_id": "X", "country_addresses": {"CHILE": 1}}', id="missing-key"),
    pytest.param('["X", "Article", {"CHILE": 1}]', id="not-an-object"),
    pytest.param('{"country_addresses": {"CHILE": 1}, "doc_type": 7, "record_id": "X"}',
                 id="numeric-doc-type"),
    pytest.param('{"country_addresses": {"CHILE": 0}, "doc_type": "Article", "record_id": "X"}',
                 id="zero-count"),
    pytest.param('{"country_addresses": {"CHILE": -2}, "doc_type": "Article", "record_id": "X"}',
                 id="negative-count"),
    pytest.param('{"country_addresses": {"CHILE": 1.5}, "doc_type": "Article", "record_id": "X"}',
                 id="fractional-count"),
    pytest.param('{"country_addresses": {"CHILE": true}, "doc_type": "Article", "record_id": "X"}',
                 id="boolean-count"),
    pytest.param('{"country_addresses": {}, "doc_type": "Article", "record_id": "X"}',
                 id="no-country"),
])
def test_malformed_documents_line_is_data_error_before_any_write(tmp_path, corpus_file, line):
    """No stage reads documents.jsonl back, but load_documents, kept while
    the benchmark's tracer wraps it, still refuses a malformed line."""
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    lines = (ws / "documents.jsonl").read_text().splitlines()
    lines[1] = line
    with pytest.raises(DataError, match="^documents.jsonl line 2: "):
        cli.load_documents("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def net_workspace(tmp_path_factory, corpus_file) -> Path:
    ws = tmp_path_factory.mktemp("net") / "ws"
    for argv in (["ingest", "--input", str(corpus_file)], ["summary"], ["net"]):
        assert main([argv[0], "--workspace", str(ws)] + argv[1:]) == EXIT_OK
    return ws


def _report_edit(**changes) -> Callable[[dict], str]:
    """An edit of a JSON intermediate that sets each key to its value, a
    callable value being applied to the key's old value."""
    def edit(obj):
        for key, value in changes.items():
            obj[key] = value(obj[key]) if callable(value) else value
        return json.dumps(obj)
    return edit


def _more_of_first_type(per_type: dict) -> dict:
    first = next(iter(per_type))
    return {**per_type, first: per_type[first] + 1}


_ANY_INTERMEDIATE_EDITS = {
    "not-json": lambda obj: json.dumps(obj) + "x",
    "unknown-key": lambda obj: '{"bogus": 1}',
    "missing-key": lambda obj: json.dumps(dict(list(obj.items())[1:])),
    "not-an-object": lambda obj: json.dumps(list(obj)),
}
_FILTER_REPORT_EDITS = {
    "per-type-a-list": _report_edit(per_type=list),
    "per-type-count-true": _report_edit(per_type=lambda per_type: dict.fromkeys(per_type, True)),
    # each of these three passes the cross-checks if read as it stands
    "count-negative": _report_edit(n_addresses_international=-1),
    "count-true": _report_edit(n_international_docs=True),
    "count-a-string": _report_edit(n_records="3"),
    # per_type still sums to n_retained, which network.json's counts no longer sum to
    "n-retained-off-by-one": _report_edit(n_retained=lambda n: n + 1, per_type=_more_of_first_type),
    "per-type-sum-off": _report_edit(per_type=_more_of_first_type),
    "international-above-retained": _report_edit(n_international_docs=10**9),
    "addresses-below-retained": _report_edit(n_addresses_total=0, n_addresses_international=0),
    "international-addresses-above-total": _report_edit(n_addresses_international=10**9),
    # the filter counts each record once: retained, dropped by type or dropped for no address
    "n-records-a-million": _report_edit(n_records=1000000),
    "n-dropped-type-a-string": _report_edit(n_dropped_type="x"),
}
# summary.json values that export would copy into report.json as they stand
_SUMMARY_EDITS = {
    "n-documents-a-string": _report_edit(n_documents="x"),
    "n-international-docs-true": _report_edit(n_international_docs=True),
    "n-records-a-float": _report_edit(n_records=float),
    "n-countries-negative": _report_edit(n_countries=-1),
    "n-addresses-total-null": _report_edit(n_addresses_total=None),
    "n-addresses-international-a-list": _report_edit(n_addresses_international=lambda n: [n]),
    "per-type-a-list": _report_edit(per_type=list),
    "per-type-count-a-string": _report_edit(per_type=lambda per_type: dict.fromkeys(per_type, "1")),
    # a share that is not the text of its two counts, which report.json restates beside its percent
    "share-international-docs-one": _report_edit(share_international_docs="1/1"),
    "share-international-docs-doubled": lambda obj: _report_edit(
        share_international_docs=f"{2 * obj['n_international_docs']}/{2 * obj['n_documents']}")(obj),
    "share-addresses-international-inverted": lambda obj: _report_edit(
        share_addresses_international=f"{obj['n_addresses_total']}/{obj['n_addresses_international']}")(obj),
    "share-addresses-international-a-number": _report_edit(share_addresses_international=0.5),
    "share-over-zero-documents": _report_edit(n_documents=0, n_international_docs=0,
                                              share_international_docs="0/0"),
    # counts that contradict each other, each share still the text of its two counts
    "international-docs-above-documents": lambda obj: _report_edit(
        n_international_docs=2 * obj["n_documents"],
        share_international_docs=f"{2 * obj['n_documents']}/{obj['n_documents']}")(obj),
    "documents-above-addresses": lambda obj: _report_edit(
        n_addresses_total=obj["n_documents"] - 1, n_addresses_international=0,
        share_addresses_international=f"0/{obj['n_documents'] - 1}")(obj),
    "international-addresses-above-addresses": lambda obj: _report_edit(
        n_addresses_international=obj["n_addresses_total"] + 1,
        share_addresses_international=f"{obj['n_addresses_total'] + 1}/{obj['n_addresses_total']}")(obj),
    "per-type-sum-off": _report_edit(per_type=_more_of_first_type),
    "documents-above-records": lambda obj: _report_edit(n_records=obj["n_documents"] - 1)(obj),
}
# thresholded/stats.json values that export would copy into report.json as they stand
_STATS_EDITS = {
    "n-nodes-a-string": _report_edit(n_nodes="x"),
    "n-edges-negative": _report_edit(n_edges=-1),
    "n-parent-links-true": _report_edit(n_parent_links=True),
    "possible-links-a-float": _report_edit(possible_links=float),
    "n-connected-nodes-null": _report_edit(n_connected_nodes=None),
    "histogram-a-list": _report_edit(degree_histogram=list),
    "histogram-degree-a-word": _report_edit(degree_histogram={"two": 1}),
    "histogram-degree-negative": _report_edit(degree_histogram={"-1": 1}),
    "histogram-degree-zero-padded": _report_edit(degree_histogram={"01": 1}),
    "histogram-count-a-string": _report_edit(degree_histogram=lambda h: dict.fromkeys(h, "1")),
    "histogram-count-negative": _report_edit(degree_histogram=lambda h: dict.fromkeys(h, -1)),
    # counts that contradict the histogram or each other
    "counts-of-another-network": _report_edit(n_nodes=99, n_edges=0),
    "n-nodes-above-histogram": _report_edit(n_nodes=lambda n: n + 1, n_connected_nodes=lambda n: n + 1),
    "n-edges-not-half-the-degree-sum": _report_edit(n_edges=lambda n: n + 1, n_parent_links=lambda n: n + 1),
    "n-connected-nodes-off-by-one": _report_edit(n_connected_nodes=lambda n: n - 1),
    "n-parent-links-below-n-edges": lambda obj: _report_edit(n_parent_links=obj["n_edges"] - 1)(obj),
    "possible-links-below-n-parent-links": lambda obj: _report_edit(
        possible_links=obj["n_parent_links"] - 1)(obj),
}


@pytest.mark.parametrize("relpath, stage, edit", [
    pytest.param(relpath, stage, edit, id=f"{name}-{relpath}-{stage}")
    for name, edit in _ANY_INTERMEDIATE_EDITS.items()
    for relpath, stage in (("filter-report.json", "summary"), ("summary.json", "export"),
                           ("thresholded/stats.json", "export"))
] + [
    pytest.param("filter-report.json", "summary", edit, id=f"{name}-filter-report.json-summary")
    for name, edit in _FILTER_REPORT_EDITS.items()
] + [
    pytest.param("summary.json", "export", edit, id=f"{name}-summary.json-export")
    for name, edit in _SUMMARY_EDITS.items()
] + [
    pytest.param("thresholded/stats.json", "export", edit, id=f"{name}-thresholded/stats.json-export")
    for name, edit in _STATS_EDITS.items()
])
def test_malformed_intermediate_is_data_error_before_any_write(tmp_path, net_workspace, capsys,
                                                               relpath, stage, edit):
    ws = tmp_path / "ws"
    shutil.copytree(net_workspace, ws)
    path = ws / relpath
    path.write_text(edit(json.loads(path.read_text())))
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main([stage, "--workspace", str(ws)]) == EXIT_DATA
    assert f"error: {relpath}: " in capsys.readouterr().err
    assert tree_bytes(ws) == before


def _doubled_fractional_papers(obj):
    p, q = obj["fractional_papers"].split("/")
    return _report_edit(fractional_papers=f"{2 * int(p)}/{2 * int(q)}")(obj)


# focus.json values that export would copy into report.json as they stand
_FOCUS_EDITS = {
    "integer-papers-a-string-and-unknown-key": _report_edit(integer_papers="x", bogus=1),
    "unknown-key": _report_edit(bogus=1),
    "missing-key": lambda obj: json.dumps({k: v for k, v in obj.items() if k != "mean_coauthorship_ratio"}),
    "integer-papers-a-string": _report_edit(integer_papers="x"),
    "integer-papers-true": _report_edit(integer_papers=True),
    "integer-papers-negative": _report_edit(integer_papers=-1),
    "fractional-papers-a-number": _report_edit(fractional_papers=1.5),
    "fractional-papers-decimal": _report_edit(fractional_papers="1.5"),
    "fractional-papers-zero": _report_edit(fractional_papers="0/1"),
    "fractional-papers-negative": _report_edit(fractional_papers="-1/2"),
    "fractional-papers-not-in-lowest-terms": _doubled_fractional_papers,
    "country-another": _report_edit(country="ATLANTIS"),
    "display-off": _report_edit(fractional_papers_display=lambda x: x + 1),
    "ratio-off": _report_edit(mean_coauthorship_ratio=lambda x: x + 1),
}


@pytest.mark.parametrize("data", [
    pytest.param(b'{"country": 1}x', id="not-json"),
    pytest.param(b'["country"]', id="not-an-object"),
    pytest.param(b'\xff{}', id="not-utf8"),
] + [pytest.param(edit, id=name) for name, edit in _FOCUS_EDITS.items()])
def test_malformed_focus_json_is_data_error_before_any_write(tmp_path, net_workspace, capsys, data):
    """``data`` is the new file's bytes, or an edit of its JSON object."""
    ws = tmp_path / "ws"
    shutil.copytree(net_workspace, ws)
    focus = focus_country(ws)
    assert main(["ego", "--workspace", str(ws), "--focus", focus]) == EXIT_OK
    relpath = f"ego/{focus}/focus.json"
    path = ws / relpath
    path.write_bytes(data if isinstance(data, bytes) else data(json.loads(path.read_text())).encode())
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["export", "--workspace", str(ws), "--focus", focus]) == EXIT_DATA
    assert f"error: {relpath}: " in capsys.readouterr().err
    assert tree_bytes(ws) == before


@pytest.mark.parametrize("focus", ["ATLANTIS", "USA"])
def test_export_focus_without_its_ego_map_is_config_error_before_any_write(tmp_path, capsys, focus):
    """export reads the focus's focus.json like every other intermediate, so
    a focus whose ego map was never made, in the network or not, stops it."""
    ws = tmp_path / "ws"
    assert main(["run", "--workspace", str(ws), "--input", str(DATA_DIR / "records_synth20.txt"),
                 "--core-k", "1"]) == EXIT_OK
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["export", "--workspace", str(ws), "--focus", focus]) == EXIT_CONFIG
    assert (f"configuration error: missing intermediate 'ego/{focus}/focus.json'; "
            "run the earlier stages first") in capsys.readouterr().err
    assert tree_bytes(ws) == before


@pytest.mark.parametrize("data, message", [
    pytest.param(b'{"stages": ', "not JSON", id="not-json"),
    pytest.param(b"[1]", "not a JSON object", id="not-an-object"),
    pytest.param(b'{"stages": [1]}', "stages is not a JSON object", id="stages-not-an-object"),
    pytest.param(b'\xff{"stages": {}}', "not UTF-8 text", id="not-utf8"),
    pytest.param(b'{"stages": {"net": 1}}', "stage 'net' is not a JSON object", id="entry-not-an-object"),
    pytest.param(b'{"stages": {"ingest": {"config": {}, "inputs": {}, "artifacts": "x"}}}',
                 "stage 'ingest': artifacts is not a JSON object", id="artifacts-not-an-object"),
    pytest.param(b'{"stages": {"ingest": {"inputs": {}, "artifacts": {}}}}',
                 "stage 'ingest': config is not a JSON object", id="config-missing"),
    pytest.param(b'{"stages": {"summary": {"config": {}, "inputs": {"a.txt": 7}, "artifacts": {}}}}',
                 "stage 'summary': inputs maps a name to a non-string", id="input-digest-not-a-string"),
    pytest.param(b'{"stages": {"core": {"config": {}, "inputs": {}, "artifacts": {"../x.csv": "y"}}}}',
                 "stage 'core': artifact '../x.csv' is not a path inside the workspace",
                 id="artifact-outside"),
])
def test_malformed_manifest_is_data_error_before_any_write(tmp_path, net_workspace, capsys,
                                                          data, message):
    ws = tmp_path / "ws"
    shutil.copytree(net_workspace, ws)
    (ws / "run-manifest.json").write_bytes(data)
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["summary", "--workspace", str(ws)]) == EXIT_DATA
    assert f"error: run-manifest.json: {message}" in capsys.readouterr().err
    assert tree_bytes(ws) == before


def _set_first(key: str, position: int, value) -> Callable[[dict], str]:
    """An edit of network.json that sets field ``position`` of its first node
    or edge to ``value``."""
    def edit(obj):
        obj[key][0][position] = value
        return json.dumps(obj)
    return edit


def _doubled_first_fraction(obj):
    p, q = obj["nodes"][0][2].split("/")
    obj["nodes"][0][2] = f"{2 * int(p)}/{2 * int(q)}"
    return json.dumps(obj)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda obj: json.dumps(obj) + "x", id="not-json"),
    pytest.param(lambda obj: json.dumps(obj["nodes"]), id="not-an-object"),
    pytest.param(lambda obj: json.dumps({"nodes": obj["nodes"]}), id="missing-key"),
    pytest.param(lambda obj: json.dumps({**obj, "cosine": []}), id="unknown-key"),
    pytest.param(lambda obj: json.dumps({"nodes": {}, "edges": obj["edges"]}), id="nodes-not-a-list"),
    pytest.param(_set_first("nodes", 0, 7), id="country-not-a-string"),
    pytest.param(lambda obj: json.dumps({**obj, "nodes": ["CHILE"] + obj["nodes"]}), id="node-not-a-list"),
    pytest.param(lambda obj: json.dumps({**obj, "nodes": [obj["nodes"][0][:2]] + obj["nodes"][1:]}),
                 id="node-too-short"),
    pytest.param(_set_first("nodes", 1, 0), id="integer-zero"),
    pytest.param(_set_first("nodes", 1, -3), id="integer-negative"),
    pytest.param(_set_first("nodes", 1, 2.0), id="integer-float"),
    pytest.param(_set_first("nodes", 1, True), id="integer-boolean"),
    pytest.param(_set_first("nodes", 2, "many"), id="fraction-not-a-ratio"),
    pytest.param(_set_first("nodes", 2, "1/0"), id="fraction-zero-denominator"),
    pytest.param(_set_first("nodes", 2, "0/1"), id="fraction-zero"),
    pytest.param(_set_first("nodes", 2, "-1/2"), id="fraction-negative"),
    pytest.param(_set_first("nodes", 2, "1.5"), id="fraction-decimal"),
    pytest.param(_set_first("nodes", 2, 1.5), id="fraction-a-number"),
    pytest.param(_doubled_first_fraction, id="fraction-not-in-lowest-terms"),
    pytest.param(lambda obj: json.dumps({**obj, "nodes": obj["nodes"] + obj["nodes"][:1]}),
                 id="duplicate-country"),
    pytest.param(_set_first("edges", 0, "AAA ATLANTIS"), id="unknown-country"),
    pytest.param(lambda obj: json.dumps({**obj, "edges": [obj["edges"][0][1::-1] + obj["edges"][0][2:]]
                                         + obj["edges"][1:]}), id="pair-out-of-order"),
    pytest.param(lambda obj: json.dumps({**obj, "edges": [[obj["edges"][0][0]] * 2 + [1]]}),
                 id="self-pair"),
    pytest.param(lambda obj: json.dumps({**obj, "edges": obj["edges"] + obj["edges"][:1]}),
                 id="duplicate-pair"),
    pytest.param(_set_first("edges", 2, 0), id="weight-zero"),
    pytest.param(_set_first("edges", 2, -1), id="weight-negative"),
    pytest.param(_set_first("edges", 2, 1.5), id="weight-float"),
    pytest.param(lambda obj: json.dumps({**obj, "edges": [obj["edges"][0] + [1]]}), id="edge-too-long"),
])
def test_malformed_network_json_is_data_error_before_any_write(tmp_path, net_workspace, capsys, edit):
    ws = tmp_path / "ws"
    shutil.copytree(net_workspace, ws)
    focus = focus_country(ws)
    path = ws / "network.json"
    path.write_text(edit(json.loads(path.read_text(encoding="utf-8"))), encoding="utf-8")
    before = tree_bytes(ws)
    for argv in (["summary"], ["net"], ["geo"], ["core", "--core-k", "2"], ["ego", "--focus", focus]):
        capsys.readouterr()
        assert main([argv[0], "--workspace", str(ws)] + argv[1:]) == EXIT_DATA, argv
        assert "error: network.json: " in capsys.readouterr().err, argv
    assert tree_bytes(ws) == before


def _drop_first_five_kept(lines: list[str]) -> list[str]:
    return lines[:5]


def _drop_one_whose_countries_survive(lines: list[str]) -> list[str]:
    countries = [set(json.loads(line)["country_addresses"]) for line in lines]
    for i, own in enumerate(countries):
        if own <= set().union(*countries[:i], *countries[i + 1:]):
            return lines[:i] + lines[i + 1:]
    raise AssertionError("every document holds a country no other document holds")


@pytest.mark.parametrize("cut", [_drop_first_five_kept, _drop_one_whose_countries_survive],
                         ids=["first-five-lines", "one-line-whose-countries-survive"])
def test_summary_of_documents_and_network_of_different_corpora_is_data_error(tmp_path, capsys, cut):
    """summary.json comes from filter-report.json and counts.csv from
    network.json, so summary refuses the two when they disagree: here the
    report is the one ingest writes for the cut's documents alone."""
    golden = DATA_DIR / "golden_corpus.txt"
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(golden)]) == EXIT_OK
    lines = (ws / "documents.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = {json.loads(line)["record_id"] for line in cut(lines)}
    records, _issues = parse_records(golden.read_text(encoding="utf-8"), "tagged")
    cut_corpus = tmp_path / "cut.txt"
    cut_corpus.write_text(write_tagged([rec for rec in records if rec.record_id in kept]), encoding="utf-8")
    assert main(["ingest", "--workspace", str(tmp_path / "cut"), "--input", str(cut_corpus)]) == EXIT_OK
    shutil.copyfile(tmp_path / "cut" / "filter-report.json", ws / "filter-report.json")
    before = tree_bytes(ws)
    capsys.readouterr()
    assert main(["summary", "--workspace", str(ws)]) == EXIT_DATA
    assert ("error: filter-report.json: its tallies and network.json describe different corpora"
            in capsys.readouterr().err)
    assert tree_bytes(ws) == before


def test_zero_documents_ingest_and_every_network_reader_exits_4(tmp_path, capsys):
    """ingest keeps zero documents as an empty network; every stage that
    reads the network then refuses it, writing nothing, and so does run,
    whose ingest is in the same batch."""
    dropped = tmp_path / "dropped.txt"
    dropped.write_text("PT J\nUT X1\nDT Meeting Abstract\nPY 2001\n"
                       "C1 Univ Zurich, Zurich, Switzerland\nER\nEF\n", encoding="utf-8")
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(dropped)]) == EXIT_OK
    assert (ws / "documents.jsonl").read_text(encoding="utf-8") == ""
    assert (ws / "network.json").read_text(encoding="utf-8") == '{"nodes": [], "edges": []}\n'
    before = tree_bytes(ws)
    for argv in (["summary"], ["net"], ["geo"], ["core", "--core-k", "2"], ["ego", "--focus", "CHILE"]):
        capsys.readouterr()
        assert main([argv[0], "--workspace", str(ws)] + argv[1:]) == EXIT_DATA, argv
        assert "error: network.json: the network has no countries" in capsys.readouterr().err, argv
    assert main(["run", "--workspace", str(ws), "--input", str(dropped)]) == EXIT_DATA
    assert tree_bytes(ws) == before
    run = tmp_path / "run"
    assert main(["run", "--workspace", str(run), "--input", str(dropped)]) == EXIT_DATA
    assert not run.exists()


def test_unknown_list_countries_warn_on_one_plain_line_each(tmp_path, corpus_file, capsys):
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    capsys.readouterr()
    assert main(["net", "--workspace", str(ws), "--include-countries", "ATLANTIS,NARNIA"]) == EXIT_OK
    assert capsys.readouterr().err.splitlines() == [
        "collabmap: warning: country not in network, skipped: ATLANTIS",
        "collabmap: warning: country not in network, skipped: NARNIA",
    ]


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


def test_subcommand_chain_equals_run_with_cosine_layouts_and_great_circles(tmp_path, corpus_file):
    thresholds = ["--min-node-fractional", "2", "--min-link-weight", "2"]
    cosine = ["--layout-weights", "cosine"]
    chained = tmp_path / "chain"
    assert main(["ingest", "--workspace", str(chained), "--input", str(corpus_file)]) == EXIT_OK
    assert main(["summary", "--workspace", str(chained)]) == EXIT_OK
    assert main(["net", "--workspace", str(chained)] + thresholds + cosine) == EXIT_OK
    focus = focus_country(chained)
    assert main(["geo", "--workspace", str(chained), "--great-circle"] + thresholds) == EXIT_OK
    assert main(["core", "--workspace", str(chained), "--core-k", "2",
                 "--core-min-link-weight", "2"] + cosine) == EXIT_OK
    assert main(["ego", "--workspace", str(chained), "--focus", focus] + cosine) == EXIT_OK
    assert main(["export", "--workspace", str(chained), "--focus", focus]) == EXIT_OK

    monolithic = tmp_path / "mono"
    assert main(["run", "--workspace", str(monolithic), "--input", str(corpus_file), "--focus", focus,
                 "--great-circle"] + RUN_FLAGS + cosine) == EXIT_OK
    tree = tree_bytes(chained)
    assert tree == tree_bytes(monolithic)
    assert f"ego/{focus}/layout.csv" in tree


def test_cosine_layouts_weight_edges_as_the_dense_matrix(tmp_path, corpus_file, monkeypatch):
    """Each laid-out edge weighs its per-edge Ochiai value, which is the
    dense cosine matrix's float for that pair, bit for bit."""
    laid_out = []
    lay_out = cli.layout_components

    def record(nodes, edges, cfg):
        laid_out.append((nodes, edges))
        return lay_out(nodes, edges, cfg)

    monkeypatch.setattr(cli, "layout_components", record)
    ws = tmp_path / "ws"
    assert main(["run", "--workspace", str(ws), "--input", str(corpus_file), "--layout-weights", "cosine",
                 "--exclude-countries", "COLOMBIA"] + RUN_FLAGS) == EXIT_OK
    sim = network.cosine_similarity(network.load_network((ws / "network.json").read_text(encoding="utf-8")))
    # one call per distinct map; here thresholded/ and core/ are the same map
    maps = {tuple((ws / prefix / name).read_bytes() for name in ("nodes.csv", "edges.csv"))
            for prefix in ("thresholded", "core")}
    assert len(laid_out) == len(maps) == len({(tuple(n), tuple(e.items())) for n, e in laid_out})
    for _nodes, edges in laid_out:
        assert edges and edges == {(a, b): sim.sim(a, b) for a, b in edges}


def test_run_lays_out_a_map_equal_to_an_earlier_one_once(tmp_path, corpus_file, monkeypatch):
    """Under RUN_FLAGS, thresholded/ and core/ are the same map. run lays it
    out once and writes the tree of the stage chain, whose net and core
    processes, each with a fresh Workspace, lay it out once each."""
    laid_out = []
    lay_out = cli.layout_components

    def record(nodes, edges, cfg):
        laid_out.append(nodes)
        return lay_out(nodes, edges, cfg)

    monkeypatch.setattr(cli, "layout_components", record)
    calls = {}
    for label, argvs in (
        ("run", [["run", "--input", str(corpus_file)] + RUN_FLAGS]),
        ("chain", [["ingest", "--input", str(corpus_file)], ["summary"], ["net"] + RUN_FLAGS[:4],
                   ["geo"] + RUN_FLAGS[:4], ["core"] + RUN_FLAGS[4:], ["export"]]),
    ):
        laid_out.clear()
        for argv in argvs:
            assert main([argv[0], "--workspace", str(tmp_path / label)] + argv[1:]) == EXIT_OK
        calls[label] = len(laid_out)
    assert calls == {"run": 1, "chain": 2}
    tree = tree_bytes(tmp_path / "run")
    for name in ("nodes.csv", "edges.csv", "layout.csv"):
        assert tree[f"thresholded/{name}"] == tree[f"core/{name}"]
    assert tree == tree_bytes(tmp_path / "chain")


def test_workspace_lays_out_each_distinct_map_once(tmp_path, monkeypatch):
    """The same nodes and edges in another edge or node order, or under
    other settings, are another map: Dijkstra's tie-breaking reads the
    edge order. An equal map gets the Layout computed first."""
    laid_out = []
    lay_out = cli.layout_components

    def record(nodes, edges, cfg):
        laid_out.append((nodes, edges, cfg))
        return lay_out(nodes, edges, cfg)

    monkeypatch.setattr(cli, "layout_components", record)
    ws = Workspace(tmp_path)
    # a square: every pair of opposite corners is joined by two equal paths
    nodes = ["A", "B", "C", "D"]
    edges = {("A", "B"): 2.0, ("A", "C"): 2.0, ("B", "D"): 2.0, ("C", "D"): 2.0}
    cfg = layout.LayoutConfig()
    first = ws.layout(nodes, edges, cfg)
    assert ws.layout(list(nodes), dict(edges), layout.LayoutConfig()) is first
    maps = [
        (nodes, dict(reversed(edges.items())), cfg),
        (nodes[::-1], edges, cfg),
        (nodes, edges, cfg._replace(seed=7)),
        (nodes, edges, cfg._replace(transform=layout.EdgeLengthTransform.UNIT)),
        (nodes, {**edges, ("A", "B"): 3.0}, cfg),
    ]
    layouts = [ws.layout(*args) for args in maps]
    assert laid_out == [(nodes, edges, cfg)] + maps
    for args, got in zip(maps, layouts):
        assert got is not first and got == lay_out(*args)
    assert Workspace(tmp_path).layout(nodes, edges, cfg) is not first


def test_line_separators_in_record_ids_run_like_the_chain(tmp_path, corpus_file):
    """JSON leaves U+0085, U+2028 and U+2029 raw in documents.jsonl's
    record ids: run, which takes the network from ingest, and the chain,
    which reads network.json back, agree on the exit code and tree."""
    odd = tmp_path / "odd.txt"
    seps = iter(["\u2028", "\u2029", "\x85"] * 3)
    lines = corpus_file.read_text(encoding="utf-8").split("\n")
    lines = [line + next(seps, "") + "x" if line.startswith("UT ") else line for line in lines]
    odd.write_text("\n".join(lines), encoding="utf-8", newline="\n")
    codes = {}
    for label, argvs in (
        ("run", [["run", "--input", str(odd)] + RUN_FLAGS]),
        ("chain", [["ingest", "--input", str(odd)], ["summary"], ["net"] + RUN_FLAGS[:4],
                   ["geo"] + RUN_FLAGS[:4], ["core"] + RUN_FLAGS[4:], ["export"]]),
    ):
        ws = tmp_path / label
        codes[label] = [main([argv[0], "--workspace", str(ws)] + argv[1:]) for argv in argvs]
    assert codes == {"run": [EXIT_OK], "chain": [EXIT_OK] * 6}
    documents_text = (tmp_path / "run" / "documents.jsonl").read_text(encoding="utf-8")
    assert "\u2028" in documents_text and "\x85" in documents_text
    assert tree_bytes(tmp_path / "run") == tree_bytes(tmp_path / "chain")


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(
        st.text(st.characters(blacklist_categories=("Cs",))),
        st.sampled_from(["Article", "Review", "Letter"]),
        st.dictionaries(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1),
                        st.integers(1, 9), min_size=1, max_size=3),
    ),
    max_size=6,
))
def test_documents_jsonl_reloads_the_documents_it_wrote(rows):
    """The documents that ingest hands to the workspace equal what
    load_documents reads back from the text ingest writes."""
    docs = [filtering.Document(rid, dt, dict(sorted(ca.items()))) for rid, dt, ca in rows]
    assert cli.load_documents(cli.documents_jsonl(docs)) == docs


def test_stages_return_their_files_and_write_nothing(tmp_path, corpus_file):
    probe = tmp_path / "probe"
    assert main(["run", "--workspace", str(probe), "--input", str(corpus_file)] + RUN_FLAGS) == EXIT_OK
    ws = tmp_path / "ws"
    argv = ["run", "--workspace", str(ws), "--input", str(corpus_file)] + RUN_FLAGS + [
        "--focus", focus_country(probe)]
    assert main(argv) == EXIT_OK
    before = tree_bytes(ws)
    manifest = json.loads(before["run-manifest.json"])["stages"]
    cfg = config_from_args(build_parser().parse_args(argv))
    workspace = Workspace(ws)
    for stage, stage_func in _STAGE_FUNCS.items():
        workspace.inputs.clear()
        files = stage_func(cfg, workspace)
        assert workspace.inputs == manifest[stage]["inputs"], stage
        assert set(files) == set(manifest[stage]["artifacts"]), stage
        for relpath, text in files.items():
            assert text.encode("utf-8") == before[relpath], relpath
    assert tree_bytes(ws) == before


def test_every_stage_input_is_its_producers_artifact(tmp_path, corpus_file):
    """ingest keys each input file by its name and the sha256 of its bytes;
    every later stage keys each file it reads by the path under which an
    earlier stage lists it, with the digest that stage recorded."""
    probe = tmp_path / "probe"
    assert main(["run", "--workspace", str(probe), "--input", str(corpus_file)] + RUN_FLAGS) == EXIT_OK
    ws = tmp_path / "ws"
    focus = focus_country(probe)
    argv = ["run", "--workspace", str(ws), "--input", str(corpus_file)] + RUN_FLAGS + ["--focus", focus]
    assert main(argv) == EXIT_OK
    stages = json.loads((ws / "run-manifest.json").read_text(encoding="utf-8"))["stages"]
    assert stages["ingest"]["inputs"] == {corpus_file.name: hashlib.sha256(corpus_file.read_bytes()).hexdigest()}
    producers = {
        relpath: (stage, digest)
        for stage, entry in stages.items()
        for relpath, digest in entry["artifacts"].items()
    }
    read = set()
    for stage, entry in stages.items():
        if stage == "ingest":
            continue
        for relpath, digest in entry["inputs"].items():
            assert relpath in producers, (stage, relpath)
            producer, produced = producers[relpath]
            assert producer != stage and produced == digest, (stage, relpath)
            read.add(relpath)
    assert f"ego/{focus}/focus.json" in read


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
    count(network, "build_coauth_network")
    count(network, "cosine_similarity")
    count(network, "load_network")
    count(registry_mod, "load_registry")
    flags = RUN_FLAGS + ["--focus", focus_country(probe), "--layout-weights", "cosine"]
    assert main(["run", "--workspace", str(tmp_path / "ws"), "--input", str(corpus_file)] + flags) == EXIT_OK
    assert calls["cosine_similarity"] <= 1
    del calls["cosine_similarity"]
    # no stage reads documents.jsonl back, and run takes the network from
    # ingest instead of re-reading network.json
    assert calls["load_documents"] == 0
    assert calls["load_network"] == 0
    assert calls == dict.fromkeys(
        ["build_coauth_network", "load_registry"], 1
    )


def test_only_ingest_builds_and_no_stage_loads_documents(tmp_path, corpus_file, monkeypatch):
    """In a chain of stage processes, ingest alone folds the documents into
    the network, no stage reads documents.jsonl back, each later stage
    loads network.json once, and only net builds the dense cosine matrix."""
    calls: dict[str, Counter] = {}
    running = [""]

    def count(module, name):
        func = getattr(module, name)

        def counted(*args, **kwargs):
            calls.setdefault(running[0], Counter())[name] += 1
            return func(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(cli, "load_documents")
    count(network, "build_coauth_network")
    count(network, "load_network")
    count(network, "cosine_similarity")
    ws = tmp_path / "ws"
    cosine = ["--layout-weights", "cosine"]
    chain = [["ingest", "--input", str(corpus_file)], ["summary"], ["net"] + cosine, ["geo"],
             ["core", "--core-k", "2"] + cosine, ["ego", "--focus", None] + cosine, ["export"]]
    for argv in chain:
        if argv[0] == "ego":
            argv[2] = focus_country(ws)
        running[0] = argv[0]
        assert main([argv[0], "--workspace", str(ws)] + argv[1:]) == EXIT_OK, argv
    assert calls == {
        "ingest": {"build_coauth_network": 1},
        "summary": {"load_network": 1},
        "net": {"load_network": 1, "cosine_similarity": 1},
        "geo": {"load_network": 1},
        "core": {"load_network": 1},
        "ego": {"load_network": 1},
    }


def test_summary_runs_without_documents_jsonl(tmp_path, corpus_file):
    """documents.jsonl is an audit artifact: summary writes run's bytes
    from a workspace that no longer holds it."""
    run = tmp_path / "run"
    assert main(["run", "--workspace", str(run), "--input", str(corpus_file)]) == EXIT_OK
    ws = tmp_path / "ws"
    assert main(["ingest", "--workspace", str(ws), "--input", str(corpus_file)]) == EXIT_OK
    (ws / "documents.jsonl").unlink()
    assert main(["summary", "--workspace", str(ws)]) == EXIT_OK
    for relpath in ("summary.json", "counts.csv"):
        assert (ws / relpath).read_bytes() == (run / relpath).read_bytes(), relpath


def test_workspace_rebuilds_the_corpus_when_documents_change(tmp_path, corpus_file, monkeypatch):
    other = tmp_path / "other.txt"
    assert main(["synth", "--out", str(other), "--docs", "80", "--countries", "10",
                 "--intl-prob", "0.5", "--seed", "3"]) == EXIT_OK
    builds = []
    build = network.build_coauth_network
    monkeypatch.setattr(network, "build_coauth_network", lambda docs: builds.append(docs) or build(docs))

    reused = Workspace(tmp_path / "reused")
    for stage, path in (("ingest", corpus_file), ("net", None), ("ingest", other), ("net", None),
                        ("geo", None)):
        _run_stage(stage, RunConfig(inputs=[str(path)] if path else []), reused)
    assert len(builds) == 2

    fresh = Workspace(tmp_path / "fresh")
    for stage in ("ingest", "net", "geo"):
        _run_stage(stage, RunConfig(inputs=[str(other)]), fresh)
    assert tree_bytes(reused.root) == tree_bytes(fresh.root)


def test_network_changed_after_ingest_is_read_from_disk(tmp_path, corpus_file, monkeypatch):
    """The network that ingest hands on is dropped once network.json no
    longer holds what ingest wrote."""
    other = tmp_path / "other.txt"
    assert main(["synth", "--out", str(other), "--docs", "80", "--countries", "10",
                 "--intl-prob", "0.5", "--seed", "3"]) == EXIT_OK
    other_ws = tmp_path / "other"
    assert main(["ingest", "--workspace", str(other_ws), "--input", str(other)]) == EXIT_OK
    assert main(["net", "--workspace", str(other_ws)]) == EXIT_OK
    edited = (other_ws / "network.json").read_bytes()
    loads = []
    load = network.load_network
    monkeypatch.setattr(network, "load_network", lambda text: loads.append(text) or load(text))

    trees = []
    for label in ("reused", "fresh"):
        ws = Workspace(tmp_path / label)
        _run_stage("ingest", RunConfig(inputs=[str(corpus_file)]), ws)
        (ws.root / "network.json").write_bytes(edited)
        if label == "fresh":
            ws = Workspace(ws.root)
        _run_stage("net", RunConfig(), ws)
        trees.append(tree_bytes(ws.root))
    assert [text.encode("utf-8") for text in loads] == [edited, edited]
    assert trees[0] == trees[1]
    assert trees[0]["network/nodes.csv"] == (other_ws / "network" / "nodes.csv").read_bytes()


# JSON's own escapes, raw control and line-separator characters, a lone
# surrogate and non-BMP text, beside any character at all
_jsonl_text = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u0085", "\ud800", "\U0001f600", "ü"]),
    st.characters(exclude_categories=()),
))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(
    filtering.Document,
    _jsonl_text,
    _jsonl_text,
    st.dictionaries(_jsonl_text, st.integers(min_value=1, max_value=10**20), min_size=1, max_size=6),
), max_size=4))
@example([filtering.Document("Zürich \"1\"", "Article", {"CÔTE D'IVOIRE": 2, "BELGIUM": 1})])
@example([])
def test_documents_jsonl_lines_are_sorted_key_json(docs):
    expected = "".join(
        json.dumps(doc._asdict(), sort_keys=True, ensure_ascii=False) + "\n" for doc in docs
    )
    assert cli.documents_jsonl(docs) == expected


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
    # a config file may open with a byte-order mark, as record files may
    config_path.write_bytes(b"\xef\xbb\xbf" + config_path.read_bytes())
    via_marked = tmp_path / "marked-ws"
    assert main(["--config", str(config_path), "run", "--workspace", str(via_marked)]) == EXIT_OK
    assert tree_bytes(via_marked) == tree_bytes(via_flags)


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


def test_option_choices_are_the_library_values():
    """The CLI spells out these choices so that parsing flags loads neither
    the layout nor the exporters; they must stay the values those accept."""
    choices = {opt.name: opt.choices for opt in OPTIONS}
    assert choices["layout_transform"] == tuple(t.value for t in layout.EdgeLengthTransform)
    assert choices["size_attr"] == vosviewer.SIZE_ATTRS
    # the table's layout defaults restate LayoutConfig's
    assert RunConfig().layout_config() == layout.LayoutConfig()
    cosine = RunConfig(layout_weights="cosine").layout_config()
    assert cosine.transform is layout.EdgeLengthTransform.ONE_MINUS_SIMILARITY


def test_each_switch_flag_turns_its_option_from_the_default():
    """A bare switch stores the opposite of its default, and --input takes
    several files."""
    switches = [opt for opt in OPTIONS if opt.parse is cli._switch]
    argv = ["run", "--workspace", "ws", "--input", "a.txt", "b.txt"] + [opt.flag for opt in switches]
    cfg = config_from_args(build_parser().parse_args(argv))
    assert {opt.name: getattr(cfg, opt.name) for opt in switches} == {
        "strict": True, "ego_alter_ties": False, "great_circle": True, "square_matrices": True,
    }
    assert cfg.inputs == ["a.txt", "b.txt"]


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
    # result fields that the tracer's counters read: a record's fields, or
    # the attributes of an instance of a mutable class
    instances = {network.CoauthNetwork: network.CoauthNetwork({}, {})}
    for cls, name in ((layout.Layout, "iterations_used"),
                      (layout.LayoutConfig, "max_outer_iterations"),
                      (filtering.FilterReport, "n_records"),
                      (filtering.FilterReport, "n_retained"),
                      (network.CoauthNetwork, "edges")):
        names = vars(instances[cls]) if cls in instances else cls._fields
        assert name in names, (cls.__name__, name)
