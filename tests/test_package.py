"""Package-wide promises: the README's library example runs, the only
runtime dependency is the standard library, the benchmark's tracer still
reaches every exporter, and every supported interpreter writes the same
bytes."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import DATA_DIR, starts

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "collabmap"


def readme_library_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_readme_library_block_runs(tmp_path, monkeypatch):
    shutil.copy(DATA_DIR / "records_synth20.txt", tmp_path / "corpus.txt")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(readme_library_block(), "README.md", "exec"), namespace)
    assert namespace["documents"]
    assert json.loads(namespace["geojson"])["type"] == "FeatureCollection"
    assert set(namespace["sim"].countries) == set(namespace["net"].nodes)
    assert namespace["pajek_net"].startswith("*Vertices ")


def test_package_imports_only_the_standard_library():
    foreign = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "collabmap" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert foreign == []


def test_only_counting_names_the_reference_chain():
    """The incidence chain is the reference the fold is tested against, not a
    pipeline step: no module but counting.py names it, in code or a string."""
    chain = {"IncidenceMatrix", "build_incidence", "integer_counts", "fractional_counts"}
    named = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "counting.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in chain:
                named.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")
    assert named == []


def test_tracer_records_a_span_for_every_exporter(tmp_path):
    """perfbench/tracer.py rebinds each exporter, extractor and layout step
    on its module; one renamed, or imported into the CLI by name, would
    escape its span."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), str(ROOT / "src"), "--",
         "run", "--workspace", str(tmp_path / "ws"), "--input", str(DATA_DIR / "records_synth20.txt"),
         "--core-k", "2", "--focus", "USA"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert {"exports.geo", "exports.pajek", "exports.vosviewer"} <= names
    assert {
        "network.build", "network.extract", "network.stats", "network.csv",
        "layout.components", "layout.distances", "layout.minimize",
    } <= names


# Runs one command and prints the collabmap modules loaded by its end, and
# dataclasses and inspect if they are loaded.
MODULES_PROBE = (
    "import json, sys\n"
    "from collabmap import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "tops = ('collabmap', 'dataclasses', 'inspect')\n"
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in tops)))\n"
    "sys.exit(code)\n"
)
# start-up a command need not pay: importing these, and generating classes with them
SLOW_IMPORTS = {"dataclasses", "inspect"}

# the modules each command loads beyond collabmap, cli, errors and workspace
MAP_MODULES = {"network", "layout", "counting", "exports.pajek", "exports.vosviewer"}
COMMAND_MODULES = {
    "synth": {"corpus.records", "corpus.registry", "synth"},
    "ingest": {"network", "corpus.records", "corpus.filtering", "corpus.registry"},
    "summary": {"counting", "network", "corpus.filtering", "corpus.registry"},
    "net": MAP_MODULES,
    "geo": {"network", "counting", "corpus.registry", "exports.geo"},
    "core": MAP_MODULES,
    "ego": MAP_MODULES | {"exports.report"},
    "export": {"counting", "network", "exports.report"},
}


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """A stage process imports what its stage calls, so a fresh interpreter
    ends each command with exactly the table's modules loaded, and with
    neither dataclasses nor inspect."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    workspace = ["--workspace", str(tmp_path / "ws")]
    argvs = {
        "synth": ["--out", str(tmp_path / "corpus.txt"), "--docs", "20"],
        "ingest": workspace + ["--input", str(DATA_DIR / "records_synth20.txt")],
        "summary": workspace,
        "net": workspace,
        "geo": workspace,
        "core": workspace + ["--core-k", "2"],
        "ego": workspace + ["--focus", "USA"],
        "export": workspace + ["--focus", "USA"],
    }
    loaded = {}
    for command, args in argvs.items():
        proc = subprocess.run([sys.executable, "-c", MODULES_PROBE, command, *args],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, (command, proc.stderr)
        loaded[command] = set(json.loads(proc.stdout.splitlines()[-1]))
    for command, names in loaded.items():
        assert not names & SLOW_IMPORTS, (command, sorted(names & SLOW_IMPORTS))
    for command, modules in COMMAND_MODULES.items():
        names = {f"collabmap.{m}" for m in modules | {"cli", "errors", "workspace"}}
        packages = {name.rpartition(".")[0] for name in names}
        assert loaded[command] == names | packages, command
    for command, names in loaded.items():
        assert ("collabmap.layout" in names) == (command in ("net", "core", "ego")), command
        assert ("collabmap.corpus.records" in names) == (command in ("synth", "ingest")), command
        assert ("collabmap.synth" in names) == (command == "synth"), command


def test_workspace_module_loads_only_errors():
    """The workspace contract imports nothing of collabmap but errors, so a
    command that only checks a workspace loads no stage, network or layout."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    probe = ("import json, sys, collabmap.workspace\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'collabmap')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == ["collabmap", "collabmap.errors", "collabmap.workspace"]


def test_every_command_help_exits_zero():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for command in ([], *([c] for c in COMMAND_MODULES), ["run"]):
        proc = subprocess.run([sys.executable, "-m", "collabmap.cli", *command, "--help"],
                              capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: collabmap"), (command, proc.stderr)


def run_tree(python: str, workspace: Path, **env: str) -> dict[str, bytes]:
    """The files that ``collabmap run`` on the synth corpus writes under
    ``python``, with ``env`` added to its environment, keyed by their path
    in the workspace: both cosine files and cosine-weighted layouts among
    them."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    proc = subprocess.run(
        [python, "-m", "collabmap.cli", "run", "--workspace", str(workspace),
         "--input", str(DATA_DIR / "records_synth20.txt"), "--core-k", "2", "--focus", "USA",
         "--square-matrices", "--layout-weights", "cosine"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        path.relative_to(workspace).as_posix(): path.read_bytes()
        for path in sorted(workspace.rglob("*")) if path.is_file()
    }


def test_reruns_under_other_hash_seeds_write_the_same_tree(tmp_path):
    """No artifact byte hangs on the order of a set or dict of strings."""
    trees = [run_tree(sys.executable, tmp_path / f"seed{seed}", PYTHONHASHSEED=str(seed)) for seed in (0, 1)]
    assert trees[0]["documents.jsonl"] and trees[0]["network/cosine-square.csv"]
    assert trees[1] == trees[0]


def test_other_interpreters_write_the_same_tree(tmp_path):
    """requires-python is >=3.10: the layout's float kernels (math.hypot
    among them) must give the same bytes on every version that is here."""
    others = [
        path for path in (shutil.which(f"python3.{minor}") for minor in (10, 12, 13))
        if path and starts(path)
    ]
    if not others:
        pytest.skip("no python3.10, python3.12 or python3.13 starts here")
    expected = run_tree(sys.executable, tmp_path / "current")
    for k, python in enumerate(others):
        assert run_tree(python, tmp_path / f"other{k}") == expected, python
