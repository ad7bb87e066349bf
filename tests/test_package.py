"""Package-wide promises: the README's library example runs, the only
runtime dependency is the standard library, and the benchmark's tracer
still reaches every exporter."""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import DATA_DIR

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


def test_tracer_records_a_span_for_every_exporter(tmp_path):
    """perfbench/tracer.py rebinds each exporter on its module; an exporter
    renamed, or imported into the CLI by name, would escape its span."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), str(ROOT / "src"), "--",
         "run", "--workspace", str(tmp_path / "ws"), "--input", str(DATA_DIR / "records_synth20.txt")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert {"exports.geo", "exports.pajek", "exports.vosviewer"} <= names
