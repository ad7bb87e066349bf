"""Package-wide promises: the README's library example runs, and the only
runtime dependency is the standard library."""

import ast
import json
import shutil
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
