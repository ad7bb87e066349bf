"""Output-correctness gate and the layout-stress metric.

Every oracle here is written from the file formats and the paper's
definitions, not by calling collabmap: the single-relation edge fold, the
exact fractional tally, the Ochiai similarity and the stress of a laid-out
graph are recomputed from ``documents.jsonl`` and the artifact files.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import json
import math
from fractions import Fraction
from pathlib import Path

MANIFEST = "run-manifest.json"
OCHIAI_TOLERANCE = 1e-6
MIN_EDGE_LENGTH = 1e-6
# subnetwork directory prefix -> stage whose manifest entry holds its layout config
LAYOUT_STAGES = {"thresholded": "net", "core": "core", "ego": "ego"}


# ---------------------------------------------------------------------------
# artifact tree
# ---------------------------------------------------------------------------

def file_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its '/'-separated relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tree_digest(digests: dict[str, str]) -> str:
    """One sha256 over the sorted (path, digest) pairs of a tree."""
    lines = "".join(f"{path}\t{digest}\n" for path, digest in sorted(digests.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def manifest_problems(root: Path, digests: dict[str, str]) -> list[str]:
    """Artifacts the manifest lists whose digest differs from the file on disk."""
    try:
        manifest = json.loads((root / MANIFEST).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable manifest: {exc}"]
    problems = []
    for stage, entry in sorted(manifest.get("stages", {}).items()):
        for path, digest in sorted(entry.get("artifacts", {}).items()):
            if digests.get(path) != digest:
                problems.append(f"manifest {stage}: {path} does not match the file on disk")
    if not manifest.get("stages"):
        problems.append("manifest lists no stages")
    return problems


# ---------------------------------------------------------------------------
# oracles over documents.jsonl
# ---------------------------------------------------------------------------

class Corpus:
    """Retained documents as per-country address counts, with derived tallies."""

    def __init__(self, root: Path):
        self.docs: list[dict[str, int]] = []
        with open(root / "documents.jsonl", encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    self.docs.append(json.loads(line)["country_addresses"])
        # documents each country appears in, and the single-relation fold
        self.papers: dict[str, int] = {}
        self.edges: dict[tuple[str, str], int] = {}
        for addresses in self.docs:
            members = sorted(addresses)
            for i, a in enumerate(members):
                self.papers[a] = self.papers.get(a, 0) + 1
                for b in members[i + 1:]:
                    self.edges[(a, b)] = self.edges.get((a, b), 0) + 1

    def fractional(self) -> dict[str, Fraction]:
        totals: dict[str, Fraction] = {}
        for addresses in self.docs:
            row_sum = sum(int(v) for v in addresses.values())
            for country, v in addresses.items():
                totals[country] = totals.get(country, Fraction(0)) + Fraction(int(v), row_sum)
        return totals

    def ochiai(self, a: str, b: str) -> float:
        a, b = min(a, b), max(a, b)
        denom = math.sqrt(self.papers.get(a, 0) * self.papers.get(b, 0))
        return self.edges.get((a, b), 0) / denom if denom else 0.0


def _rows(path: Path) -> list[list[str]]:
    """The data rows of a CSV artifact, header dropped."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _edge_table(path: Path) -> dict[tuple[str, str], int]:
    return {(a, b): int(w) for a, b, w in _rows(path)}


def oracle_problems(root: Path, corpus: Corpus) -> list[str]:
    """Compare the network, counts and cosine artifacts with the oracles."""
    problems = []
    edges_path = root / "network" / "edges.csv"
    if _edge_table(edges_path) != corpus.edges:
        problems.append("network/edges.csv differs from the single-relation fold of documents.jsonl")

    expected = {c: f"{float(v):.6f}" for c, v in corpus.fractional().items()}
    got = {row[0]: row[3] for row in _rows(root / "counts.csv") if row[2] == "fractional"}
    if got != expected:
        bad = sorted(c for c in expected.keys() | got.keys() if got.get(c) != expected.get(c))
        problems.append(f"counts.csv fractional rows differ from the exact tally: {bad[:5]}")

    countries = sorted(corpus.papers)
    cosine = {(a, b): float(v) for a, b, v in _rows(root / "network" / "cosine.csv")}
    pairs = {(a, b) for i, a in enumerate(countries) for b in countries[i + 1:]}
    if set(cosine) != pairs:
        problems.append("network/cosine.csv does not hold exactly one row per country pair")
    worst = max((abs(v - corpus.ochiai(a, b)) for (a, b), v in cosine.items()), default=0.0)
    if worst > OCHIAI_TOLERANCE:
        problems.append(f"network/cosine.csv is off the Ochiai value by {worst:.3g}")
    return problems


# ---------------------------------------------------------------------------
# layout stress
# ---------------------------------------------------------------------------

def _edge_length(weight: float, transform: str) -> float:
    if transform == "inverse_log_weight":
        length = 1.0 / math.log1p(weight)
    elif transform == "one_minus_similarity":
        length = 1.0 - weight
    else:
        length = 1.0
    return max(length, MIN_EDGE_LENGTH)


def _component_stress(members, coords, adjacency, diameter, spring) -> float:
    """Stress of one component against its scaled shortest-path distances."""
    n = len(members)
    if n < 2:
        return 0.0
    dist = []
    for source in members:
        best = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > best[u]:
                continue
            for v, length in adjacency[u]:
                nd = d + length
                if nd < best.get(v, math.inf):
                    best[v] = nd
                    heapq.heappush(heap, (nd, v))
        dist.append([best[m] for m in members])
    longest = max(max(row) for row in dist)
    scale = diameter / longest if longest > 0 else 1.0
    total = 0.0
    for i in range(n):
        xi, yi = coords[members[i]]
        for j in range(i + 1, n):
            dij = min(dist[i][j], dist[j][i]) * scale
            xj, yj = coords[members[j]]
            r = math.hypot(xi - xj, yi - yj)
            total += spring / (dij * dij) * (r - dij) ** 2
    return 0.5 * total


def layout_stress(root: Path, corpus: Corpus) -> float:
    """Summed stress of every layout.csv, per connected component."""
    manifest = json.loads((root / MANIFEST).read_text(encoding="utf-8"))["stages"]
    total = 0.0
    for layout_path in sorted(root.rglob("layout.csv")):
        folder = layout_path.parent
        cfg = manifest[LAYOUT_STAGES[folder.relative_to(root).parts[0]]]["config"]["layout"]
        coords = {name: (float(x), float(y)) for name, x, y in _rows(layout_path)}
        adjacency: dict[str, list[tuple[str, float]]] = {name: [] for name in coords}
        for (a, b), w in _edge_table(folder / "edges.csv").items():
            weight = corpus.ochiai(a, b) if cfg["weights"] == "cosine" else float(w)
            length = _edge_length(weight, cfg["transform"])
            adjacency[a].append((b, length))
            adjacency[b].append((a, length))
        unvisited = set(coords)
        while unvisited:
            stack = [min(unvisited)]
            unvisited.discard(stack[0])
            members = []
            while stack:
                node = stack.pop()
                members.append(node)
                for other, _length in adjacency[node]:
                    if other in unvisited:
                        unvisited.discard(other)
                        stack.append(other)
            total += _component_stress(
                sorted(members), coords, adjacency, cfg["diameter"], cfg["spring_constant"]
            )
    return total
