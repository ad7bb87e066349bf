import csv
import io
import json
import math
import random
import re
import subprocess
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from collabmap.corpus.filtering import Document, FilterReport, canonical_doc_type
from collabmap.corpus.records import _FILE_END, _RECORD_END, _RECORD_START, ParseIssue, RawRecord
from collabmap.corpus.registry import CountryRegistry, Unrecognized, load_registry, resolve_country
from collabmap.counting import (
    CorpusSummary,
    build_incidence,
    format_fixed,
    fractional_counts,
    integer_counts,
)
from collabmap.errors import DataError
from collabmap.layout import Layout, LayoutConfig, ideal_distances, minimize_stress
from collabmap.network import CoauthNetwork, NodeInfo, connected_components, ochiai

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


def starts(python: str) -> bool:
    """Whether the interpreter ``python`` runs at all."""
    try:
        return subprocess.run([python, "-c", "pass"], capture_output=True, timeout=60).returncode == 0
    except OSError:
        return False


@pytest.fixture(scope="session")
def registry():
    return load_registry()


def make_documents(rng: random.Random, n_docs: int, n_countries: int, intl_prob: float = 0.35):
    """Random retained-document corpora for property and oracle tests."""
    countries = [f"C{i:03d}" for i in range(n_countries)]
    documents = []
    for i in range(n_docs):
        if rng.random() < intl_prob and n_countries >= 2:
            k = rng.randint(2, min(5, n_countries))
        else:
            k = 1
        members = rng.sample(countries, k)
        addresses = {c: rng.randint(1, 4) for c in members}
        documents.append(
            Document(
                record_id=f"R{i:05d}",
                doc_type=rng.choice(["Article", "Review", "Letter"]),
                country_addresses=dict(sorted(addresses.items())),
            )
        )
    return documents


def brute_force_edges(documents) -> dict[tuple[str, str], int]:
    """Single-relation oracle: per-document scan over unordered pairs."""
    weights: dict[tuple[str, str], int] = {}
    for doc in documents:
        members = sorted(doc.country_addresses)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                key = (members[i], members[j])
                weights[key] = weights.get(key, 0) + 1
    return weights


def fractional_tally(documents) -> dict[str, Fraction]:
    """Independent fractional-count oracle working per document."""
    totals: dict[str, Fraction] = {}
    for doc in documents:
        total = sum(doc.country_addresses.values())
        for country, count in doc.country_addresses.items():
            totals[country] = totals.get(country, Fraction(0)) + Fraction(count, total)
    return totals


def reference_network(documents) -> CoauthNetwork:
    """The network as the incidence chain builds it: counting's reference
    matrix and counts, and each row's sorted country pairs in row order;
    the fold of network.build_coauth_network must equal it."""
    m = build_incidence(documents)
    ints, fracs = integer_counts(m), fractional_counts(m)
    edges: dict[tuple[str, str], int] = {}
    for row in m.rows:
        members = sorted(row)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                key = (m.countries[a], m.countries[b])
                edges[key] = edges.get(key, 0) + 1
    return CoauthNetwork(nodes={c: NodeInfo(ints[c], fracs[c]) for c in m.countries}, edges=edges)


class DenseCosine(NamedTuple):
    """Cosine as a dense table: every pair of countries, the diagonal
    included, keyed in name order, and the two CSV texts written from it;
    cosine_similarity's view and the writers that read it pair by pair
    must equal it byte for byte."""

    countries: list[str]
    values: dict[tuple[str, str], float]

    def sim(self, a: str, b: str) -> float:
        if a == b:
            return self.values.get((a, a), 0.0)
        return self.values.get((a, b) if a < b else (b, a), 0.0)

    def triples_csv(self) -> str:
        lines = ["country_a,country_b,value"]
        pairs = sorted(pair for pair in self.values if pair[0] != pair[1])
        for a, b in pairs:
            lines.append(f"{a},{b},{self.values[(a, b)]:.6f}")
        return "\n".join(lines) + "\n"

    def square_csv(self) -> str:
        names = sorted(self.countries)
        lines = ["," + ",".join(names)]
        for a in names:
            lines.append(a + "," + ",".join(f"{self.sim(a, b):.6f}" for b in names))
        return "\n".join(lines) + "\n"


def reference_cosine(net: CoauthNetwork) -> DenseCosine:
    """The n(n+1)/2 cosine values of ``net``, each built once up front."""
    values: dict[tuple[str, str], float] = {}
    countries = net.countries()
    sizes = [net.nodes[c].integer_papers for c in countries]
    for i, ci in enumerate(countries):
        values[(ci, ci)] = 1.0 if sizes[i] else 0.0
        for j in range(i + 1, len(countries)):
            shared = net.edges.get((ci, countries[j]), 0)
            values[(ci, countries[j])] = ochiai(shared, sizes[i], sizes[j])
    return DenseCosine(countries=countries, values=values)


def incidence_row(m, doc_index: int) -> dict[int, int]:
    """Country index -> address count for one document, read off the matrix."""
    return dict(m.rows[doc_index])


def column_doc_sets(m) -> list[set[int]]:
    """Document-membership set per country (the binarized columns): the
    Ochiai oracle, whose set intersections the network's edge weights and
    cosine values must equal."""
    sets: list[set[int]] = [set() for _ in m.countries]
    for d, row in enumerate(m.rows):
        for c in row:
            sets[c].add(d)
    return sets


def incidence_summary_stats(m) -> dict[str, int]:
    """Summary numbers recomputed straight from the matrix.

    Independent of ``counting.summarize``; the two paths must agree on every
    field they share.
    """
    per_doc_countries = [len(row) for row in m.rows]
    per_doc_addresses = [sum(row.values()) for row in m.rows]
    intl = [d for d in range(len(m.rows)) if per_doc_countries[d] >= 2]
    return {
        "n_documents": len(m.rows),
        "n_international_docs": len(intl),
        "n_addresses_total": sum(per_doc_addresses),
        "n_addresses_international": sum(per_doc_addresses[d] for d in intl),
        "n_countries": len(m.countries),
    }


def reference_summarize(documents, report: FilterReport) -> CorpusSummary:
    """The corpus summary counted over the documents themselves, as summary
    computed it when it read documents.jsonl back; counting.summarize, which
    reads the filter's tallies and the network, must equal it."""
    if not documents:
        raise DataError("corpus summary undefined for zero documents")
    per_type: dict[str, int] = {}
    for doc in documents:
        per_type[doc.doc_type] = per_type.get(doc.doc_type, 0) + 1
    n_docs = len(documents)
    international = [doc for doc in documents if len(doc.country_addresses) >= 2]
    n_intl = len(international)
    addresses_total = sum(sum(doc.country_addresses.values()) for doc in documents)
    addresses_intl = sum(sum(doc.country_addresses.values()) for doc in international)
    countries = {c for doc in documents for c in doc.country_addresses}
    return CorpusSummary(
        n_records=report.n_records,
        n_documents=n_docs,
        per_type=dict(sorted(per_type.items())),
        n_international_docs=n_intl,
        share_international_docs=Fraction(n_intl, n_docs),
        n_addresses_total=addresses_total,
        n_addresses_international=addresses_intl,
        share_addresses_international=Fraction(addresses_intl, addresses_total),
        n_countries=len(countries),
    )


def tallied(report: FilterReport, documents) -> FilterReport:
    """``report`` with the tallies of the retained ``documents`` filled in
    from reference_summarize."""
    if not documents:
        return report
    summary = reference_summarize(documents, report)
    return report._replace(
        per_type=summary.per_type,
        n_international_docs=summary.n_international_docs,
        n_addresses_total=summary.n_addresses_total,
        n_addresses_international=summary.n_addresses_international,
    )


# ---------------------------------------------------------------------------
# per-line oracles for the corpus path: the tagged parser that tests each
# line with _is_tag_line, and the filter that resolves every address line
# on its own; parse_records and filter_documents must equal them
# ---------------------------------------------------------------------------

def _is_tag_line(line: str) -> bool:
    return len(line) >= 2 and line[:2].isalnum() and line[:2].isupper() and (
        len(line) == 2 or line[2] == " "
    )


def _parse_tagged(text: str, source_name: str) -> tuple[list[RawRecord], list[ParseIssue]]:
    records: list[RawRecord] = []
    issues: list[ParseIssue] = []
    seen_ids: set[str] = set()

    fields: dict[str, list[str]] = {}
    in_record = False
    start_line = 0
    ordinal = 0
    current_tag: str | None = None

    def discard(line_no: int, message: str) -> None:
        nonlocal in_record, current_tag
        issues.append(ParseIssue(line_no, message))
        fields.clear()
        in_record = False
        current_tag = None

    def close_record(line_no: int) -> None:
        nonlocal in_record, current_tag
        record_id = fields.get("UT", [""])[0].strip() or f"{source_name}#{ordinal}"
        if record_id in seen_ids:
            discard(line_no, f"duplicate record id {record_id!r}; record dropped")
            return
        seen_ids.add(record_id)
        year_raw = fields.get("PY", ["0"])[0].strip()
        try:
            year = int(year_raw) if year_raw else 0
        except ValueError:
            issues.append(ParseIssue(py_line, f"bad year {year_raw!r} in {record_id}"))
            year = 0
        title = " ".join(fields["TI"]) if "TI" in fields else None
        records.append(
            RawRecord(
                record_id=record_id,
                doc_type=fields.get("DT", [""])[0].strip(),
                pub_year=year,
                address_lines=tuple(a for a in fields.get("C1", []) if a.strip()),
                title=title,
            )
        )
        fields.clear()
        in_record = False
        current_tag = None

    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if line.startswith("   ") and in_record:
            if current_tag is None:
                issues.append(ParseIssue(line_no, "continuation line without a field"))
                continue
            # repeatable fields (C1) gain a new item; scalar fields (TI)
            # are re-joined with spaces when the record closes
            fields[current_tag].append(stripped)
            continue
        if not _is_tag_line(line):
            if in_record:
                issues.append(ParseIssue(line_no, f"unparseable line inside record: {stripped!r}"))
            else:
                issues.append(ParseIssue(line_no, f"content outside any record: {stripped!r}"))
            continue
        tag, value = line[:2], line[3:].strip() if len(line) > 3 else ""
        if tag == _RECORD_START:
            if in_record:
                discard(line_no, "record not terminated by ER; span dropped")
            in_record = True
            start_line = line_no
            ordinal += 1
            current_tag = None
            continue
        if tag == _FILE_END:
            if in_record:
                discard(line_no, "record not terminated by ER before EF; span dropped")
            break
        if not in_record:
            issues.append(ParseIssue(line_no, f"field {tag!r} outside any record"))
            continue
        if tag == _RECORD_END:
            close_record(line_no)
            continue
        current_tag = tag
        if tag == "PY" and tag not in fields:
            py_line = line_no
        fields.setdefault(tag, []).append(value)
    if in_record:
        issues.append(ParseIssue(start_line, "record not terminated by ER at end of input; span dropped"))
    return records, issues


def reference_filter_documents(
    records: list[RawRecord],
    registry: CountryRegistry,
    synonyms: dict[str, str] | None = None,
) -> tuple[list[Document], FilterReport]:
    """filter_documents with one resolve_country call per address line,
    its tallies of the retained documents counted afterwards."""
    documents: list[Document] = []
    unrecognized: Counter = Counter()
    n_dropped_type = n_dropped_no_address = 0
    for rec in records:
        doc_type = canonical_doc_type(rec.doc_type, synonyms)
        if doc_type is None:
            n_dropped_type += 1
            continue
        counts: dict[str, int] = {}
        for line in rec.address_lines:
            resolved = resolve_country(line, registry)
            if isinstance(resolved, Unrecognized):
                unrecognized[resolved.token] += 1
            else:
                counts[resolved] = counts.get(resolved, 0) + 1
        if not counts:
            n_dropped_no_address += 1
            continue
        documents.append(
            Document(
                record_id=rec.record_id,
                doc_type=doc_type,
                country_addresses=dict(sorted(counts.items())),
            )
        )
    report = FilterReport(len(records), len(documents), n_dropped_type, n_dropped_no_address, unrecognized)
    return documents, tallied(report, documents)


# ---------------------------------------------------------------------------
# format oracles: a Pajek NET reader with the vertex/edge model it fills and
# a writer for that model, and a writer of the delimited record layout;
# export_pajek must survive write_net(read_net(...)) byte for byte, and
# parse_records must read back what write_delimited writes
# ---------------------------------------------------------------------------

_VERTEX_RE = re.compile(
    r'^(\d+) "((?:[^"]|"")*)"(?: (-?[0-9.]+) (-?[0-9.]+) (-?[0-9.]+))?$'
)


@dataclass(frozen=True)
class NetVertex:
    vid: int
    label: str
    x: float | None = None
    y: float | None = None
    z: float | None = None


@dataclass
class NetFileModel:
    vertices: list[NetVertex]
    edges: list[tuple[int, int, int]]


def write_net(model: NetFileModel) -> str:
    lines = [f"*Vertices {len(model.vertices)}"]
    for v in model.vertices:
        label = v.label.replace('"', '""')
        if v.x is None:
            lines.append(f'{v.vid} "{label}"')
        else:
            lines.append(
                f'{v.vid} "{label}" {format_fixed(v.x)} {format_fixed(v.y)} {format_fixed(v.z)}'
            )
    lines.append("*Edges")
    for a, b, w in model.edges:
        lines.append(f"{a} {b} {w}")
    return "\n".join(lines) + "\n"


def read_net(text: str) -> NetFileModel:
    vertices: list[NetVertex] = []
    edges: list[tuple[int, int, int]] = []
    section = None
    declared = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        lowered = line.lower()
        if lowered.startswith("*vertices"):
            section = "vertices"
            parts = line.split()
            if len(parts) < 2 or not parts[1].isdigit():
                raise DataError(f"line {line_no}: malformed *Vertices header")
            declared = int(parts[1])
            continue
        if lowered.startswith("*edges"):
            section = "edges"
            continue
        if lowered.startswith("*"):
            raise DataError(f"line {line_no}: unsupported section {line!r}")
        if section == "vertices":
            match = _VERTEX_RE.match(line)
            if not match:
                raise DataError(f"line {line_no}: malformed vertex line {line!r}")
            vid = int(match.group(1))
            label = match.group(2).replace('""', '"')
            if match.group(3) is None:
                vertices.append(NetVertex(vid, label))
            else:
                vertices.append(
                    NetVertex(
                        vid,
                        label,
                        float(match.group(3)),
                        float(match.group(4)),
                        float(match.group(5)),
                    )
                )
        elif section == "edges":
            parts = line.split()
            if len(parts) != 3:
                raise DataError(f"line {line_no}: malformed edge line {line!r}")
            edges.append((int(parts[0]), int(parts[1]), int(parts[2])))
        else:
            raise DataError(f"line {line_no}: content before any section")
    if declared != len(vertices):
        raise DataError(f"vertex count mismatch: declared {declared}, found {len(vertices)}")
    ids = {v.vid for v in vertices}
    if ids != set(range(1, len(vertices) + 1)):
        raise DataError("vertex ids must be dense 1..n")
    for a, b, _w in edges:
        if a not in ids or b not in ids:
            raise DataError(f"edge ({a}, {b}) references unknown vertex")
    return NetFileModel(vertices=vertices, edges=edges)


def write_delimited(records: list[RawRecord]) -> str:
    """Serialize records as the delimited CSV fallback layout."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "doc_type", "year", "addresses"])
    for rec in records:
        writer.writerow([rec.record_id, rec.doc_type, rec.pub_year, "; ".join(rec.address_lines)])
    return buf.getvalue()


def oracle_geojson(sub, registry, s_min=1.0, s_scale=1.0, great_circle=False) -> str:
    """The GeoJSON document of export_geo built as a dict and written by
    json.dumps(indent=2), whose bytes export_geo's direct text must equal."""
    from collabmap.exports.geo import display_size, great_circle_points

    def coord(lon, lat):
        return [round(lon, 6), round(lat, 6)]

    features = []
    for country in sorted(sub.nodes):
        entry = registry.entries[country]
        fractional = sub.nodes[country].fractional_papers
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": coord(entry.longitude, entry.latitude)},
            "properties": {
                "country": country,
                "iso3": entry.iso3,
                "fractional_papers": round(float(fractional), 6),
                "display_size": round(display_size(fractional, s_min, s_scale), 6),
            },
        })
    for (a, b), w in sorted(sub.edges.items()):
        ea, eb = registry.entries[a], registry.entries[b]
        if great_circle:
            path = great_circle_points(ea.latitude, ea.longitude, eb.latitude, eb.longitude)
        else:
            path = [(ea.latitude, ea.longitude), (eb.latitude, eb.longitude)]
        features.append({
            "type": "Feature",
            "geometry": {"type": "LineString", "coordinates": [coord(lon, lat) for lat, lon in path]},
            "properties": {"weight": w, "label": f"{a}–{b}: {w}"},
        })
    document = {"type": "FeatureCollection", "features": features}
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def _oracle_to_cartesian(lat: float, lon: float) -> tuple[float, float, float]:
    phi, lam = math.radians(lat), math.radians(lon)
    return (math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi))


def _oracle_to_geographic(x: float, y: float, z: float) -> tuple[float, float]:
    return math.degrees(math.asin(max(-1.0, min(1.0, z)))), math.degrees(math.atan2(y, x))


def oracle_great_circle_points(
    lat_a: float, lon_a: float, lat_b: float, lon_b: float, n: int = 32
) -> list[tuple[float, float]]:
    """great_circle_points as it was with a per-point generator and
    sin(omega) recomputed per point, whose floats the inline one must equal."""
    va = _oracle_to_cartesian(lat_a, lon_a)
    vb = _oracle_to_cartesian(lat_b, lon_b)
    dot = max(-1.0, min(1.0, sum(p * q for p, q in zip(va, vb))))
    omega = math.acos(dot)
    if math.sin(omega) < 1e-9:
        return [(lat_a, lon_a), (lat_b, lon_b)]
    points = []
    for step in range(n):
        t = step / (n - 1)
        fa = math.sin((1.0 - t) * omega) / math.sin(omega)
        fb = math.sin(t * omega) / math.sin(omega)
        points.append(
            _oracle_to_geographic(*(fa * pa + fb * pb for pa, pb in zip(va, vb)))
        )
    return points


# ---------------------------------------------------------------------------
# layout oracles: the per-pair kernels with a _separation call for every pair,
# the O(n) gradient upkeep that recomputes g_m, and layout_components with
# one filter over all edges per component; the inlined kernels and the
# one-pass grouping must equal them bit for bit
# ---------------------------------------------------------------------------

def _separation(p: tuple[float, float], q: tuple[float, float], jitter: float):
    dx, dy = p[0] - q[0], p[1] - q[1]
    r = math.hypot(dx, dy)
    if r == 0.0:
        dx, dy = jitter, 0.0
        r = jitter
    return dx, dy, r


def oracle_stress(
    positions: list[tuple[float, float]],
    d: list[list[float]],
    cfg: LayoutConfig,
) -> float:
    """Total spring energy of a configuration (rigid-motion invariant)."""
    n = len(positions)
    jitter = 1e-9 * cfg.diameter
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            dij = d[i][j]
            _dx, _dy, r = _separation(positions[i], positions[j], jitter)
            total += cfg.spring_constant / (dij * dij) * (r - dij) ** 2
    return 0.5 * total


def oracle_node_gradient(i, positions, d, cfg):
    jitter = 1e-9 * cfg.diameter
    gx = gy = 0.0
    for j in range(len(positions)):
        if j == i:
            continue
        dij = d[i][j]
        dx, dy, r = _separation(positions[i], positions[j], jitter)
        factor = cfg.spring_constant / (dij * dij) * (1.0 - dij / r)
        gx += factor * dx
        gy += factor * dy
    return gx, gy


def oracle_update_gradients(grads, m, before, positions, d, cfg) -> None:
    """Bring every kept gradient up to date after node m moved from ``before``
    to ``positions[m]``: O(n) instead of a full O(n^2) recompute."""
    jitter = 1e-9 * cfg.diameter
    after = positions[m]
    for i in range(len(positions)):
        if i == m:
            continue
        dim = d[i][m]
        k = cfg.spring_constant / (dim * dim)
        dx0, dy0, r0 = _separation(positions[i], before, jitter)
        dx1, dy1, r1 = _separation(positions[i], after, jitter)
        f0 = k * (1.0 - dim / r0)
        f1 = k * (1.0 - dim / r1)
        gx, gy = grads[i]
        grads[i] = (gx + (f1 * dx1 - f0 * dx0), gy + (f1 * dy1 - f0 * dy0))
    grads[m] = oracle_node_gradient(m, positions, d, cfg)


def oracle_node_energy(i, p, positions, d, cfg):
    jitter = 1e-9 * cfg.diameter
    total = 0.0
    for j in range(len(positions)):
        if j == i:
            continue
        dij = d[i][j]
        _dx, _dy, r = _separation(p, positions[j], jitter)
        total += cfg.spring_constant / (dij * dij) * (r - dij) ** 2
    return 0.5 * total


def oracle_node_hessian(i, positions, d, cfg):
    jitter = 1e-9 * cfg.diameter
    hxx = hyy = hxy = 0.0
    for j in range(len(positions)):
        if j == i:
            continue
        dij = d[i][j]
        k = cfg.spring_constant / (dij * dij)
        dx, dy, r = _separation(positions[i], positions[j], jitter)
        r3 = r * r * r
        hxx += k * (1.0 - dij * dy * dy / r3)
        hyy += k * (1.0 - dij * dx * dx / r3)
        hxy += k * dij * dx * dy / r3
    return hxx, hyy, hxy


def oracle_layout_components(
    nodes: list[str],
    edges: dict[tuple[str, str], float],
    cfg: LayoutConfig,
) -> Layout:
    """Lay out each connected component, then pack them left to right.

    Components are ordered largest first (name tie-break) and separated by
    a gap of a quarter diameter; the combined picture is recentred on its
    centroid.
    """
    adjacency: dict[str, set[str]] = {c: set() for c in nodes}
    for a, b in edges:
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    components = sorted(
        (sorted(comp) for comp in connected_components(set(nodes), adjacency)),
        key=lambda comp: (-len(comp), comp[0]),
    )

    gap = 0.25 * cfg.diameter
    coordinates: dict[str, tuple[float, float]] = {}
    total_stress = 0.0
    iterations = 0
    x_cursor = 0.0
    for component in components:
        members = set(component)
        member_edges = {
            pair: w for pair, w in edges.items() if pair[0] in members and pair[1] in members
        }
        part = minimize_stress(ideal_distances(component, member_edges, cfg), cfg, nodes=component)
        xs = [p[0] for p in part.coordinates.values()]
        ys = [p[1] for p in part.coordinates.values()]
        min_x, max_x = min(xs), max(xs)
        min_y = min(ys)
        for name in component:
            x, y = part.coordinates[name]
            coordinates[name] = (x - min_x + x_cursor, y - min_y)
        x_cursor += (max_x - min_x) + gap
        total_stress += part.final_stress
        iterations += part.iterations_used

    if coordinates:
        cx = sum(p[0] for p in coordinates.values()) / len(coordinates)
        cy = sum(p[1] for p in coordinates.values()) / len(coordinates)
        coordinates = {name: (x - cx, y - cy) for name, (x, y) in coordinates.items()}
    return Layout(coordinates=coordinates, final_stress=total_stress, iterations_used=iterations)
