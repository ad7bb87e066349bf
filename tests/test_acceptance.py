"""Acceptance gate: one test per shipping criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Every tolerance is fixed here, not calibrated elsewhere.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from collabmap.cli import EXIT_OK, main
from collabmap.counting import CorpusSummary, build_incidence
from collabmap.exports.geo import export_geo
from collabmap.exports.pajek import export_pajek
from collabmap.exports.report import export_report, focus_stats
from collabmap.exports.vosviewer import export_vosviewer
from collabmap.corpus.registry import load_registry
from collabmap.layout import (
    LayoutConfig,
    layout_components,
    minimize_stress,
    stress_gradient,
)
from collabmap.network import (
    CoauthNetwork,
    NodeInfo,
    build_coauth_network,
    cosine_similarity,
    extract_core,
    network_stats,
    numbered,
    threshold_network,
)

from conftest import (
    DATA_DIR,
    GOLDEN_DIR,
    brute_force_edges,
    column_doc_sets,
    make_documents,
    read_net,
    write_net,
)
from test_cli import tree_bytes
from test_export import validate_geojson
from test_layout import random_distance_matrix, random_positions, record_outer_stress, reference_stress
from test_network import fake_network, naive_kcore_largest_component


def announce(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}", flush=True)
    assert ok, f"{name} failed {detail}"


def test_fractional_counting_conservation():
    rng = random.Random(20130101)
    start = time.perf_counter()
    for _ in range(100):
        n_docs = rng.randint(1, 5000)
        documents = make_documents(rng, n_docs, rng.randint(2, 50))
        net = build_coauth_network(documents)
        exact = sum(info.fractional_papers for info in net.nodes.values())
        assert exact == n_docs, f"drift on corpus of {n_docs} documents"
    elapsed = time.perf_counter() - start
    announce(
        "fractional-counting conservation",
        elapsed < 10.0,
        f"100 corpora, exact rational equality, {elapsed:.2f}s",
    )


def test_single_relation_rule():
    rng = random.Random(20130202)
    ok = True
    for _ in range(25):
        documents = make_documents(rng, rng.randint(1, 1000), rng.randint(2, 30), intl_prob=0.5)
        net = build_coauth_network(documents)
        if net.edges != brute_force_edges(documents):
            ok = False
            break
    # the multiplicity counterexample: {A:3, B:2} is one relation, never six
    from collabmap.corpus.filtering import Document

    single = Document("d", "Article", {"A": 3, "B": 2})
    net = build_coauth_network([single])
    ok = ok and net.edges == {("A", "B"): 1}
    announce("single-relation rule", ok, "25 corpora vs brute-force pair scan, zero tolerance")


def test_ochiai_identity():
    rng = random.Random(20130303)
    worst = 0.0
    for _ in range(50):
        documents = make_documents(rng, rng.randint(2, 400), rng.randint(2, 25), intl_prob=0.5)
        m = build_incidence(documents)
        sim = cosine_similarity(build_coauth_network(documents))
        doc_sets = column_doc_sets(m)
        for i, a in enumerate(m.countries):
            for j in range(i + 1, len(m.countries)):
                b = m.countries[j]
                c_ab = len(doc_sets[i] & doc_sets[j])
                c_aa = len(doc_sets[i])
                c_bb = len(doc_sets[j])
                expected = c_ab / math.sqrt(c_aa * c_bb) if c_aa and c_bb else 0.0
                worst = max(worst, abs(sim.sim(a, b) - expected))
    announce("Ochiai identity", worst < 1e-12, f"50 corpora, max abs deviation {worst:.2e}")


def test_paper_arithmetic_reproduction():
    summary = CorpusSummary(
        n_records=1042654,
        n_documents=778988,
        per_type={"Article": 719327, "Letter": 29989, "Review": 37685},
        n_international_docs=193216,
        share_international_docs=Fraction(193216, 778988),
        n_addresses_total=2101384,
        n_addresses_international=825664,
        share_addresses_international=Fraction(825664, 2101384),
        n_countries=201,
    )
    names = [f"C{i:03d}" for i in range(201)]
    net = fake_network({c: Fraction(1) for c in names}, {(names[0], names[1]): 1})
    stats = network_stats(threshold_network(net, 0, 0))
    indonesia = NodeInfo(integer_papers=559, fractional_papers=Fraction(2279, 10))
    focus = focus_stats("INDONESIA", CoauthNetwork(nodes={"INDONESIA": indonesia}, edges={}))
    text = export_report(summary, stats, focus)
    checks = [
        '"share_international_docs_pct": 24.8' in text,
        '"share_addresses_international_pct": 39.3' in text,
        '"possible_links": 20100' in text,
        '"mean_coauthorship_ratio": 2.5' in text,
    ]
    announce(
        "paper arithmetic reproduction",
        all(checks),
        "24.8 / 39.3 / 20100 / 2.5 as exact rendered strings",
    )


def test_threshold_semantics():
    rng = random.Random(20130404)
    ok = True
    for _ in range(10):
        documents = make_documents(rng, rng.randint(20, 300), rng.randint(3, 20), intl_prob=0.6)
        net = build_coauth_network(documents)
        for comparator in ("ge", "gt"):
            op = (lambda x, t: x >= t) if comparator == "ge" else (lambda x, t: x > t)
            node_min = Fraction(rng.randint(0, 6), 2)
            edge_min = rng.randint(0, 4)
            sub = threshold_network(net, node_min, edge_min, comparator=comparator)
            keep = {c for c in net.countries() if op(net.nodes[c].fractional_papers, node_min)}
            expected_edges = {
                pair: w
                for pair, w in net.edges.items()
                if pair[0] in keep and pair[1] in keep and op(w, edge_min)
            }
            ok = ok and set(sub.nodes) == keep and sub.edges == expected_edges
        previous_nodes, previous_edges = None, None
        for step in range(20):
            sub = threshold_network(net, Fraction(step, 3), step // 3)
            nodes, edges = set(sub.nodes), set(sub.edges)
            if previous_nodes is not None:
                ok = ok and nodes <= previous_nodes and edges <= previous_edges
            previous_nodes, previous_edges = nodes, edges
    announce("threshold semantics", ok, "predicate oracle ge/gt + 20-step monotone ladders")


def test_kcore_correctness():
    rng = random.Random(20130505)
    ok = True
    for _ in range(100):
        n = rng.randint(3, 50)
        names = [f"N{i:02d}" for i in range(n)]
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice([0.05, 0.1, 0.2]):
                    edges[(names[i], names[j])] = rng.randint(1, 4)
        net = fake_network({c: Fraction(1) for c in names}, edges)
        k = rng.randint(0, 5)
        min_w = rng.randint(1, 2)
        sub = extract_core(net, min_edge_weight=min_w, k=k)
        expected_nodes, expected_edges = naive_kcore_largest_component(names, edges, min_w, k)
        ok = ok and set(sub.nodes) == expected_nodes and sub.edges == expected_edges
        ok = ok and all(sub.degree(c) >= k for c in sub.nodes)
        if not ok:
            break
    announce("k-core correctness", ok, "100 random graphs vs iterative-deletion oracle")


def test_layout_numerics(monkeypatch):
    start = time.perf_counter()
    rng = random.Random(20130606)
    cfg = LayoutConfig()
    ok = True

    # analytic gradient vs central finite differences on the reference energy
    h = 1e-6
    for _ in range(20):
        n = rng.randint(2, 10)
        d = random_distance_matrix(rng, n)
        positions = random_positions(rng, n, spread=2.0)
        grads = stress_gradient(positions, d, cfg)
        scale = max(1.0, max(math.hypot(gx, gy) for gx, gy in grads))
        for i in range(n):
            for axis in (0, 1):
                plus = [list(p) for p in positions]
                minus = [list(p) for p in positions]
                plus[i][axis] += h
                minus[i][axis] -= h
                fd = (
                    reference_stress([tuple(p) for p in plus], d, cfg.spring_constant)
                    - reference_stress([tuple(p) for p in minus], d, cfg.spring_constant)
                ) / (2 * h)
                ok = ok and abs(grads[i][axis] - fd) / scale < 1e-5

    # stress decreases monotonically over outer iterations
    history = record_outer_stress(monkeypatch)
    for _ in range(5):
        n = rng.randint(3, 9)
        history.clear()
        minimize_stress(random_distance_matrix(rng, n), LayoutConfig(seed=rng.randint(0, 99)))
        ok = ok and len(history) >= 2
        ok = ok and all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    # two-node spring at rest length within tolerance
    two = minimize_stress([[0.0, 1.0], [1.0, 0.0]], LayoutConfig(tolerance=1e-4), nodes=["a", "b"])
    (x1, y1), (x2, y2) = two.coordinates["a"], two.coordinates["b"]
    ok = ok and abs(math.hypot(x1 - x2, y1 - y2) - 1.0) < 1e-4

    # equilateral triangle pairwise distances within 1e-3
    tri = minimize_stress(
        [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
        LayoutConfig(tolerance=1e-6),
        nodes=["a", "b", "c"],
    )
    points = [tri.coordinates[c] for c in ("a", "b", "c")]
    for i in range(3):
        for j in range(i + 1, 3):
            dist = math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
            ok = ok and abs(dist - 1.0) < 1e-3

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    announce("layout numerics", ok, f"gradient 1e-5, monotone stress, rest lengths, {elapsed:.2f}s")


def test_format_fidelity(tmp_path):
    rng = random.Random(20130707)
    registry = load_registry()
    documents = make_documents(rng, 80, 8, intl_prob=0.6)
    # rename synthetic countries onto real registry entries for geo export
    real = sorted(registry.entries)[:8]
    mapping = {f"C{i:03d}": real[i] for i in range(8)}
    from collabmap.corpus.filtering import Document

    documents = [
        Document(
            doc.record_id,
            doc.doc_type,
            {mapping[c]: v for c, v in doc.country_addresses.items()},
        )
        for doc in documents
    ]
    net = build_coauth_network(documents)
    sub = threshold_network(net, 1, 1)
    layout = layout_components(list(sub.nodes), {p: float(w) for p, w in sub.edges.items()}, LayoutConfig())

    numbering = numbered(sub, layout)
    pajek_once = export_pajek(layout, numbering)
    pajek_again = write_net(read_net(pajek_once))
    ok = pajek_again == pajek_once

    map_text, net_text = export_vosviewer(sub, layout, numbering)
    map_ids = {int(line.split("\t")[0]) for line in map_text.splitlines()[1:]}
    edge_ids = {int(v) for line in net_text.splitlines() for v in line.split("\t")[:2]}
    ok = ok and edge_ids <= map_ids and map_ids == set(range(1, len(sub.nodes) + 1))

    doc, _nodes, _links = export_geo(sub, registry)
    validate_geojson(doc)

    ws = tmp_path / "golden-check"
    rc = main([
        "run", "--workspace", str(ws),
        "--input", str(DATA_DIR / "golden_corpus.txt"),
        "--min-node-fractional", "2", "--min-link-weight", "2",
        "--core-k", "2", "--core-min-link-weight", "2",
        "--focus", "LUXEMBOURG",
    ])
    ok = ok and rc == EXIT_OK
    golden = tree_bytes(GOLDEN_DIR / "run_tree")
    produced = tree_bytes(ws)
    ok = ok and produced == golden
    announce(
        "format fidelity",
        ok,
        "pajek write-read-write identity, vos id consistency, geojson valid, goldens byte-exact",
    )


def test_end_to_end_determinism(tmp_path):
    corpus = tmp_path / "corpus.txt"
    assert main(["synth", "--out", str(corpus), "--docs", "90", "--countries", "10",
                 "--intl-prob", "0.5", "--seed", "99"]) == EXIT_OK
    flags = ["--min-node-fractional", "1", "--min-link-weight", "1"]
    ws1, ws2 = tmp_path / "a", tmp_path / "b"
    for ws in (ws1, ws2):
        assert main(["run", "--workspace", str(ws), "--input", str(corpus)] + flags) == EXIT_OK
    identical = tree_bytes(ws1) == tree_bytes(ws2)

    chained = tmp_path / "c"
    assert main(["ingest", "--workspace", str(chained), "--input", str(corpus)]) == EXIT_OK
    assert main(["summary", "--workspace", str(chained)]) == EXIT_OK
    assert main(["net", "--workspace", str(chained)] + flags) == EXIT_OK
    assert main(["geo", "--workspace", str(chained)] + flags) == EXIT_OK
    assert main(["export", "--workspace", str(chained)]) == EXIT_OK
    composed = tree_bytes(chained) == tree_bytes(ws1)
    announce(
        "end-to-end determinism",
        identical and composed,
        "repeat runs identical; subcommand chain equals monolithic run",
    )
