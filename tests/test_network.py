import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap.corpus.filtering import Document
from collabmap.counting import build_incidence
from collabmap.errors import DataError
from collabmap.network import (
    CoauthNetwork,
    NodeInfo,
    build_coauth_network,
    cooccurrence_triples_csv,
    cosine_similarity,
    ego_network,
    extract_core,
    load_network,
    network_json,
    network_stats,
    ochiai,
    similarity_square_csv,
    subnetwork_by_list,
    threshold_network,
)

from conftest import (
    brute_force_edges,
    column_doc_sets,
    fractional_tally,
    make_documents,
    reference_network,
)


def doc(record_id, addresses):
    return Document(record_id, "Article", dict(sorted(addresses.items())))


def network_from_documents(documents):
    return build_incidence(documents), build_coauth_network(documents)


def fake_network(node_weights: dict[str, Fraction], edges: dict[tuple[str, str], int]):
    """Hand-assembled network for threshold/core/ego tests."""
    nodes = {
        c: NodeInfo(integer_papers=int(w) + 1, fractional_papers=Fraction(w))
        for c, w in node_weights.items()
    }
    return CoauthNetwork(nodes=nodes, edges={tuple(sorted(k)): v for k, v in edges.items()})


# ---------------------------------------------------------------------------
# co-authorship network construction
# ---------------------------------------------------------------------------

def test_single_relation_not_address_product():
    _m, net = network_from_documents([doc("d1", {"A": 3, "B": 2})])
    assert net.edges == {("A", "B"): 1}


def test_single_country_document_no_edges():
    _m, net = network_from_documents([doc("d1", {"A": 1})])
    assert net.edges == {}
    assert net.degree("A") == 0


def test_edges_match_brute_force_oracle():
    rng = random.Random(29)
    documents = make_documents(rng, 50, 10, intl_prob=0.6)
    _m, net = network_from_documents(documents)
    assert net.edges == brute_force_edges(documents)


def test_node_attributes_copied_from_counts():
    documents = [doc("d1", {"A": 2, "B": 1}), doc("d2", {"A": 1})]
    m, net = network_from_documents(documents)
    assert net.nodes["A"].integer_papers == 2
    assert net.nodes["A"].fractional_papers == Fraction(2, 3) + 1
    assert net.nodes["B"].fractional_papers == Fraction(1, 3)
    assert net.degree("A") == 1


def fold_corpus(seed: int) -> list[Document]:
    """Documents whose country dicts are in random order, with 1 to 60
    addresses each, about a third of them from a single country."""
    rng = random.Random(seed)
    countries = [f"C{i:02d}" for i in range(rng.randint(1, 40))]
    documents = []
    for i in range(rng.randint(1, 250)):
        k = 1 if rng.random() < 0.35 else rng.randint(1, min(8, len(countries)))
        total = rng.randint(k, 60)
        cuts = sorted(rng.sample(range(1, total), k - 1))
        counts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        documents.append(Document(f"R{i}", "Article", dict(zip(rng.sample(countries, k), counts))))
    return documents


@pytest.mark.parametrize("seed", range(24))
def test_fold_equals_the_reference_chain_and_the_oracles(seed):
    documents = fold_corpus(seed)
    net = build_coauth_network(documents)
    reference = reference_network(documents)
    assert list(net.nodes.items()) == list(reference.nodes.items())
    assert list(net.nodes) == sorted(net.nodes)
    assert [str(info.fractional_papers) for info in net.nodes.values()] == [
        str(info.fractional_papers) for info in reference.nodes.values()
    ]
    assert {c: info.fractional_papers for c, info in net.nodes.items()} == fractional_tally(documents)
    assert list(net.edges.items()) == list(reference.edges.items())
    assert list(net.edges.items()) == list(brute_force_edges(documents).items())
    assert network_json(net) == network_json(reference)
    assert network_json(build_coauth_network(d for d in documents)) == network_json(net)


def test_fold_of_single_country_documents_equals_the_reference_chain():
    """Single-country documents with several address counts for one country,
    countries first seen alone and later shared (A, C) or the other way round
    (B), and one address total (3) reached both alone and shared by A."""
    documents = [doc("d1", {"A": 3}), doc("d2", {"A": 1}), doc("d3", {"A": 2, "B": 1}),
                 doc("d4", {"C": 2}), doc("d5", {"B": 2, "C": 1}), doc("d6", {"A": 3}),
                 doc("d7", {"A": 1, "C": 3}), doc("d8", {"B": 4}), doc("d9", {"C": 5})]
    net = build_coauth_network(documents)
    reference = reference_network(documents)
    assert list(net.nodes.items()) == list(reference.nodes.items())
    assert list(net.edges.items()) == list(reference.edges.items())
    assert network_json(net) == network_json(reference)
    assert {c: info.fractional_papers for c, info in net.nodes.items()} == fractional_tally(documents)
    assert net.nodes["A"] == NodeInfo(5, Fraction(47, 12))
    assert net.nodes["C"] == NodeInfo(4, Fraction(37, 12))


def test_fold_of_no_documents_is_the_empty_network():
    for documents in ([], iter(())):
        net = build_coauth_network(documents)
        assert net == CoauthNetwork(nodes={}, edges={})
        assert network_json(net) == '{"nodes": [], "edges": []}\n'


def test_fold_sorts_each_documents_countries():
    net = build_coauth_network([Document("d1", "Article", {"C": 1, "A": 59}),
                                Document("d2", "Article", {"B": 2, "C": 1, "A": 1})])
    assert list(net.nodes) == ["A", "B", "C"]
    assert list(net.edges.items()) == [(("A", "C"), 2), (("A", "B"), 1), (("B", "C"), 1)]
    assert net.nodes["A"].fractional_papers == Fraction(59, 60) + Fraction(1, 4)


def test_edge_weights_equal_binarized_inner_products():
    for seed in range(31, 36):
        documents = make_documents(random.Random(seed), 80, 9, intl_prob=0.5)
        m, net = network_from_documents(documents)
        doc_sets = column_doc_sets(m)
        for i, a in enumerate(m.countries):
            assert net.nodes[a].integer_papers == len(doc_sets[i])
            for j in range(i + 1, len(m.countries)):
                assert net.weight(a, m.countries[j]) == len(doc_sets[i] & doc_sets[j])


# ---------------------------------------------------------------------------
# cosine similarity
# ---------------------------------------------------------------------------

def cosine_of(documents):
    return cosine_similarity(network_from_documents(documents)[1])


def test_cosine_identical_columns():
    documents = [doc("d1", {"A": 1, "B": 2}), doc("d2", {"A": 3, "B": 1})]
    sim = cosine_of(documents)
    assert sim.sim("A", "B") == pytest.approx(1.0)


def test_cosine_orthogonal_columns():
    documents = [doc("d1", {"A": 1}), doc("d2", {"B": 1})]
    sim = cosine_of(documents)
    assert sim.sim("A", "B") == 0.0


def test_cosine_hand_computed_overlap():
    documents = [
        doc("d1", {"A": 1}),
        doc("d2", {"A": 1, "B": 1}),
        doc("d3", {"A": 1, "B": 1}),
        doc("d4", {"B": 1}),
    ]
    sim = cosine_of(documents)
    assert sim.sim("A", "B") == pytest.approx(2 / 3, abs=1e-12)


def test_ochiai_identity_against_incidence():
    for seed in range(37, 42):
        documents = make_documents(random.Random(seed), 120, 12, intl_prob=0.5)
        m, net = network_from_documents(documents)
        sim = cosine_similarity(net)
        doc_sets = column_doc_sets(m)
        assert sim.countries == m.countries
        for i, a in enumerate(m.countries):
            assert sim.sim(a, a) == 1.0
            for j in range(i + 1, len(m.countries)):
                b = m.countries[j]
                c_ab = len(doc_sets[i] & doc_sets[j])
                assert sim.sim(a, b) == c_ab / math.sqrt(len(doc_sets[i]) * len(doc_sets[j]))
                assert 0.0 <= sim.sim(a, b) <= 1.0
                assert sim.sim(a, b) == sim.sim(b, a)


def test_per_edge_ochiai_equals_the_dense_matrix():
    """Layouts weight each edge by ochiai() alone; its floats are the dense
    matrix's, bit for bit."""
    for seed in range(43, 48):
        _m, net = network_from_documents(make_documents(random.Random(seed), 150, 14, intl_prob=0.6))
        sim = cosine_similarity(net)
        for (a, b), w in net.edges.items():
            assert ochiai(w, net.nodes[a].integer_papers, net.nodes[b].integer_papers) == sim.sim(a, b)
    assert ochiai(0, 0, 5) == 0.0


def test_cosine_ignores_address_multiplicities():
    documents = [doc("d1", {"A": 4, "B": 1}), doc("d2", {"A": 1, "B": 1})]
    sim = cosine_of(documents)
    assert sim.sim("A", "B") == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# thresholding
# ---------------------------------------------------------------------------

def test_zero_thresholds_identity():
    rng = random.Random(41)
    documents = make_documents(rng, 60, 8, intl_prob=0.5)
    _m, net = network_from_documents(documents)
    sub = threshold_network(net, 0, 0)
    assert list(sub.nodes) == net.countries()
    assert sub.edges == net.edges


def test_node_below_threshold_excluded():
    net = fake_network(
        {"CYPRUS": Fraction(406), "GERMANY": Fraction(70000), "FRANCE": Fraction(50000)},
        {("CYPRUS", "GERMANY"): 600, ("FRANCE", "GERMANY"): 9000},
    )
    sub = threshold_network(net, 500, 500)
    assert "CYPRUS" not in sub.nodes
    assert list(sub.nodes) == ["FRANCE", "GERMANY"]
    assert sub.edges == {("FRANCE", "GERMANY"): 9000}


def test_threshold_matches_predicate_oracle_both_comparators():
    rng = random.Random(43)
    documents = make_documents(rng, 150, 10, intl_prob=0.6)
    _m, net = network_from_documents(documents)
    for comparator in ("ge", "gt"):
        op = (lambda x, t: x >= t) if comparator == "ge" else (lambda x, t: x > t)
        for node_min, edge_min in ((0, 0), (1, 1), (2, 1), (3, 2)):
            sub = threshold_network(net, node_min, edge_min, comparator=comparator)
            expected_nodes = [
                c for c in net.countries() if op(net.nodes[c].fractional_papers, node_min)
            ]
            keep = set(expected_nodes)
            expected_edges = {
                pair: w
                for pair, w in net.edges.items()
                if pair[0] in keep and pair[1] in keep and op(w, edge_min)
            }
            assert list(sub.nodes) == expected_nodes
            assert sub.edges == expected_edges


def test_threshold_monotone_ladders():
    rng = random.Random(47)
    documents = make_documents(rng, 200, 9, intl_prob=0.6)
    _m, net = network_from_documents(documents)
    previous_nodes = None
    previous_edges = None
    for step in range(20):
        sub = threshold_network(net, Fraction(step, 2), step // 2)
        nodes = set(sub.nodes)
        edges = set(sub.edges)
        if previous_nodes is not None:
            assert nodes <= previous_nodes
            assert edges <= previous_edges
        previous_nodes, previous_edges = nodes, edges


def test_isolated_qualifying_nodes_kept_and_flagged():
    net = fake_network(
        {"A": Fraction(1000), "B": Fraction(1000), "C": Fraction(900)},
        {("A", "B"): 700, ("A", "C"): 10},
    )
    sub = threshold_network(net, 500, 500)
    assert list(sub.nodes) == ["A", "B", "C"]
    assert sub.isolated_nodes() == ["C"]


# ---------------------------------------------------------------------------
# core extraction
# ---------------------------------------------------------------------------

def naive_kcore_largest_component(nodes, edges, min_w, k):
    """Oracle: repeated full rescans over an explicit edge list."""
    kept = set(nodes)
    filtered = {pair for pair, w in edges.items() if w >= min_w}
    while True:
        degrees = {c: 0 for c in kept}
        for a, b in filtered:
            if a in kept and b in kept:
                degrees[a] += 1
                degrees[b] += 1
        low = {c for c in kept if degrees[c] < k}
        if not low:
            break
        kept -= low
    if not kept:
        return set(), {}
    # components by repeated frontier expansion
    components = []
    remaining = set(kept)
    while remaining:
        seed = min(remaining)
        component = {seed}
        while True:
            grew = False
            for a, b in filtered:
                if a in kept and b in kept:
                    if a in component and b not in component:
                        component.add(b)
                        grew = True
                    elif b in component and a not in component:
                        component.add(a)
                        grew = True
            if not grew:
                break
        components.append(component)
        remaining -= component
    components.sort(key=lambda comp: (-len(comp), min(comp)))
    best = components[0]
    kept_edges = {
        pair: w for pair, w in edges.items()
        if pair in filtered and pair[0] in best and pair[1] in best
    }
    return best, kept_edges


def test_triangle_is_its_own_2core():
    net = fake_network(
        {"A": Fraction(1), "B": Fraction(1), "C": Fraction(1)},
        {("A", "B"): 1, ("B", "C"): 1, ("A", "C"): 1},
    )
    sub = extract_core(net, min_edge_weight=1, k=2)
    assert list(sub.nodes) == ["A", "B", "C"]
    assert len(sub.edges) == 3


def test_path_peels_to_empty_for_k2():
    net = fake_network(
        {"A": Fraction(1), "B": Fraction(1), "C": Fraction(1)},
        {("A", "B"): 1, ("B", "C"): 1},
    )
    sub = extract_core(net, min_edge_weight=1, k=2)
    assert list(sub.nodes) == []
    assert sub.edges == {}


def test_k1_degenerates_to_largest_component():
    net = fake_network(
        {c: Fraction(1) for c in "ABCDEF"},
        {("A", "B"): 1, ("B", "C"): 1, ("D", "E"): 1},
    )
    sub = extract_core(net, min_edge_weight=1, k=1)
    assert list(sub.nodes) == ["A", "B", "C"]


def test_random_graphs_match_naive_oracle():
    rng = random.Random(53)
    for trial in range(30):
        n = rng.randint(4, 30)
        names = [f"N{i:02d}" for i in range(n)]
        edges = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.15:
                    edges[(names[i], names[j])] = rng.randint(1, 5)
        net = fake_network({c: Fraction(1) for c in names}, edges)
        k = rng.randint(0, 4)
        min_w = rng.randint(1, 3)
        sub = extract_core(net, min_edge_weight=min_w, k=k)
        expected_nodes, expected_edges = naive_kcore_largest_component(names, edges, min_w, k)
        assert set(sub.nodes) == expected_nodes
        assert sub.edges == expected_edges
        for c in sub.nodes:
            assert sub.degree(c) >= k


# ---------------------------------------------------------------------------
# ego networks
# ---------------------------------------------------------------------------

def test_isolated_focus_single_node():
    net = fake_network({"A": Fraction(1), "B": Fraction(1)}, {})
    sub = ego_network(net, "A")
    assert list(sub.nodes) == ["A"]
    assert sub.edges == {}


def test_star_focus_center_keeps_whole_star():
    edges = {("HUB", leaf): 2 for leaf in ("L1", "L2", "L3", "L4")}
    net = fake_network({c: Fraction(1) for c in ("HUB", "L1", "L2", "L3", "L4")}, edges)
    sub = ego_network(net, "HUB", min_edge_weight=1)
    assert list(sub.nodes) == ["HUB", "L1", "L2", "L3", "L4"]
    assert len(sub.edges) == 4


def test_unknown_focus_rejected():
    net = fake_network({"A": Fraction(1)}, {})
    with pytest.raises(DataError, match="NOWHERE"):
        ego_network(net, "NOWHERE")


def test_ego_matches_adjacency_oracle():
    rng = random.Random(59)
    names = [f"N{i:02d}" for i in range(40)]
    edges = {}
    for i in range(40):
        for j in range(i + 1, 40):
            if rng.random() < 0.12:
                edges[(names[i], names[j])] = rng.randint(1, 6)
    net = fake_network({c: Fraction(1) for c in names}, edges)
    focus = "N04"
    min_w = 3
    for alter_ties in (True, False):
        sub = ego_network(net, focus, min_edge_weight=min_w, include_alter_ties=alter_ties)
        # oracle: raw adjacency scan
        neighbors = set()
        for (a, b), w in edges.items():
            if w >= min_w and focus in (a, b):
                neighbors.add(b if a == focus else a)
        assert len(neighbors) == 6
        assert set(sub.nodes) == neighbors | {focus}
        expected = {
            tuple(sorted((a, b))): w
            for (a, b), w in edges.items()
            if w >= min_w and focus in (a, b)
        }
        if alter_ties:
            for (a, b), w in edges.items():
                if w >= min_w and a in neighbors and b in neighbors:
                    expected[tuple(sorted((a, b)))] = w
        assert sub.edges == expected


def shuffled_network(seed: int) -> CoauthNetwork:
    """A random network whose edges are in neither sorted nor build order,
    so an extractor's edge order shows whether it kept the parent's."""
    rng = random.Random(seed)
    names = [f"N{i:02d}" for i in range(30)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < 0.25]
    rng.shuffle(pairs)
    net = fake_network({c: Fraction(rng.randint(0, 6)) for c in names},
                       {pair: rng.randint(1, 6) for pair in pairs})
    assert list(net.edges) != sorted(net.edges)
    return net


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_threshold_core_and_list_keep_the_parents_edge_order(seed):
    """Layout tie-breaking and the layout key read the edge order, so each
    induced extractor lists its edges in the parent's order."""
    net = shuffled_network(seed)
    subs = [threshold_network(net, 2, 2), threshold_network(net, 2, 2, comparator="gt"),
            extract_core(net, 2, 2), extract_core(net, 1, 3),
            subnetwork_by_list(net, net.countries()[::2]),
            subnetwork_by_list(net, net.countries()[::3], mode="exclude")]
    for sub in subs:
        assert len(sub.edges) > 1
        assert list(sub.edges) == [pair for pair in net.edges if pair in sub.edges]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_ego_lists_the_focus_ties_by_alter_then_the_alter_ties_in_parent_order(seed):
    net = shuffled_network(seed)
    focus = max(net.countries(), key=net.degree)
    for alter_ties in (True, False):
        sub = ego_network(net, focus, min_edge_weight=2, include_alter_ties=alter_ties)
        alters = sorted(c for c in sub.nodes if c != focus)
        focus_ties = [tuple(sorted((focus, alter))) for alter in alters]
        alter_ties_in_order = [pair for pair in net.edges if pair in sub.edges and focus not in pair]
        assert len(focus_ties) > 1 and (len(alter_ties_in_order) > 1 or not alter_ties)
        assert list(sub.edges) == focus_ties + alter_ties_in_order


@pytest.mark.parametrize("node_weights", [{}, {"A": Fraction(1), "B": Fraction(2)}])
def test_unknown_comparator_is_value_error_on_any_network(node_weights):
    net = fake_network(node_weights, {("A", "B"): 1} if node_weights else {})
    with pytest.raises(ValueError, match="^comparator must be 'ge' or 'gt', got 'sideways'$"):
        threshold_network(net, 0, 0, comparator="sideways")


# ---------------------------------------------------------------------------
# explicit node lists
# ---------------------------------------------------------------------------

def test_exclusion_of_outliers_drops_three():
    names = [f"C{i:03d}" for i in range(190)] + ["KOSOVO", "GIBRALTAR", "NETHERLANDS ANTILLES"]
    edges = {(names[i], names[i + 1]): 1 for i in range(0, 180, 2)}
    net = fake_network({c: Fraction(1) for c in names}, edges)
    assert len(net.nodes) == 193
    sub = subnetwork_by_list(net, ["KOSOVO", "GIBRALTAR", "NETHERLANDS ANTILLES"], mode="exclude")
    assert len(sub.nodes) == 190


def test_inclusion_of_everything_is_identity():
    rng = random.Random(61)
    documents = make_documents(rng, 60, 7, intl_prob=0.5)
    _m, net = network_from_documents(documents)
    sub = subnetwork_by_list(net, net.countries(), mode="include")
    assert list(sub.nodes) == net.countries()
    assert sub.edges == net.edges


def test_inclusion_matches_set_oracle_and_warns_on_unknown():
    rng = random.Random(67)
    documents = make_documents(rng, 80, 9, intl_prob=0.5)
    _m, net = network_from_documents(documents)
    wanted = net.countries()[:4] + ["ATLANTIS"]
    with pytest.warns(UserWarning, match="ATLANTIS"):
        sub = subnetwork_by_list(net, wanted, mode="include")
    keep = set(net.countries()[:4])
    assert set(sub.nodes) == keep
    assert sub.edges == {
        pair: w for pair, w in net.edges.items() if pair[0] in keep and pair[1] in keep
    }


# ---------------------------------------------------------------------------
# every extraction is a network of its input
# ---------------------------------------------------------------------------

def assert_network_of(sub, parent):
    """``sub`` holds ``parent``'s own node records in sorted order, names it
    as parent, and counts each degree from its own edges."""
    assert sub.parent is parent
    assert list(sub.nodes) == sorted(sub.nodes)
    counted = Counter(c for pair in sub.edges for c in pair)
    for c, info in sub.nodes.items():
        assert info is parent.nodes[c]
        assert sub.degree(c) == counted[c]
    assert sub.isolated_nodes() == [c for c in sub.nodes if counted[c] == 0]


def test_every_extraction_is_a_network_of_its_input():
    for seed in range(20):
        rng = random.Random(1000 + seed)
        documents = make_documents(rng, 120, rng.randint(3, 14), intl_prob=0.6)
        _m, net = network_from_documents(documents)
        assert net.parent is None
        assert all(net.degree(c) == sum(c in pair for pair in net.edges) for c in net.nodes)
        names = net.countries()
        extracted = []
        for comparator in ("ge", "gt"):
            for node_min, edge_min in ((0, 0), (1, 1), (Fraction(5, 2), 2)):
                extracted.append((threshold_network(net, node_min, edge_min, comparator), net))
        for k in range(5):
            extracted.append((extract_core(net, rng.randint(1, 3), k), net))
        focus = rng.choice(names)
        for alter_ties in (True, False):
            extracted.append((ego_network(net, focus, rng.randint(1, 2), alter_ties), net))
        listed = rng.sample(names, rng.randint(1, len(names)))
        for mode in ("include", "exclude"):
            restricted = subnetwork_by_list(net, listed, mode)
            extracted.append((restricted, net))
            extracted.append((threshold_network(restricted, 1, 1), restricted))
        for sub, parent in extracted:
            assert_network_of(sub, parent)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_possible_links_of_201_node_parent():
    names = [f"C{i:03d}" for i in range(201)]
    edges = {(names[i], names[i + 1]): 1 for i in range(200)}
    net = fake_network({c: Fraction(1) for c in names}, edges)
    sub = threshold_network(net, 0, 0)
    stats = network_stats(sub)
    assert stats.possible_links == 20100
    assert stats.n_parent_links == 200


def test_empty_subnetwork_stats_all_zero():
    net = fake_network({}, {})
    sub = threshold_network(net, 0, 0)
    stats = network_stats(sub)
    assert stats.n_nodes == 0
    assert stats.n_edges == 0
    assert stats.n_parent_links == 0
    assert stats.possible_links == 0
    assert stats.n_connected_nodes == 0
    assert stats.degree_histogram == {}


def test_stats_match_recount_oracle():
    rng = random.Random(71)
    documents = make_documents(rng, 100, 10, intl_prob=0.6)
    _m, net = network_from_documents(documents)
    sub = threshold_network(net, 1, 2)
    stats = network_stats(sub)
    # oracle: recount everything from the raw pair dict
    assert stats.n_nodes == len(sub.nodes)
    assert stats.n_edges == sum(1 for _ in sub.edges)
    assert stats.n_parent_links == sum(1 for _ in net.edges)
    n = len(net.nodes)
    assert stats.possible_links == n * (n - 1) // 2
    touched = {c for pair in sub.edges for c in pair}
    assert stats.n_connected_nodes == len(touched)
    histogram = {}
    for c in sub.nodes:
        d = sum(1 for pair in sub.edges if c in pair)
        histogram[d] = histogram.get(d, 0) + 1
    assert stats.degree_histogram == histogram


def test_matrix_csv_exports():
    documents = [doc("d1", {"A": 1, "B": 2}), doc("d2", {"B": 1, "C": 1})]
    _m, net = network_from_documents(documents)
    triples = cooccurrence_triples_csv(net.edges)
    assert triples.splitlines()[0] == "country_a,country_b,value"
    assert "A,B,1" in triples
    square = similarity_square_csv(cosine_similarity(net))
    lines = square.splitlines()
    assert lines[0] == ",A,B,C"
    assert lines[1].startswith("A,1.000000,")


# ---------------------------------------------------------------------------
# determinism over document order
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_network_permutation_invariance(seed):
    rng = random.Random(seed)
    documents = make_documents(rng, 40, 6, intl_prob=0.6)
    shuffled = list(documents)
    rng.shuffle(shuffled)
    _m1, net1 = network_from_documents(documents)
    _m2, net2 = network_from_documents(shuffled)
    assert net1.edges == net2.edges
    assert net1.nodes == net2.nodes


# ---------------------------------------------------------------------------
# network.json
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_network_json_loads_back_the_network(seed):
    rng = random.Random(seed)
    documents = make_documents(rng, rng.randint(1, 120), rng.randint(1, 15), intl_prob=rng.random())
    _m, net = network_from_documents(documents)
    loaded = load_network(network_json(net))
    assert loaded.nodes == net.nodes
    assert list(loaded.edges.items()) == list(net.edges.items())
    assert list(loaded.nodes) == list(net.nodes)


def test_network_json_writes_exact_fractions_in_node_order():
    documents = [doc("d1", {"A": 1, "B": 2}), doc("d2", {"B": 1, "C": 1}), doc("d3", {"A": 5})]
    _m, net = network_from_documents(documents)
    assert network_json(net) == (
        '{"nodes": [["A", 2, "4/3"], ["B", 2, "7/6"], ["C", 1, "1/2"]], '
        '"edges": [["A", "B", 1], ["B", "C", 1]]}\n'
    )
    assert network_json(CoauthNetwork(nodes={}, edges={})) == '{"nodes": [], "edges": []}\n'
    assert load_network('{"nodes": [], "edges": []}') == CoauthNetwork(nodes={}, edges={})
