import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap.counting import CorpusSummary
from collabmap.corpus.registry import CountryEntry, CountryRegistry, load_registry
from collabmap.errors import DataError
from collabmap.exports.geo import display_size, export_geo, great_circle_points
from collabmap.exports.pajek import export_pajek
from collabmap.exports.report import export_report, focus_stats, load_focus, report_dict
from collabmap.exports.vosviewer import export_vosviewer
from collabmap.layout import Layout, LayoutConfig, layout_components
from collabmap.network import (
    CoauthNetwork,
    NodeInfo,
    NetworkStats,
    build_coauth_network,
    network_stats,
    numbered,
    threshold_network,
)

from conftest import (
    make_documents, oracle_geo_csvs, oracle_geojson, oracle_great_circle_points, read_net, write_net,
)
from test_network import fake_network


def make_layout(points: dict[str, tuple[float, float]]) -> Layout:
    return Layout(coordinates=points, final_stress=0.0, iterations_used=0)


def small_subnetwork():
    net = fake_network(
        {"A": Fraction(3), "B": Fraction(2)},
        {("A", "B"): 7},
    )
    return threshold_network(net, 0, 0)


def fixture_subnetwork():
    rng = random.Random(113)
    documents = make_documents(rng, 60, 8, intl_prob=0.6)
    net = build_coauth_network(documents)
    return net, threshold_network(net, 1, 1)


# ---------------------------------------------------------------------------
# Pajek
# ---------------------------------------------------------------------------

def test_pajek_two_node_exact_bytes():
    # both nodes on one point: each flat axis maps to the middle of the box
    layout = make_layout({"A": (3.0, 3.0), "B": (3.0, 3.0)})
    assert export_pajek(layout, numbered(small_subnetwork(), layout)) == (
        '*Vertices 2\n'
        '1 "A" 0.500000 0.500000 0.500000\n'
        '2 "B" 0.500000 0.500000 0.500000\n'
        '*Edges\n'
        '1 2 7\n'
    )


def test_pajek_empty_network():
    net = fake_network({}, {})
    sub = threshold_network(net, 0, 0)
    layout = make_layout({})
    assert export_pajek(layout, numbered(sub, layout)) == "*Vertices 0\n*Edges\n"


def test_pajek_with_coordinates_in_unit_box():
    sub = small_subnetwork()
    layout = make_layout({"A": (-2.0, 1.0), "B": (4.0, -1.0)})
    text = export_pajek(layout, numbered(sub, layout))
    assert text == (
        '*Vertices 2\n'
        '1 "A" 0.000000 1.000000 0.500000\n'
        '2 "B" 1.000000 0.000000 0.500000\n'
        '*Edges\n'
        '1 2 7\n'
    )


def test_pajek_write_read_write_byte_identical():
    _net, sub = fixture_subnetwork()
    layout = layout_components(list(sub.nodes), {p: float(w) for p, w in sub.edges.items()}, LayoutConfig())
    first = export_pajek(layout, numbered(sub, layout))
    model = read_net(first)
    second = write_net(model)
    assert second == first
    assert read_net(second) == model


def test_pajek_reader_unescapes_labels():
    sub = threshold_network(fake_network({'He said "hi"': Fraction(1)}, {}), 0, 0)
    layout = make_layout({'He said "hi"': (0.0, 0.0)})
    text = export_pajek(layout, numbered(sub, layout))
    assert '""hi""' in text
    assert read_net(text).vertices[0].label == 'He said "hi"'


def test_pajek_reader_rejects_bad_ids():
    with pytest.raises(DataError):
        read_net('*Vertices 2\n1 "A"\n3 "B"\n*Edges\n')


def test_numbering_lists_every_country_the_layout_misses():
    """The numbering that both exporters take refuses a layout that misses
    two countries, with one message."""
    sub = threshold_network(
        fake_network({"A": Fraction(3), "B": Fraction(2), "C": Fraction(1)}, {("A", "B"): 7, ("B", "C"): 1}),
        0, 0,
    )
    with pytest.raises(DataError, match="^layout is missing coordinates for: A, C$"):
        numbered(sub, make_layout({"B": (0.0, 0.0)}))


def test_pajek_missing_layout_node_rejected():
    sub = small_subnetwork()
    layout = make_layout({"A": (0.0, 0.0)})
    with pytest.raises(DataError, match="B"):
        export_pajek(layout, numbered(sub, layout))


# ---------------------------------------------------------------------------
# VOSViewer
# ---------------------------------------------------------------------------

def test_vosviewer_hand_assembled_golden():
    sub = small_subnetwork()
    layout = make_layout({"A": (0.0, 0.0), "B": (1.0, 0.5)})
    map_text, net_text = export_vosviewer(sub, layout, numbered(sub, layout), size_attr="integer_papers")
    expected_map = (
        "id\tlabel\tx\ty\tweight\n"
        "1\tA\t0.000000\t0.000000\t4\n"
        "2\tB\t1.000000\t0.500000\t3\n"
    )
    assert map_text == expected_map
    assert net_text == "1\t2\t7\n"


def test_vosviewer_degree_sizing():
    sub = small_subnetwork()
    layout = make_layout({"A": (0.0, 0.0), "B": (1.0, 0.5)})
    map_text, _ = export_vosviewer(sub, layout, numbered(sub, layout), size_attr="degree")
    assert map_text.splitlines()[1].endswith("\t1")


def test_vosviewer_single_node():
    net = fake_network({"A": Fraction(10)}, {})
    sub = threshold_network(net, 0, 0)
    layout = make_layout({"A": (0.0, 0.0)})
    map_text, net_text = export_vosviewer(sub, layout, numbered(sub, layout))
    assert len(map_text.splitlines()) == 2
    assert net_text == ""


def test_vosviewer_ids_consistent_between_files():
    _net, sub = fixture_subnetwork()
    layout = layout_components(list(sub.nodes), {p: float(w) for p, w in sub.edges.items()}, LayoutConfig())
    map_text, net_text = export_vosviewer(sub, layout, numbered(sub, layout))
    map_ids = {int(line.split("\t")[0]) for line in map_text.splitlines()[1:]}
    assert map_ids == set(range(1, len(sub.nodes) + 1))
    for line in net_text.splitlines():
        a, b, _w = line.split("\t")
        assert int(a) in map_ids and int(b) in map_ids
        assert int(a) < int(b)


def test_vosviewer_missing_coordinate_rejected():
    sub = small_subnetwork()
    layout = make_layout({"A": (0.0, 0.0)})
    with pytest.raises(DataError, match="B"):
        export_vosviewer(sub, layout, numbered(sub, layout))


# ---------------------------------------------------------------------------
# geographic exports
# ---------------------------------------------------------------------------

def validate_geojson(text: str) -> dict:
    """Independent structural check of the GeoJSON grammar subset we emit."""
    obj = json.loads(text)
    assert obj["type"] == "FeatureCollection"
    assert isinstance(obj["features"], list)
    for feature in obj["features"]:
        assert feature["type"] == "Feature"
        geometry = feature["geometry"]
        assert geometry["type"] in ("Point", "LineString")
        if geometry["type"] == "Point":
            lon, lat = geometry["coordinates"]
            assert -180.0 <= lon <= 180.0
            assert -90.0 <= lat <= 90.0
        else:
            assert len(geometry["coordinates"]) >= 2
            for lon, lat in geometry["coordinates"]:
                assert -180.0 <= lon <= 180.0
                assert -90.0 <= lat <= 90.0
        assert isinstance(feature["properties"], dict)
    return obj


def test_display_size_log_rule():
    size = display_size(Fraction(math.e ** 2).limit_denominator(10**12), 0.0, 1.0)
    assert size == pytest.approx(2.0, abs=1e-9)


def test_display_size_strictly_increasing_beyond_clamp():
    values = [Fraction(3, 2), Fraction(2), Fraction(10), Fraction(500), Fraction(100000)]
    sizes = [display_size(v, 1.0, 2.0) for v in values]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_canada_sweden_link_label():
    registry = load_registry()
    net = fake_network(
        {"CANADA": Fraction(30000), "SWEDEN": Fraction(12000)},
        {("CANADA", "SWEDEN"): 1401},
    )
    sub = threshold_network(net, 500, 500)
    doc, nodes_text, links_text = export_geo(sub, registry)
    obj = validate_geojson(doc)
    labels = [
        f["properties"]["label"]
        for f in obj["features"]
        if f["geometry"]["type"] == "LineString"
    ]
    assert labels == ["CANADA–SWEDEN: 1401"]
    assert '"CANADA–SWEDEN: 1401"' in links_text
    assert nodes_text.splitlines()[0] == "type,latitude,longitude,name,desc"
    assert 'W,56.100000,-106.300000,CANADA,"papers: 30000.000000"' in nodes_text.splitlines()


def test_geojson_round_trips_with_identical_features():
    registry = load_registry()
    rng = random.Random(127)
    names = sorted(rng.sample(sorted(registry.entries), 6))
    edges = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if rng.random() < 0.6:
                edges[(names[i], names[j])] = rng.randint(1, 40)
    net = fake_network({c: Fraction(rng.randint(2, 500)) for c in names}, edges)
    sub = threshold_network(net, 0, 0)
    doc, _nodes, _links = export_geo(sub, registry)
    first = validate_geojson(doc)
    second = json.loads(json.dumps(first))
    assert second == first
    point_count = sum(1 for f in first["features"] if f["geometry"]["type"] == "Point")
    line_count = sum(1 for f in first["features"] if f["geometry"]["type"] == "LineString")
    assert point_count == len(names)
    assert line_count == len(edges)


def test_geo_missing_centroid_rejected():
    registry = load_registry()
    net = fake_network({"ATLANTIS": Fraction(10)}, {})
    sub = threshold_network(net, 0, 0)
    with pytest.raises(DataError, match="ATLANTIS"):
        export_geo(sub, registry)


def test_links_csv_track_row_pairs():
    registry = load_registry()
    net = fake_network(
        {"CHILE": Fraction(100), "SPAIN": Fraction(200)},
        {("CHILE", "SPAIN"): 9},
    )
    sub = threshold_network(net, 0, 0)
    _doc, _nodes, links_text = export_geo(sub, registry)
    lines = links_text.splitlines()
    assert lines[0] == "type,latitude,longitude,name"
    assert len(lines) == 3
    assert lines[1].startswith("T,") and lines[2].startswith("T,")
    assert lines[1].endswith('"CHILE–SPAIN: 9"')
    assert lines[2].endswith('"CHILE–SPAIN: 9"')


def test_great_circle_interpolation():
    points = great_circle_points(0.0, 0.0, 0.0, 90.0)
    assert len(points) == 32
    assert points[0] == pytest.approx((0.0, 0.0))
    assert points[-1] == pytest.approx((0.0, 90.0))
    # equatorial arc stays on the equator
    for lat, _lon in points:
        assert abs(lat) < 1e-9
    registry = load_registry()
    net = fake_network(
        {"CHILE": Fraction(100), "SPAIN": Fraction(200)},
        {("CHILE", "SPAIN"): 9},
    )
    sub = threshold_network(net, 0, 0)
    doc, _nodes, links_text = export_geo(sub, registry, great_circle=True)
    obj = validate_geojson(doc)
    line = next(f for f in obj["features"] if f["geometry"]["type"] == "LineString")
    assert len(line["geometry"]["coordinates"]) == 32
    assert len(links_text.splitlines()) == 1 + 32


def test_great_circle_points_equal_the_per_point_oracle():
    rng = random.Random(83)
    pairs = [
        (rng.uniform(-90, 90), rng.uniform(-180, 180), rng.uniform(-90, 90), rng.uniform(-180, 180))
        for _ in range(10_000)
    ]
    pairs += [
        (12.5, -77.0, 12.5, -77.0),  # coincident
        (0.0, 0.0, 0.0, 180.0),  # antipodal
        (35.0, 139.0, -35.0, -41.0),  # antipodal
        (90.0, 0.0, -90.0, 0.0),  # pole to pole
        (90.0, 0.0, 90.0, 120.0),  # one pole, two longitudes
        (-90.0, 45.0, 10.0, 10.0),
        (89.999999, 0.0, -89.999999, 180.0),
        (0.0, 0.0, 0.0, 1e-7),  # sin(omega) just above the 1e-9 cut
    ]
    registry = load_registry()
    centroids = [(e.latitude, e.longitude) for _, e in sorted(registry.entries.items())]
    pairs += [a + b for a, b in zip(centroids, centroids[1:])]
    for pair in pairs:
        assert great_circle_points(*pair) == oracle_great_circle_points(*pair), pair
    for n in (2, 3, 7):
        assert great_circle_points(*pairs[0], n=n) == oracle_great_circle_points(*pairs[0], n=n)


def test_node_ordering_and_fixed_decimals():
    registry = load_registry()
    net = fake_network(
        {"SWEDEN": Fraction(1), "CANADA": Fraction(1), "BRAZIL": Fraction(1)}, {}
    )
    sub = threshold_network(net, 0, 0)
    _doc, nodes_text, _links = export_geo(sub, registry)
    countries = [line.split(",")[3] for line in nodes_text.splitlines()[1:]]
    assert countries == ["BRAZIL", "CANADA", "SWEDEN"]
    for line in nodes_text.splitlines()[1:]:
        lat = line.split(",")[1]
        assert len(lat.split(".")[1]) == 6


ODD_NAMES = ['A "QUOTED" LAND', "BACK\\SLASH", "TAB\tNEW\nLINE\x01", "CÔTE D’IVOIRE", "日本",
             "LINE\u2028SEP", "PLAIN"]


@pytest.mark.parametrize("great_circle", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_geojson_text_equals_the_json_dumps_oracle(seed, great_circle):
    rng = random.Random(seed)
    entries = {
        name: CountryEntry(name, f'I"{i}\\', rng.choice([0.0, -0.0, 90.0, -90.0, rng.uniform(-90, 90)]),
                           rng.choice([0.0, 180.0, -180.0, rng.uniform(-180, 180)]))
        for i, name in enumerate(ODD_NAMES)
    }
    registry = CountryRegistry(entries=entries, aliases={})
    edges = {
        (a, b): rng.randint(1, 10**6)
        for i, a in enumerate(sorted(ODD_NAMES)) for b in sorted(ODD_NAMES)[i + 1:]
        if rng.random() < 0.7
    }
    net = fake_network({c: Fraction(rng.randint(1, 10**5), rng.randint(1, 97)) for c in ODD_NAMES}, edges)
    sub = threshold_network(net, 0, 0)
    s_min, s_scale = rng.uniform(-5, 5), rng.uniform(0, 3)
    doc, nodes, links = export_geo(sub, registry, s_min, s_scale, great_circle)
    assert doc == oracle_geojson(sub, registry, s_min, s_scale, great_circle)
    assert (nodes, links) == oracle_geo_csvs(sub, registry, great_circle)


@pytest.mark.parametrize("great_circle", [False, True])
def test_geojson_text_of_real_countries_equals_the_oracle(great_circle):
    registry = load_registry()
    _net, sub = fixture_subnetwork()
    names = sorted(registry.entries)
    renamed = dict(zip(sorted(sub.parent.nodes), names[::7]))
    net = fake_network(
        {renamed[c]: info.fractional_papers for c, info in sub.parent.nodes.items()},
        {(renamed[a], renamed[b]): w for (a, b), w in sub.edges.items()},
    )
    sub = threshold_network(net, 1, 1)
    assert sub.edges
    doc, nodes, links = export_geo(sub, registry, great_circle=great_circle)
    assert doc == oracle_geojson(sub, registry, great_circle=great_circle)
    assert (nodes, links) == oracle_geo_csvs(sub, registry, great_circle)


def test_an_overflowing_marker_size_is_a_data_error():
    """JSON has no infinity, so a marker size that overflows is refused, not written."""
    registry = load_registry()
    sub = threshold_network(fake_network({"CHILE": Fraction(300), "SPAIN": Fraction(2)},
                                         {("CHILE", "SPAIN"): 4}), 0, 0)
    spain = threshold_network(fake_network({"SPAIN": Fraction(2)}, {}), 0, 0)
    for s_scale in (1e308, -1e308):
        with pytest.raises(DataError, match=r"^geo/map\.geojson: the marker size of CHILE is not finite"):
            export_geo(sub, registry, 1.0, s_scale)
        # SPAIN's size, 1 ± 1e308 * ln 2, is finite
        doc, _nodes, _links = export_geo(spain, registry, 1.0, s_scale)
        assert doc == oracle_geojson(spain, registry, 1.0, s_scale)


def test_geojson_text_of_an_empty_subnetwork_equals_the_oracle():
    registry = load_registry()
    sub = threshold_network(fake_network({"CHILE": Fraction(3)}, {}), 10, 10)
    assert list(sub.nodes) == []
    doc, _nodes, _links = export_geo(sub, registry)
    assert doc == oracle_geojson(sub, registry) == '{\n  "type": "FeatureCollection",\n  "features": []\n}\n'


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def paper_summary():
    return CorpusSummary(
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


def full_parent_stats():
    names = [f"C{i:03d}" for i in range(201)]
    edges = {}
    rng = random.Random(5)
    while len(edges) < 12339:
        a, b = rng.sample(names, 2)
        edges[tuple(sorted((a, b)))] = rng.randint(1, 900)
    net = fake_network({c: Fraction(1) for c in names}, edges)
    sub = threshold_network(net, 0, 500, comparator="gt")
    return network_stats(sub)


def test_report_renders_paper_arithmetic():
    stats = full_parent_stats()
    text = export_report(paper_summary(), stats)
    assert '"share_international_docs_pct": 24.8' in text
    assert '"share_addresses_international_pct": 39.3' in text
    assert '"share_international_docs": "193216/778988"' in text
    assert '"possible_links": 20100' in text
    assert '"n_parent_links": 12339' in text


def test_report_focus_block_renders_ratio():
    indonesia = NodeInfo(integer_papers=559, fractional_papers=Fraction(2279, 10))
    focus = focus_stats("INDONESIA", CoauthNetwork(nodes={"INDONESIA": indonesia}, edges={}))
    assert focus["mean_coauthorship_ratio"] == 2.5
    assert focus["fractional_papers_display"] == 227.9
    text = export_report(paper_summary(), full_parent_stats(), focus)
    assert '"mean_coauthorship_ratio": 2.5' in text
    assert '"integer_papers": 559' in text


@settings(max_examples=200, deadline=None)
@given(st.text(min_size=1), st.integers(min_value=1, max_value=10**6),
       st.fractions(min_value=0, max_value=10**6, max_denominator=10**6).filter(bool))
def test_focus_json_reads_back_the_focus(country, integer, fractional):
    """load_focus reads the focus.json that ego writes of any country, at
    that country's path, back to the focus_stats it wrote."""
    focus = focus_stats(country, CoauthNetwork(nodes={country: NodeInfo(integer, fractional)}, edges={}))
    text = json.dumps(focus, indent=2, ensure_ascii=False)
    assert load_focus(f"ego/{country}/focus.json", text) == focus


def test_report_empty_network_zeros():
    net = fake_network({}, {})
    stats = network_stats(threshold_network(net, 0, 0))
    body = report_dict(paper_summary(), stats)
    assert body["network"]["n_nodes"] == 0
    assert body["network"]["n_edges"] == 0
    assert body["network"]["possible_links"] == 0


def test_report_key_order_is_schema_order():
    body = report_dict(paper_summary(), full_parent_stats())
    keys = list(body)
    assert keys.index("share_international_docs") + 1 == keys.index("share_international_docs_pct")
    assert keys.index("n_records") == 0
    assert keys[-1] == "network"
