"""Country co-authorship network: construction, normalization, extraction.

``build_coauth_network`` is one fold that takes each document once: the
whole and fractional counts of its countries and the ties between them all
come out of that pass, so documents can arrive one at a time.

Edges follow the single-relation rule: a paper with three addresses in
country A and two in country B adds exactly 1 to the A-B edge, never the
3 x 2 = 6 an affiliation cross-product would produce. Node profiles can
additionally be compared by cosine (Ochiai) similarity over the binarized
incidence columns, which captures shared collaboration patterns rather
than direct tie strength. Under the single-relation rule a pair's shared
document count is its edge weight and a column's size is the country's
integer count, so cosine is read off the network itself.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from collabmap.errors import DataError

if TYPE_CHECKING:
    from collections.abc import Iterable

    from collabmap.corpus.filtering import Document


class NodeInfo(NamedTuple):
    country: str
    integer_papers: int
    fractional_papers: Fraction


class CoauthNetwork:
    """Symmetric weighted country graph plus per-node paper counts. An
    extracted subnetwork is one too, with the network it came from as
    ``parent``. A node's degree is counted from ``edges``, never stored."""

    def __init__(
        self,
        nodes: dict[str, NodeInfo],
        edges: dict[tuple[str, str], int],
        parent: CoauthNetwork | None = None,
    ):
        self.nodes = nodes
        self.edges = edges
        self.parent = parent

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.nodes, self.edges, self.parent) == (other.nodes, other.edges, other.parent)

    def __repr__(self) -> str:
        return f"CoauthNetwork(nodes={self.nodes!r}, edges={self.edges!r}, parent={self.parent!r})"

    def countries(self) -> list[str]:
        return sorted(self.nodes)

    def weight(self, a: str, b: str) -> int:
        return self.edges.get(_pair(a, b), 0)

    def neighbors(self, country: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for (a, b), w in self.edges.items():
            if a == country:
                out[b] = w
            elif b == country:
                out[a] = w
        return out

    @cached_property
    def degrees(self) -> Counter[str]:
        """Edge count per endpoint, counted from ``edges``; countries without
        an edge are absent."""
        return Counter(c for pair in self.edges for c in pair)

    def degree(self, country: str) -> int:
        return self.degrees[country]

    def isolated_nodes(self) -> list[str]:
        """Nodes with no incident edge."""
        return [c for c in self.nodes if c not in self.degrees]


class SimilarityMatrix(NamedTuple):
    """Dense symmetric cosine values over country collaboration profiles."""

    countries: list[str]
    values: dict[tuple[str, str], float]

    def sim(self, a: str, b: str) -> float:
        if a == b:
            return self.values.get((a, a), 0.0)
        return self.values.get(_pair(a, b), 0.0)


class NetworkStats(NamedTuple):
    n_nodes: int
    n_edges: int
    n_parent_links: int
    possible_links: int
    n_connected_nodes: int
    degree_histogram: dict[int, int]

    def as_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "n_parent_links": self.n_parent_links,
            "possible_links": self.possible_links,
            "n_connected_nodes": self.n_connected_nodes,
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
        }


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def _extract(net: CoauthNetwork, kept, edges: dict[tuple[str, str], int]) -> CoauthNetwork:
    """``net``'s subnetwork of ``edges`` on the countries ``kept``, sorted."""
    return CoauthNetwork({c: net.nodes[c] for c in sorted(kept)}, edges, parent=net)


def _compare(value, threshold, comparator: str) -> bool:
    if comparator == "ge":
        return value >= threshold
    if comparator == "gt":
        return value > threshold
    raise ValueError(f"comparator must be 'ge' or 'gt', got {comparator!r}")


def build_coauth_network(documents: Iterable[Document]) -> CoauthNetwork:
    """The network of any iterable of documents: nodes in sorted order, each
    fractional count one Fraction over the least common multiple of its
    address totals, edges in the order the fold first meets each pair."""
    integer: dict[str, int] = {}
    numerators: dict[str, dict[int, int]] = {}
    edges: dict[tuple[str, str], int] = {}
    for doc in documents:
        addresses = doc.country_addresses
        total = sum(addresses.values())
        members = sorted(addresses)
        for i, a in enumerate(members):
            integer[a] = integer.get(a, 0) + 1
            by_denominator = numerators.setdefault(a, {})
            by_denominator[total] = by_denominator.get(total, 0) + addresses[a]
            for b in members[i + 1:]:
                edges[a, b] = edges.get((a, b), 0) + 1
    nodes: dict[str, NodeInfo] = {}
    for c in sorted(integer):
        by_denominator = numerators[c]
        common = math.lcm(*by_denominator)
        fractional = Fraction(sum(n * (common // d) for d, n in by_denominator.items()), common)
        nodes[c] = NodeInfo(c, integer[c], fractional)
    return CoauthNetwork(nodes, edges)


def ochiai(shared: int, size_a: int, size_b: int) -> float:
    """Cosine of two binarized columns: their shared documents over the
    geometric mean of their sizes (0 when either column is empty)."""
    denom = math.sqrt(size_a * size_b)
    return shared / denom if denom else 0.0


def cosine_similarity(net: CoauthNetwork) -> SimilarityMatrix:
    """Ochiai/cosine between binarized country columns: a pair's edge
    weight over the geometric mean of the two integer counts."""
    values: dict[tuple[str, str], float] = {}
    countries = net.countries()
    sizes = [net.nodes[c].integer_papers for c in countries]
    for i, ci in enumerate(countries):
        values[(ci, ci)] = 1.0 if sizes[i] else 0.0
        for j in range(i + 1, len(countries)):
            shared = net.edges.get((ci, countries[j]), 0)
            values[(ci, countries[j])] = ochiai(shared, sizes[i], sizes[j])
    return SimilarityMatrix(countries=countries, values=values)


def threshold_network(
    net: CoauthNetwork,
    min_node_fractional,
    min_edge_weight: int,
    comparator: str = "ge",
) -> CoauthNetwork:
    """Keep sufficiently productive nodes, then sufficiently heavy edges.

    Nodes passing the fractional-paper threshold stay even when all their
    edges fall below the link threshold; they surface via
    ``isolated_nodes`` so map exports can still draw them.
    """
    min_node = Fraction(min_node_fractional)
    if min_node < 0 or min_edge_weight < 0:
        raise DataError("thresholds must be non-negative")
    kept = {
        c for c, info in net.nodes.items()
        if _compare(info.fractional_papers, min_node, comparator)
    }
    edges = {
        pair: w
        for pair, w in net.edges.items()
        if pair[0] in kept and pair[1] in kept and _compare(w, min_edge_weight, comparator)
    }
    return _extract(net, kept, edges)


def connected_components(nodes: set[str], adjacency: dict[str, set[str]]) -> list[set[str]]:
    """The node sets reachable from each other through ``adjacency``."""
    components: list[set[str]] = []
    unvisited = set(nodes)
    while unvisited:
        seed = min(unvisited)
        stack = [seed]
        component = {seed}
        unvisited.discard(seed)
        while stack:
            current = stack.pop()
            for neighbor in adjacency.get(current, ()):
                if neighbor in unvisited:
                    unvisited.discard(neighbor)
                    component.add(neighbor)
                    stack.append(neighbor)
        components.append(component)
    return components


def extract_core(net: CoauthNetwork, min_edge_weight: int, k: int) -> CoauthNetwork:
    """Edge-thresholded k-core, then its largest connected component.

    ``k=1`` degenerates to the plain largest component of the thresholded
    graph. An empty result is a valid (empty) subnetwork.
    """
    if k < 0:
        raise DataError("k must be non-negative")
    adjacency: dict[str, set[str]] = {c: set() for c in net.nodes}
    for (a, b), w in net.edges.items():
        if w >= min_edge_weight:
            adjacency[a].add(b)
            adjacency[b].add(a)

    # iterative deletion to the k-core fixed point
    alive = set(net.nodes)
    changed = True
    while changed:
        changed = False
        doomed = [c for c in alive if sum(1 for n in adjacency[c] if n in alive) < k]
        if doomed:
            for c in doomed:
                alive.discard(c)
            changed = True

    components = connected_components(alive, adjacency)
    core = min(components, key=lambda comp: (-len(comp), min(comp)), default=set())
    edges = {
        pair: w
        for pair, w in net.edges.items()
        if w >= min_edge_weight and pair[0] in core and pair[1] in core
    }
    return _extract(net, core, edges)


def ego_network(
    net: CoauthNetwork,
    focus: str,
    min_edge_weight: int = 1,
    include_alter_ties: bool = True,
) -> CoauthNetwork:
    """The focal country plus the neighbors its qualifying edges reach.

    The link threshold applies uniformly: alters join via focus edges at
    or above it, and alter-alter ties (when requested) must clear it too.
    """
    if focus not in net.nodes:
        raise DataError(f"unknown focus country: {focus!r}")
    alters = sorted(
        c for c, w in net.neighbors(focus).items() if w >= min_edge_weight
    )
    kept = set(alters) | {focus}
    edges: dict[tuple[str, str], int] = {}
    for alter in alters:
        edges[_pair(focus, alter)] = net.weight(focus, alter)
    if include_alter_ties:
        for pair, w in net.edges.items():
            if pair[0] in kept and pair[1] in kept and focus not in pair and w >= min_edge_weight:
                edges[pair] = w
    return _extract(net, kept, edges)


def subnetwork_by_list(
    net: CoauthNetwork,
    countries: list[str],
    mode: str = "include",
) -> CoauthNetwork:
    """Induced subgraph on a listed node set, or on its complement."""
    if not countries:
        raise DataError("country list must be non-empty")
    if mode not in ("include", "exclude"):
        raise ValueError(f"mode must be 'include' or 'exclude', got {mode!r}")
    listed = []
    for c in countries:
        if c in net.nodes:
            listed.append(c)
        else:
            warnings.warn(f"country not in network, skipped: {c}", stacklevel=2)
    if mode == "include":
        kept = set(listed)
    else:
        kept = set(net.nodes) - set(listed)
    edges = {
        pair: w for pair, w in net.edges.items() if pair[0] in kept and pair[1] in kept
    }
    return _extract(net, kept, edges)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def network_json(net: CoauthNetwork) -> str:
    """The exact text of network.json: each node as ``[country,
    integer_papers, "p/q"]`` in the network's order, each edge as ``[a, b,
    weight]`` in the order the build inserted it, on one line."""
    nodes = [
        [c, info.integer_papers, f"{info.fractional_papers.numerator}/{info.fractional_papers.denominator}"]
        for c, info in net.nodes.items()
    ]
    edges = [[a, b, w] for (a, b), w in net.edges.items()]
    # no indent, so the C encoder writes it
    return json.dumps({"nodes": nodes, "edges": edges}, ensure_ascii=False) + "\n"


def _positive_int(value) -> bool:
    return type(value) is int and value > 0


def load_network(text: str) -> CoauthNetwork:
    """The network whose network_json text ``text`` is. Text of any other
    shape is a DataError that names the file."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"network.json: not JSON: {exc}") from exc
    if (not isinstance(obj, dict) or obj.keys() != {"nodes", "edges"}
            or not isinstance(obj["nodes"], list) or not isinstance(obj["edges"], list)):
        raise DataError("network.json: not an object of a nodes list and an edges list")
    nodes: dict[str, NodeInfo] = {}
    for entry in obj["nodes"]:
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and isinstance(entry[2], str)):
            raise DataError(f"network.json: node {entry!r} is not [country, integer, \"p/q\"]")
        country, integer, ratio = entry
        if country in nodes:
            raise DataError(f"network.json: duplicate country {country!r}")
        if not _positive_int(integer):
            raise DataError(f"network.json: integer count of {country!r} is not a positive integer")
        try:
            fractional = Fraction(ratio)
        except (ValueError, ZeroDivisionError):
            fractional = None
        if (fractional is None or fractional <= 0
                or ratio != f"{fractional.numerator}/{fractional.denominator}"):
            raise DataError(f"network.json: fractional count of {country!r} is not a positive \"p/q\" "
                            f"in lowest terms: {ratio!r}")
        nodes[country] = NodeInfo(country, integer, fractional)
    edges: dict[tuple[str, str], int] = {}
    for entry in obj["edges"]:
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[1], str)):
            raise DataError(f"network.json: edge {entry!r} is not [country, country, weight]")
        a, b, w = entry
        if a not in nodes or b not in nodes:
            raise DataError(f"network.json: edge {entry!r} names an unknown country")
        if not a < b:
            raise DataError(f"network.json: edge {entry!r} is not in ascending country order")
        if (a, b) in edges:
            raise DataError(f"network.json: duplicate edge {entry!r}")
        if not _positive_int(w):
            raise DataError(f"network.json: edge {entry!r} has a weight that is not a positive integer")
        edges[(a, b)] = w
    return CoauthNetwork(nodes=nodes, edges=edges)


def cooccurrence_triples_csv(edges: dict[tuple[str, str], int]) -> str:
    lines = ["country_a,country_b,value"]
    for (a, b), w in sorted(edges.items()):
        lines.append(f"{a},{b},{w}")
    return "\n".join(lines) + "\n"


def cooccurrence_square_csv(net: CoauthNetwork) -> str:
    names = net.countries()
    lines = ["," + ",".join(names)]
    for a in names:
        row = [str(net.weight(a, b)) if a != b else "0" for b in names]
        lines.append(a + "," + ",".join(row))
    return "\n".join(lines) + "\n"


def similarity_triples_csv(sim: SimilarityMatrix) -> str:
    lines = ["country_a,country_b,value"]
    pairs = sorted(pair for pair in sim.values if pair[0] != pair[1])
    for a, b in pairs:
        lines.append(f"{a},{b},{sim.values[(a, b)]:.6f}")
    return "\n".join(lines) + "\n"


def similarity_square_csv(sim: SimilarityMatrix) -> str:
    names = sorted(sim.countries)
    lines = ["," + ",".join(names)]
    for a in names:
        lines.append(a + "," + ",".join(f"{sim.sim(a, b):.6f}" for b in names))
    return "\n".join(lines) + "\n"


def network_stats(sub: CoauthNetwork) -> NetworkStats:
    """Counts of an extracted subnetwork against its parent."""
    n_parent = len(sub.parent.nodes)
    histogram: dict[int, int] = {}
    for c in sub.nodes:
        d = sub.degree(c)
        histogram[d] = histogram.get(d, 0) + 1
    return NetworkStats(
        n_nodes=len(sub.nodes),
        n_edges=len(sub.edges),
        n_parent_links=len(sub.parent.edges),
        possible_links=n_parent * (n_parent - 1) // 2,
        n_connected_nodes=len(sub.degrees),
        degree_histogram=histogram,
    )
