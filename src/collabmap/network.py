"""Country co-authorship network: construction, normalization, extraction.

``build_coauth_network`` is one fold that takes each document once: the
whole and fractional counts of its countries and the ties between them all
come out of that pass, so documents can arrive one at a time.

Edges follow the single-relation rule: a paper with three addresses in
country A and two in country B adds exactly 1 to the A-B edge, never the
3 x 2 = 6 an affiliation cross-product would produce. Node profiles can also
be compared by cosine (Ochiai) similarity over the binarized incidence
columns: shared collaboration patterns, not direct tie strength. Under that
rule a pair's shared document count is its edge weight and a column's size
is the country's integer count, so ``cosine_similarity`` returns a view of
the network that stores no table of pair values and reads each off it.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from collections import Counter
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from collabmap.errors import DataError

if TYPE_CHECKING:
    from collections.abc import Callable, Iterable

    from collabmap.corpus.filtering import Document
    from collabmap.layout import Layout


class NodeInfo(NamedTuple):
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
    """Cosine read off a network pair by pair: its countries in name order,
    their integer counts and its edges; a name not among them scores 0."""

    countries: list[str]
    sizes: dict[str, int]
    edges: dict[tuple[str, str], int]

    def sim(self, a: str, b: str) -> float:
        if a == b:
            return 1.0 if self.sizes.get(a) else 0.0
        a, b = _pair(a, b)
        return ochiai(self.edges.get((a, b), 0), self.sizes.get(a, 0), self.sizes.get(b, 0))


class NetworkStats(NamedTuple):
    n_nodes: int
    n_edges: int
    n_parent_links: int
    possible_links: int
    n_connected_nodes: int
    degree_histogram: dict[int, int]

    def as_dict(self) -> dict:
        return {
            **self._asdict(),
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
        }


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


_COMPARATORS = {"ge": operator.ge, "gt": operator.gt}


def _extract(net: CoauthNetwork, kept, heavy: Callable[[int], bool]) -> CoauthNetwork:
    """``net``'s subnetwork induced on the countries ``kept``, sorted: the
    parent's edges, in the parent's order, whose two ends are kept and whose
    weight passes ``heavy``."""
    edges = {
        pair: w for pair, w in net.edges.items() if pair[0] in kept and pair[1] in kept and heavy(w)
    }
    return CoauthNetwork({c: net.nodes[c] for c in sorted(kept)}, edges, parent=net)


def build_coauth_network(documents: Iterable[Document]) -> CoauthNetwork:
    """The network of any iterable of documents: nodes in sorted order, each
    fractional count one Fraction over the least common multiple of its
    address totals, edges in the order the fold first meets each pair."""
    integer: dict[str, int] = {}
    # (country, the document's address total) -> the country's addresses summed
    numerators: dict[tuple[str, int], int] = {}
    edges: dict[tuple[str, str], int] = {}
    for doc in documents:
        addresses = doc.country_addresses
        if len(addresses) == 1:
            # one country: all its addresses over as many, and no pair
            [(a, total)] = addresses.items()
            integer[a] = integer.get(a, 0) + 1
            numerators[a, total] = numerators.get((a, total), 0) + total
            continue
        total = sum(addresses.values())
        members = sorted(addresses)
        for i, a in enumerate(members):
            integer[a] = integer.get(a, 0) + 1
            numerators[a, total] = numerators.get((a, total), 0) + addresses[a]
            for b in members[i + 1:]:
                edges[a, b] = edges.get((a, b), 0) + 1
    # each country's denominators, in the order the fold first met them
    by_country: dict[str, dict[int, int]] = {}
    for (c, total), n in numerators.items():
        by_country.setdefault(c, {})[total] = n
    nodes: dict[str, NodeInfo] = {}
    for c in sorted(integer):
        by_denominator = by_country[c]
        common = math.lcm(*by_denominator)
        fractional = Fraction(sum(n * (common // d) for d, n in by_denominator.items()), common)
        nodes[c] = NodeInfo(integer[c], fractional)
    return CoauthNetwork(nodes, edges)


def ochiai(shared: int, size_a: int, size_b: int) -> float:
    """Cosine of two binarized columns: their shared documents over the
    geometric mean of their sizes (0 when either column is empty)."""
    denom = math.sqrt(size_a * size_b)
    return shared / denom if denom else 0.0


def cosine_similarity(net: CoauthNetwork) -> SimilarityMatrix:
    """Ochiai/cosine between binarized country columns: a pair's edge
    weight over the geometric mean of the two integer counts."""
    countries = net.countries()
    return SimilarityMatrix(countries, {c: net.nodes[c].integer_papers for c in countries}, net.edges)


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
    passes = _COMPARATORS.get(comparator)
    if passes is None:
        raise ValueError(f"comparator must be 'ge' or 'gt', got {comparator!r}")
    kept = {c for c, info in net.nodes.items() if passes(info.fractional_papers, min_node)}
    return _extract(net, kept, lambda w: passes(w, min_edge_weight))


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
    # peel every country with fewer than k live neighbours until none has
    alive = set(net.nodes)
    while doomed := {c for c in alive if len(adjacency[c] & alive) < k}:
        alive -= doomed
    components = connected_components(alive, adjacency)
    core = min(components, key=lambda comp: (-len(comp), min(comp)), default=set())
    return _extract(net, core, lambda w: w >= min_edge_weight)


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
    ties = {c: w for c, w in net.neighbors(focus).items() if w >= min_edge_weight}
    sub = _extract(net, ties.keys() | {focus}, lambda w: w >= min_edge_weight)
    # the focus ties first, in alter order; a union keeps each key where it first stands
    edges = {_pair(focus, alter): ties[alter] for alter in sorted(ties)}
    return CoauthNetwork(sub.nodes, edges | sub.edges if include_alter_ties else edges, parent=net)


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
    kept = set(listed) if mode == "include" else set(net.nodes) - set(listed)
    return _extract(net, kept, lambda w: True)


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


def numbered(sub: CoauthNetwork, layout: Layout) -> tuple[list[str], list[tuple[int, int, int]]]:
    """The vertex numbering that the Pajek and VOSviewer exports share:
    ``sub``'s countries in name order, the k-th numbered k, and each edge as
    (smaller id, larger id, weight) in ascending order. A country the layout
    does not place is a DataError that lists every such country."""
    names = sorted(sub.nodes)
    missing = [name for name in names if name not in layout.coordinates]
    if missing:
        raise DataError(f"layout is missing coordinates for: {', '.join(missing)}")
    ids = {name: k for k, name in enumerate(names, 1)}
    edges = sorted((min(ids[a], ids[b]), max(ids[a], ids[b]), w) for (a, b), w in sub.edges.items())
    return names, edges


def _positive_int(value) -> bool:
    return type(value) is int and value > 0


def positive_ratio(raw) -> Fraction:
    """The positive fraction that ``raw`` writes as ``"p/q"`` in lowest
    terms, the form network_json writes; any other value is a ValueError."""
    try:
        value = Fraction(raw) if isinstance(raw, str) else None
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 0 or raw != f"{value.numerator}/{value.denominator}":
        raise ValueError(f'not a positive "p/q" in lowest terms: {raw!r}')
    return value


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
            nodes[country] = NodeInfo(integer, positive_ratio(ratio))
        except ValueError as exc:
            raise DataError(f"network.json: fractional count of {country!r}: {exc}") from exc
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
    """Each pair once, in name order; a pair with no edge shares no document."""
    lines = ["country_a,country_b,value"]
    names, sizes, edges = sim
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            shared = edges.get((a, b))
            lines.append(f"{a},{b},{ochiai(shared, sizes[a], sizes[b]):.6f}" if shared else f"{a},{b},0.000000")
    return "\n".join(lines) + "\n"


def similarity_square_csv(sim: SimilarityMatrix) -> str:
    lines = ["," + ",".join(sim.countries)]
    for a in sim.countries:
        lines.append(a + "," + ",".join(f"{sim.sim(a, b):.6f}" for b in sim.countries))
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
