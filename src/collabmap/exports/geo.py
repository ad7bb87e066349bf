"""Geographic map artifacts: GeoJSON plus GPS-Visualizer-style CSVs.

Nodes sit on country centroids and are sized on a log scale of their
fractionally counted papers. Links are unweighted segments between
centroids (the collaboration count travels in the label, not the stroke),
optionally interpolated along the great circle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from collabmap.counting import CountScheme, CountVector, format_fixed
from collabmap.corpus.registry import CountryRegistry
from collabmap.errors import DataError
from collabmap.network import Subnetwork

GREAT_CIRCLE_POINTS = 32


@dataclass(frozen=True)
class SizeRule:
    """display_size = s_min + s_scale * ln(max(fractional_papers, 1.5))."""

    s_min: float = 1.0
    s_scale: float = 1.0

    def display_size(self, fractional_papers: Fraction) -> float:
        return self.s_min + self.s_scale * math.log(max(float(fractional_papers), 1.5))


@dataclass(frozen=True)
class GeoNode:
    country: str
    iso3: str
    latitude: float
    longitude: float
    fractional_papers: Fraction
    display_size: float


@dataclass(frozen=True)
class GeoLink:
    country_a: str
    country_b: str
    weight: int
    label: str


@dataclass
class GeoMapSpec:
    nodes: list[GeoNode]
    links: list[GeoLink]


def build_geo_spec(
    sub: Subnetwork,
    counts_frac: CountVector,
    registry: CountryRegistry,
    rule: SizeRule | None = None,
) -> GeoMapSpec:
    if counts_frac.scheme is not CountScheme.FRACTIONAL:
        raise DataError("geographic export needs the fractional count vector")
    rule = rule or SizeRule()
    nodes = []
    for country in sorted(sub.nodes):
        if country not in registry.entries:
            raise DataError(f"no centroid in registry for country: {country}")
        entry = registry.entries[country]
        fractional = Fraction(counts_frac.values.get(country, 0))
        nodes.append(
            GeoNode(
                country=country,
                iso3=entry.iso3,
                latitude=entry.latitude,
                longitude=entry.longitude,
                fractional_papers=fractional,
                display_size=rule.display_size(fractional),
            )
        )
    links = []
    for (a, b), w in sorted(sub.edges.items()):
        links.append(GeoLink(country_a=a, country_b=b, weight=w, label=f"{a}–{b}: {w}"))
    return GeoMapSpec(nodes=nodes, links=links)


def _to_cartesian(lat: float, lon: float) -> tuple[float, float, float]:
    phi, lam = math.radians(lat), math.radians(lon)
    return (math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi))


def _to_geographic(x: float, y: float, z: float) -> tuple[float, float]:
    return math.degrees(math.asin(max(-1.0, min(1.0, z)))), math.degrees(math.atan2(y, x))


def great_circle_points(
    lat_a: float, lon_a: float, lat_b: float, lon_b: float, n: int = GREAT_CIRCLE_POINTS
) -> list[tuple[float, float]]:
    """n points (endpoints inclusive) along the shorter great-circle arc."""
    va = _to_cartesian(lat_a, lon_a)
    vb = _to_cartesian(lat_b, lon_b)
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
            _to_geographic(*(fa * pa + fb * pb for pa, pb in zip(va, vb)))
        )
    return points


def _coord(lon: float, lat: float) -> list[float]:
    return [round(lon, 6), round(lat, 6)]


def _link_paths(spec: GeoMapSpec, great_circle: bool):
    """Each link with its (lat, lon) path from one centroid to the other."""
    centroid = {node.country: (node.latitude, node.longitude) for node in spec.nodes}
    for link in spec.links:
        lat_a, lon_a = centroid[link.country_a]
        lat_b, lon_b = centroid[link.country_b]
        if great_circle:
            path = great_circle_points(lat_a, lon_a, lat_b, lon_b)
        else:
            path = [(lat_a, lon_a), (lat_b, lon_b)]
        yield link, path


def geojson_document(spec: GeoMapSpec, great_circle: bool = False) -> str:
    features = []
    for node in spec.nodes:
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": _coord(node.longitude, node.latitude)},
                "properties": {
                    "country": node.country,
                    "iso3": node.iso3,
                    "fractional_papers": round(float(node.fractional_papers), 6),
                    "display_size": round(node.display_size, 6),
                },
            }
        )
    for link, path in _link_paths(spec, great_circle):
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [_coord(lon, lat) for lat, lon in path],
                },
                "properties": {"weight": link.weight, "label": link.label},
            }
        )
    document = {"type": "FeatureCollection", "features": features}
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def nodes_csv(spec: GeoMapSpec) -> str:
    lines = ["type,latitude,longitude,name,desc"]
    for node in spec.nodes:
        lines.append(
            f'W,{format_fixed(node.latitude)},{format_fixed(node.longitude)},'
            f'{node.country},"papers: {format_fixed(node.fractional_papers)}"'
        )
    return "\n".join(lines) + "\n"


def links_csv(spec: GeoMapSpec, great_circle: bool = False) -> str:
    lines = ["type,latitude,longitude,name"]
    for link, path in _link_paths(spec, great_circle):
        for lat, lon in path:
            lines.append(f'T,{format_fixed(lat)},{format_fixed(lon)},"{link.label}"')
    return "\n".join(lines) + "\n"


def export_geo(
    sub: Subnetwork,
    counts_frac: CountVector,
    registry: CountryRegistry,
    rule: SizeRule | None = None,
    great_circle: bool = False,
) -> tuple[str, str, str]:
    """Return (GeoJSON document, nodes CSV, links CSV)."""
    spec = build_geo_spec(sub, counts_frac, registry, rule)
    return (
        geojson_document(spec, great_circle=great_circle),
        nodes_csv(spec),
        links_csv(spec, great_circle=great_circle),
    )
