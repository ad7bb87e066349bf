"""Geographic map artifacts: GeoJSON plus GPS-Visualizer-style CSVs.

Nodes sit on country centroids and are sized on a log scale of their
fractionally counted papers. Links are unweighted segments between
centroids (the collaboration count travels in the label, not the stroke),
optionally interpolated along the great circle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from json.encoder import encode_basestring
from typing import TYPE_CHECKING

from collabmap.counting import format_fixed
from collabmap.errors import DataError

if TYPE_CHECKING:
    from collabmap.corpus.registry import CountryRegistry
    from collabmap.network import CoauthNetwork

GREAT_CIRCLE_POINTS = 32


def display_size(fractional: Fraction, s_min: float, s_scale: float) -> float:
    """s_min + s_scale * ln(max(fractional, 1.5)): a node's marker size."""
    return s_min + s_scale * math.log(max(float(fractional), 1.5))


def _to_cartesian(lat: float, lon: float) -> tuple[float, float, float]:
    phi, lam = math.radians(lat), math.radians(lon)
    return (math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi))


def great_circle_points(
    lat_a: float, lon_a: float, lat_b: float, lon_b: float, n: int = GREAT_CIRCLE_POINTS
) -> list[tuple[float, float]]:
    """n points (endpoints inclusive) along the shorter great-circle arc."""
    xa, ya, za = _to_cartesian(lat_a, lon_a)
    xb, yb, zb = _to_cartesian(lat_b, lon_b)
    # sum(), not chained +: from Python 3.12 sum() adds floats with compensation
    omega = math.acos(max(-1.0, min(1.0, sum((xa * xb, ya * yb, za * zb)))))
    sin_omega = math.sin(omega)
    if sin_omega < 1e-9:
        return [(lat_a, lon_a), (lat_b, lon_b)]
    sin, asin, atan2, degrees = math.sin, math.asin, math.atan2, math.degrees
    points = []
    for step in range(n):
        t = step / (n - 1)
        fa = sin((1.0 - t) * omega) / sin_omega
        fb = sin(t * omega) / sin_omega
        x, y, z = fa * xa + fb * xb, fa * ya + fb * yb, fa * za + fb * zb
        points.append((degrees(asin(max(-1.0, min(1.0, z)))), degrees(atan2(y, x))))
    return points


def _coordinates(lon: float, lat: float, indent: str) -> str:
    """A ``[lon, lat]`` pair at 6 decimals, laid out as json.dumps(indent=2)
    lays it out with its opening bracket at ``indent``. Registry centroids
    and great-circle points are finite, so repr writes what json.dumps does."""
    return f"[\n{indent}  {round(lon, 6)!r},\n{indent}  {round(lat, 6)!r}\n{indent}]"


def export_geo(
    sub: CoauthNetwork,
    registry: CountryRegistry,
    s_min: float = 1.0,
    s_scale: float = 1.0,
    great_circle: bool = False,
) -> tuple[str, str, str]:
    """Return (GeoJSON document, nodes CSV, links CSV).

    The GeoJSON text is the bytes of ``json.dumps(document, indent=2,
    ensure_ascii=False)``, written from its fixed schema."""
    features = []
    node_lines = ["type,latitude,longitude,name,desc"]
    centroid: dict[str, tuple[float, float]] = {}
    # each country's link end, rendered once: its point in a LineString and
    # the head of its links.csv row, which the link's label closes
    point: dict[str, str] = {}
    row_head: dict[str, str] = {}
    for country in sorted(sub.nodes):
        entry = registry.entries.get(country)
        if entry is None:
            raise DataError(f"no centroid in registry for country: {country}")
        lat, lon = entry.latitude, entry.longitude
        centroid[country] = (lat, lon)
        point[country] = "          " + _coordinates(lon, lat, "          ")
        fixed = f"{format_fixed(lat)},{format_fixed(lon)}"
        row_head[country] = f'T,{fixed},"'
        fractional = sub.nodes[country].fractional_papers
        size = round(display_size(fractional, s_min, s_scale), 6)
        if not math.isfinite(size):
            # JSON has no infinity
            raise DataError(f"geo/map.geojson: the marker size of {country} is not finite "
                            f"(size_min {s_min!r}, size_scale {s_scale!r})")
        features.append(
            '    {\n      "type": "Feature",\n      "geometry": {\n        "type": "Point",\n'
            f'        "coordinates": {_coordinates(lon, lat, "        ")}\n      }},\n'
            f'      "properties": {{\n        "country": {encode_basestring(country)},\n'
            f'        "iso3": {encode_basestring(entry.iso3)},\n'
            f'        "fractional_papers": {round(float(fractional), 6)!r},\n'
            f'        "display_size": {size!r}\n'
            '      }\n    }'
        )
        node_lines.append(
            f'W,{fixed},{country},"papers: {format_fixed(fractional)}"'
        )
    link_lines = ["type,latitude,longitude,name"]
    for (a, b), w in sorted(sub.edges.items()):
        label = f"{a}–{b}: {w}"
        if great_circle:
            path = great_circle_points(*centroid[a], *centroid[b])
            points = ",\n".join("          " + _coordinates(lon, lat, "          ") for lat, lon in path)
            link_lines.extend(f'T,{format_fixed(lat)},{format_fixed(lon)},"{label}"' for lat, lon in path)
        else:
            points = point[a] + ",\n" + point[b]
            link_lines += (row_head[a] + label + '"', row_head[b] + label + '"')
        features.append(
            '    {\n      "type": "Feature",\n      "geometry": {\n        "type": "LineString",\n'
            f'        "coordinates": [\n{points}\n        ]\n      }},\n'
            f'      "properties": {{\n        "weight": {w},\n        "label": {encode_basestring(label)}\n'
            '      }\n    }'
        )
    body = "[\n" + ",\n".join(features) + "\n  ]" if features else "[]"
    return (
        '{\n  "type": "FeatureCollection",\n  "features": ' + body + "\n}\n",
        "\n".join(node_lines) + "\n",
        "\n".join(link_lines) + "\n",
    )
