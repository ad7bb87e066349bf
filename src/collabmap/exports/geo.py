"""Geographic map artifacts: GeoJSON plus GPS-Visualizer-style CSVs.

Nodes sit on country centroids and are sized on a log scale of their
fractionally counted papers. Links are unweighted segments between
centroids (the collaboration count travels in the label, not the stroke),
optionally interpolated along the great circle.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from collabmap.counting import format_fixed
from collabmap.corpus.registry import CountryRegistry
from collabmap.errors import DataError
from collabmap.network import Subnetwork

GREAT_CIRCLE_POINTS = 32


def display_size(fractional: Fraction, s_min: float, s_scale: float) -> float:
    """s_min + s_scale * ln(max(fractional, 1.5)): a node's marker size."""
    return s_min + s_scale * math.log(max(float(fractional), 1.5))


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


def export_geo(
    sub: Subnetwork,
    registry: CountryRegistry,
    s_min: float = 1.0,
    s_scale: float = 1.0,
    great_circle: bool = False,
) -> tuple[str, str, str]:
    """Return (GeoJSON document, nodes CSV, links CSV)."""
    features = []
    node_lines = ["type,latitude,longitude,name,desc"]
    centroid: dict[str, tuple[float, float]] = {}
    for country in sorted(sub.nodes):
        entry = registry.entries.get(country)
        if entry is None:
            raise DataError(f"no centroid in registry for country: {country}")
        lat, lon = entry.latitude, entry.longitude
        centroid[country] = (lat, lon)
        fractional = sub.node_info(country).fractional_papers
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": _coord(lon, lat)},
                "properties": {
                    "country": country,
                    "iso3": entry.iso3,
                    "fractional_papers": round(float(fractional), 6),
                    "display_size": round(display_size(fractional, s_min, s_scale), 6),
                },
            }
        )
        node_lines.append(
            f'W,{format_fixed(lat)},{format_fixed(lon)},{country},"papers: {format_fixed(fractional)}"'
        )
    link_lines = ["type,latitude,longitude,name"]
    for (a, b), w in sorted(sub.edges.items()):
        (lat_a, lon_a), (lat_b, lon_b) = centroid[a], centroid[b]
        if great_circle:
            path = great_circle_points(lat_a, lon_a, lat_b, lon_b)
        else:
            path = [(lat_a, lon_a), (lat_b, lon_b)]
        label = f"{a}–{b}: {w}"
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [_coord(lon, lat) for lat, lon in path],
                },
                "properties": {"weight": w, "label": label},
            }
        )
        link_lines.extend(f'T,{format_fixed(lat)},{format_fixed(lon)},"{label}"' for lat, lon in path)
    document = {"type": "FeatureCollection", "features": features}
    return (
        json.dumps(document, indent=2, ensure_ascii=False) + "\n",
        "\n".join(node_lines) + "\n",
        "\n".join(link_lines) + "\n",
    )
