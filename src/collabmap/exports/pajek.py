"""Pajek NET writer.

Vertices are numbered 1..n in name order, labels are quoted with inner
quotes doubled, and each vertex carries its layout coordinates mapped
into the unit box at six decimals (z fixed at 0.5). Undirected edges are
written once, smaller vertex id first, in ascending id-pair order. Lines
end in LF.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from collabmap.counting import format_fixed
from collabmap.network import numbered

if TYPE_CHECKING:
    from collabmap.layout import Layout
    from collabmap.network import CoauthNetwork


def _unit_box(coordinates: dict[str, tuple[float, float]]) -> dict[str, tuple[float, float]]:
    """Affine per-axis map of layout coordinates into [0, 1]^2."""
    xs = [p[0] for p in coordinates.values()]
    ys = [p[1] for p in coordinates.values()]

    def scale(value: float, low: float, high: float) -> float:
        return (value - low) / (high - low) if high > low else 0.5

    return {
        name: (scale(x, min(xs), max(xs)), scale(y, min(ys), max(ys)))
        for name, (x, y) in coordinates.items()
    }


def export_pajek(sub: CoauthNetwork, layout: Layout) -> str:
    """The NET file of ``sub`` with every vertex at its layout position."""
    names, edges = numbered(sub, layout)
    boxed = _unit_box({name: layout.coordinates[name] for name in names})
    lines = [f"*Vertices {len(names)}"]
    for k, name in enumerate(names, 1):
        x, y = boxed[name]
        label = name.replace('"', '""')
        lines.append(f'{k} "{label}" {format_fixed(x)} {format_fixed(y)} {format_fixed(0.5)}')
    lines.append("*Edges")
    lines.extend(f"{a} {b} {w}" for a, b, w in edges)
    return "\n".join(lines) + "\n"
