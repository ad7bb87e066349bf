"""VOSViewer map and network file emitters (tab-separated, paired ids)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from collabmap.counting import format_fixed
from collabmap.errors import DataError
from collabmap.network import numbered

if TYPE_CHECKING:
    from collabmap.layout import Layout
    from collabmap.network import CoauthNetwork

SIZE_ATTRS = ("integer_papers", "fractional_papers", "degree")


def export_vosviewer(
    sub: CoauthNetwork,
    layout: Layout,
    size_attr: str = "fractional_papers",
) -> tuple[str, str]:
    """Return (map file, network file) sharing one dense id assignment.

    The map's weight column carries the chosen node-size attribute; degree
    is counted from the subnetwork's own edges.
    """
    if size_attr not in SIZE_ATTRS:
        raise DataError(f"size_attr must be one of {SIZE_ATTRS}, got {size_attr!r}")
    names, edges = numbered(sub, layout)
    map_lines = ["id\tlabel\tx\ty\tweight"]
    for k, name in enumerate(names, 1):
        x, y = layout.coordinates[name]
        if size_attr == "degree":
            weight = str(sub.degree(name))
        elif size_attr == "integer_papers":
            weight = str(sub.nodes[name].integer_papers)
        else:
            weight = format_fixed(sub.nodes[name].fractional_papers)
        map_lines.append(f"{k}\t{name}\t{format_fixed(x)}\t{format_fixed(y)}\t{weight}")

    net_lines = [f"{a}\t{b}\t{w}" for a, b, w in edges]
    map_text = "\n".join(map_lines) + "\n"
    net_text = ("\n".join(net_lines) + "\n") if net_lines else ""
    return map_text, net_text
