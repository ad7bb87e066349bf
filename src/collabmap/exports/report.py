"""Machine-readable run report: corpus summary plus network statistics."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from collabmap.counting import display_decimal, display_percent, mean_coauthorship_ratio, summary_dict
from collabmap.errors import DataError
from collabmap.network import positive_ratio
from collabmap.workspace import _count, _json_fields

if TYPE_CHECKING:
    from fractions import Fraction

    from collabmap.counting import CorpusSummary
    from collabmap.network import CoauthNetwork, NetworkStats


# the keys of focus.json, in the order it writes them
FOCUS_FIELDS = (
    "country", "integer_papers", "fractional_papers", "fractional_papers_display", "mean_coauthorship_ratio",
)


def focus_stats(country: str, net: CoauthNetwork) -> dict:
    """Per-country paper counts and the mean co-authorship multiplier."""
    if country not in net.nodes:
        raise DataError(f"unknown focus country: {country!r}")
    return focus_dict(country, net.nodes[country].integer_papers, net.nodes[country].fractional_papers)


def focus_dict(country: str, n_integer: int, n_fractional: Fraction) -> dict:
    """The focus.json object of a country's two paper counts."""
    ratio = mean_coauthorship_ratio(n_integer, n_fractional)
    return dict(zip(FOCUS_FIELDS, (
        country,
        n_integer,
        f"{n_fractional.numerator}/{n_fractional.denominator}",
        display_decimal(n_fractional),
        display_decimal(ratio),
    )))


def load_focus(relpath: str, text: str) -> dict:
    """The focus_dict() object whose JSON ``text`` is, at ``ego/<COUNTRY>/focus.json``:
    that country, a count, a positive "p/q", and the displays that these give,
    or a DataError that names ``relpath``."""
    read = _json_fields(relpath, text, FOCUS_FIELDS, integer_papers=_count, fractional_papers=positive_ratio)
    country = relpath.removeprefix("ego/").removesuffix("/focus.json")
    focus = focus_dict(country, read["integer_papers"], read["fractional_papers"])
    # the country and both displays follow from the path and the two counts
    for key in ("country", "fractional_papers_display", "mean_coauthorship_ratio"):
        if read[key] != focus[key]:
            raise DataError(f"{relpath}: {key} is {read[key]!r}, not {focus[key]!r}")
    return focus


def report_dict(summary: CorpusSummary, stats: NetworkStats, focus: dict | None = None) -> dict:
    """Summary fields (each exact share followed by its rounded percent) and network stats."""
    out: dict = {}
    for key, value in summary_dict(summary).items():
        out[key] = value
        if key.startswith("share_"):
            out[f"{key}_pct"] = display_percent(getattr(summary, key))
    out["network"] = stats.as_dict()
    if focus is not None:
        out["focus"] = focus
    return out


def export_report(summary: CorpusSummary, stats: NetworkStats, focus: dict | None = None) -> str:
    return json.dumps(report_dict(summary, stats, focus), indent=2, ensure_ascii=False) + "\n"
