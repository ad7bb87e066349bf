"""Machine-readable run report: corpus summary plus network statistics."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from collabmap.counting import (
    CorpusSummary,
    display_decimal,
    display_percent,
    mean_coauthorship_ratio,
    summary_dict,
)
from collabmap.errors import DataError

if TYPE_CHECKING:
    from fractions import Fraction

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


def report_dict(
    summary: CorpusSummary,
    stats: NetworkStats,
    focus: dict | None = None,
) -> dict:
    """Summary fields (exact shares plus rounded percents) and network stats."""
    body = summary_dict(summary)
    out: dict = {}
    for key, value in body.items():
        out[key] = value
        if key == "share_international_docs":
            out["share_international_docs_pct"] = display_percent(summary.share_international_docs)
        elif key == "share_addresses_international":
            out["share_addresses_international_pct"] = display_percent(
                summary.share_addresses_international
            )
    out["network"] = stats.as_dict()
    if focus is not None:
        out["focus"] = focus
    return out


def export_report(
    summary: CorpusSummary,
    stats: NetworkStats,
    focus: dict | None = None,
) -> str:
    return json.dumps(report_dict(summary, stats, focus), indent=2, ensure_ascii=False) + "\n"
