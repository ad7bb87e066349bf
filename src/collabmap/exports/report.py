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
    from collabmap.network import CoauthNetwork, NetworkStats


def focus_stats(country: str, net: CoauthNetwork) -> dict:
    """Per-country paper counts and the mean co-authorship multiplier."""
    if country not in net.nodes:
        raise DataError(f"unknown focus country: {country!r}")
    n_integer = net.nodes[country].integer_papers
    n_fractional = net.nodes[country].fractional_papers
    ratio = mean_coauthorship_ratio(n_integer, n_fractional)
    return {
        "country": country,
        "integer_papers": n_integer,
        "fractional_papers": f"{n_fractional.numerator}/{n_fractional.denominator}",
        "fractional_papers_display": display_decimal(n_fractional),
        "mean_coauthorship_ratio": display_decimal(ratio),
    }


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
