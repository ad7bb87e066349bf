"""Participation counting over the document-country incidence matrix.

The pipeline's counts come from ``network.build_coauth_network``. The
matrix chain below stays as its reference: the counting and Ochiai tests
read the matrix's columns, and the benchmark's tracer times these names.
The corpus summary is built from the filter's tallies and the network,
not from the matrix.

Two credit schemes are computed from the same sparse matrix:

* fractional: each paper distributes credit 1 over its countries in
  proportion to their address shares, in exact rational arithmetic, so
  the grand total equals the number of documents with zero drift;
* integer (whole): each participating country earns credit 1 per paper,
  i.e. the column count after binarizing the matrix. The same 0/1
  participation view underlies the co-occurrence products downstream.

Decimal rendering happens only at output time, half-even at a fixed
number of places.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from collabmap.errors import DataError
from collabmap.workspace import _check_tallies, _count, _json_fields, _tally

if TYPE_CHECKING:
    from collabmap.corpus.filtering import Document, FilterReport
    from collabmap.corpus.registry import CountryRegistry
    from collabmap.network import CoauthNetwork


class IncidenceMatrix(NamedTuple):
    """Sparse document x country address-count matrix, one row per document."""

    countries: list[str]
    rows: list[dict[int, int]]


class CorpusSummary(NamedTuple):
    n_records: int
    n_documents: int
    per_type: dict[str, int]
    n_international_docs: int
    share_international_docs: Fraction
    n_addresses_total: int
    n_addresses_international: int
    share_addresses_international: Fraction
    n_countries: int


def build_incidence(documents: list[Document]) -> IncidenceMatrix:
    """Assemble the sparse incidence matrix with lexicographic country order."""
    if not documents:
        raise DataError("cannot build an incidence matrix from zero documents")
    seen: set[str] = set()
    for doc in documents:
        if doc.record_id in seen:
            raise DataError(f"duplicate record id in corpus: {doc.record_id!r}")
        seen.add(doc.record_id)
    countries = sorted({c for doc in documents for c in doc.country_addresses})
    country_index = {c: i for i, c in enumerate(countries)}
    return IncidenceMatrix(
        countries=countries,
        rows=[
            {country_index[country]: count for country, count in doc.country_addresses.items()}
            for doc in documents
        ],
    )


def fractional_counts(m: IncidenceMatrix) -> dict[str, Fraction]:
    """Per-country sum of per-paper address shares, exact in rationals.

    Shares with the same denominator (a paper's address total) are summed
    as integers first, and those sums are brought to the least common
    multiple of the denominators, so each country builds one Fraction.
    """
    numerators: list[dict[int, int]] = [{} for _ in m.countries]
    for row in m.rows:
        addresses = sum(row.values())
        for c, v in row.items():
            by_denominator = numerators[c]
            by_denominator[addresses] = by_denominator.get(addresses, 0) + v
    fractional: dict[str, Fraction] = {}
    for country, by_denominator in zip(m.countries, numerators):
        common = math.lcm(*by_denominator)
        fractional[country] = Fraction(
            sum(n * (common // d) for d, n in by_denominator.items()), common
        )
    return fractional


def integer_counts(m: IncidenceMatrix) -> dict[str, int]:
    """Whole counting: documents in which each country participates."""
    totals = [0] * len(m.countries)
    for row in m.rows:
        for c in row:
            totals[c] += 1
    return dict(zip(m.countries, totals))


def summarize(report: FilterReport, net: CoauthNetwork) -> CorpusSummary:
    """The corpus summary: the filter's tallies of the retained documents,
    and the network's countries."""
    n_docs = report.n_retained
    if not n_docs:
        raise DataError("corpus summary undefined for zero documents")
    return CorpusSummary(
        n_records=report.n_records,
        n_documents=n_docs,
        per_type=dict(sorted(report.per_type.items())),
        n_international_docs=report.n_international_docs,
        share_international_docs=Fraction(report.n_international_docs, n_docs),
        n_addresses_total=report.n_addresses_total,
        n_addresses_international=report.n_addresses_international,
        share_addresses_international=Fraction(
            report.n_addresses_international, report.n_addresses_total
        ),
        n_countries=len(net.nodes),
    )


def mean_coauthorship_ratio(n_integer: int, n_fractional: Fraction) -> Fraction:
    """Whole count over fractional count: mean co-authorship multiplier."""
    if n_fractional == 0:
        raise DataError("mean co-authorship ratio undefined for zero fractional count")
    return Fraction(n_integer) / Fraction(n_fractional)


# ---------------------------------------------------------------------------
# display rounding and serialization
# ---------------------------------------------------------------------------

def display_decimal(value: Fraction, digits: int = 1) -> float:
    """``value`` rounded half-even, exactly, to ``digits`` decimal places."""
    return float(round(Fraction(value), digits))


def display_percent(ratio: Fraction, digits: int = 1) -> float:
    return display_decimal(Fraction(ratio) * 100, digits)


def format_fixed(value, digits: int = 6) -> str:
    """Locale-independent fixed-point rendering used by all file exports."""
    return f"{float(value):.{digits}f}"


def counts_csv(net: CoauthNetwork, registry: CountryRegistry) -> str:
    """CSV export ``country,iso3,scheme,value`` of the network's node counts:
    every integer count, then every fractional one at 6 decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["country", "iso3", "scheme", "value"])
    countries = net.countries()
    rows = [(c, "integer", str(net.nodes[c].integer_papers)) for c in countries]
    rows += [(c, "fractional", format_fixed(net.nodes[c].fractional_papers)) for c in countries]
    for country, scheme, rendered in rows:
        iso3 = registry.entries[country].iso3 if country in registry.entries else ""
        writer.writerow([country, iso3, scheme, rendered])
    return buf.getvalue()


def summary_dict(summary: CorpusSummary) -> dict:
    """JSON-ready view; shares carried as exact ``numerator/denominator``."""
    return {
        **summary._asdict(),
        "share_international_docs": f"{summary.n_international_docs}/{summary.n_documents}",
        "share_addresses_international": f"{summary.n_addresses_international}/{summary.n_addresses_total}",
    }


def load_summary(relpath: str, text: str) -> CorpusSummary:
    """The CorpusSummary whose summary_dict() JSON ``text`` is: counts, a
    tally of positive counts, tallies that agree with each other, and each
    share the text of its two counts, or a DataError that names ``relpath``."""
    fields = CorpusSummary._fields
    summary = _json_fields(relpath, text, fields, per_type=_tally,
                           **{name: _count for name in fields if name.startswith("n_")})
    _check_tallies(relpath, summary, "n_documents")
    if summary["n_documents"] > summary["n_records"]:
        raise DataError(f"{relpath}: n_documents ({summary['n_documents']}) "
                        f"is above n_records ({summary['n_records']})")
    for share, count, total in (("share_international_docs", "n_international_docs", "n_documents"),
                                ("share_addresses_international", "n_addresses_international",
                                 "n_addresses_total")):
        if summary[share] != f"{summary[count]}/{summary[total]}" or not summary[total]:
            raise DataError(f"{relpath}: {share} is {summary[share]!r}, "
                            f"not {count}/{total} over a positive {total}")
        summary[share] = Fraction(summary[count], summary[total])
    return CorpusSummary(**summary)
