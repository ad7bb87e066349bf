"""Record filtering and country-address resolution.

A record is retained when it is an article, review, or letter AND at least
one of its affiliation lines resolves to a registry country. Everything
else (ephemera such as editorial material or meeting abstracts, and
records without a usable country address) is dropped and tallied. The
retained documents are tallied too, as they are kept: by type, how many
are international, and their addresses; the corpus summary is built from
these tallies.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from collabmap.corpus.registry import CountryRegistry, Unrecognized, resolve_country

if TYPE_CHECKING:
    from collabmap.corpus.records import RawRecord

# Raw document-type tag -> canonical retained type, matched after
# lowercasing and stripping a leading "@" marker. Export variants differ
# in capitalization and decoration, not in vocabulary.
DEFAULT_TYPE_SYNONYMS = {
    "article": "Article",
    "review": "Review",
    "letter": "Letter",
}


class Document(NamedTuple):
    """A retained record: canonical type plus per-country address counts."""

    record_id: str
    doc_type: str
    country_addresses: dict[str, int]

    @property
    def total_addresses(self) -> int:
        return sum(self.country_addresses.values())

    @property
    def is_international(self) -> bool:
        return len(self.country_addresses) >= 2


class FilterReport:
    """The filter's tallies, which filter_documents adds to as it goes."""

    # the keyword arguments, which are also the keys of as_dict
    _fields = (
        "n_records", "n_retained", "n_dropped_type", "n_dropped_no_address", "unrecognized",
        "per_type", "n_international_docs", "n_addresses_total", "n_addresses_international",
    )

    def __init__(
        self,
        n_records: int = 0,
        n_retained: int = 0,
        n_dropped_type: int = 0,
        n_dropped_no_address: int = 0,
        unrecognized: Counter | None = None,
        per_type: dict[str, int] | None = None,
        n_international_docs: int = 0,
        n_addresses_total: int = 0,
        n_addresses_international: int = 0,
    ):
        self.n_records = n_records
        self.n_retained = n_retained
        self.n_dropped_type = n_dropped_type
        self.n_dropped_no_address = n_dropped_no_address
        self.unrecognized = Counter() if unrecognized is None else unrecognized
        # tallies of the retained documents
        self.per_type = {} if per_type is None else per_type
        self.n_international_docs = n_international_docs
        self.n_addresses_total = n_addresses_total
        self.n_addresses_international = n_addresses_international

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"FilterReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def as_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "n_retained": self.n_retained,
            "n_dropped_type": self.n_dropped_type,
            "n_dropped_no_address": self.n_dropped_no_address,
            "unrecognized": dict(sorted(self.unrecognized.items())),
            "per_type": dict(sorted(self.per_type.items())),
            "n_international_docs": self.n_international_docs,
            "n_addresses_total": self.n_addresses_total,
            "n_addresses_international": self.n_addresses_international,
        }


def canonical_doc_type(raw: str, synonyms: dict[str, str] | None = None) -> str | None:
    """Map a raw document-type tag onto a retained type, or None."""
    table = DEFAULT_TYPE_SYNONYMS if synonyms is None else synonyms
    key = raw.strip()
    if key.startswith("@"):
        key = key[1:].strip()
    return table.get(key.lower())


def filter_documents(
    records: list[RawRecord],
    registry: CountryRegistry,
    synonyms: dict[str, str] | None = None,
) -> tuple[list[Document], FilterReport]:
    """Apply both retention conditions, producing documents and a tally.

    The type condition is checked first, so a typeless record with no
    addresses counts once, under dropped-by-type. Unrecognized country
    tokens are tallied per occurrence but never abort the record; the
    record survives if any other line resolves. Each retained document
    adds to the report's per-type, international and address tallies.
    """
    report = FilterReport(n_records=len(records))
    documents: list[Document] = []
    # each distinct raw type is canonicalized once; resolve_country reads
    # only the text after the last comma, so each distinct tail is resolved once
    type_by_raw: dict[str, str | None] = {}
    resolved_by_tail: dict[str, str | Unrecognized] = {}
    per_type = report.per_type
    for rec in records:
        try:
            doc_type = type_by_raw[rec.doc_type]
        except KeyError:
            doc_type = type_by_raw[rec.doc_type] = canonical_doc_type(rec.doc_type, synonyms)
        if doc_type is None:
            report.n_dropped_type += 1
            continue
        counts: dict[str, int] = {}
        for line in rec.address_lines:
            tail = line.rsplit(",", 1)[-1]
            resolved = resolved_by_tail.get(tail)
            if resolved is None:
                resolved = resolved_by_tail[tail] = resolve_country(tail, registry)
            if isinstance(resolved, Unrecognized):
                report.unrecognized[resolved.token] += 1
            else:
                counts[resolved] = counts.get(resolved, 0) + 1
        if not counts:
            report.n_dropped_no_address += 1
            continue
        report.n_retained += 1
        per_type[doc_type] = per_type.get(doc_type, 0) + 1
        addresses = sum(counts.values())
        report.n_addresses_total += addresses
        if len(counts) >= 2:
            report.n_international_docs += 1
            report.n_addresses_international += addresses
        documents.append(Document(rec.record_id, doc_type, dict(sorted(counts.items()))))
    return documents, report
