"""Record filtering and country-address resolution.

A record is retained when it is an article, review, or letter AND at least
one of its affiliation lines resolves to a registry country. Everything
else (ephemera such as editorial material or meeting abstracts, and
records without a usable country address) is dropped and tallied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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


@dataclass(frozen=True)
class Document:
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


@dataclass
class FilterReport:
    n_records: int = 0
    n_retained: int = 0
    n_dropped_type: int = 0
    n_dropped_no_address: int = 0
    unrecognized: Counter = field(default_factory=Counter)

    def as_dict(self) -> dict:
        return {
            "n_records": self.n_records,
            "n_retained": self.n_retained,
            "n_dropped_type": self.n_dropped_type,
            "n_dropped_no_address": self.n_dropped_no_address,
            "unrecognized": dict(sorted(self.unrecognized.items())),
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
    record survives if any other line resolves.
    """
    report = FilterReport(n_records=len(records))
    documents: list[Document] = []
    # each distinct raw type is canonicalized once; resolve_country reads
    # only the text after the last comma, so each distinct tail is resolved once
    type_by_raw: dict[str, str | None] = {}
    resolved_by_tail: dict[str, str | Unrecognized] = {}
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
        documents.append(
            Document(
                record_id=rec.record_id,
                doc_type=doc_type,
                country_addresses=dict(sorted(counts.items())),
            )
        )
    return documents, report
