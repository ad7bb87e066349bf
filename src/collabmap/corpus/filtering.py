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
    from collections.abc import Iterable

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


class FilterReport(NamedTuple):
    """The filter's tallies: every record once, as retained, dropped by type
    or dropped for no address, and the retained documents by type, how many
    are international and their addresses. The dict defaults are shared
    between reports, so a report is never changed once built."""

    n_records: int = 0
    n_retained: int = 0
    n_dropped_type: int = 0
    n_dropped_no_address: int = 0
    unrecognized: Counter = Counter()
    per_type: dict[str, int] = {}
    n_international_docs: int = 0
    n_addresses_total: int = 0
    n_addresses_international: int = 0

    def as_dict(self) -> dict:
        return {
            **self._asdict(),
            "unrecognized": dict(sorted(self.unrecognized.items())),
            "per_type": dict(sorted(self.per_type.items())),
        }


def canonical_doc_type(raw: str, synonyms: dict[str, str] | None = None) -> str | None:
    """Map a raw document-type tag onto a retained type, or None."""
    table = DEFAULT_TYPE_SYNONYMS if synonyms is None else synonyms
    key = raw.strip()
    if key.startswith("@"):
        key = key[1:].strip()
    return table.get(key.lower())


def filter_documents(
    records: Iterable[RawRecord],
    registry: CountryRegistry,
    synonyms: dict[str, str] | None = None,
) -> tuple[list[Document], FilterReport]:
    """Apply both retention conditions, producing documents and a tally.

    The type condition is checked first, so a typeless record with no
    addresses counts once, under dropped-by-type. Unrecognized country
    tokens are tallied per occurrence but never abort the record; the
    record survives if any other line resolves. Each retained document
    adds to the report's per-type, international and address tallies.
    Each record is counted once, as it passes, so ``records`` may be a stream.
    """
    documents: list[Document] = []
    # each distinct raw type is canonicalized once; resolve_country reads
    # only the text after the last comma, so each distinct tail is resolved once
    type_by_raw: dict[str, str | None] = {}
    resolved_by_tail: dict[str, str | Unrecognized] = {}
    unrecognized: Counter = Counter()
    per_type: dict[str, int] = {}
    n_dropped_type = n_dropped_no_address = n_international = n_addresses = n_addresses_international = 0
    for rec in records:
        try:
            doc_type = type_by_raw[rec.doc_type]
        except KeyError:
            doc_type = type_by_raw[rec.doc_type] = canonical_doc_type(rec.doc_type, synonyms)
        if doc_type is None:
            n_dropped_type += 1
            continue
        counts: dict[str, int] = {}
        addresses = 0
        for line in rec.address_lines:
            tail = line[line.rfind(",") + 1:]
            resolved = resolved_by_tail.get(tail)
            if resolved is None:
                resolved = resolved_by_tail[tail] = resolve_country(tail, registry)
            # a country's name, or an Unrecognized token
            if type(resolved) is str:
                counts[resolved] = counts.get(resolved, 0) + 1
                addresses += 1
            else:
                unrecognized[resolved.token] += 1
        if not counts:
            n_dropped_no_address += 1
            continue
        per_type[doc_type] = per_type.get(doc_type, 0) + 1
        n_addresses += addresses
        if len(counts) >= 2:
            n_international += 1
            n_addresses_international += addresses
            counts = dict(sorted(counts.items()))
        documents.append(Document(rec.record_id, doc_type, counts))
    n_retained = len(documents)
    return documents, FilterReport(
        n_retained + n_dropped_type + n_dropped_no_address, n_retained, n_dropped_type, n_dropped_no_address, unrecognized, per_type,
        n_international, n_addresses, n_addresses_international,
    )
