import random
from fractions import Fraction
from pathlib import Path

import pytest

from collabmap.corpus import load_registry
from collabmap.corpus.filtering import Document, FilterReport, canonical_doc_type
from collabmap.corpus.records import _FILE_END, _RECORD_END, _RECORD_START, ParseIssue, RawRecord
from collabmap.corpus.registry import CountryRegistry, Unrecognized, resolve_country

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def registry():
    return load_registry()


def make_documents(rng: random.Random, n_docs: int, n_countries: int, intl_prob: float = 0.35):
    """Random retained-document corpora for property and oracle tests."""
    countries = [f"C{i:03d}" for i in range(n_countries)]
    documents = []
    for i in range(n_docs):
        if rng.random() < intl_prob and n_countries >= 2:
            k = rng.randint(2, min(5, n_countries))
        else:
            k = 1
        members = rng.sample(countries, k)
        addresses = {c: rng.randint(1, 4) for c in members}
        documents.append(
            Document(
                record_id=f"R{i:05d}",
                doc_type=rng.choice(["Article", "Review", "Letter"]),
                country_addresses=dict(sorted(addresses.items())),
            )
        )
    return documents


def brute_force_edges(documents) -> dict[tuple[str, str], int]:
    """Single-relation oracle: per-document scan over unordered pairs."""
    weights: dict[tuple[str, str], int] = {}
    for doc in documents:
        members = sorted(doc.country_addresses)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                key = (members[i], members[j])
                weights[key] = weights.get(key, 0) + 1
    return weights


def fractional_tally(documents) -> dict[str, Fraction]:
    """Independent fractional-count oracle working per document."""
    totals: dict[str, Fraction] = {}
    for doc in documents:
        total = sum(doc.country_addresses.values())
        for country, count in doc.country_addresses.items():
            totals[country] = totals.get(country, Fraction(0)) + Fraction(count, total)
    return totals


def incidence_row(m, doc_index: int) -> dict[int, int]:
    """Country index -> address count for one document, read off the matrix."""
    return dict(m.rows[doc_index])


def column_doc_sets(m) -> list[set[int]]:
    """Document-membership set per country (the binarized columns): the
    Ochiai oracle, whose set intersections the network's edge weights and
    cosine values must equal."""
    sets: list[set[int]] = [set() for _ in m.countries]
    for d, row in enumerate(m.rows):
        for c in row:
            sets[c].add(d)
    return sets


def incidence_summary_stats(m) -> dict[str, int]:
    """Summary numbers recomputed straight from the matrix.

    Independent of ``counting.summarize``; the two paths must agree on every
    field they share.
    """
    per_doc_countries = [len(row) for row in m.rows]
    per_doc_addresses = [sum(row.values()) for row in m.rows]
    intl = [d for d in range(len(m.doc_ids)) if per_doc_countries[d] >= 2]
    return {
        "n_documents": len(m.doc_ids),
        "n_international_docs": len(intl),
        "n_addresses_total": sum(per_doc_addresses),
        "n_addresses_international": sum(per_doc_addresses[d] for d in intl),
        "n_countries": len(m.countries),
    }


# ---------------------------------------------------------------------------
# per-line oracles for the corpus path: the tagged parser that tests each
# line with _is_tag_line, and the filter that resolves every address line
# on its own; parse_records and filter_documents must equal them
# ---------------------------------------------------------------------------

def _is_tag_line(line: str) -> bool:
    return len(line) >= 2 and line[:2].isalnum() and line[:2].isupper() and (
        len(line) == 2 or line[2] == " "
    )


def _parse_tagged(text: str, source_name: str) -> tuple[list[RawRecord], list[ParseIssue]]:
    records: list[RawRecord] = []
    issues: list[ParseIssue] = []
    seen_ids: set[str] = set()

    fields: dict[str, list[str]] = {}
    in_record = False
    start_line = 0
    ordinal = 0
    current_tag: str | None = None

    def discard(line_no: int, message: str) -> None:
        nonlocal in_record, current_tag
        issues.append(ParseIssue(line_no, message))
        fields.clear()
        in_record = False
        current_tag = None

    def close_record(line_no: int) -> None:
        nonlocal in_record, current_tag
        record_id = fields.get("UT", [""])[0].strip() or f"{source_name}#{ordinal}"
        if record_id in seen_ids:
            discard(line_no, f"duplicate record id {record_id!r}; record dropped")
            return
        seen_ids.add(record_id)
        year_raw = fields.get("PY", ["0"])[0].strip()
        try:
            year = int(year_raw) if year_raw else 0
        except ValueError:
            issues.append(ParseIssue(line_no, f"bad year {year_raw!r} in {record_id}"))
            year = 0
        title = " ".join(fields["TI"]) if "TI" in fields else None
        records.append(
            RawRecord(
                record_id=record_id,
                doc_type=fields.get("DT", [""])[0].strip(),
                pub_year=year,
                address_lines=tuple(a for a in fields.get("C1", []) if a.strip()),
                title=title,
            )
        )
        fields.clear()
        in_record = False
        current_tag = None

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        stripped = line.strip()
        if not stripped:
            continue
        if line.startswith("   ") and in_record:
            if current_tag is None:
                issues.append(ParseIssue(line_no, "continuation line without a field"))
                continue
            # repeatable fields (C1) gain a new item; scalar fields (TI)
            # are re-joined with spaces when the record closes
            fields[current_tag].append(stripped)
            continue
        if not _is_tag_line(line):
            if in_record:
                issues.append(ParseIssue(line_no, f"unparseable line inside record: {stripped!r}"))
            else:
                issues.append(ParseIssue(line_no, f"content outside any record: {stripped!r}"))
            continue
        tag, value = line[:2], line[3:].strip() if len(line) > 3 else ""
        if tag == _RECORD_START:
            if in_record:
                discard(line_no, "record not terminated by ER; span dropped")
            in_record = True
            start_line = line_no
            ordinal += 1
            current_tag = None
            continue
        if tag == _FILE_END:
            if in_record:
                discard(line_no, "record not terminated by ER before EF; span dropped")
            break
        if not in_record:
            issues.append(ParseIssue(line_no, f"field {tag!r} outside any record"))
            continue
        if tag == _RECORD_END:
            close_record(line_no)
            continue
        current_tag = tag
        fields.setdefault(tag, []).append(value)
    if in_record:
        issues.append(ParseIssue(start_line, "record not terminated by ER at end of input; span dropped"))
    return records, issues


def reference_filter_documents(
    records: list[RawRecord],
    registry: CountryRegistry,
    synonyms: dict[str, str] | None = None,
) -> tuple[list[Document], FilterReport]:
    """filter_documents with one resolve_country call per address line."""
    report = FilterReport(n_records=len(records))
    documents: list[Document] = []
    for rec in records:
        doc_type = canonical_doc_type(rec.doc_type, synonyms)
        if doc_type is None:
            report.n_dropped_type += 1
            continue
        counts: dict[str, int] = {}
        for line in rec.address_lines:
            resolved = resolve_country(line, registry)
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
