import random
from fractions import Fraction
from pathlib import Path

import pytest

from collabmap.corpus import load_registry
from collabmap.corpus.filtering import Document

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
