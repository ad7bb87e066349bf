"""Seeded synthetic corpus generation.

Produces tagged-field record files with a Zipf-like activity profile over
a configurable number of countries, a tunable probability of
international collaboration, and a sprinkling of the messiness real
exports carry: ephemera document types, address-less records, UK
constituent names, US state-and-zip endings, and the odd unknown country.
Everything is a pure function of the seed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from collabmap.corpus.records import RawRecord, write_tagged
from collabmap.corpus.registry import CountryRegistry

if TYPE_CHECKING:
    from collections.abc import Iterator

# alias spellings occasionally substituted for their canonical country
_ALIAS_FLAVORS = {
    "UK": ["England", "Scotland", "Wales", "North Ireland"],
    "CHINA": ["Peoples R China"],
    "RUSSIA": ["Russian Federation"],
}

_US_STATES = ["NY 10012", "MA 02139", "CA 94305", "IL 60637", "TX 77005", "MD 21218"]
_CITIES = [
    "Amsterdam", "Boston", "Seoul", "Leeds", "Lyon", "Bandung", "Nairobi",
    "Osaka", "Porto", "Quito", "Riga", "Tunis", "Uppsala", "Wuhan",
]
_EPHEMERA = ["Editorial Material", "Meeting Abstract", "Correction", "News Item"]


def pick_countries(registry: CountryRegistry, n_countries: int, rng: random.Random) -> list[str]:
    names = sorted(registry.entries)
    if not 1 <= n_countries <= len(names):
        raise ValueError(f"the number of countries must be 1 to {len(names)}, got {n_countries}")
    return rng.sample(names, n_countries)


def _address_line(country: str, rng: random.Random) -> str:
    city = rng.choice(_CITIES)
    institute = f"Univ {city}"
    dept = f"Dept Sci {rng.randint(1, 9)}"
    if country == "USA" and rng.random() < 0.7:
        return f"{institute}, {dept}, {rng.choice(_CITIES)}, {rng.choice(_US_STATES)} USA"
    flavors = _ALIAS_FLAVORS.get(country)
    if flavors and rng.random() < 0.5:
        rendered = rng.choice(flavors)
    else:
        rendered = country.title()
    return f"{institute}, {dept}, {city}, {rendered}"


def generate_records(
    registry: CountryRegistry,
    n_docs: int = 200,
    n_countries: int = 20,
    intl_prob: float = 0.3,
    seed: int = 42,
) -> list[RawRecord]:
    """The records of the corpus; an argument out of range is a ValueError."""
    return list(_draw_records(registry, n_docs, n_countries, intl_prob, seed))


def generate_corpus_text(
    registry: CountryRegistry,
    n_docs: int = 200,
    n_countries: int = 20,
    intl_prob: float = 0.3,
    seed: int = 42,
) -> str:
    """The tagged text of the corpus, each record written as it is drawn."""
    return write_tagged(_draw_records(registry, n_docs, n_countries, intl_prob, seed))


def _draw_records(
    registry: CountryRegistry, n_docs: int, n_countries: int, intl_prob: float, seed: int
) -> Iterator[RawRecord]:
    """The corpus's records, drawn one at a time; an argument out of range
    is a ValueError at the first draw."""
    if n_docs < 0:
        raise ValueError(f"the number of documents must be at least 0, got {n_docs}")
    # false for nan as well
    if not 0.0 <= intl_prob <= 1.0:
        raise ValueError(f"the international collaboration probability must be in [0, 1], got {intl_prob}")
    rng = random.Random(seed)
    countries = pick_countries(registry, n_countries, rng)
    # Zipf-like attractiveness by sampled rank
    weights = [1.0 / (rank + 1) for rank in range(n_countries)]

    for i in range(n_docs):
        roll = rng.random()
        if roll < 0.06:
            doc_type = rng.choice(_EPHEMERA)
        elif roll < 0.14:
            doc_type = "Review"
        elif roll < 0.20:
            doc_type = "Letter"
        else:
            doc_type = "Article"

        if rng.random() < 0.03:
            lines: tuple[str, ...] = ()
        else:
            if rng.random() < intl_prob:
                k = min(2 + _geometric(rng, 0.5), n_countries)
            else:
                k = 1
            members = _weighted_sample(countries, weights, k, rng)
            address_lines = []
            for country in members:
                copies = 1 + _geometric(rng, 0.35)
                for _ in range(copies):
                    address_lines.append(_address_line(country, rng))
            if rng.random() < 0.02:
                address_lines.append("Atlantis Inst Marine Res, Atlantis")
            lines = tuple(address_lines)

        yield RawRecord(f"SYN{i:06d}", doc_type, 2011, lines, f"Synthetic study {i:06d}")


def _geometric(rng: random.Random, p: float) -> int:
    """Number of failures before the first success (small, heavy at 0)."""
    count = 0
    while rng.random() > p and count < 6:
        count += 1
    return count


def _weighted_sample(items: list[str], weights: list[float], k: int, rng: random.Random) -> list[str]:
    chosen: list[str] = []
    pool = list(range(len(items)))
    local = list(weights)
    for _ in range(min(k, len(items))):
        total = sum(local[i] for i in pool)
        mark = rng.random() * total
        acc = 0.0
        for idx, i in enumerate(pool):
            acc += local[i]
            if mark <= acc:
                chosen.append(items[i])
                pool.pop(idx)
                break
    return chosen
