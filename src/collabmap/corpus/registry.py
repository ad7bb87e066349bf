"""Canonical country registry and address-line country resolution.

The registry is data-driven: two CSV files define the canonical entities
(name, ISO3 code, centroid) and the alias table that recodes raw names
onto them (e.g. England/Scotland/Wales/North Ireland onto UK). An alias
row with an empty target marks a raw name that is known but deliberately
mapped to nothing; such names resolve to Unrecognized like any other
unknown token, but are documented data rather than omissions.
"""

from __future__ import annotations

import csv
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from collabmap.errors import ConfigError

# Last address token ending with " <key>" collapses to the mapped country.
# Covers "Ithaca, NY 14853 USA" style lines where state and zip share the
# final comma-separated token with the country.
_TRAILING_COUNTRY_SUFFIXES = {
    "USA": "USA",
}

# The four UK constituents must recode onto UK; the registry is rejected
# otherwise because downstream counts would silently split the UK.
_REQUIRED_UK_ALIASES = ("ENGLAND", "SCOTLAND", "WALES", "NORTH IRELAND")


class CountryEntry(NamedTuple):
    name: str
    iso3: str
    latitude: float
    longitude: float


class Unrecognized(NamedTuple):
    """Resolution outcome for a token absent from the registry."""

    token: str


class CountryRegistry(NamedTuple):
    entries: dict[str, CountryEntry]
    aliases: dict[str, str]

    def validate(self) -> None:
        for name, entry in self.entries.items():
            if not name:
                raise ConfigError("registry: empty canonical name")
            # every CSV and TSV artifact writes names unquoted
            if any(ch in name for ch in ',"\t\r\n'):
                raise ConfigError(
                    f"registry: canonical name {name!r} holds a comma, quote, tab or line break"
                )
            if not -90.0 <= entry.latitude <= 90.0:
                raise ConfigError(f"registry: latitude out of range for {name}")
            if not -180.0 <= entry.longitude <= 180.0:
                raise ConfigError(f"registry: longitude out of range for {name}")
        for alias, target in self.aliases.items():
            if target not in self.entries:
                raise ConfigError(f"registry: alias {alias!r} targets unknown country {target!r}")
            if alias in self.entries and target != alias:
                raise ConfigError(f"registry: alias {alias!r} shadows a canonical name")
        for alias in _REQUIRED_UK_ALIASES:
            if self.aliases.get(alias) != "UK":
                raise ConfigError(f"registry: required alias {alias!r} -> UK is missing")


def _clean_token(token: str) -> str:
    return token.strip().rstrip(".;, \t").upper()


def resolve_country(address_line: str, registry: CountryRegistry) -> str | Unrecognized:
    """Resolve the trailing country token of an affiliation line.

    The country is taken to be the last comma-separated token, uppercased
    and stripped of trailing punctuation. Tokens ending in " USA" (state +
    zip patterns) collapse to USA. Aliases are consulted before canonical
    names, so recodings such as England -> UK win over exact matches.
    """
    token = _clean_token(address_line.rsplit(",", 1)[-1])
    if not token:
        return Unrecognized("")
    for suffix, target in _TRAILING_COUNTRY_SUFFIXES.items():
        if token == suffix or token.endswith(" " + suffix):
            token = target
            break
    target = registry.aliases.get(token)
    if target is not None:
        return target
    if token in registry.entries:
        return token
    return Unrecognized(token)


def _read_csv(path: Path, expected_header: list[str]) -> list[list[str]]:
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read registry file {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty registry file")
    if rows[0] != expected_header:
        raise ConfigError(f"{path}: expected header {','.join(expected_header)}")
    return [row for row in rows[1:] if row and any(cell.strip() for cell in row)]


def _bundled(name: str) -> Path:
    return Path(str(resources.files("collabmap.corpus").joinpath("data", name)))


def load_registry(
    countries_path: str | Path | None = None,
    aliases_path: str | Path | None = None,
) -> CountryRegistry:
    """Load and validate the registry, from bundled data unless overridden."""
    countries_path = Path(countries_path) if countries_path else _bundled("countries.csv")
    aliases_path = Path(aliases_path) if aliases_path else _bundled("aliases.csv")

    entries: dict[str, CountryEntry] = {}
    for row in _read_csv(countries_path, ["canonical_name", "iso3", "latitude", "longitude"]):
        if len(row) != 4:
            raise ConfigError(f"{countries_path}: bad row {row!r}")
        name = row[0].strip().upper()
        if name in entries:
            raise ConfigError(f"{countries_path}: duplicate canonical name {name!r}")
        try:
            lat, lon = float(row[2]), float(row[3])
        except ValueError as exc:
            raise ConfigError(f"{countries_path}: bad coordinates for {name!r}") from exc
        entries[name] = CountryEntry(name, row[1].strip().upper(), lat, lon)

    aliases: dict[str, str] = {}
    for row in _read_csv(aliases_path, ["alias", "canonical_name"]):
        if len(row) != 2:
            raise ConfigError(f"{aliases_path}: bad row {row!r}")
        alias = row[0].strip().upper()
        target = row[1].strip().upper()
        if not target:
            continue
        if alias in aliases and aliases[alias] != target:
            raise ConfigError(f"{aliases_path}: conflicting alias {alias!r}")
        aliases[alias] = target

    registry = CountryRegistry(entries, aliases)
    registry.validate()
    return registry
