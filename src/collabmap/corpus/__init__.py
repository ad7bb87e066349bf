"""Bibliographic corpus handling: record parsing, country resolution, filtering."""
