"""Parsers for bibliographic record files.

Two input layouts are supported:

* tagged field: UTF-8 text, a record opens at a ``PT <type>`` line, carries
  two-letter field tags (``UT`` id, ``TI`` title, ``DT`` document type,
  ``PY`` year, ``C1`` address, repeatable), continuation lines start with
  three spaces, the record closes at ``ER`` and the file at ``EF``.
* delimited: CSV with header ``id,doc_type,year,addresses`` where the
  addresses cell holds ``;``-separated affiliation strings.

Parsing is lenient by default: malformed spans are logged to an issue
ledger (with line numbers) and skipped. Strict mode raises on the first
issue instead.

``iter_records`` parses a file that arrives in chunks, a record at a time,
as ingest reads it; ``parse_records`` is that stream over one chunk. Bytes
become lines by ``utf-8-sig`` decoding with universal newlines, as registry
and ``--config`` files do; text input is encoded as UTF-8 first.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
from typing import TYPE_CHECKING, NamedTuple

from collabmap.errors import ParseError

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator

_RECORD_START = "PT"
_RECORD_END = "ER"
_FILE_END = "EF"
_STRUCTURE_TAGS = frozenset((_RECORD_START, _RECORD_END, _FILE_END))


class RawRecord(NamedTuple):
    record_id: str
    doc_type: str
    pub_year: int
    address_lines: tuple[str, ...]
    title: str | None = None


class ParseIssue(NamedTuple):
    line_no: int
    message: str


def parse_records(
    data: bytes | str,
    fmt: str = "tagged",
    strict: bool = False,
    source_name: str = "input",
) -> tuple[list[RawRecord], list[ParseIssue]]:
    """Parse a record file into RawRecords plus an issue ledger.

    The whole of ``data`` is one chunk for ``iter_records``, so the library
    parses a file exactly as ingest streams it. ``source_name`` seeds
    synthesized record ids when a record carries no explicit id
    (``<source_name>#<ordinal>``); a strict-mode error names it.
    """
    issues: list[ParseIssue] = []
    records = list(iter_records((data,), issues, fmt, source_name))
    if strict and issues:
        first = issues[0]
        raise ParseError(source_name, first.line_no, first.message)
    return records, issues


def iter_records(
    chunks: Iterable[bytes | str],
    issues: list[ParseIssue],
    fmt: str = "tagged",
    source_name: str = "input",
) -> Iterator[RawRecord]:
    """The records of a file that arrives as chunks, each parsed as its last
    line arrives; each malformed span is appended to ``issues`` as it is met.

    The input is read to its end, past ``EF`` or a header that is not the
    delimited one, so all of it is decoded (a byte that is not UTF-8 raises
    UnicodeDecodeError) and whoever yields the chunks sees every byte.
    """
    if fmt not in ("tagged", "delimited"):
        raise ValueError(f"unknown record format: {fmt!r}")
    return _records(split_lines(chunks), issues, fmt, source_name)


def _records(lines: Iterator[str], issues: list[ParseIssue], fmt: str, source_name: str) -> Iterator[RawRecord]:
    if fmt == "tagged":
        yield from _parse_tagged(lines, source_name, issues)
    else:
        yield from _parse_delimited(lines, issues)
    for _line in lines:
        pass


def split_lines(chunks: Iterable[bytes | str]) -> Iterator[str]:
    """The lines of a file that arrives as chunks of UTF-8 bytes or of text.

    One leading byte-order mark is dropped, and LF, CRLF or a lone CR ends
    a line, wherever the chunks are cut: inside a character, the mark or a
    CRLF. As with ``str.split``, the piece after the last line end is the
    last line, even when it is empty. Text is encoded as UTF-8 first, so a
    lone surrogate raises UnicodeDecodeError like a byte that is not UTF-8.
    """
    # a list of lines per chunk, so the parsers' per-line loop resumes no generator
    return itertools.chain.from_iterable(_line_lists(chunks))


def _line_lists(chunks: Iterable[bytes | str]) -> Iterator[list[str]]:
    # universal newlines over utf-8-sig hold what a cut splits: a character, the mark or a CRLF
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8-sig")(), True)
    fed = 0  # bytes decoded so far
    pending: list[str] = []  # the pieces of a line that has no end yet
    try:
        for chunk in chunks:
            if isinstance(chunk, str):  # text cut anywhere encodes to the bytes of the whole
                chunk = chunk.encode("utf-8", "surrogatepass")
            fed += len(chunk)
            lines = decoder.decode(chunk).split("\n")
            pending.append(lines[0])
            if len(lines) > 1:
                lines[0] = "".join(pending)
                pending = [lines.pop()]
                yield lines
        last = decoder.decode(b"", True)
        # utf-8-sig holds, and never decodes, an input that ends inside a mark
        codecs.utf_8_decode(decoder.getstate()[0], "strict", True)
    except UnicodeDecodeError as exc:
        # the decoder counts from the start of the bytes it holds
        exc.reason += f" at byte {fed - len(exc.object) + exc.start} of the input"
        raise
    # a CR held at the end of the input ends a line too
    yield ["".join(pending), ""] if last else ["".join(pending)]


def _parse_tagged(lines: Iterable[str], source_name: str, issues: list[ParseIssue]) -> Iterator[RawRecord]:
    seen_ids: set[str] = set()

    fields: dict[str, list[str]] = {}
    in_record = False
    start_line = 0
    py_line = 0  # the line of the open record's first PY field
    ordinal = 0
    current_tag: str | None = None

    # a tag line opens with two upper-case letters or digits, alone or before
    # a space, so it is never blank or a continuation line; the test reads
    # no further than the third character, so it runs once per distinct head.
    # The heads of field lines (any tag but PT, ER and EF) are kept apart too,
    # so inside a record a field line, the commonest line, costs one lookup.
    tag_by_head: dict[str, str] = {}
    field_by_head: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        head = line[:3]
        tag = field_by_head.get(head) if in_record else None
        if tag is None:
            tag = tag_by_head.get(head)
            if tag is None:
                tag = head[:2]
                if not (len(tag) == 2 and tag.isalnum() and tag.isupper() and head[2:] in ("", " ")):
                    tag = ""
                tag_by_head[head] = tag
                if tag and tag not in _STRUCTURE_TAGS:
                    field_by_head[head] = tag
            if not tag:
                stripped = line.strip()
                if not stripped:
                    continue
                if in_record and line.startswith("   "):
                    if current_tag is None:
                        issues.append(ParseIssue(line_no, "continuation line without a field"))
                    else:
                        # repeatable fields (C1) gain a new item; scalar fields
                        # (TI) are re-joined with spaces when the record closes
                        fields[current_tag].append(stripped)
                elif in_record:
                    issues.append(ParseIssue(line_no, f"unparseable line inside record: {stripped!r}"))
                else:
                    issues.append(ParseIssue(line_no, f"content outside any record: {stripped!r}"))
                continue
            if tag == _RECORD_START:
                if in_record:
                    issues.append(ParseIssue(line_no, "record not terminated by ER; span dropped"))
                    fields.clear()
                in_record = True
                start_line = line_no
                ordinal += 1
                current_tag = None
                continue
            if tag == _FILE_END:
                if in_record:
                    issues.append(ParseIssue(line_no, "record not terminated by ER before EF; span dropped"))
                    in_record = False
                break
            if not in_record:
                issues.append(ParseIssue(line_no, f"field {tag!r} outside any record"))
                continue
            if tag == _RECORD_END:
                # a field's first value is its tag line's text, already stripped
                record_id = (fields["UT"][0] if "UT" in fields else "") or f"{source_name}#{ordinal}"
                if record_id in seen_ids:
                    issues.append(ParseIssue(line_no, f"duplicate record id {record_id!r}; record dropped"))
                else:
                    seen_ids.add(record_id)
                    year_raw = fields["PY"][0] if "PY" in fields else "0"
                    try:
                        year = int(year_raw) if year_raw else 0
                    except ValueError:
                        issues.append(ParseIssue(py_line, f"bad year {year_raw!r} in {record_id}"))
                        year = 0
                    yield RawRecord(
                        record_id, fields["DT"][0] if "DT" in fields else "", year,
                        tuple(filter(None, fields.get("C1", ()))),
                        " ".join(fields["TI"]) if "TI" in fields else None,
                    )
                fields.clear()
                in_record = False
                current_tag = None
                continue
            # what is left is a field tag met inside a record for the first time
        current_tag = tag
        value = line[3:].strip()
        values = fields.get(tag)
        if values is None:
            fields[tag] = [value]
            if tag == "PY":
                py_line = line_no
        else:
            values.append(value)
    if in_record:
        issues.append(ParseIssue(start_line, "record not terminated by ER at end of input; span dropped"))


def _parse_delimited(lines: Iterable[str], issues: list[ParseIssue]) -> Iterator[RawRecord]:
    seen_ids: set[str] = set()
    reader = csv.reader(_with_line_ends(lines))
    try:
        header = next(reader)
    except StopIteration:
        return
    if header != ["id", "doc_type", "year", "addresses"]:
        issues.append(ParseIssue(1, "expected header id,doc_type,year,addresses"))
        return
    # a row's issues name its first line; a quoted cell may run over several
    next_line = reader.line_num + 1
    for row in reader:
        line_no, next_line = next_line, reader.line_num + 1
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != 4:
            issues.append(ParseIssue(line_no, f"expected 4 columns, got {len(row)}"))
            continue
        record_id = row[0].strip()
        if not record_id:
            issues.append(ParseIssue(line_no, "empty record id"))
            continue
        if record_id in seen_ids:
            issues.append(ParseIssue(line_no, f"duplicate record id {record_id!r}; record dropped"))
            continue
        seen_ids.add(record_id)
        try:
            year = int(row[2].strip()) if row[2].strip() else 0
        except ValueError:
            issues.append(ParseIssue(line_no, f"bad year {row[2]!r} in {record_id}"))
            year = 0
        addresses = tuple(a.strip() for a in row[3].split(";") if a.strip())
        yield RawRecord(record_id, row[1].strip(), year, addresses)


def _with_line_ends(lines: Iterable[str]) -> Iterator[str]:
    """The lines as a text file gives them to csv.reader: each but the last
    ends in LF, and an empty last line is no line, so a quoted cell keeps
    the line ends inside it."""
    lines = iter(lines)
    line = next(lines)
    for following in lines:
        yield line + "\n"
        line = following
    if line:
        yield line


def write_tagged(records: Iterable[RawRecord]) -> str:
    """Serialize records in the tagged-field layout (round-trips with parse)."""
    lines: list[str] = []
    for rec in records:
        lines.append("PT J")
        lines.append(f"UT {rec.record_id}")
        if rec.title is not None:
            lines.append(f"TI {rec.title}")
        lines.append(f"DT {rec.doc_type}")
        lines.append(f"PY {rec.pub_year}")
        for address in rec.address_lines:
            lines.append(f"C1 {address}")
        lines.append("ER")
    lines.append("EF")
    return "\n".join(lines) + "\n"

