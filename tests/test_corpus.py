import csv
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap.corpus.filtering import filter_documents
from collabmap.corpus.records import ParseIssue, RawRecord, iter_records, parse_records, split_lines, write_tagged
from collabmap.corpus.registry import Unrecognized, load_registry, resolve_country
from collabmap.errors import ConfigError, ParseError

from conftest import DATA_DIR, _parse_tagged, reference_filter_documents, write_delimited


# ---------------------------------------------------------------------------
# parsing: tagged format
# ---------------------------------------------------------------------------

def test_empty_stream_gives_no_records():
    records, issues = parse_records("", "tagged")
    assert records == []
    assert issues == []


def test_small_tagged_fixture_hand_derived():
    text = (DATA_DIR / "records_small.txt").read_text()
    records, issues = parse_records(text, "tagged", source_name="records_small.txt")
    assert issues == []
    assert len(records) == 3

    first = records[0]
    assert first.record_id == "WOS:000001"
    assert first.doc_type == "Article"
    assert first.pub_year == 2011
    assert first.title == "Pattern formation in collaborative research networks"
    assert first.address_lines == (
        "Univ Amsterdam, Dept Phys, Amsterdam, Netherlands",
        "Univ Leeds, Sch Chem, Leeds LS2 9JT, W Yorkshire, England",
        "CNRS, Inst Lumiere, Lyon, France",
    )

    second = records[1]
    assert second.record_id == "WOS:000002"
    assert second.doc_type == "Editorial Material"
    assert second.address_lines == ("Stanford Univ, Stanford, CA 94305 USA",)

    third = records[2]
    assert third.record_id == "records_small.txt#3"
    assert third.doc_type == "Letter"
    assert third.pub_year == 2010
    assert len(third.address_lines) == 2


def test_missing_er_drops_span_and_logs_one_issue():
    text = (DATA_DIR / "records_malformed.txt").read_text()
    records, issues = parse_records(text, "tagged")
    assert [r.record_id for r in records] == ["A2"]
    assert len(issues) == 1
    assert "not terminated" in issues[0].message


def test_missing_er_at_eof():
    text = "PT J\nUT X1\nDT Article\nPY 2011\nC1 Univ Oslo, Oslo, Norway\n"
    records, issues = parse_records(text, "tagged")
    assert records == []
    assert len(issues) == 1


def test_strict_mode_raises_parse_error():
    text = (DATA_DIR / "records_malformed.txt").read_text()
    with pytest.raises(ParseError):
        parse_records(text, "tagged", strict=True)


def test_bad_year_issue_carries_the_py_line():
    text = "PT J\nUT B1\nTI A study\n   continued\nPY 20x1\nPY 2011\nC1 Univ Oslo, Oslo, Norway\nER\nEF\n"
    records, issues = parse_records(text, "tagged")
    assert [r.pub_year for r in records] == [0]
    assert issues == [ParseIssue(5, "bad year '20x1' in B1")]
    with pytest.raises(ParseError) as raised:
        parse_records(text, "tagged", strict=True, source_name="bad.txt")
    assert str(raised.value) == "bad.txt: line 5: bad year '20x1' in B1"


def test_duplicate_record_id_dropped_with_issue():
    text = (
        "PT J\nUT DUP\nDT Article\nPY 2011\nC1 Univ Oslo, Oslo, Norway\nER\n"
        "PT J\nUT DUP\nDT Article\nPY 2011\nC1 Univ Bergen, Bergen, Norway\nER\nEF\n"
    )
    records, issues = parse_records(text, "tagged")
    assert len(records) == 1
    assert any("duplicate" in i.message for i in issues)


def test_round_trip_tagged_fixture():
    text = (DATA_DIR / "records_small.txt").read_text()
    records, _ = parse_records(text, "tagged", source_name="records_small.txt")
    reserialized = write_tagged(records)
    reparsed, issues = parse_records(reserialized, "tagged", source_name="other.txt")
    assert issues == []
    assert reparsed == records


def test_round_trip_synth20_fixture():
    text = (DATA_DIR / "records_synth20.txt").read_text()
    records, issues = parse_records(text, "tagged", source_name="records_synth20.txt")
    assert issues == []
    assert len(records) == 20
    reparsed, _ = parse_records(write_tagged(records), "tagged")
    assert reparsed == records


# ---------------------------------------------------------------------------
# parsing: delimited format
# ---------------------------------------------------------------------------

def test_delimited_fixture():
    text = (DATA_DIR / "records_small.csv").read_text()
    records, issues = parse_records(text, "delimited")
    assert issues == []
    assert [r.record_id for r in records] == ["D1", "D2", "D3"]
    assert records[0].address_lines == (
        "Univ Oslo, Oslo, Norway",
        "Univ Uppsala, Uppsala, Sweden",
    )
    assert records[1].pub_year == 2010
    assert records[2].doc_type == "Meeting Abstract"


def test_delimited_round_trip():
    text = (DATA_DIR / "records_small.csv").read_text()
    records, _ = parse_records(text, "delimited")
    reparsed, issues = parse_records(write_delimited(records), "delimited")
    assert issues == []
    assert reparsed == records


def test_delimited_issue_names_the_first_line_of_a_row_that_spans_lines():
    text = ('id,doc_type,year,addresses\n'
            'A1,Article,20x1,"Univ Oslo, Oslo,\nNorway"\n'
            'A2,Article,20x2,"Univ Lund, Lund, Sweden"\n')
    records, issues = parse_records(text, "delimited")
    assert issues == [ParseIssue(2, "bad year '20x1' in A1"), ParseIssue(4, "bad year '20x2' in A2")]
    # the newline inside the quoted cell stays in the address
    assert records[0].address_lines == ("Univ Oslo, Oslo,\nNorway",)


def test_delimited_bad_header():
    records, issues = parse_records("a,b,c\n1,2,3\n", "delimited")
    assert records == []
    assert issues and "header" in issues[0].message


@pytest.mark.parametrize("name, fmt", [("records_small.txt", "tagged"),
                                       ("records_small.csv", "delimited")])
def test_bytes_with_byte_order_mark_parse_like_plain_text(name, fmt):
    data = (DATA_DIR / name).read_bytes()
    records, issues = parse_records(data.decode("utf-8"), fmt)
    assert records
    assert parse_records(b"\xef\xbb\xbf" + data, fmt) == (records, issues)


# ---------------------------------------------------------------------------
# parsing a stream of chunks
# ---------------------------------------------------------------------------

# lines of each layout, with two-, three- and four-byte characters, a mark
# that is not leading, blank lines and a quoted cell over two lines
_STREAM_LINES = {
    "tagged": [
        "PT J", "PT J", "UT \u00c41", "UT A2", "TI \u00dcber die Grenzen \u6771\u4eac \U0001f600", "   weiter",
        "DT Article", "DT Review", "PY 2011", "PY 2O11", "C1 Univ Z\u00fcrich, Z\u00fcrich, Switzerland",
        "C1 Univ \u6771\u4eac, Tokyo, Japan", "ER", "ER", "EF", "", "stray \u2603", "\ufeffPT J",
    ],
    "delimited": [
        "id,doc_type,year,addresses", 'A1,Article,2011,"Univ Z\u00fcrich, Switzerland"',
        'A2,Review,20x1,"X, Japan; Y, \u6771\u4eac"', 'A3,Article,2011,"Univ Oslo', 'Oslo, Norway"', ",,,",
        "a,b", "A4,Article,2011,Oslo \U0001f600, Norway", "", "\ufeffA5,Letter,2011,Oslo, Norway",
    ],
}


def _cut(data, cuts):
    """``data`` in pieces at the sorted ``cuts``; a repeated cut is an empty piece."""
    bounds = [0, *sorted(cuts), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_streamed_chunks_parse_like_the_whole_bytes(data):
    fmt = data.draw(st.sampled_from(sorted(_STREAM_LINES)))
    lines = data.draw(st.lists(st.sampled_from(_STREAM_LINES[fmt]), max_size=14))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if data.draw(st.booleans()):
        text = text.removesuffix(ends[-1] if ends else "")
    if data.draw(st.booleans()):
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    # besides any cut: one after each CR, so inside a CRLF, and one inside
    # each multibyte character, the byte-order mark among them
    awkward = [i for i in range(1, len(raw)) if raw[i - 1] == 0x0D or 0x80 <= raw[i] < 0xC0] or [0]
    cuts = data.draw(st.lists(st.one_of(st.integers(0, len(raw)), st.sampled_from(awkward)), max_size=10))
    whole = parse_records(raw, fmt, source_name="stream")
    issues: list[ParseIssue] = []
    assert (list(iter_records(_cut(raw, cuts), issues, fmt, "stream")), issues) == whole
    issues = []
    text_cuts = [c * len(text) // max(len(raw), 1) for c in cuts]
    assert (list(iter_records(_cut(text, text_cuts), issues, fmt, "stream")), issues) == whole
    # the rule, stated on the whole text
    lf_text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    assert list(split_lines(_cut(raw, cuts))) == lf_text.split("\n")
    if fmt == "tagged":
        assert whole == _parse_tagged(lf_text, "stream")
    else:
        assert whole == parse_records(lf_text, fmt, source_name="stream")


@pytest.mark.parametrize("data, offset", [(b"PT J\n\xff\n", 5), (b"PT J\nTI Z\xc3", 9),
                                          (b"\xef\xbb\xbfPT J\nTI \xe6\x9d\n", 11)],
                         ids=["invalid-start", "truncated", "bad-continuation"])
@pytest.mark.parametrize("size", [1, 2, 3, 64])
def test_streamed_bytes_that_are_not_utf8_raise_at_their_offset(data, offset, size):
    with pytest.raises(UnicodeDecodeError, match=f"at byte {offset} of the input"):
        parse_records(data)
    chunks = [data[i:i + size] for i in range(0, len(data), size)]
    with pytest.raises(UnicodeDecodeError, match=f"at byte {offset} of the input"):
        list(iter_records(chunks, []))


def test_streamed_records_are_read_past_ef():
    """A record stream reads its chunks to the end, after EF too."""
    taken = []

    def chunks():
        for chunk in (b"PT J\nUT A1\nER\nEF\n", b"after the end\n", b"\xff"):
            taken.append(chunk)
            yield chunk

    records = iter_records(chunks(), [])
    assert next(records).record_id == "A1"
    with pytest.raises(UnicodeDecodeError):
        next(records)
    assert len(taken) == 3


# ---------------------------------------------------------------------------
# registry and country resolution
# ---------------------------------------------------------------------------

def test_resolve_direct_canonical(registry):
    assert resolve_country("Univ Amsterdam, Science Pk 904, Amsterdam, Netherlands", registry) == "NETHERLANDS"


def test_resolve_uk_constituents(registry):
    for name in ("England", "Scotland", "Wales", "North Ireland"):
        assert resolve_country(f"Univ Somewhere, City, {name}", registry) == "UK"


def test_resolve_usa_state_zip(registry):
    assert resolve_country("NYU, 70 Washington Sq, New York, NY 10012 USA", registry) == "USA"
    assert resolve_country("Plain USA", registry) == "USA"


def test_resolve_unrecognized_carries_token(registry):
    resolved = resolve_country("Atlantis Inst, Atlantis", registry)
    assert resolved == Unrecognized("ATLANTIS")
    # an alias row with an empty target is skipped, not mapped
    assert resolve_country("Inst Phys, Moscow, USSR", registry) == Unrecognized("USSR")


def test_resolve_trailing_punctuation(registry):
    assert resolve_country("Univ Ghent, Ghent, Belgium.", registry) == "BELGIUM"


def test_resolve_idempotent_on_canonical(registry):
    for name in registry.entries:
        assert resolve_country(name, registry) == name


def test_alias_targets_are_canonical(registry):
    for target in registry.aliases.values():
        assert target in registry.entries


def test_registry_coordinates_in_range(registry):
    for entry in registry.entries.values():
        assert -90.0 <= entry.latitude <= 90.0
        assert -180.0 <= entry.longitude <= 180.0


def test_registry_rejects_missing_uk_aliases(tmp_path):
    countries = tmp_path / "countries.csv"
    countries.write_text("canonical_name,iso3,latitude,longitude\nUK,GBR,54.0,-2.0\n")
    aliases = tmp_path / "aliases.csv"
    aliases.write_text("alias,canonical_name\nENGLAND,UK\n")
    with pytest.raises(ConfigError):
        load_registry(countries, aliases)


def test_registry_rejects_alias_to_unknown(tmp_path):
    countries = tmp_path / "countries.csv"
    countries.write_text("canonical_name,iso3,latitude,longitude\nUK,GBR,54.0,-2.0\n")
    aliases = tmp_path / "aliases.csv"
    aliases.write_text(
        "alias,canonical_name\nENGLAND,UK\nSCOTLAND,UK\nWALES,UK\nNORTH IRELAND,UK\nNOWHERE,ATLANTIS\n"
    )
    with pytest.raises(ConfigError):
        load_registry(countries, aliases)


@pytest.mark.parametrize("name, valid", [
    ("KOREA, REP", False),
    ('KOREA "REP"', False),
    ("KOREA\tREP", False),
    ("KOREA\rREP", False),
    ("KOREA\nREP", False),
    ("KOREA (REP) & CO.; 'SOUTH'", True),
])
def test_registry_rejects_a_name_that_would_break_a_csv_row(tmp_path, name, valid):
    """Every CSV and TSV artifact writes country names unquoted, so a name
    holding a separator, a quote or a line break is refused at load."""
    countries = tmp_path / "countries.csv"
    with open(countries, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([
            ["canonical_name", "iso3", "latitude", "longitude"],
            ["UK", "GBR", "54.0", "-2.0"],
            [name, "KOR", "36.4", "127.8"],
        ])
    aliases = tmp_path / "aliases.csv"
    aliases.write_text("alias,canonical_name\nENGLAND,UK\nSCOTLAND,UK\nWALES,UK\nNORTH IRELAND,UK\n")
    if valid:
        assert name in load_registry(countries, aliases).entries
    else:
        message = r"^registry: canonical name .* holds a comma, quote, tab or line break$"
        with pytest.raises(ConfigError, match=message):
            load_registry(countries, aliases)


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------

def test_editorial_material_dropped_by_type(registry):
    records = [RawRecord("r1", "Editorial Material", 2011, ("Univ Oslo, Oslo, Norway",))]
    docs, report = filter_documents(records, registry)
    assert docs == []
    assert report.n_dropped_type == 1


def test_no_address_dropped(registry):
    records = [RawRecord("r1", "Article", 2011, ())]
    docs, report = filter_documents(records, registry)
    assert docs == []
    assert report.n_dropped_no_address == 1


def test_england_scotland_merge_to_uk(registry):
    records = [
        RawRecord(
            "r1",
            "Article",
            2011,
            ("Univ Leeds, Leeds, England", "Univ Edinburgh, Edinburgh, Scotland"),
        )
    ]
    docs, report = filter_documents(records, registry)
    assert len(docs) == 1
    assert docs[0].country_addresses == {"UK": 2}
    assert sum(docs[0].country_addresses.values()) == 2
    assert len(docs[0].country_addresses) < 2


def test_doc_type_synonyms_case_insensitive(registry):
    for raw in ("Article", "ARTICLE", "article", "@ Article"):
        records = [RawRecord("r1", raw, 2011, ("Univ Oslo, Oslo, Norway",))]
        docs, _ = filter_documents(records, registry)
        assert docs and docs[0].doc_type == "Article"


def test_unrecognized_tallied_but_record_survives(registry):
    records = [
        RawRecord(
            "r1",
            "Article",
            2011,
            ("Atlantis Inst, Atlantis", "Univ Oslo, Oslo, Norway"),
        )
    ]
    docs, report = filter_documents(records, registry)
    assert len(docs) == 1
    assert report.unrecognized == {"ATLANTIS": 1}


def test_small_fixture_filtering(registry):
    text = (DATA_DIR / "records_small.txt").read_text()
    records, _ = parse_records(text, "tagged", source_name="records_small.txt")
    docs, report = filter_documents(records, registry)
    assert report.n_records == 3
    assert report.n_retained == 2
    assert report.n_dropped_type == 1
    assert report.n_dropped_no_address == 0
    assert docs[0].country_addresses == {"FRANCE": 1, "NETHERLANDS": 1, "UK": 1}
    assert len(docs[0].country_addresses) >= 2
    assert docs[1].country_addresses == {"JAPAN": 2}


_doc_types = st.sampled_from(
    ["Article", "Review", "Letter", "Editorial Material", "Meeting Abstract", "News Item", ""]
)
_countries = st.sampled_from(["Norway", "Sweden", "Atlantis", "France", "England"])
_addresses = st.lists(
    _countries.map(lambda c: f"Univ X, City, {c}"), min_size=0, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_doc_types, _addresses), min_size=0, max_size=25))
def test_filter_report_conservation(specs):
    registry = load_registry()
    records = [
        RawRecord(f"r{i}", doc_type, 2011, tuple(addresses))
        for i, (doc_type, addresses) in enumerate(specs)
    ]
    docs, report = filter_documents(records, registry)
    assert report.n_records == len(records)
    assert report.n_retained + report.n_dropped_type + report.n_dropped_no_address == report.n_records
    assert report.n_retained == len(docs)
    for doc in docs:
        assert doc.doc_type in ("Article", "Review", "Letter")
        assert doc.country_addresses
        assert sum(doc.country_addresses.values()) >= 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.text(alphabet=string.ascii_letters + " ,.-", min_size=1, max_size=40),
        min_size=1,
        max_size=5,
    )
)
def test_resolve_never_raises(lines):
    registry = load_registry()
    for line in lines:
        result = resolve_country(line, registry)
        assert isinstance(result, (str, Unrecognized))


# ---------------------------------------------------------------------------
# equivalence with the per-line oracles in conftest
# ---------------------------------------------------------------------------

_SOUP_LINES = [
    "PT J", "PT J", "ER", "ER", "EF", "UT A1", "UT A1", "UT A2", "UT ", "UT",
    "DT Article", "DT Editorial Material", "PY 2011", "PY 20x1", "PY", "TI A study",
    "C1 Univ Oslo, Oslo, Norway", "C1 ", "C1", "   continued text", "   ", "",
    "stray text", "A", "AB", "ab cd", "A1 value", "\u00c4B umlaut tag", "PTJ", " PT J",
    "ER trailing", "X1\tvalue", "  two spaces", "UT A1 ", "C1  ", "DT Article \t",
    # one head before different text, heads that are not tags by a hair
    # (title case, a superscript digit, a no-break space), a lone CR, which ends a line
    "UT x", "UTx", "\u01c5A x", "\u00b21 x", "AB\u00a0x", "TI a\rb", "UT\rA3", "\r",
]
_soup_line = st.one_of(
    st.sampled_from(_SOUP_LINES),
    st.text(alphabet="PTEFRUCIDY1 ,\r\tab", max_size=8),
)


# a record span: PT, a few lines of any kind, and ER unless it is missing
_soup_record = st.builds(
    lambda body, closed: ["PT J", *body] + (["ER"] if closed else []),
    st.lists(_soup_line, max_size=6),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.one_of(_soup_record, st.lists(_soup_line, max_size=2)),
                          st.booleans()), max_size=12))
def test_tagged_parser_equals_per_line_oracle(chunks):
    text = "\n".join(line + ("\r" if cr else "") for lines, cr in chunks for line in lines)
    # the oracle reads LF-only text: CRLF and a lone CR end a line, as in parse_records
    lf_text = text.replace("\r\n", "\n").replace("\r", "\n")
    assert parse_records(text, source_name="soup") == _parse_tagged(lf_text, "soup")


@pytest.mark.parametrize("name", sorted(p.name for p in DATA_DIR.iterdir()))
def test_filter_equals_per_line_oracle_on_fixtures(registry, name):
    fmt = "delimited" if name.endswith(".csv") else "tagged"
    records, _ = parse_records((DATA_DIR / name).read_text(encoding="utf-8"), fmt, source_name=name)
    assert records
    assert filter_documents(records, registry) == reference_filter_documents(records, registry)


def test_filtered_documents_list_their_countries_in_sorted_order(registry):
    records = [RawRecord("a", "Article", 2011, ("X, Norway", "Y, Chile", "Z, Norway", "W, Belgium")),
               RawRecord("b", "Review", 2011, ("X, Oslo, Norway", "Y, Norway"))]
    docs, _ = filter_documents(records, registry)
    assert [list(doc.country_addresses.items()) for doc in docs] == [
        [("BELGIUM", 1), ("CHILE", 1), ("NORWAY", 2)], [("NORWAY", 2)],
    ]


def test_filter_equals_per_line_oracle_on_repeated_tails(registry):
    tails = ["Moscow, USSR", "Brussels, Belgium.", "New York, NY 10012 USA", "Oslo, Norway",
             "Leeds, England", "Atlantis", "", " ", "Lab, ", "Paris, France;", "Kyoto, JAPAN"]
    rng = random.Random(5)

    def tail():
        # one line in four ends in a state and zip tail that seldom repeats
        if rng.random() < 0.25:
            return f"Boston, MA {rng.randrange(100000):05d} USA"
        return rng.choice(tails)

    records = [
        RawRecord(f"g{i}", rng.choice(["Article", "Review", "Meeting Abstract"]), 2011,
                  tuple(f"Univ {rng.randint(1, 3)}, {tail()}" for _ in range(rng.randint(0, 6))))
        for i in range(400)
    ]
    docs, report = filter_documents(records, registry)
    assert (docs, report) == reference_filter_documents(records, registry)
    assert {"USSR", ""} <= set(report.unrecognized)
    assert len({line for rec in records for line in rec.address_lines if "MA " in line}) > 100
    assert {"BELGIUM", "USA"} <= {c for doc in docs for c in doc.country_addresses}

