import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabmap.corpus.filtering import Document, FilterReport, filter_documents
from collabmap.corpus.records import parse_records
from collabmap.counting import (
    build_incidence,
    counts_csv,
    display_decimal,
    display_percent,
    fractional_counts,
    integer_counts,
    load_summary,
    mean_coauthorship_ratio,
    summarize,
    summary_dict,
)
from collabmap.errors import DataError
from collabmap.network import build_coauth_network
from collabmap.synth import generate_corpus_text

from conftest import (
    DATA_DIR,
    fractional_tally,
    incidence_row,
    incidence_summary_stats,
    make_documents,
    reference_summarize,
    tallied,
)


def doc(record_id, addresses, doc_type="Article"):
    return Document(record_id, doc_type, dict(sorted(addresses.items())))


# ---------------------------------------------------------------------------
# incidence matrix
# ---------------------------------------------------------------------------

def test_single_document_matrix():
    m = build_incidence([doc("d1", {"UK": 2, "NETHERLANDS": 1})])
    assert len(m.rows) == 1
    assert m.countries == ["NETHERLANDS", "UK"]
    assert m.rows == [{0: 1, 1: 2}]


def test_two_country_multiplicity_example():
    m = build_incidence([doc("d1", {"A": 3, "B": 2})])
    assert m.rows[0] == {0: 3, 1: 2}


def test_duplicate_record_id_rejected():
    documents = [doc("same", {"A": 1}), doc("same", {"B": 1})]
    with pytest.raises(DataError, match="same"):
        build_incidence(documents)


def test_synth20_fixture_matches_independent_tally(registry):
    text = (DATA_DIR / "records_synth20.txt").read_text()
    records, _ = parse_records(text, "tagged")
    documents, _ = filter_documents(records, registry)
    m = build_incidence(documents)

    # oracle: direct per-document tally, no matrix involved
    for d, document in enumerate(documents):
        row = incidence_row(m, d)
        tallied = {m.countries[c]: v for c, v in row.items()}
        assert tallied == document.country_addresses
    assert sorted({c for d in documents for c in d.country_addresses}) == m.countries


def test_matrix_permutation_invariance():
    rng = random.Random(3)
    documents = make_documents(rng, 40, 8)
    shuffled = list(documents)
    rng.shuffle(shuffled)
    a_int = integer_counts(build_incidence(documents))
    b_int = integer_counts(build_incidence(shuffled))
    a_frac = fractional_counts(build_incidence(documents))
    b_frac = fractional_counts(build_incidence(shuffled))
    assert a_int == b_int
    assert a_frac == b_frac


# ---------------------------------------------------------------------------
# fractional counting
# ---------------------------------------------------------------------------

def test_fractional_two_thirds_one_third():
    m = build_incidence([doc("d1", {"A": 2, "B": 1})])
    values = fractional_counts(m)
    assert values["A"] == Fraction(2, 3)
    assert values["B"] == Fraction(1, 3)


def test_fractional_single_country_full_credit():
    m = build_incidence([doc("d1", {"A": 4})])
    assert fractional_counts(m)["A"] == Fraction(1)


def test_fractional_sum_equals_document_count_fixture():
    rng = random.Random(11)
    documents = make_documents(rng, 200, 12)
    totals = fractional_counts(build_incidence(documents))
    assert sum(totals.values()) == len(documents)


def test_fractional_matches_per_document_oracle():
    rng = random.Random(13)
    documents = make_documents(rng, 120, 9)
    computed = fractional_counts(build_incidence(documents))
    assert computed == fractional_tally(documents)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2**31), st.integers(min_value=1, max_value=300))
def test_fractional_conservation_property(seed, n_docs):
    rng = random.Random(seed)
    documents = make_documents(rng, n_docs, rng.randint(1, 20))
    totals = fractional_counts(build_incidence(documents))
    assert sum(totals.values()) == n_docs
    assert totals == fractional_tally(documents)


@pytest.mark.parametrize("seed", range(6))
def test_fractional_counts_are_exact_over_large_denominators(seed):
    # 1 to 60 addresses per document, so the denominators' least common
    # multiple runs far past 64 bits
    rng = random.Random(seed)
    countries = [f"C{i:02d}" for i in range(15)]
    documents = []
    for i in range(300):
        members = rng.sample(countries, rng.randint(1, 8))
        counts = dict.fromkeys(members, 1)
        for _ in range(rng.randint(len(members), 60) - len(members)):
            counts[rng.choice(members)] += 1
        documents.append(doc(f"R{i}", dict(sorted(counts.items()))))
    computed = fractional_counts(build_incidence(documents))
    expected = fractional_tally(documents)
    assert computed == expected
    assert {c: str(v) for c, v in computed.items()} == {c: str(v) for c, v in expected.items()}
    assert max(v.denominator for v in computed.values()) > 2**64


# ---------------------------------------------------------------------------
# integer (whole) counting
# ---------------------------------------------------------------------------

def test_integer_counts_binarize():
    m = build_incidence([doc("d1", {"A": 3, "B": 2})])
    values = integer_counts(m)
    assert values == {"A": 1, "B": 1}


def test_absent_country_absent_from_vector():
    m = build_incidence([doc("d1", {"A": 1})])
    assert "B" not in integer_counts(m)


def test_integer_counts_match_scan_oracle():
    rng = random.Random(17)
    documents = make_documents(rng, 150, 10)
    computed = integer_counts(build_incidence(documents))
    # oracle: per-country scan over documents
    for country in computed:
        expected = sum(1 for d in documents if country in d.country_addresses)
        assert computed[country] == expected


def test_count_ordering_invariants():
    rng = random.Random(19)
    documents = make_documents(rng, 180, 11)
    m = build_incidence(documents)
    ints = integer_counts(m)
    fracs = fractional_counts(m)
    for country in m.countries:
        assert ints[country] <= len(documents)
        assert fracs[country] <= ints[country]


# ---------------------------------------------------------------------------
# corpus summary
# ---------------------------------------------------------------------------

def test_summary_single_domestic_document():
    documents = [doc("d1", {"A": 2})]
    report = tallied(FilterReport(n_records=1, n_retained=1), documents)
    summary = summarize(report, build_coauth_network(documents))
    assert summary.n_international_docs == 0
    assert display_percent(summary.share_international_docs) == 0.0


def test_summary_empty_corpus_rejected():
    with pytest.raises(DataError):
        summarize(FilterReport(), build_coauth_network([]))


def test_summary_two_paths_agree():
    rng = random.Random(23)
    documents = make_documents(rng, 160, 14)
    report = tallied(FilterReport(n_records=len(documents), n_retained=len(documents)), documents)
    summary = summarize(report, build_coauth_network(documents))
    stats = incidence_summary_stats(build_incidence(documents))
    assert stats["n_documents"] == summary.n_documents
    assert stats["n_international_docs"] == summary.n_international_docs
    assert stats["n_addresses_total"] == summary.n_addresses_total
    assert stats["n_addresses_international"] == summary.n_addresses_international
    assert stats["n_countries"] == summary.n_countries


def test_summarize_equals_the_reference_over_synth_seeds_and_the_golden_corpus(registry):
    """The summary from the filter's tallies and the network equals the one
    counted over the retained documents themselves."""
    texts = [
        generate_corpus_text(registry, n_docs=60, n_countries=3 + seed % 9,
                             intl_prob=seed / 21, seed=seed)
        for seed in range(21)
    ]
    texts.append((DATA_DIR / "golden_corpus.txt").read_text(encoding="utf-8"))
    for text in texts:
        documents, report = filter_documents(parse_records(text, "tagged")[0], registry)
        assert summarize(report, build_coauth_network(documents)) == reference_summarize(documents, report)


def test_paper_percentages_render_exactly():
    assert display_percent(Fraction(193216, 778988)) == 24.8
    assert display_percent(Fraction(825664, 2101384)) == 39.3


def test_mean_coauthorship_ratio_display():
    ratio = mean_coauthorship_ratio(559, Fraction(2279, 10))
    assert display_decimal(ratio) == 2.5


def test_rounding_is_half_even():
    assert display_decimal(Fraction(25, 1000) * 10) == 0.2  # 0.25 -> 0.2
    assert display_decimal(Fraction(75, 1000) * 10) == 0.8  # 0.75 -> 0.8


def test_summary_json_and_counts_csv(registry):
    documents = [
        doc("d1", {"NETHERLANDS": 2, "UK": 1}),
        doc("d2", {"UK": 1}, doc_type="Review"),
    ]
    report = tallied(FilterReport(n_records=3, n_retained=2, n_dropped_type=1), documents)
    net = build_coauth_network(documents)
    summary = summarize(report, net)
    body = summary_dict(summary)
    assert body["n_records"] == 3
    assert body["share_international_docs"] == "1/2"

    csv_text = counts_csv(net, registry)
    lines = csv_text.splitlines()
    assert lines[0] == "country,iso3,scheme,value"
    assert "NETHERLANDS,NLD,integer,1" in lines
    assert "NETHERLANDS,NLD,fractional,0.666667" in lines
    assert "UK,GBR,fractional,1.333333" in lines


def test_count_scheme_values(registry):
    """counts.csv holds every integer count, then every fractional one."""
    net = build_coauth_network([doc("d1", {"UK": 1, "SPAIN": 3}), doc("d2", {"CHILE": 1})])
    rows = [line.split(",") for line in counts_csv(net, registry).splitlines()[1:]]
    assert [(country, scheme) for country, _iso3, scheme, _value in rows] == [
        (country, scheme)
        for scheme in ("integer", "fractional")
        for country in ("CHILE", "SPAIN", "UK")
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=50))
def test_summary_json_reads_back_the_summary(seed, n_dropped):
    """load_summary reads the summary.json that summary writes of a corpus
    back to that corpus's summary."""
    rng = random.Random(seed)
    documents = make_documents(rng, rng.randint(1, 80), rng.randint(1, 12), intl_prob=rng.random())
    report = tallied(FilterReport(n_records=len(documents) + n_dropped, n_retained=len(documents),
                                  n_dropped_type=n_dropped), documents)
    summary = summarize(report, build_coauth_network(documents))
    text = json.dumps(summary_dict(summary), indent=2, ensure_ascii=False)
    assert load_summary("summary.json", text) == summary
