from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimon.records import (
    AggregatedRecord,
    DurationRecord,
    FullRecord,
    RecordFormatError,
    deserialize,
    serialize,
    serialize_batch,
)

signatures = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters=";"),
    min_size=1, max_size=40,
)
nonneg = st.integers(min_value=0, max_value=2**62)


@st.composite
def full_records(draw):
    tin = draw(nonneg)
    return FullRecord(
        signature=draw(signatures),
        tin=tin,
        tout=tin + draw(st.integers(min_value=0, max_value=10**9)),
        trace_id=draw(nonneg),
        eoi=draw(st.integers(min_value=0, max_value=10**6)),
        ess=draw(st.integers(min_value=0, max_value=10**6)),
        hostname=draw(signatures),
        session_id=draw(signatures),
    )


duration_records = st.builds(DurationRecord, signature=signatures, duration=nonneg)
aggregated_records = st.builds(
    AggregatedRecord, signature=signatures,
    count=st.integers(min_value=1, max_value=10**6), sum_duration=nonneg)
any_record = st.one_of(full_records(), duration_records, aggregated_records)


def test_serialize_full_record():
    record = FullRecord("a.b()", 100, 250, 7, 0, 0, "h", "s")
    assert serialize(record) == "OER;a.b();100;250;7;0;0;h;s"


def test_serialize_duration_record():
    assert serialize(DurationRecord("a.b()", 150)) == "DUR;a.b();150"


def test_serialize_aggregated_record():
    assert serialize(AggregatedRecord("a.b()", 3, 60)) == "AGG;a.b();3;60"


def test_deserialize_duration():
    assert deserialize("DUR;a.b();150") == DurationRecord("a.b()", 150)


def test_deserialize_aggregated_default_window():
    assert deserialize("AGG;x();1000;123456") == AggregatedRecord("x()", 1000, 123456)


def test_deserialize_unknown_tag():
    with pytest.raises(RecordFormatError, match="ZZZ"):
        deserialize("ZZZ;a;1")


@pytest.mark.parametrize("line", [
    "DUR;a.b()",              # too few fields
    "DUR;a.b();150;9",        # too many fields
    "AGG;x();one;2",          # non-numeric
    "OER;a();1;2;3;4;5;h",    # wrong field count
    "",                       # no tag
])
def test_deserialize_malformed(line):
    with pytest.raises(RecordFormatError):
        deserialize(line)


def test_deserialize_error_names_line():
    with pytest.raises(RecordFormatError, match="AGG;x"):
        deserialize("AGG;x();nope;2")


def test_signature_with_delimiter_rejected():
    with pytest.raises(RecordFormatError):
        serialize(DurationRecord("a;b", 1))


def test_signature_with_control_char_rejected():
    with pytest.raises(RecordFormatError):
        serialize(DurationRecord("a\nb", 1))


@pytest.mark.parametrize("field", ["signature", "hostname", "session_id"])
def test_text_field_rule_per_code_point(field):
    # Only the delimiter, C0 controls and DEL are refused, in every text field.
    base = FullRecord("a()", 1, 2, 3, 0, 0, "h", "s")
    for ch in [*map(chr, range(0x300)), "\U0001F600"]:
        for value in (ch, f"a{ch}b"):
            record = replace(base, **{field: value})
            if ch == ";":
                with pytest.raises(RecordFormatError, match="delimiter"):
                    serialize(record)
            elif ord(ch) < 0x20 or ord(ch) == 0x7F:
                with pytest.raises(RecordFormatError, match="control character"):
                    serialize(record)
            else:
                assert deserialize(serialize(record)) == record


@pytest.mark.parametrize("record", [
    object(),
    None,
    DurationRecord(None, 1),
    AggregatedRecord(b"a()", 1, 1),
    FullRecord("a()", 1, 2, 3, 0, 0, ["unhashable"], "s"),
    FullRecord("a()", 1, 2, 3, 0, 0, "h", 7),
])
def test_non_record_or_non_str_text_field_rejected(record):
    with pytest.raises(RecordFormatError):
        serialize(record)


def test_records_compare_and_hash_by_value():
    record = FullRecord("a.b()", 100, 250, 7, 0, 0, "h", "s")
    assert len({record, deserialize(serialize(record))}) == 1
    assert repr(record) == (
        "FullRecord(signature='a.b()', tin=100, tout=250, trace_id=7, "
        "eoi=0, ess=0, hostname='h', session_id='s')")


def test_invariant_checks():
    with pytest.raises(ValueError):
        FullRecord("a()", 10, 5, 0, 0, 0, "h", "s")  # tout < tin
    with pytest.raises(ValueError):
        DurationRecord("a()", -1)
    with pytest.raises(ValueError):
        AggregatedRecord("a()", 0, 0)


@given(any_record)
@settings(max_examples=300)
def test_round_trip(record):
    line = serialize(record)
    assert "\n" not in line
    assert deserialize(line) == record


@given(st.lists(any_record, min_size=2, max_size=20, unique=True))
def test_serialization_injective(records):
    lines = [serialize(r) for r in records]
    assert len(set(lines)) == len(records)


# A record serialize refuses: a non-str or unsafe text field, or no record.
bad_text = st.one_of(
    st.none(), st.integers(), st.binary(max_size=3), st.lists(st.text(max_size=2), max_size=2),
    st.sampled_from([";", "a;b", "\n", "x\x00", "\x7f"]))
bad_records = st.one_of(
    st.builds(object),
    st.lists(st.integers(), max_size=2),
    st.builds(DurationRecord, signature=bad_text, duration=nonneg),
    st.builds(AggregatedRecord, signature=bad_text, count=st.integers(min_value=1, max_value=9),
              sum_duration=nonneg),
    st.builds(lambda record, field, value: replace(record, **{field: value}),
              full_records(), st.sampled_from(["signature", "hostname", "session_id"]), bad_text),
)


@given(st.lists(st.one_of(any_record, bad_records), max_size=30), st.data())
@settings(max_examples=300)
def test_serialize_batch_matches_per_record_serialize(batch, data):
    # Repeats, so values the batch already checked come round again.
    if batch:
        batch += data.draw(st.lists(st.sampled_from(batch), max_size=10))
    expected, refused = [], 0
    for record in batch:  # the per-record loop is the oracle
        try:
            expected.append(serialize(record))
        except RecordFormatError:
            refused += 1
    assert serialize_batch(batch) == (expected, refused)


def _per_record(batch):
    """The oracle: ``serialize`` record by record."""
    expected, refused = [], 0
    for record in batch:
        try:
            expected.append(serialize(record))
        except RecordFormatError:
            refused += 1
    return expected, refused


def _full_run(n):
    # One probe's records, as the writer drains them: a shared signature,
    # host and session, distinct timestamps and trace positions.
    return [FullRecord("bench.m()", i, i + 7, i // 10, i % 10, i % 10, "h", "s") for i in range(n)]


_REFUSED = {
    "delimiter": lambda record: replace(record, signature="bench;m()"),
    "non-str hostname": lambda record: replace(record, hostname=7),
    "unhashable session_id": lambda record: replace(record, session_id=["s"]),
    "not a record": lambda record: object(),
}


@pytest.mark.parametrize("refusal", sorted(_REFUSED))
@given(position=st.integers(min_value=0, max_value=1999))
@settings(max_examples=10, deadline=None)
def test_serialize_batch_of_writer_size_refuses_only_the_bad_record(refusal, position):
    batch = _full_run(2000)
    batch[position] = _REFUSED[refusal](batch[position])
    lines, refused = serialize_batch(batch)
    assert (lines, refused) == _per_record(batch)
    assert (len(lines), refused) == (1999, 1)


@pytest.mark.parametrize("second", [
    [DurationRecord("bench.m()", i) for i in range(1500)],
    [AggregatedRecord("bench.m()", 1000, i) for i in range(1500)],
])
@given(position=st.integers(min_value=0, max_value=1499))
@settings(max_examples=10, deadline=None)
def test_serialize_batch_of_two_long_runs(second, position):
    clean = _full_run(1500) + second
    assert serialize_batch(clean) == _per_record(clean)
    # A refused record in the second run leaves the first one whole.
    spoiled = _full_run(1500) + second
    spoiled[1500 + position] = replace(second[position], signature="\n")
    lines, refused = serialize_batch(spoiled)
    assert (lines, refused) == _per_record(spoiled)
    assert lines[:1500] == serialize_batch(clean)[0][:1500]


def test_serialize_batch_opens_as_many_python_frames_for_2000_clean_records_as_for_10(
        python_calls):
    assert python_calls(serialize_batch, _full_run(10)) == python_calls(
        serialize_batch, _full_run(2000))
