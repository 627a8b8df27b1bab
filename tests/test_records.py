import re
from dataclasses import astuple, replace

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
    # Lines int() and str() accept but serialize never writes:
    "DUR;a();+5",             # sign
    "DUR;a(); 5",             # whitespace
    "DUR;a();5_0",            # digit separator
    "DUR;a();\u0665",         # non-ASCII digit
    "DUR;a();-0",             # negative zero
    "AGG;a();0010;7",         # leading zeros
    "DUR;a\x01();5",          # control character in the signature
    "OER;a();1;2;3;0;0;h\x7f;s",  # DEL in the hostname
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


@pytest.mark.parametrize("values", [
    {"tin": 1.0},
    {"tin": True},
    {"tout": 2.0},
    {"tout": True},
    {"trace_id": True},
    {"trace_id": 3.0},
], ids=repr)
def test_full_record_refuses_a_tin_tout_or_trace_id_that_is_not_exactly_int(values):
    # serialize would write such a value as a line deserialize refuses
    # ("1.0", "True"); eoi and ess instead render through the decimal table.
    fields = dict(signature="a()", tin=1, tout=2, trace_id=3, eoi=0, ess=0,
                  hostname="h", session_id="s")
    with pytest.raises(ValueError, match="must be ints"):
        FullRecord(*{**fields, **values}.values())
    with pytest.raises(ValueError, match="must be ints"):
        replace(FullRecord(*fields.values()), **values)


@given(any_record)
@settings(max_examples=300)
def test_round_trip(record):
    line = serialize(record)
    assert "\n" not in line
    assert deserialize(line) == record


_TAGS = {FullRecord: "OER", DurationRecord: "DUR", AggregatedRecord: "AGG"}


@given(any_record)
@settings(max_examples=300)
def test_serialize_is_the_tag_and_the_fields_in_dataclass_order(record):
    # An oracle that shares no code with the formatters.
    assert serialize(record) == ";".join([_TAGS[type(record)], *map(str, astuple(record))])


@pytest.mark.parametrize("eoi", [1.0, True], ids=repr)
def test_eoi_equal_to_an_int_round_trips(eoi):
    record = FullRecord("a()", 1, 2, 3, eoi, 0, "h", "s")
    assert serialize(record) == "OER;a();1;2;3;1;0;h;s"
    assert deserialize(serialize(record)) == record


eoi_or_ess = st.one_of(st.integers(), st.floats(), st.booleans())


@given(full_records(), eoi_or_ess, eoi_or_ess)
@settings(max_examples=300)
def test_deserialize_reads_every_line_serialize_writes(record, eoi, ess):
    try:
        record = replace(record, eoi=eoi, ess=ess)
    except ValueError:  # refused by the constructor: set them after it
        _set_after_construction(record, eoi=eoi, ess=ess)
    try:
        line = serialize(record)
    except RecordFormatError:
        return
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


@pytest.mark.parametrize("mixed", [
    [replace(r, signature="bench.n()") if r.tin == 1234 else r for r in _full_run(2000)],
    [replace(r, hostname=f"h{r.tin % 2}") for r in _full_run(2000)],
], ids=["second signature", "alternating hostname"])
def test_serialize_batch_of_writer_size_with_two_values_in_a_text_field(mixed):
    # Not one probe's run: its text fields cannot be joined once for all.
    assert serialize_batch(mixed) == _per_record(mixed)
    assert len(set(serialize_batch(mixed)[0])) == 2000


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


class _Evil(str):
    """A str that renders as something else in an f-string."""

    def __format__(self, spec):
        return "EVIL"


@pytest.mark.parametrize("batch", [
    [FullRecord("bench.m()", 1, 2, 0, 0, 0, "h", "s"),
     FullRecord("bench.n()", 3, 4, 0, 0, 0, "h", "s"),
     FullRecord(_Evil("bench.m()"), 3, 4, 0, 0, 0, "h", "s")],
    [DurationRecord("bench.m()", 1), DurationRecord(_Evil("bench.m()"), 2)],
], ids=["full run of two signatures", "duration run"])
def test_serialize_batch_refuses_a_str_subclass_equal_to_a_checked_str(batch):
    assert serialize_batch(batch) == _per_record(batch)
    assert serialize_batch(batch)[1] == 1


@pytest.mark.parametrize("field", ["signature", "hostname", "session_id"])
@pytest.mark.parametrize("spoil", [
    lambda value: "".join(["", value, ""]),  # equal, but not the same object
    _Evil,
    lambda value: value + "x",
], ids=["equal copy", "str subclass", "other value"])
def test_serialize_batch_of_one_probe_with_one_record_not_sharing_a_text_object(field, spoil):
    batch = _full_run(2000)
    batch[1000] = replace(batch[1000], **{field: spoil(getattr(batch[1000], field))})
    assert serialize_batch(batch) == _per_record(batch)


def _set_after_construction(record, **values):
    for name, value in values.items():
        setattr(record, name, value)
    return record


_RENDERED_EOI_ESS = [1023, 1024, 10**6, True, False, 1.0]
_REFUSED_EOI_ESS = [-1, 1.5, 5000.0]


@pytest.mark.parametrize("field", ["eoi", "ess"])
@pytest.mark.parametrize("value, written",
                         [(v, 2000) for v in _RENDERED_EOI_ESS]
                         + [(v, 1999) for v in _REFUSED_EOI_ESS],
                         ids=[repr(v) for v in _RENDERED_EOI_ESS + _REFUSED_EOI_ESS])
def test_serialize_batch_of_one_probe_renders_eoi_and_ess_as_serialize_does(field, value,
                                                                             written):
    # 1023 is the table's last entry and 1024 one past it; True and 1.0
    # equal table keys. -1, 1.5 and 5000.0 would render as lines that
    # deserialize refuses, so they are refused; -1 only gets in after
    # construction.
    batch = _full_run(2000)
    batch[1000] = _set_after_construction(batch[1000], **{field: value})
    lines, failed = serialize_batch(batch)
    assert (lines, failed) == _per_record(batch)
    assert (len(lines), failed) == (written, 2000 - written)


@pytest.mark.parametrize("field", ["eoi", "ess"])
def test_unhashable_eoi_or_ess_is_refused(field):
    clean = serialize_batch(_full_run(10))[0]
    batch = _full_run(10)
    _set_after_construction(batch[5], **{field: [1]})
    with pytest.raises(RecordFormatError):
        serialize(batch[5])
    assert serialize_batch(batch) == (clean[:5] + clean[6:], 1)


_NOT_AN_INT_IN_RANGE = [("duration", 1.5), ("duration", True), ("duration", -1),
                        ("count", 2.0), ("count", True), ("count", 0),
                        ("sum_duration", 3.0), ("sum_duration", True), ("sum_duration", -1)]


@pytest.mark.parametrize("field, value", _NOT_AN_INT_IN_RANGE,
                         ids=[f"{field}={value!r}" for field, value in _NOT_AN_INT_IN_RANGE])
def test_duration_count_or_sum_that_is_not_an_int_in_range_is_refused(field, value):
    # It would render as a line that deserialize refuses ("1.5", "True").
    # The constructors let every value through but one below the range,
    # which gets in only after construction.
    clean = DurationRecord("a()", 1) if field == "duration" else AggregatedRecord("a()", 1, 1)
    spoilt = [_set_after_construction(replace(clean), **{field: value})]
    if type(value) is not int:
        spoilt.append(replace(clean, **{field: value}))
    for record in spoilt:
        with pytest.raises(RecordFormatError, match=re.escape(f"{record!r} is not an int")):
            serialize(record)
        assert serialize_batch([clean, record, clean]) == ([serialize(clean)] * 2, 1)


@pytest.mark.parametrize("n", [2000, 2001])
def test_serialize_batch_of_two_probes_interleaved(n):
    # Even n: the first and last records are from different probes; odd n:
    # both are from the first probe, and the second one's lie between.
    batch = [FullRecord("bench.m()" if i % 2 else "bench.n()", i, i + 7, i // 10, i % 10,
                        i % 10, "h", "s") for i in range(n)]
    assert serialize_batch(batch) == _per_record(batch)
    assert len(set(serialize_batch(batch)[0])) == n


_ONE_PROBE_SPOILERS = [
    lambda r: replace(r, signature="".join(["", r.signature, ""])),
    lambda r: replace(r, hostname=_Evil(r.hostname)),
    lambda r: replace(r, session_id=r.session_id + ";"),
    lambda r: replace(r, signature="bench.other()"),
    lambda r: _set_after_construction(r, eoi=-1),
    lambda r: _set_after_construction(r, ess=True),
    lambda r: _set_after_construction(r, eoi=2.0),
    lambda r: _set_after_construction(r, ess=[1]),
    lambda r: DurationRecord(r.signature, 5),
]


# Around the end of the decimal table, and far past it.
trace_positions = st.one_of(st.integers(0, 1100), st.sampled_from([1023, 1024, 10**6]))


@given(
    text=st.tuples(signatures, signatures, signatures),
    rows=st.lists(st.tuples(
        trace_positions, trace_positions,
        # About three records in four stay as the probe built them.
        st.one_of(st.none(), st.none(), st.none(), st.sampled_from(_ONE_PROBE_SPOILERS))),
        min_size=1, max_size=40),
)
@settings(max_examples=300)
def test_serialize_batch_of_one_probes_records_matches_per_record_serialize(text, rows):
    # One probe's records share their text objects; some are then spoiled.
    signature, hostname, session_id = text
    batch = []
    for i, (eoi, ess, spoil) in enumerate(rows):
        record = FullRecord(signature, i, i + 3, 7, eoi, ess, hostname, session_id)
        batch.append(record if spoil is None else spoil(record))
    assert serialize_batch(batch) == _per_record(batch)


def test_serialize_batch_of_one_probe_with_an_unsafe_shared_value_refuses_every_record():
    batch = [replace(r, signature="bench;m()") for r in _full_run(10)]
    assert serialize_batch(batch) == _per_record(batch) == ([], 10)
