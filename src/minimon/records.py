"""Monitoring record types and their line-based text serialization.

Three record kinds flow through the pipeline:

* ``FullRecord`` -- entry/exit timestamps plus trace metadata (trace id,
  execution order index, stack size, host, session).
* ``DurationRecord`` -- just the method signature and its duration.
* ``AggregatedRecord`` -- invocation count and summed duration over a
  window of calls.

Records serialize to single semicolon-delimited lines with a leading
variant tag (``OER``, ``DUR``, ``AGG``). The format round-trips exactly.
``serialize`` renders one record; the writer renders each batch with
``serialize_batch``, which produces the same lines.

The records are slotted but not frozen: every probe's hot path builds one
per call, and a frozen ``__init__`` sets each field through
``object.__setattr__``, which costs several times a plain slot store.
They still compare and hash by value; nothing assigns to a field after
construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from typing import Union

__all__ = [
    "FullRecord",
    "DurationRecord",
    "AggregatedRecord",
    "MonitoringRecord",
    "RecordFormatError",
    "serialize",
    "serialize_batch",
    "deserialize",
]


class RecordFormatError(ValueError):
    """Raised for unserializable records or unparseable record lines."""


@dataclass(slots=True, unsafe_hash=True)
class FullRecord:
    signature: str
    tin: int
    tout: int
    trace_id: int
    eoi: int
    ess: int
    hostname: str
    session_id: str

    def __post_init__(self):
        # Cheap integer checks only; the hot path constructs these.
        if self.tout < self.tin:
            raise ValueError(f"tout {self.tout} < tin {self.tin}")
        if self.eoi < 0 or self.ess < 0:
            raise ValueError(f"negative eoi/ess: {self.eoi}/{self.ess}")


@dataclass(slots=True, unsafe_hash=True)
class DurationRecord:
    signature: str
    duration: int

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"negative duration: {self.duration}")


@dataclass(slots=True, unsafe_hash=True)
class AggregatedRecord:
    signature: str
    count: int
    sum_duration: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.sum_duration < 0:
            raise ValueError(f"negative sum_duration: {self.sum_duration}")


MonitoringRecord = Union[FullRecord, DurationRecord, AggregatedRecord]


# A text field must not hold the delimiter or a C0/DEL control character.
_UNSAFE = re.compile(r"[;\x00-\x1f\x7f]")


def _check_signature(value: object) -> None:
    # Exactly str: a subclass could render through its own __format__.
    if type(value) is not str:
        raise RecordFormatError(f"text field is not a str: {value!r}")
    if _UNSAFE.search(value) is None:
        return
    if ";" in value:
        raise RecordFormatError(f"signature contains delimiter: {value!r}")
    raise RecordFormatError(f"signature contains control character: {value!r}")


def _full_line(record: FullRecord) -> str:
    return (
        f"OER;{record.signature};{record.tin};{record.tout};"
        f"{record.trace_id};{record.eoi};{record.ess};"
        f"{record.hostname};{record.session_id}"
    )


def _duration_line(record: DurationRecord) -> str:
    return f"DUR;{record.signature};{record.duration}"


def _aggregated_line(record: AggregatedRecord) -> str:
    return f"AGG;{record.signature};{record.count};{record.sum_duration}"


def _signature_only(record) -> tuple[str]:
    return (record.signature,)


# Record type -> (its text fields as a tuple, its line). The one formatting
# path: serialize and serialize_batch both go through it.
_LAYOUTS = {
    FullRecord: (attrgetter("signature", "hostname", "session_id"), _full_line),
    DurationRecord: (_signature_only, _duration_line),
    AggregatedRecord: (_signature_only, _aggregated_line),
}


def serialize(record: MonitoringRecord) -> str:
    """Render a record as one text line (no trailing newline).

    Raises RecordFormatError for anything that is not a monitoring record,
    and for a text field that is not a str or holds the delimiter or a
    control character.
    """
    layout = _LAYOUTS.get(type(record))
    if layout is None:
        raise RecordFormatError(f"not a monitoring record: {record!r}")
    text_fields, line = layout
    for value in text_fields(record):
        _check_signature(value)
    return line(record)


def serialize_batch(records) -> tuple[list[str], int]:
    """Render a batch: ``(lines, failed)``.

    ``lines`` are ``serialize(r)``, in order, for every record it accepts;
    ``failed`` counts the records it refuses, which spoil nothing else.
    Each distinct text value is checked once per call: a batch of records
    from one probe repeats the same few strings. A value equal to one
    already checked passes unchecked, so a str subclass instance equal to
    an earlier plain str is accepted here, where ``serialize`` refuses it.
    """
    lines = []
    failed = 0
    checked = set()  # text values of this batch that passed _check_signature
    for record in records:
        layout = _LAYOUTS.get(type(record))
        if layout is None:
            failed += 1
            continue
        text_fields, line = layout
        values = text_fields(record)
        try:
            known = checked.issuperset(values)
        except TypeError:  # an unhashable value, so no str: the check refuses it
            known = False
        if not known:
            try:
                for value in values:
                    _check_signature(value)
            except RecordFormatError:
                failed += 1
                continue
            checked.update(values)
        lines.append(line(record))
    return lines, failed


def deserialize(line: str) -> MonitoringRecord:
    """Parse one serialized line back into a record.

    Inverse of :func:`serialize`: ``deserialize(serialize(r)) == r``.
    """
    fields = line.split(";")
    tag = fields[0]
    try:
        if tag == "DUR":
            if len(fields) != 3:
                raise RecordFormatError(f"DUR needs 3 fields: {line!r}")
            return DurationRecord(fields[1], int(fields[2]))
        if tag == "AGG":
            if len(fields) != 4:
                raise RecordFormatError(f"AGG needs 4 fields: {line!r}")
            return AggregatedRecord(fields[1], int(fields[2]), int(fields[3]))
        if tag == "OER":
            if len(fields) != 9:
                raise RecordFormatError(f"OER needs 9 fields: {line!r}")
            return FullRecord(
                fields[1],
                int(fields[2]),
                int(fields[3]),
                int(fields[4]),
                int(fields[5]),
                int(fields[6]),
                fields[7],
                fields[8],
            )
    except RecordFormatError:
        raise
    except ValueError as exc:
        raise RecordFormatError(f"bad field in line {line!r}: {exc}") from exc
    raise RecordFormatError(f"unknown record tag {tag!r} in line {line!r}")
