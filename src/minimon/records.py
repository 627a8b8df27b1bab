"""Monitoring record types and their line-based text serialization.

Three record kinds flow through the pipeline:

* ``FullRecord`` -- entry/exit timestamps plus trace metadata (trace id,
  execution order index, stack size, host, session).
* ``DurationRecord`` -- just the method signature and its duration.
* ``AggregatedRecord`` -- invocation count and summed duration over a
  window of calls.

Records serialize to single semicolon-delimited lines with a leading
variant tag (``OER``, ``DUR``, ``AGG``). The format round-trips exactly.

The records are slotted but not frozen: every probe's hot path builds one
per call, and a frozen ``__init__`` sets each field through
``object.__setattr__``, which costs several times a plain slot store.
They still compare and hash by value; nothing assigns to a field after
construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

__all__ = [
    "FullRecord",
    "DurationRecord",
    "AggregatedRecord",
    "MonitoringRecord",
    "RecordFormatError",
    "serialize",
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


def _check_signature(signature: str) -> None:
    if _UNSAFE.search(signature) is None:
        return
    if ";" in signature:
        raise RecordFormatError(f"signature contains delimiter: {signature!r}")
    raise RecordFormatError(f"signature contains control character: {signature!r}")


def serialize(record: MonitoringRecord) -> str:
    """Render a record as one text line (no trailing newline)."""
    _check_signature(record.signature)
    if type(record) is DurationRecord:
        return f"DUR;{record.signature};{record.duration}"
    if type(record) is AggregatedRecord:
        return f"AGG;{record.signature};{record.count};{record.sum_duration}"
    if type(record) is FullRecord:
        _check_signature(record.hostname)
        _check_signature(record.session_id)
        return (
            f"OER;{record.signature};{record.tin};{record.tout};"
            f"{record.trace_id};{record.eoi};{record.ess};"
            f"{record.hostname};{record.session_id}"
        )
    raise RecordFormatError(f"not a monitoring record: {record!r}")


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
