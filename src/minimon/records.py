"""Monitoring record types and their line-based text serialization.

Three record kinds flow through the pipeline:

* ``FullRecord`` -- entry/exit timestamps plus trace metadata (trace id,
  execution order index, stack size, host, session).
* ``DurationRecord`` -- just the method signature and its duration.
* ``AggregatedRecord`` -- invocation count and summed duration over a
  window of calls.

Records serialize to single semicolon-delimited lines with a leading
variant tag (``OER``, ``DUR``, ``AGG``). The format round-trips exactly.
Each record type has one formatter, which ``serialize`` runs over one
record and the writer's ``serialize_batch`` over each run of records of
one type that share their text objects, as one probe's records do.

The records are slotted but not frozen: every probe's hot path builds one
per call, and a frozen ``__init__`` sets each field through
``object.__setattr__``, which costs several times a plain slot store.
They still compare and hash by value; no record changes once it is
emitted. Every probe allocates its records with ``object.__new__`` and
stores their slots in its own frame, without ``__init__``: their fields
are valid by construction. The full probe builds one ``FullRecord`` per
level of a monitored chain and the duration probe one ``DurationRecord``;
the aggregating probe's open windows are the ``AggregatedRecord``s it
emits. Every other source (``FullRecord(...)``, ``deserialize``,
``dataclasses.replace``) runs ``__post_init__``, which checks what the
probes guarantee: for a ``FullRecord``, ``tin``, ``tout`` and
``trace_id`` are exactly ``int``, ``tout`` is not before ``tin``, and
``eoi`` and ``ess`` are not negative; a ``DurationRecord``'s duration is
not negative. The writer still refuses a record whose numbers are not
ints in range, whatever built it. It drops a batch's records once it has
formatted them, before it writes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import groupby
from typing import Union, get_type_hints

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
        # Exactly int: a float or bool would render as a line that
        # deserialize refuses.
        if not type(self.tin) is type(self.tout) is type(self.trace_id) is int:
            raise ValueError(f"tin, tout and trace_id must be ints: {self.tin!r}, "
                             f"{self.tout!r}, {self.trace_id!r}")
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


# str(n) for the eoi and ess of a trace of up to 1 024 calls, since eoi is
# bounded by the trace's size and ess by its depth. The batch reads this
# exact dict, whose subscript CPython specializes and a subclass's it does
# not; a miss there sends the run through serialize.
_DECIMAL = {n: str(n) for n in range(1024)}


class _AnyDecimal(dict):
    """``_DECIMAL``, ``str(n)`` for any other int n >= 0, and RecordFormatError
    for anything else (1.5, 5000.0, -1), which deserialize could not read."""

    def __missing__(self, n):
        if type(n) is int and n >= 0:
            return str(n)
        raise RecordFormatError(f"eoi/ess is not a non-negative int: {n!r}")


_ANY_DECIMAL = _AnyDecimal(_DECIMAL)


# A formatter takes a run of one record type, a decimal table and the first
# record's text values. It joins the parts the run shares once and formats,
# in one comprehension, every record whose text fields *are* those objects.
def _full_lines(run, decimal, signature, hostname, session_id) -> list[str]:
    head = f"OER;{signature};"
    tail = f";{hostname};{session_id}"
    return [f"{head}{r.tin};{r.tout};{r.trace_id};{decimal[r.eoi]};{decimal[r.ess]}{tail}"
            for r in run
            if r.signature is signature and r.hostname is hostname and r.session_id is session_id]


# These two leave out a record whose numbers are not exact ints in range.
def _duration_lines(run, decimal, signature) -> list[str]:
    head = f"DUR;{signature};"
    return [f"{head}{r.duration}" for r in run
            if r.signature is signature and type(r.duration) is int and r.duration >= 0]


def _aggregated_lines(run, decimal, signature) -> list[str]:
    head = f"AGG;{signature};"
    return [f"{head}{r.count};{r.sum_duration}" for r in run
            if r.signature is signature and type(r.count) is type(r.sum_duration) is int
            and r.count >= 1 and r.sum_duration >= 0]


# Record type -> (its text fields, its formatter).
_LAYOUTS = {
    FullRecord: (("signature", "hostname", "session_id"), _full_lines),
    DurationRecord: (("signature",), _duration_lines),
    AggregatedRecord: (("signature",), _aggregated_lines),
}


def _run_lines(run, decimal) -> list[str] | None:
    """The lines of a run of one record type, or None when the formatter
    left a record out. Raises RecordFormatError for a run of no record type,
    a refused first text value or a run left out whole, and whatever
    ``decimal`` raises for an eoi or ess it does not hold."""
    first = run[0]
    layout = _LAYOUTS.get(type(first))
    if layout is None:
        raise RecordFormatError(f"not a monitoring record: {first!r}")
    text_fields, format_run = layout
    values = [getattr(first, name) for name in text_fields]
    for value in values:
        _check_signature(value)
    lines = format_run(run, decimal, *values)
    if not lines:  # the first record's text values are its own, so a number left it out
        raise RecordFormatError(f"a number of {first!r} is not an int in range")
    return lines if len(lines) == len(run) else None


def serialize(record: MonitoringRecord) -> str:
    """Render a record as one text line (no trailing newline).

    Raises RecordFormatError for anything that is not a monitoring record,
    for a text field that is not a str or holds the delimiter or a control
    character, and for a number that does not render as an int in range.
    """
    try:
        return _run_lines((record,), _ANY_DECIMAL)[0]
    except TypeError as exc:
        raise RecordFormatError(f"cannot render {record!r}: {exc}") from exc


def serialize_batch(records) -> tuple[list[str], int]:
    """Render a batch: ``(lines, failed)``.

    ``lines`` are ``serialize(r)``, in order, for every record it accepts;
    ``failed`` counts the records it refuses, which spoil nothing else.
    The batch is taken in runs of one record type. A run whose records
    share their text objects, as one probe's records do, is formatted in
    one pass with eoi and ess from ``_DECIMAL``; any other run, and one
    holding a refused value or an eoi or ess outside that table, goes
    through ``serialize`` record by record.
    """
    lines = []
    failed = 0
    for _, group in groupby(records, type):
        run = list(group)
        try:
            clean = _run_lines(run, _DECIMAL)
        except (RecordFormatError, KeyError, TypeError):
            clean = None
        if clean is not None:
            lines += clean
            continue
        for record in run:
            try:
                lines.append(serialize(record))
            except RecordFormatError:
                failed += 1
    return lines, failed


# Line tag -> (record type, a parser per field: its type, int or str).
_PARSERS = {
    tag: (kind, [get_type_hints(kind)[f.name] for f in fields(kind)])
    for tag, kind in (("OER", FullRecord), ("DUR", DurationRecord), ("AGG", AggregatedRecord))
}


def deserialize(line: str) -> MonitoringRecord:
    """Parse one serialized line back into a record.

    Inverse of :func:`serialize`, which must write the record back as ``line``.
    """
    tag, *values = line.split(";")
    layout = _PARSERS.get(tag)
    if layout is None:
        raise RecordFormatError(f"unknown record tag {tag!r} in line {line!r}")
    kind, parsers = layout
    if len(values) != len(parsers):
        raise RecordFormatError(f"{tag} needs {len(parsers) + 1} fields: {line!r}")
    try:
        record = kind(*[parse(value) for parse, value in zip(parsers, values)])
        if serialize(record) == line:
            return record
    except ValueError as exc:
        raise RecordFormatError(f"bad field in line {line!r}: {exc}") from exc
    raise RecordFormatError(f"not the line serialize writes for {record!r}: {line!r}")
