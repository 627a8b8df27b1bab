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
``serialize_batch``, which produces the same lines through the same
per-type formatter, one comprehension per run of records of one type.

The records are slotted but not frozen: every probe's hot path builds one
per call, and a frozen ``__init__`` sets each field through
``object.__setattr__``, which costs several times a plain slot store.
They still compare and hash by value; nothing assigns to a field after
construction. ``FullRecord``, built once per level of a monitored chain,
checks its fields in its own ``__init__`` rather than a ``__post_init__``,
so building one takes one Python frame instead of two.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import groupby
from operator import attrgetter
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


@dataclass(slots=True, unsafe_hash=True, init=False)
class FullRecord:
    signature: str
    tin: int
    tout: int
    trace_id: int
    eoi: int
    ess: int
    hostname: str
    session_id: str

    def __init__(self, signature: str, tin: int, tout: int, trace_id: int,
                 eoi: int, ess: int, hostname: str, session_id: str):
        # Cheap integer checks only; the hot path constructs these.
        if tout < tin:
            raise ValueError(f"tout {tout} < tin {tin}")
        if eoi < 0 or ess < 0:
            raise ValueError(f"negative eoi/ess: {eoi}/{ess}")
        self.signature = signature
        self.tin = tin
        self.tout = tout
        self.trace_id = trace_id
        self.eoi = eoi
        self.ess = ess
        self.hostname = hostname
        self.session_id = session_id


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


def _full_lines(records, constant=None) -> list[str]:
    # ``constant``: the run's one (signature, hostname, session_id), joined
    # once into the text around the integer fields.
    if constant is None:
        return [
            f"OER;{r.signature};{r.tin};{r.tout};{r.trace_id};{r.eoi};{r.ess};"
            f"{r.hostname};{r.session_id}"
            for r in records
        ]
    signature, hostname, session_id = constant
    head = f"OER;{signature};"
    tail = f";{hostname};{session_id}"
    return [f"{head}{r.tin};{r.tout};{r.trace_id};{r.eoi};{r.ess}{tail}" for r in records]


def _duration_lines(records) -> list[str]:
    return [f"DUR;{r.signature};{r.duration}" for r in records]


def _aggregated_lines(records) -> list[str]:
    return [f"AGG;{r.signature};{r.count};{r.sum_duration}" for r in records]


_signature = attrgetter("signature")

# Record type -> (a getter per text field, the formatter of a list of such
# records). The one formatting path: serialize and serialize_batch both go
# through it.
_LAYOUTS = {
    FullRecord: ((_signature, attrgetter("hostname"), attrgetter("session_id")), _full_lines),
    DurationRecord: ((_signature,), _duration_lines),
    AggregatedRecord: ((_signature,), _aggregated_lines),
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
    text_fields, format_run = layout
    for field in text_fields:
        _check_signature(field(record))
    return format_run((record,))[0]


def serialize_batch(records) -> tuple[list[str], int]:
    """Render a batch: ``(lines, failed)``.

    ``lines`` are ``serialize(r)``, in order, for every record it accepts;
    ``failed`` counts the records it refuses, which spoil nothing else.
    The batch is taken in runs of one record type. A run's text fields are
    checked once per distinct value, since a batch from one probe repeats
    the same few strings, and a clean run is formatted with one call; a run
    holding a refused or unhashable value goes through ``serialize`` record
    by record. A clean ``FullRecord`` run whose three text fields each hold
    one value, as one probe's do, has them joined once for the whole run.
    Values are deduplicated by equality, so a str subclass instance equal
    to a plain str earlier in the same run is accepted here, where
    ``serialize`` refuses it; in a run whose text fields each hold one
    value, it renders as that plain str.
    """
    lines = []
    failed = 0
    for kind, group in groupby(records, type):
        run = list(group)
        layout = _LAYOUTS.get(kind)
        if layout is None:
            failed += len(run)
            continue
        text_fields, format_run = layout
        try:
            distinct = [set(map(field, run)) for field in text_fields]
            for values in distinct:
                for value in values:
                    _check_signature(value)
        except (RecordFormatError, TypeError):  # TypeError: an unhashable value
            for record in run:
                try:
                    lines.append(serialize(record))
                except RecordFormatError:
                    failed += 1
            continue
        if kind is FullRecord and all(len(values) == 1 for values in distinct):
            lines += _full_lines(run, [values.pop() for values in distinct])
        else:
            lines += format_run(run)
    return lines, failed


# Line tag -> (record type, a parser per field: its type, int or str).
_PARSERS = {
    tag: (kind, [get_type_hints(kind)[f.name] for f in fields(kind)])
    for tag, kind in (("OER", FullRecord), ("DUR", DurationRecord), ("AGG", AggregatedRecord))
}


def deserialize(line: str) -> MonitoringRecord:
    """Parse one serialized line back into a record.

    Inverse of :func:`serialize`: ``deserialize(serialize(r)) == r``.
    """
    tag, *values = line.split(";")
    layout = _PARSERS.get(tag)
    if layout is None:
        raise RecordFormatError(f"unknown record tag {tag!r} in line {line!r}")
    kind, parsers = layout
    if len(values) != len(parsers):
        raise RecordFormatError(f"{tag} needs {len(parsers) + 1} fields: {line!r}")
    try:
        return kind(*[parse(value) for parse, value in zip(parsers, values)])
    except ValueError as exc:
        raise RecordFormatError(f"bad field in line {line!r}: {exc}") from exc
