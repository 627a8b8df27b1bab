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
``serialize_batch``, which produces the same lines, one comprehension per
run of records of one type. A run of one probe's ``FullRecord``s, whose
text fields are the very same objects, is checked and formatted in one
pass; any other run is checked per distinct text value and formatted
through the per-type formatter ``serialize`` uses.

The records are slotted but not frozen: every probe's hot path builds one
per call, and a frozen ``__init__`` sets each field through
``object.__setattr__``, which costs several times a plain slot store.
They still compare and hash by value; nothing assigns to a field after
construction. ``FullRecord``, built once per level of a monitored chain,
checks its fields in its own ``__init__`` rather than a ``__post_init__``,
so building one takes one Python frame instead of two. The full probe
builds its records with ``object.__new__(FullRecord)`` and a plain call of
``FullRecord.__init__``, which skips ``type.__call__``; every other caller
uses ``FullRecord(...)``, and both ways run the same checks. The writer
drops a batch's records once it has formatted them, before it writes.
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


def _full_lines(records) -> list[str]:
    return [
        f"OER;{r.signature};{r.tin};{r.tout};{r.trace_id};{r.eoi};{r.ess};"
        f"{r.hostname};{r.session_id}"
        for r in records
    ]


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


# str(n) for the eoi and ess of a trace of up to 1 024 calls, since eoi is
# bounded by the trace's size and ess by its depth. A value outside the
# table raises KeyError, which sends its run to the distinct-value path.
_DECIMAL = {n: str(n) for n in range(1024)}


def _one_probe_lines(run) -> list[str] | None:
    """The lines of a ``FullRecord`` run whose text fields are one probe's
    objects, or None when the run is not such a run.

    One probe hands every record the same signature, host and session
    objects, so the first record's three values are checked once, and a
    record is formatted only when its fields *are* those objects and its
    eoi and ess are exact ints (``True`` and ``1.0`` equal 1 but render
    otherwise). The run is clean when no record was left out.
    """
    first, last = run[0], run[-1]
    signature, hostname, session_id = first.signature, first.hostname, first.session_id
    if (last.signature is not signature or last.hostname is not hostname
            or last.session_id is not session_id):
        return None
    try:
        for value in (signature, hostname, session_id):
            _check_signature(value)
        head = f"OER;{signature};"
        tail = f";{hostname};{session_id}"
        decimal = _DECIMAL
        lines = [f"{head}{r.tin};{r.tout};{r.trace_id};{decimal[r.eoi]};{decimal[r.ess]}{tail}"
                 for r in run
                 if r.signature is signature and r.hostname is hostname
                 and r.session_id is session_id and type(r.eoi) is int is type(r.ess)]
    except (RecordFormatError, KeyError):
        return None
    return lines if len(lines) == len(run) else None


def _text_is_safe(run, text_fields) -> bool:
    # Each field's values are exactly str, so that a subclass cannot pass as
    # the plain str it equals; then each distinct value is checked once.
    for field in text_fields:
        column = list(map(field, run))
        if set(map(type, column)) != {str}:
            return False
        try:
            for value in set(column):
                _check_signature(value)
        except RecordFormatError:
            return False
    return True


def serialize_batch(records) -> tuple[list[str], int]:
    """Render a batch: ``(lines, failed)``.

    ``lines`` are ``serialize(r)``, in order, for every record it accepts;
    ``failed`` counts the records it refuses, which spoil nothing else.
    The batch is taken in runs of one record type. A ``FullRecord`` run
    whose first and last records share their text objects, as one probe's
    records do, is checked and formatted in one pass: its three text values
    are checked once, ``OER;<signature>;`` and ``;<hostname>;<session_id>``
    are joined once, and eoi and ess come from a table of decimal strings.
    Any other run, and a run from which that pass leaves out a record, has
    each text field checked to hold only exact ``str`` values, each
    distinct value checked once, and is formatted with one call; a run
    holding a refused value goes through ``serialize`` record by record.
    """
    lines = []
    failed = 0
    for kind, group in groupby(records, type):
        run = list(group)
        layout = _LAYOUTS.get(kind)
        if layout is None:
            failed += len(run)
            continue
        if kind is FullRecord:
            clean = _one_probe_lines(run)
            if clean is not None:
                lines += clean
                continue
        text_fields, format_run = layout
        if _text_is_safe(run, text_fields):
            lines += format_run(run)
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
