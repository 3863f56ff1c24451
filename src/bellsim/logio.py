"""The trial row and its log: JSON-lines with a self-describing header.

A trial is a ``TrialRecord`` row, and ``check_record`` is its one validator.
The log writer and reader run it on every row, since their rows may come from
outside the engine, whose rows keep its rules by construction.
Nothing here loads numpy or the model, so certifying a log needs neither.

The first line is a JSON header object (format version, config hash, master
seed, creation timestamp, partial flag); every following line is one trial,
whose field order is the line's key order; a key given twice in one line is
an error. Each line parses independently, so a damaged file can be recovered
up to the bad line. Writing is deterministic: identical logs serialise
byte-identically (the creation timestamp is null unless explicitly stamped).
Rows are written and read in blocks of ``BLOCK_TRIALS`` lines, each formatted
from one ``%r`` template, which gives the bytes ``json.dumps`` gives a valid row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from math import isfinite
from operator import itemgetter
from typing import NamedTuple

# Rows per block of sampling, writing and reading; any size gives the same rows.
BLOCK_TRIALS = 4096


class EngineError(ValueError):
    """Invalid trial row, engine input or exhausted budget."""


_TIME_TYPES = frozenset((int, float))


class TrialRecord(NamedTuple):
    """One event-ready Bell trial as a plain row; all four values are always present.

    Timestamps are nanoseconds in a common frame whose origin is the start
    of the successful entanglement attempt. The field order is the log's key
    order. Construction checks nothing: ``check_record`` is the one validator.
    """

    idx: int
    a: int
    b: int
    x: int
    y: int
    t_herald_ns: float
    t_choice_a_ns: float
    t_choice_b_ns: float
    t_read_done_a_ns: float
    t_read_done_b_ns: float
    attempts: int


def check_record(rec: TrialRecord) -> None:
    """Raise EngineError unless ``rec`` is a valid trial row.

    Integer fields must be ``int`` and times ``int`` or ``float`` (no bools,
    no numpy scalars), so every valid row serialises as JSON through ``repr``.
    """
    idx, a, b, x, y, t_h, t_ca, t_cb, t_ra, t_rb, attempts = rec
    if not type(idx) is type(a) is type(b) is type(x) is type(y) is type(attempts) is int:
        raise EngineError("idx, a, b, x, y and attempts must be integers, got "
                          f"{', '.join(repr(v) for v in (idx, a, b, x, y, attempts))}")
    if not (type(t_h) in _TIME_TYPES and type(t_ca) in _TIME_TYPES and type(t_cb) in _TIME_TYPES
            and type(t_ra) in _TIME_TYPES and type(t_rb) in _TIME_TYPES):
        raise EngineError("event times must be int or float numbers")
    try:
        finite = (isfinite(t_h) and isfinite(t_ca) and isfinite(t_cb) and isfinite(t_ra)
                  and isfinite(t_rb))
    except OverflowError:  # an int time beyond the float range
        finite = False
    if not finite:
        raise EngineError("event times must be finite")
    if a not in (0, 1) or b not in (0, 1):
        raise EngineError(f"settings must be bits, got a={a}, b={b}")
    if x not in (-1, 1) or y not in (-1, 1):
        raise EngineError(f"outcomes must be +-1, got x={x}, y={y}")
    if attempts < 1:
        raise EngineError("attempt count must be >= 1")
    if not (t_ca < t_ra and t_cb < t_rb):
        raise EngineError("per-site ordering violated: choice must precede readout end")


@dataclass
class TrialLog:
    """Trials in index order plus the metadata to re-run them.

    ``seed`` is the master seed as given: an integer for a plain run, or a
    (master, replica) pair for one replica of a parallel batch.
    """

    config_hash: str
    seed: int | tuple
    records: list[TrialRecord] = field(default_factory=list)
    partial: bool = False
    created: str | None = None

    def __len__(self) -> int:
        return len(self.records)


def record_events(record: TrialRecord) -> tuple[float, float, float, float, float]:
    """One trial's five event times in ns, in field order, as ``audit_trial`` takes them."""
    return record[5:10]


FORMAT_VERSION = 1

RECORD_KEYS = TrialRecord._fields

# one trial line; %r of an int or a finite float is its JSON text
_LINE = "{" + ",".join(f'"{key}":%r' for key in RECORD_KEYS) + "}\n"
_row_values = itemgetter(*RECORD_KEYS)
_new_record = partial(tuple.__new__, TrialRecord)  # from exactly 11 values, unchecked


class LogFormatError(ValueError):
    """Trial-log file violates the JSON-lines schema; ``path`` names the file read."""

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = path


def record_from_dict(data: dict, line_no: int) -> TrialRecord:
    missing = [k for k in RECORD_KEYS if k not in data]
    if missing:
        raise LogFormatError(f"line {line_no}: missing key(s) {', '.join(missing)}")
    extra = set(data) - set(RECORD_KEYS)
    if extra:
        raise LogFormatError(f"line {line_no}: unknown key(s) {', '.join(sorted(extra))}")
    rec = _new_record(_row_values(data))
    try:
        check_record(rec)
    except ValueError as exc:
        raise LogFormatError(f"line {line_no}: {exc}") from exc
    return rec


def header_dict(log: TrialLog) -> dict:
    seed = list(log.seed) if isinstance(log.seed, tuple) else log.seed
    return {
        "format_version": FORMAT_VERSION,
        "config_hash": log.config_hash,
        "seed": seed,
        "created": log.created,
        "partial": log.partial,
    }


def write_log(log: TrialLog, path) -> None:
    """Write the header and every row; raises EngineError before writing an invalid row."""
    records = log.records
    for rec in records:
        check_record(rec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header_dict(log), separators=(",", ":")) + "\n")
        for start in range(0, len(records), BLOCK_TRIALS):
            fh.write("".join([_LINE % rec for rec in records[start:start + BLOCK_TRIALS]]))


def _distinct_keys(pairs: list) -> dict:
    """A JSON object's dict, unless a key is given twice (``json`` keeps its last value)."""
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        twice = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise LogFormatError(f"key {twice!r} is given twice")
    return data


def _parse_line(raw: str, line_no: int) -> dict:
    try:
        data = json.loads(raw, object_pairs_hook=_distinct_keys)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
    except LogFormatError as exc:
        raise LogFormatError(f"line {line_no}: {exc}") from None
    if not isinstance(data, dict):
        raise LogFormatError(f"line {line_no}: expected a JSON object")
    return data


def _read_block(records: list, block: list[str], line_no: int) -> None:
    """Append the rows of ``block``, whose first line is file line ``line_no``.

    One JSON array parse of the block counts only if each line is one ``{...}``,
    the block holds 11 colons per line, and the parse gives one valid row per
    line in sequence. A row takes a colon per key, so each line then holds its
    11 keys once: no key is extra or given twice (the array parse would keep
    the last value), and as rows hold no other brace, no row spans two lines.
    Otherwise each line is parsed on its own, and blank lines are skipped but
    counted.
    """
    start = len(records)
    text = ",".join(block)
    try:
        if ("" not in block and all(ln[0] == "{" and ln[-1] == "}" for ln in block)
                and text.count(":") == len(RECORD_KEYS) * len(block)):
            rows = [_new_record(_row_values(d)) for d in json.loads("[" + text + "]")]
            for rec in rows:
                check_record(rec)
            if [rec.idx for rec in rows] == list(range(start, start + len(block))):
                records += rows
                return
    except (ValueError, KeyError, TypeError):
        pass  # the line-by-line parse below reports the first bad line
    for line_no, raw in enumerate(block, start=line_no):
        if not raw:
            continue
        rec = record_from_dict(_parse_line(raw, line_no), line_no)
        if rec.idx != len(records):
            raise LogFormatError(
                f"line {line_no}: trial index {rec.idx} out of sequence "
                f"(expected {len(records)})"
            )
        records.append(rec)


def _log_from_header(header: dict, line_no: int) -> TrialLog:
    """The empty log a header describes, once every key is present, known and of its
    JSON type: a key this reader does not know could change what the log means."""
    for key in ("format_version", "config_hash", "seed"):
        if key not in header:
            raise LogFormatError(f"line {line_no}: header is missing {key!r}")
    if unknown := header.keys() - {"format_version", "config_hash", "seed", "created", "partial"}:
        raise LogFormatError(f"line {line_no}: header has unknown key(s): "
                             + ", ".join(sorted(unknown)))
    version, seed = header["format_version"], header["seed"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise LogFormatError(f"line {line_no}: unsupported format version {version}")
    seeds = seed if type(seed) is list else [seed]
    log = TrialLog(header["config_hash"], tuple(seed) if type(seed) is list else seed,
                   partial=header.get("partial", False), created=header.get("created"))
    for key, ok, rule in (
        ("config_hash", type(log.config_hash) is str, "a string"),
        ("seed", all(type(v) is int and v >= 0 for v in seeds),
         "an integer >= 0 or a list of them"),
        ("created", log.created is None or type(log.created) is str, "a string or null"),
        ("partial", type(log.partial) is bool, "a boolean"),
    ):
        if not ok:
            raise LogFormatError(f"line {line_no}: header {key} must be {rule}, "
                                 f"got {header[key]!r}")
    return log


def _read_lines(fh) -> TrialLog:
    lines = (raw.rstrip("\n") for raw in fh)
    for line_no, first in enumerate(lines, start=1):
        if first:
            break
    else:
        raise LogFormatError("empty file: missing header line")
    log = _log_from_header(_parse_line(first, line_no), line_no)
    while block := list(islice(lines, BLOCK_TRIALS)):
        _read_block(log.records, block, line_no + 1)
        line_no += len(block)
    return log


def read_log(path) -> TrialLog:
    """Parse a trial-log file, validating the header, every row and the index sequence.

    Every LogFormatError raised here carries ``path``; its message names the
    file line, blank lines counted.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _read_lines(fh)
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"not UTF-8 text: {exc}", path) from exc
    except LogFormatError as exc:
        exc.path = path
        raise
