"""Trial-log persistence: JSON-lines with a self-describing header.

The first line is a JSON header object (format version, config hash, master
seed, creation timestamp, partial flag); every following line is one trial.
Each line parses independently, so a damaged file can be recovered up to the
bad line. Writing is deterministic: identical logs serialise byte-identically
(the creation timestamp is null unless explicitly stamped).
"""

from __future__ import annotations

import dataclasses
import json

from .engine import TrialLog, TrialRecord

FORMAT_VERSION = 1

RECORD_KEYS = tuple(f.name for f in dataclasses.fields(TrialRecord))


class LogFormatError(ValueError):
    """Trial-log file violates the JSON-lines schema."""


def record_to_dict(rec: TrialRecord) -> dict:
    return {key: getattr(rec, key) for key in RECORD_KEYS}


def record_from_dict(data: dict, line_no: int) -> TrialRecord:
    missing = [k for k in RECORD_KEYS if k not in data]
    if missing:
        raise LogFormatError(f"line {line_no}: missing key(s) {', '.join(missing)}")
    extra = set(data) - set(RECORD_KEYS)
    if extra:
        raise LogFormatError(f"line {line_no}: unknown key(s) {', '.join(sorted(extra))}")
    try:
        return TrialRecord(**{k: data[k] for k in RECORD_KEYS})
    except ValueError as exc:
        raise LogFormatError(f"line {line_no}: {exc}") from exc


def header_dict(log: TrialLog) -> dict:
    seed = list(log.seed) if isinstance(log.seed, tuple) else log.seed
    return {
        "format_version": log.format_version,
        "config_hash": log.config_hash,
        "seed": seed,
        "created": log.created,
        "partial": log.partial,
    }


def write_log(log: TrialLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header_dict(log), separators=(",", ":")) + "\n")
        for rec in log.records:
            fh.write(json.dumps(record_to_dict(rec), separators=(",", ":")) + "\n")


def _parse_line(raw: str, line_no: int) -> dict:
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise LogFormatError(f"line {line_no}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise LogFormatError(f"line {line_no}: expected a JSON object")
    return data


def read_log(path) -> TrialLog:
    """Parse a trial-log file, validating the header and the index sequence."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in (raw.rstrip("\n") for raw in fh) if ln]
    if not lines:
        raise LogFormatError("empty file: missing header line")
    header = _parse_line(lines[0], 1)
    for key in ("format_version", "config_hash", "seed"):
        if key not in header:
            raise LogFormatError(f"line 1: header is missing {key!r}")
    if header["format_version"] != FORMAT_VERSION:
        raise LogFormatError(f"unsupported format version {header['format_version']}")
    seed = header["seed"]
    if isinstance(seed, list):
        seed = tuple(seed)
    log = TrialLog(
        config_hash=header["config_hash"],
        seed=seed,
        partial=bool(header.get("partial", False)),
        created=header.get("created"),
        format_version=header["format_version"],
    )
    for line_no, raw in enumerate(lines[1:], start=2):
        rec = record_from_dict(_parse_line(raw, line_no), line_no)
        if rec.idx != len(log.records):
            raise LogFormatError(
                f"line {line_no}: trial index {rec.idx} out of sequence "
                f"(expected {len(log.records)})"
            )
        log.records.append(rec)
    return log
