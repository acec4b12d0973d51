"""Parsing and cleaning of coopnet's inputs.

Two commit-history formats are supported:

* the canonical NDJSON commit log (one JSON object per line), read record
  by record by :func:`iter_commits`;
* the raw text produced by the documented ``git log`` extraction recipe
  (sentinel-separated records), bridged to NDJSON by :func:`convert_vcs_log`.

Lines end only at \n, \r\n and \r, the rule open() applies, so a U+2028
or U+0085 inside a JSON string is data.
Per-line problems never abort a parse; they are collected in a
:class:`ValidationReport` so nothing is silently dropped.
The rules all inputs share live here too: :class:`InputError`,
:data:`CONTROL_RE` and :func:`csv_pairs`, the one reader of the CSV configs.
"""

from __future__ import annotations

import csv
import io
import json
import re
from datetime import datetime, timezone
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, TextIO

SHA_RE = re.compile(r"[0-9a-f]{40}")  # fullmatch: "$" would let a trailing \n through
# RFC 3339 section 5.6 date-time. fromisoformat checks the date and time
# ranges but reads a +00:60 offset as +01:00, so offset minutes are checked here.
RFC3339_RE = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt]([0-9]{2}:[0-9]{2}:[0-9]{2})(?:\.([0-9]+))?"
    r"([Zz]|[+-][0-9]{2}:[0-5][0-9])"
)
RECORD_SENTINEL = "\x01COMMIT\x01"
# C0 control characters, lone surrogates and U+FFFE/U+FFFF: no address or
# firm name holds one. XML 1.0 allows no C0 character but tab, LF and CR
# even escaped, and neither of the last two, so GraphML could not hold
# them, and no UTF-8 output can hold a surrogate.
CONTROL_RE = re.compile("[\x00-\x1f\ud800-\udfff\ufffe\uffff]")

CANONICAL_FIELDS = ("sha", "author_name", "author_email", "timestamp", "files")
_FIELD_SET = frozenset(CANONICAL_FIELDS)


class InputError(Exception):
    """An input refused as a whole, before anything is written: the base of each loader's error."""


class CommitLogError(InputError):
    """Stream-level failure: the input as a whole cannot be processed."""


class CommitRecord(NamedTuple):
    """One atomic change event from the repository history."""

    sha: str
    author_name: str
    author_email: str
    timestamp: datetime  # always UTC
    files: tuple[str, ...]  # deduplicated, lexicographically sorted


# a sha's first 14 bits pick one of SHA_BUCKETS buckets; a bucket is its
# shas' bytes 1-19 (SHA_TAIL bytes: the second byte whole, though the bucket
# fixes 6 of its bits, and the 18 after it) end to end, so the check is exact,
# a seen sha costs 19 bytes, and at 120k shas about 7 share a bucket's header
SHA_BUCKETS = 1 << 14
SHA_TAIL = 19


def _holds(bucket: bytes, tail: bytes) -> bool:
    """Whether bucket holds tail as one of its SHA_TAIL-byte entries, not across two."""
    at = bucket.find(tail)
    while at > 0 and at % SHA_TAIL:  # a match across two entries: look from the next one on
        at = bucket.find(tail, at + SHA_TAIL - at % SHA_TAIL)
    return at != -1


class ValidationReport:
    """What a parse accepted, rejected (line, reason) and cleaned (sha, fix); filled as it goes."""

    __slots__ = ("accepted", "rejected", "cleaned")

    def __init__(self):
        self.accepted = 0
        self.rejected: list[tuple[int, str]] = []
        self.cleaned: list[tuple[str, str]] = []


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 date-time and normalize it to UTC.

    The grammar is checked here, so every supported Python accepts the
    same strings; the fraction is padded or truncated to microseconds.
    Raises ValueError for anything else, including naive timestamps.
    """
    match = RFC3339_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"timestamp {text!r} is not an RFC 3339 date-time")
    date, time, fraction, offset = match.groups()
    micros = f".{fraction[:6]:0<6}" if fraction else ""
    offset = "+00:00" if offset in ("Z", "z") else offset
    try:
        return datetime.fromisoformat(f"{date}T{time}{micros}{offset}").astimezone(timezone.utc)
    except OverflowError:  # the UTC instant is outside years 1-9999
        raise ValueError(f"timestamp {text!r} is out of range in UTC") from None


def format_rfc3339(ts: datetime) -> str:
    """A UTC datetime as ``YYYY-MM-DDThh:mm:ssZ``, the fraction dropped.

    isoformat pads the year to four digits, as RFC 3339 requires; strftime's
    %Y writes year 999 as "999".
    """
    return ts.replace(tzinfo=None).isoformat(timespec="seconds") + "Z"


def normalize_email(email: str) -> str:
    return email.strip().lower()


def is_valid_email(email: str) -> bool:
    """Whether an address, once trimmed and lowercased, can name a developer.

    It cannot when it has no "@", no dot in the domain part, or a C0
    control character or lone surrogate left after trimming.
    """
    normalized = normalize_email(email)
    local, sep, domain = normalized.rpartition("@")
    return bool(sep and local and "." in domain and not CONTROL_RE.search(normalized))


def _unique_fields(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object, refused when it names a field twice."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        names: set[str] = set()
        for name, _ in pairs:
            if name in names:
                raise ValueError(f"duplicate field: {name}")
            names.add(name)
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_fields)


def _parse_line(line: str) -> tuple[str, str, str, datetime, list[str]]:
    """One NDJSON line's fields as decoded: sha, author name and email, UTC timestamp, files.

    Raises ValueError with a rejection reason on any schema violation,
    including an object, at any depth, that names a field twice. The email
    and the files are left as the line gives them.
    """
    try:
        if line.startswith("\ufeff"):  # json.loads checks this before decoding
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        obj = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ValueError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("not a JSON object")
    if obj.keys() != _FIELD_SET:  # one comparison; the loops name the first fault
        for name in CANONICAL_FIELDS:
            if name not in obj:
                raise ValueError(f"missing field: {name}")
        for name in obj:
            if name not in CANONICAL_FIELDS:
                raise ValueError(f"unknown field: {name}")
    sha = obj["sha"]
    if not isinstance(sha, str) or not SHA_RE.fullmatch(sha):
        raise ValueError("sha is not a 40-char lowercase hex string")
    if not isinstance(obj["author_name"], str):
        raise ValueError("author_name is not a string")
    if not isinstance(obj["author_email"], str):
        raise ValueError("author_email is not a string")
    if not isinstance(obj["timestamp"], str):
        raise ValueError("timestamp is not a string")
    try:
        timestamp = parse_rfc3339(obj["timestamp"])
    except ValueError:
        raise ValueError("timestamp is not RFC 3339") from None
    files = obj["files"]
    # isinstance(f, str) for each file, without a Python-level generator
    if not isinstance(files, list) or not all(map(str.__instancecheck__, files)):
        raise ValueError("files is not a list of strings")
    if not files:
        raise ValueError("no files")
    if "" in files:
        raise ValueError("empty file path")
    return sha, obj["author_name"], obj["author_email"], timestamp, files


# A line in the layout convert_vcs_log writes with json.dumps: ", " and ": "
# separators, the fields in CANONICAL_FIELDS order, strings holding no '"',
# no backslash and no C0 character, a Z timestamp to the second and a
# non-empty list of non-empty files. Each group of such a line is exactly
# what the decoder returns for its field; the files are one group, split at
# '", "', which no file holds.
_TEXT = r'[^"\\\x00-\x1f]'
CANONICAL_LINE_RE = re.compile(
    rf'\{{"sha": "([0-9a-f]{{40}})", "author_name": "({_TEXT}*)", "author_email": "({_TEXT}*)", '
    r'"timestamp": "([0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2})Z", '
    rf'"files": \["({_TEXT}+(?:", "{_TEXT}+)*)"\]\}}\n?'
)


def iter_commits(stream: Iterable[str], report: ValidationReport) -> Iterator[CommitRecord]:
    """Yield the accepted records of a canonical NDJSON commit log, in input order.

    Malformed lines are rejected with a reason in ``report``; blank lines
    are ignored, and every occurrence of a sha after the first accepted one
    is rejected as a duplicate. Emails are lowercased and trimmed, file
    lists deduplicated and sorted. The report is complete once the
    generator is exhausted.

    A line that CANONICAL_LINE_RE matches whole, the layout convert_vcs_log
    writes, is read from the match without the general JSON decoder, its
    timestamp by ``datetime.fromisoformat``. Every other line, and one whose
    timestamp fromisoformat refuses, goes to the decoder. The fast path
    never rejects a line: each line is accepted, rejected and cleaned as the
    decoder would have it.
    """
    seen = [b""] * SHA_BUCKETS  # an empty bucket is the one shared b""
    match, fromisoformat = CANONICAL_LINE_RE.fullmatch, datetime.fromisoformat
    new_record = tuple.__new__  # a record from the tuple of its fields, without a Python call
    rejected, cleaned = report.rejected, report.cleaned
    for line_number, line in enumerate(stream, start=1):
        fast = match(line)
        if fast is not None:
            sha, name, email, stamp, files = fast.groups()
            try:
                timestamp = fromisoformat(stamp + "+00:00")  # as parse_rfc3339 reads it
            except ValueError:  # a field out of range: the decoder's path rejects the line
                fast = None
            else:
                files = files.split('", "')
        if fast is None:
            if not line.strip(" \t\r\n"):  # JSON whitespace; U+00A0, \x0c etc. are rejected
                continue
            try:
                sha, name, email, timestamp, files = _parse_line(line)
            except ValueError as exc:
                # a field name in the reason may hold a lone surrogate, which no
                # UTF-8 output can hold: it is written as its \u escape
                reason = str(exc).encode("utf-8", "backslashreplace").decode("utf-8")
                rejected.append((line_number, reason))
                continue
        key = bytes.fromhex(sha)
        bucket, tail = key[0] << 6 | key[1] >> 2, key[1:]
        held = seen[bucket]
        if tail in held and _holds(held, tail):  # most tails are in no bucket at all
            rejected.append((line_number, "duplicate sha"))
            continue
        seen[bucket] = held + tail
        report.accepted += 1
        ordered = sorted(set(files)) if len(files) > 1 else files
        normalized = email.strip().lower()  # normalize_email, without the call
        if ordered != files:
            cleaned.append((sha, "files deduplicated and sorted"))
        if normalized != email:
            cleaned.append((sha, "email normalized"))
        if not normalized:
            cleaned.append((sha, "missing email"))
        yield new_record(CommitRecord, (sha, name, normalized, timestamp, tuple(ordered)))


def csv_pairs(
    text: str, header: str, what: str, error: type[InputError]
) -> Iterator[tuple[int, str, str]]:
    """Yield (row number, first cell, second cell) of a two-column CSV, cells stripped.

    Blank rows are skipped. ``error`` is raised for a NUL anywhere (csv
    refuses one on Python 3.10 but keeps it from 3.11), an empty ``what``
    file, a header row other than ``header``, a row of another width or a
    row csv cannot read, such as one with a cell over csv.field_size_limit().
    """
    if "\0" in text:
        raise error(f"{what} file holds a NUL character")
    reader = csv.reader(io.StringIO(text))
    row_number = 0
    while True:
        row_number += 1
        try:
            row = next(reader)
        except StopIteration:
            if row_number == 1:
                raise error(f"empty {what} file") from None
            return
        except csv.Error as exc:
            raise error(f"row {row_number}: {exc}") from None
        if row_number == 1:
            if row != header.split(","):
                raise error(f"expected header {header}, got {','.join(row)}")
        elif row:
            if len(row) != 2:
                raise error(f"row {row_number}: expected 2 columns")
            yield row_number, row[0].strip(), row[1].strip()


def convert_vcs_log(raw: Iterable[str], out: TextIO) -> tuple[int, int]:
    """Convert raw extraction-recipe output into canonical NDJSON, written to ``out``.

    The recipe emits, per commit: the sentinel line, then sha, author name,
    author email and the committer ISO-8601 date on separate lines, then
    the name-only file list. Each record's line is written once the next
    sentinel, or the end of input, closes it, so only the open record is
    held. Merge records (zero file lines) are dropped. Returns (records
    written, merge records dropped).

    Raises CommitLogError, naming the byte offset of the offending record,
    when the sentinel is missing, a record is truncated or its date is
    unparseable; part of the output may have been written by then. The offsets count line endings
    as read, so open a file with newline="".
    """
    lines = iter(raw)
    written = merges_dropped = at = start = 0
    body: list[str] | None = None  # the open record's lines; it starts at byte start
    for line in chain(lines, [RECORD_SENTINEL]):  # a last sentinel closes the last record
        text = line.rstrip("\r\n")
        if text == RECORD_SENTINEL and body is not None:
            while body and not body[-1].strip():
                body.pop()
            fault = "unterminated record" if len(body) < 4 else None
            if fault is None:
                try:  # a merge record's date is checked too
                    timestamp = parse_rfc3339(body[3])
                except ValueError:
                    fault = "unparseable committer date in record"
            if fault:
                for _ in lines:  # an unreadable line further on is still the error reported,
                    pass  # as when the whole input was read before any record was checked
                raise CommitLogError(f"{fault} at byte {start}")
            files = [f for f in body[4:] if f.strip()]
            if files:
                obj = dict(zip(CANONICAL_FIELDS, [*body[:3], format_rfc3339(timestamp), files]))
                out.write(json.dumps(obj, ensure_ascii=False) + "\n")
                written += 1
            else:
                merges_dropped += 1
        if text == RECORD_SENTINEL:
            start, body = at, []
        elif body is not None:
            body.append(text)
        elif text.strip():
            raise CommitLogError(f"missing sentinel before content at byte {at}")
        at += len(line.encode("utf-8"))
    return written, merges_dropped
