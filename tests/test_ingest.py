import hashlib
import json
import random
import re
from datetime import date, datetime, timezone
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import FIXTURE_DIR, convert_text, parse_commit_log
from coopnet import ingest
from coopnet.ingest import (
    RECORD_SENTINEL,
    CommitLogError,
    ValidationReport,
    is_valid_email,
    iter_commits,
    normalize_email,
    parse_rfc3339,
)

SHA_A = "a" * 40
SHA_B = "b" * 40


def make_line(**overrides):
    obj = {
        "sha": SHA_A,
        "author_name": "Dev One",
        "author_email": "dev1@hp.example",
        "timestamp": "2011-03-01T10:00:00Z",
        "files": ["a.py"],
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_parse_normalizes_email_and_files():
    line = make_line(author_email="Dev1@HP.example", files=["b.py", "a.py", "a.py"])
    records, report = parse_commit_log(line)
    assert report.accepted == 1 and not report.rejected
    record = records[0]
    assert record.author_email == "dev1@hp.example"
    assert record.files == ("a.py", "b.py")
    fixes = {fix for _, fix in report.cleaned}
    assert fixes == {"email normalized", "files deduplicated and sorted"}


def test_parse_rejects_empty_files():
    _, report = parse_commit_log(make_line(files=[]))
    assert report.accepted == 0
    assert report.rejected == [(1, "no files")]


def test_parse_flags_missing_email_but_accepts():
    records, report = parse_commit_log(make_line(author_email="", author_name="J Doe"))
    assert report.accepted == 1
    assert records[0].author_email == ""
    assert (SHA_A, "missing email") in report.cleaned


def test_parse_rejects_unknown_and_missing_fields():
    _, report = parse_commit_log(json.dumps({"sha": SHA_A}))
    assert report.rejected[0][1].startswith("missing field")
    extra = json.loads(make_line())
    extra["branch"] = "main"
    _, report = parse_commit_log(json.dumps(extra))
    assert report.rejected == [(1, "unknown field: branch")]


@pytest.mark.parametrize(
    "drop, extra, reason",
    [
        (("sha",), {}, "missing field: sha"),
        (("files",), {}, "missing field: files"),
        (("timestamp", "author_email"), {}, "missing field: author_email"),
        (("sha", "author_name", "author_email", "timestamp", "files"), {}, "missing field: sha"),
        # a missing field is named before an unknown one
        (("timestamp",), {"branch": "main"}, "missing field: timestamp"),
        ((), {"branch": "main"}, "unknown field: branch"),
        ((), {"zeta": 1, "alpha": 2}, "unknown field: zeta"),  # in input order
        ((), {"SHA": SHA_A}, "unknown field: SHA"),
        # a field of the wrong type
        ((), {"author_name": 1}, "author_name is not a string"),
        ((), {"author_email": None}, "author_email is not a string"),
        ((), {"timestamp": 1298973600}, "timestamp is not a string"),
    ],
)
def test_parse_names_the_first_field_fault(drop, extra, reason):
    obj = {k: v for k, v in json.loads(make_line()).items() if k not in drop}
    _, report = parse_commit_log(json.dumps({**obj, **extra}))
    assert report.rejected == [(1, reason)]


@pytest.mark.parametrize(
    "line, reason",
    [
        # the last value would be a valid record
        (make_line(sha=SHA_A)[:-1] + f', "sha": "{SHA_B}"}}', "duplicate field: sha"),
        (make_line()[:-1] + ', "branch": 1, "branch": 2}', "duplicate field: branch"),
        (make_line(files=["x"]).replace('["x"]', '[{"a": 1, "a": 2}]'), "duplicate field: a"),
    ],
    ids=["sha", "unknown", "nested"],
)
def test_parse_rejects_a_field_named_twice(line, reason):
    records, report = parse_commit_log(line)
    assert records == []
    assert report.rejected == [(1, reason)]


@pytest.mark.parametrize(
    "line",
    ["[]", f"[{make_line()}]", '"a.py"', "1", "null"],
    ids=["empty-array", "array-of-record", "string", "number", "null"],
)
def test_parse_rejects_json_that_is_not_an_object(line):
    _, report = parse_commit_log(line)
    assert report.rejected == [(1, "not a JSON object")]


def test_parse_rejects_a_byte_order_mark_as_json_loads_does():
    _, report = parse_commit_log("\ufeff" + make_line())
    assert report.rejected == [(1, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")]


def test_rejection_reason_escapes_a_lone_surrogate():
    # a field name reaches validate's output and validation_report.json, which are UTF-8
    _, report = parse_commit_log(make_line()[:-1] + ', "\\udc00x": 1}')
    assert report.rejected == [(1, "unknown field: \\udc00x")]
    report.rejected[0][1].encode("utf-8")


@pytest.mark.parametrize(
    "files, reason",
    [
        ([1], "files is not a list of strings"),
        ([1.5], "files is not a list of strings"),
        ([True], "files is not a list of strings"),
        ([None], "files is not a list of strings"),
        ([["a.py"]], "files is not a list of strings"),
        ([{"a.py": 1}], "files is not a list of strings"),
        (["a.py", 2], "files is not a list of strings"),
        ("a.py", "files is not a list of strings"),
        ({"a.py": 1}, "files is not a list of strings"),
        (None, "files is not a list of strings"),
        ([], "no files"),
        ([""], "empty file path"),
        (["a.py", ""], "empty file path"),
        # a type fault is named before an empty path
        (["", 3], "files is not a list of strings"),
    ],
)
def test_parse_names_the_files_fault(files, reason):
    _, report = parse_commit_log(make_line(files=files))
    assert report.rejected == [(1, reason)]


@pytest.mark.parametrize(
    "sha", ["A" * 40, "a" * 39, "a" * 41, "xyz", "", "a" * 40 + "\n"]
)
def test_parse_rejects_bad_sha(sha):
    _, report = parse_commit_log(make_line(sha=sha))
    assert len(report.rejected) == 1


def test_parse_rejects_bad_timestamp():
    _, report = parse_commit_log(make_line(timestamp="yesterday"))
    assert report.rejected == [(1, "timestamp is not RFC 3339")]
    # naive timestamps are not RFC 3339 either
    _, report = parse_commit_log(make_line(timestamp="2011-03-01T10:00:00"))
    assert report.rejected == [(1, "timestamp is not RFC 3339")]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2011-03-01T10:00:00Z", datetime(2011, 3, 1, 10, tzinfo=timezone.utc)),
        ("2011-03-01t10:00:00z", datetime(2011, 3, 1, 10, tzinfo=timezone.utc)),
        ("2011-03-01T05:30:00-04:30", datetime(2011, 3, 1, 10, tzinfo=timezone.utc)),
        ("2011-03-01T10:00:00.5Z", datetime(2011, 3, 1, 10, 0, 0, 500000, timezone.utc)),
        ("2011-03-01T10:00:00.123Z", datetime(2011, 3, 1, 10, 0, 0, 123000, timezone.utc)),
        ("2011-03-01T10:00:00.123456789+00:00",
         datetime(2011, 3, 1, 10, 0, 0, 123456, timezone.utc)),
    ],
)
def test_rfc3339_accepts_date_time(text, expected):
    assert parse_rfc3339(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "20110301T100000+00:00",
        "20110301T100000+0000",
        "2011-W09-2T10:00+00:00",
        "2011-060T10:00:00Z",
        "2011-03-01T10:00Z",
        "2011-03-01 10:00:00Z",
        "2011-03-01T10:00:00+0000",
        "2011-03-01T10:00:00+00",
        "2011-03-01T10:00:00+00:60",
        "2011-03-01T10:00:00.Z",
        "2011-03-01T24:00:00Z",
        "2011-02-29T10:00:00Z",
        "\u0662011-03-01T10:00:00Z",
        " 2011-03-01T10:00:00Z",
        # valid local times whose UTC instant is outside years 1-9999
        "9999-12-31T23:59:59-01:00",
        "0001-01-01T00:00:00+01:00",
    ],
)
def test_rfc3339_rejects_other_forms(text):
    with pytest.raises(ValueError):
        parse_rfc3339(text)


def test_parse_rejects_later_duplicate_sha():
    text = "\n".join(
        [make_line(timestamp="bad"), make_line(), make_line(sha=SHA_B), make_line(files=["b.py"])]
    )
    records, report = parse_commit_log(text)
    assert [r.sha for r in records] == [SHA_A, SHA_B]
    assert records[0].files == ("a.py",)
    assert report.accepted == 2
    assert report.rejected == [(1, "timestamp is not RFC 3339"), (4, "duplicate sha")]


def duplicate_oracle(shas):
    """A plain set's verdict on a log of these shas: its duplicate lines, and the count accepted."""
    seen, duplicates = set(), []
    for line_number, sha in enumerate(shas, start=1):
        if sha in seen:
            duplicates.append((line_number, "duplicate sha"))
        seen.add(sha)
    return duplicates, len(seen)


# shas of two buckets whose 19-byte tails repeat a short pattern from some
# offset on, so that one sha's tail often stands across two stored tails
bucket_shas = st.builds(
    lambda prefix, pattern, offset: prefix + bytes((pattern * 21)[offset:offset + 19]).hex(),
    st.sampled_from(["ab", "00"]),
    st.lists(st.sampled_from([0, 1]), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2),
)


# three tails of one bucket (a tail's first byte is the sha's second, whose
# first 6 bits the bucket fixes: here 0); the third is found in the first
# two's tails end to end, at offset 3
ACROSS = [bytes(range(19)), bytes([1, *range(100, 118)]), bytes([*range(3, 19), 1, 100, 101])]


def bucket_of(sha):
    """The sha's first 14 bits."""
    return int(sha[:4], 16) >> 2


@given(st.lists(bucket_shas, max_size=60))
@example(["ab" + tail.hex() for tail in [*ACROSS, ACROSS[2]]])
def test_duplicate_rejections_match_a_set(shas):
    records, report = parse_commit_log("\n".join(make_line(sha=sha) for sha in shas))
    duplicates, accepted = duplicate_oracle(shas)
    assert report.rejected == duplicates
    assert report.accepted == accepted == len(records)


def test_shas_of_one_bucket_are_told_apart_by_their_tails():
    # the four differ only in the last 2 bits of their second byte, which
    # the bucket leaves to the tail
    shas = [f"ab{second:02x}" + "5" * 36 for second in range(0xCC, 0xD0)]
    assert len({bucket_of(sha) for sha in shas}) == 1
    log = shas + shas[::-1] + ["ab" + "5" * 38]  # the last one is of another bucket
    records, report = parse_commit_log("\n".join(make_line(sha=sha) for sha in log))
    assert [r.sha for r in records] == [*shas, log[-1]]
    assert report.rejected == [(line, "duplicate sha") for line in range(5, 9)]


def test_a_tail_across_two_stored_tails_is_not_a_duplicate():
    shas = ["ab" + tail.hex() for tail in ACROSS]
    assert len({bucket_of(sha) for sha in shas}) == 1
    assert (ACROSS[0] + ACROSS[1]).find(ACROSS[2]) == 3  # not at a tail's start
    records, report = parse_commit_log("\n".join(make_line(sha=sha) for sha in shas + shas))
    assert [r.sha for r in records] == shas
    assert report.rejected == [(line, "duplicate sha") for line in range(4, 7)]


def test_a_seeded_stream_with_planted_duplicates_matches_a_set():
    # one line in ten repeats an earlier sha, one in ten is an earlier sha
    # with one hex digit changed, and one new sha in four falls in one of
    # four crowded buckets
    rng = random.Random(29)
    crowded = [rng.getrandbits(14) for _ in range(4)]
    shas = []
    for _ in range(20_000):
        draw = rng.random()
        if shas and draw < 0.1:
            shas.append(rng.choice(shas))
        elif shas and draw < 0.2:
            sha, at = rng.choice(shas), rng.randrange(40)
            digit = rng.choice("0123456789abcdef".replace(sha[at], ""))
            shas.append(sha[:at] + digit + sha[at + 1:])
        elif rng.random() < 0.25:
            shas.append(f"{rng.choice(crowded) << 146 | rng.getrandbits(146):040x}")
        else:
            shas.append(f"{rng.getrandbits(160):040x}")
    assert sum(bucket_of(sha) in crowded for sha in set(shas)) > 4_000
    records, report = parse_commit_log("\n".join(make_line(sha=sha) for sha in shas))
    duplicates, accepted = duplicate_oracle(shas)
    assert len(duplicates) > 1_500
    assert report.rejected == duplicates
    assert report.accepted == accepted == len(records)


def test_every_line_of_a_repeated_log_is_a_duplicate():
    shas = [hashlib.sha1(str(i).encode()).hexdigest() for i in range(3000)]
    records, report = parse_commit_log("\n".join(make_line(sha=sha) for sha in shas * 2))
    assert [r.sha for r in records] == shas
    assert report.rejected == [(len(shas) + i, "duplicate sha") for i in range(1, len(shas) + 1)]


# U+2028 and U+0085 may stand unescaped in a JSON string, and str.splitlines
# would end a line at each of them.
LINE_BREAKING_NAMES = ["Ann\u2028Lee", "Ann\x85Lee"]


@pytest.mark.parametrize("name", LINE_BREAKING_NAMES)
def test_parse_keeps_unicode_line_breaks_inside_strings(name):
    line = json.dumps(json.loads(make_line(author_name=name)), ensure_ascii=False)
    assert name in line
    records, report = parse_commit_log(line + "\n")
    assert (report.accepted, report.rejected) == (1, [])
    assert records[0].author_name == name


def test_parse_ends_lines_at_lf_crlf_and_cr_only():
    text = make_line() + "\r\n" + make_line(sha=SHA_B) + "\r" + make_line(sha="c" * 40) + "\f\n"
    records, report = parse_commit_log(text)
    assert [r.sha for r in records] == [SHA_A, SHA_B]
    # a form feed ends no line, so it is part of line 3, which is not JSON
    assert [(line, reason[:12]) for line, reason in report.rejected] == [(3, "invalid JSON")]


def test_parse_converts_offsets_to_utc():
    records, _ = parse_commit_log(make_line(timestamp="2011-03-01T12:00:00+02:00"))
    assert records[0].timestamp == datetime(2011, 3, 1, 10, 0, 0, tzinfo=timezone.utc)


def test_parse_skips_blank_lines_and_counts_reconcile():
    # only JSON whitespace makes a line blank; other whitespace is invalid JSON
    not_json = ["\x0c", "\x1c", "\u00a0", "\u2028", "\u3000"]
    lines = [make_line(), "", make_line(sha=SHA_B, files=[]), "   ", "\t", *not_json]
    records, report = parse_commit_log("\n".join(lines))
    non_blank = 2 + len(not_json)
    assert report.accepted + len(report.rejected) == non_blank
    assert len(records) == report.accepted
    invalid = [line for line, reason in report.rejected if reason.startswith("invalid JSON")]
    assert invalid == list(range(6, 6 + len(not_json)))


def test_parse_is_deterministic():
    text = "\n".join([make_line(), make_line(sha=SHA_B), "not json"])

    def parse():
        records, report = parse_commit_log(text)
        return records, report.accepted, report.rejected, report.cleaned

    assert parse() == parse()


# "ok": valid as given; "fixable": valid once trimmed and lowercased
@pytest.mark.parametrize(
    "email,kind",
    [
        ("dev@hp.example", "ok"),
        ("dev_at_hp", "invalid-email"),
        ("DEV@HP.EXAMPLE ", "fixable"),
        ("dev@localhost", "invalid-email"),  # no dot in domain
        ("@hp.example", "invalid-email"),
        ("a\u0001b@x.example", "invalid-email"),  # no XML 1.0 text can hold it
        ("a\tb@x.example", "invalid-email"),
        ("dev@hp.\x1fexample", "invalid-email"),
        ("dev@hp.example\t", "fixable"),  # trimming removes it
        ("a\x7fb@x.example", "ok"),  # DEL is not a C0 character
        ("x\ud800y@anvil.io", "invalid-email"),  # no UTF-8 output can hold a lone surrogate
        ("dev@hp.example\udfff", "invalid-email"),
    ],
)
def test_classify_email(email, kind):
    assert is_valid_email(email) is (kind != "invalid-email")
    if kind != "invalid-email":
        assert (normalize_email(email) != email) is (kind == "fixable")
        assert is_valid_email(normalize_email(email))


def raw_record(sha=SHA_A, name="Dev One", email="dev1@hp.example",
               date="2011-03-01T10:00:00+00:00", files=("a.py", "b.py")):
    return "\n".join([RECORD_SENTINEL, sha, name, email, date, *files]) + "\n"


def test_convert_transcribes_record():
    ndjson, merges = convert_text(raw_record())
    assert merges == 0
    obj = json.loads(ndjson)
    assert obj == {
        "sha": SHA_A,
        "author_name": "Dev One",
        "author_email": "dev1@hp.example",
        "timestamp": "2011-03-01T10:00:00Z",
        "files": ["a.py", "b.py"],
    }


def test_convert_drops_merge_records():
    raw = raw_record() + raw_record(sha=SHA_B, files=())
    ndjson, merges = convert_text(raw)
    assert merges == 1
    assert len(ndjson.splitlines()) == 1


def test_convert_errors_on_truncated_record():
    good = raw_record()
    truncated = "\n".join([RECORD_SENTINEL, SHA_B, "Dev Two", "dev2@hp.example"]) + "\n"
    with pytest.raises(CommitLogError) as excinfo:
        convert_text(good + truncated)
    assert f"byte {len(good.encode())}" in str(excinfo.value)


def test_convert_errors_on_missing_sentinel():
    with pytest.raises(CommitLogError, match="missing sentinel"):
        convert_text("deadbeef\nno sentinel here\n")


def test_convert_then_parse_is_lossless():
    raw = raw_record() + raw_record(sha=SHA_B, email="dev2@hp.example", files=("x/y.c",))
    ndjson, _ = convert_text(raw)
    records, report = parse_commit_log(ndjson)
    assert report.accepted == 2 and not report.rejected
    assert records[0].files == ("a.py", "b.py")
    assert records[1].files == ("x/y.c",)
    assert all(r.timestamp.tzinfo is not None for r in records)


@pytest.mark.parametrize("name", LINE_BREAKING_NAMES)
def test_convert_then_parse_keeps_unicode_line_breaks(name):
    ndjson, _ = convert_text(raw_record(name=name))
    assert name in ndjson
    records, report = parse_commit_log(ndjson)
    assert report.accepted == 1
    assert records[0].author_name == name


@given(
    st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
    st.text(alphabet="0123456789", max_size=9),
    st.one_of(st.just("Z"), st.integers(min_value=-(23 * 60 + 59), max_value=23 * 60 + 59)),
)
@example(datetime(999, 6, 1, 10), "", "Z")
@example(datetime(1000, 1, 1, 0, 30), "", 60)  # year 999 in UTC
def test_convert_writes_the_date_parse_reads(local, fraction, offset):
    if offset != "Z":
        offset = f"{'-' if offset < 0 else '+'}{abs(offset) // 60:02d}:{abs(offset) % 60:02d}"
    line = f"{local.isoformat(timespec='seconds')}{'.' if fraction else ''}{fraction}{offset}"
    try:
        ndjson, _ = convert_text(raw_record(date=line))
    except CommitLogError:  # the UTC instant is outside years 1-9999
        return
    written = json.loads(ndjson)["timestamp"]
    assert parse_rfc3339(written) == parse_rfc3339(line).replace(microsecond=0)


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="0123456789abcdef", min_size=40, max_size=40),
            st.lists(
                st.text(
                    alphabet=st.characters(
                        blacklist_characters="\x01\n\r", min_codepoint=33, max_codepoint=126
                    ),
                    min_size=1,
                    max_size=10,
                ),
                min_size=1,
                max_size=4,
                unique=True,
            ),
        ),
        max_size=5,
    )
)
def test_convert_parse_roundtrip_property(commits):
    raw = "".join(
        raw_record(sha=sha, files=files) for sha, files in commits
    )
    ndjson, merges = convert_text(raw)
    assert merges == 0
    records, report = parse_commit_log(ndjson)
    # a repeated sha is rejected; its first occurrence is the one kept
    first: dict[str, list[str]] = {}
    for sha, files in commits:
        first.setdefault(sha, files)
    assert report.accepted == len(first)
    assert len(report.rejected) == len(commits) - len(first)
    assert [sha for sha, _ in first.items()] == [record.sha for record in records]
    for (sha, files), record in zip(first.items(), records):
        assert record.sha == sha
        assert set(record.files) == set(files)


# ---------------------------------------------------------------------------
# the fast path: a line in convert's layout is read without the JSON decoder


def read_log(lines):
    """iter_commits' records of the lines, as given, with the finished report's contents."""
    report = ValidationReport()
    records = list(iter_commits(lines, report))
    return records, (report.accepted, report.rejected, report.cleaned)


def decoder_calls(monkeypatch):
    """A list that gains one entry per call of ingest._parse_line from now on."""
    calls = []
    parse_line = ingest._parse_line

    def counting(line):
        calls.append(line)
        return parse_line(line)

    monkeypatch.setattr(ingest, "_parse_line", counting)
    return calls


def fixture_as_raw_log() -> str:
    """The fixture log as the extraction recipe prints it, as CI rebuilds it."""
    records = map(json.loads, (FIXTURE_DIR / "commits.ndjson").read_text(encoding="utf-8").splitlines())
    return "".join(
        "\n".join([RECORD_SENTINEL, o["sha"], o["author_name"], o["author_email"], o["timestamp"],
                   *o["files"]]) + "\n\n"
        for o in records
    )


def test_the_fast_path_reads_every_line_convert_writes(monkeypatch):
    ndjson, merges = convert_text(fixture_as_raw_log())
    calls = decoder_calls(monkeypatch)
    _, report = parse_commit_log(ndjson)
    assert (merges, report.accepted, report.rejected) == (1, 25, [])
    assert calls == []


def test_the_fixture_log_takes_the_decoder_for_its_no_files_line_only(monkeypatch):
    calls = decoder_calls(monkeypatch)
    with open(FIXTURE_DIR / "commits.ndjson", encoding="utf-8") as log:
        _, (accepted, rejected, cleaned) = read_log(log)
    assert (accepted, rejected, len(cleaned)) == (25, [(25, "no files")], 3)
    assert [json.loads(line)["files"] for line in calls] == [[]]


def now_and_then(usual, other):
    """usual's values, and other's a sixth of the time: most lines stay in convert's layout."""
    return st.integers(0, 5).flatmap(lambda k: other if k == 5 else usual)


# characters that a string on the fast path holds as they are (printable
# ASCII, DEL, non-ASCII, U+2028, lone surrogates, U+FFFF), and the ones that
# json.dumps escapes, sending its line to the decoder
PLAIN_CHARS = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'),
    st.sampled_from("\x7f\xe9\u2028\ud800\udfff\uffff"),
)


def texts(min_size=0):
    return now_and_then(
        st.text(PLAIN_CHARS, min_size=min_size, max_size=5),
        st.text(st.one_of(PLAIN_CHARS, st.sampled_from('"\\\x00\t\x1f')), min_size=1, max_size=5),
    )


shas = now_and_then(
    st.one_of(st.sampled_from(["a" * 40, "b" * 40]), st.text("0123456789abcdef", min_size=40, max_size=40)),
    st.sampled_from(["A" * 40, "a" * 39, ""]),
)
emails = st.one_of(st.sampled_from(["dev@hp.example", "Dev@HP.example", " dev@hp.example ", ""]), texts())
# Z timestamps to the second, now and then with a field out of range, and other RFC 3339 forms
stamps = st.builds(
    str.format,
    now_and_then(
        st.just("{}T{}Z"),
        st.sampled_from(["{}t{}Z", "{}T{}z", "{}T{}.5Z", "{}T{}.1234567Z", "{}T{}+00:00",
                         "{}T{}-04:30", "{}T{}+00:60", "{}T{}", "{} {}Z"]),
    ),
    now_and_then(
        st.dates().map(date.isoformat),
        st.sampled_from(["0000-01-01", "2011-00-10", "2011-13-01", "2011-02-29", "2011-04-31"]),
    ),
    now_and_then(
        st.times().map(lambda t: t.isoformat(timespec="seconds")),
        st.sampled_from(["24:00:00", "23:60:00", "23:59:60", "99:99:99"]),
    ),
)
files = st.lists(now_and_then(texts(min_size=1), st.sampled_from(["b.py", "a.py", ""])), max_size=4)


def json_quoted(text):
    return json.dumps(text, ensure_ascii=False)


def raw_quoted(text):
    """text between quotes with nothing escaped: a control character stays raw."""
    return f'"{text}"'


# (before, between pairs, between name and value, after) of a line: the
# layout convert writes, and its mutants
LAYOUT = ("{", ", ", ": ", "}\n")
MUTANT_LAYOUTS = [
    ("{", ", ", ": ", "}"),  # no final newline
    ("{", ", ", ": ", "}\r\n"),  # as iter_commits gets a file opened with newline=""
    ("{", ", ", ": ", "}\r"),
    ("{", ",", ":", "}\n"),  # compact
    (" { ", " , ", " :\t", " }\n"),  # other whitespace
    ("\ufeff{", ", ", ": ", "}\n"),  # a byte order mark
    ("{", ", ", ": ", "} x\n"),  # trailing data
]
# other orders of a line's (name, value) pairs: reversed, or the first twice
MUTANT_ORDERS = [lambda pairs: pairs[::-1], lambda pairs: pairs + pairs[:1]]


@st.composite
def log_lines(draw):
    quote = draw(st.sampled_from([json_quoted, raw_quoted]))
    values = [
        quote(draw(shas)),
        quote(draw(texts())),
        quote(draw(emails)),
        quote(draw(stamps)),
        "[" + ", ".join(map(quote, draw(files))) + "]",
    ]
    if draw(st.integers(0, 9)) == 9:  # a value of another JSON type
        values[draw(st.integers(0, 4))] = draw(st.sampled_from(["5", "null", '["x"]', "{}"]))
    pairs = list(zip(map(json_quoted, ingest.CANONICAL_FIELDS), values))
    pairs = draw(now_and_then(st.just(lambda pairs: pairs), st.sampled_from(MUTANT_ORDERS)))(pairs)
    before, between, colon, after = draw(now_and_then(st.just(LAYOUT), st.sampled_from(MUTANT_LAYOUTS)))
    return before + between.join(name + colon + value for name, value in pairs) + after


NEVER = re.compile(r"(?!)")


@given(st.lists(log_lines(), max_size=8))
@example(['{"sha": "' + "a" * 40 + '", "author_name": "x\\\\", "author_email": "", '
          '"timestamp": "2011-03-01T10:00:00Z", "files": ["a.py"]}\n'])
@example(['{"sha": "' + "a" * 40 + '", "author_name": "\x1f", "author_email": "", '
          '"timestamp": "2011-03-01T10:00:00Z", "files": ["a.py"]}\n'])
@example(['{"sha": "' + "a" * 40 + '", "author_name": "", "author_email": "", '
          '"timestamp": "2011-02-29T10:00:00Z", "files": ["a.py"]}\n'])
def test_the_fast_path_reads_each_line_as_the_decoder_does(lines):
    fast_records, fast_report = read_log(lines)
    with mock.patch.object(ingest, "CANONICAL_LINE_RE", NEVER):
        records, report = read_log(lines)
    assert fast_report == report
    assert fast_records == records
    assert all(r.timestamp.tzinfo is timezone.utc for r in fast_records + records)
