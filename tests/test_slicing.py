from datetime import datetime, timedelta, timezone

import pytest

from coopnet.slicing import (
    POST_RELEASE,
    ReleaseConfigError,
    assign_release,
    load_releases,
)

CONFIG = """name,date
first,2010-10-21
second,2011-02-03
third,2011-04-15
"""


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def test_load_builds_half_open_windows():
    windows = load_releases(CONFIG)
    assert [w.name for w in windows] == ["first", "second", "third"]
    assert windows[0].end == utc(2010, 10, 21, 23, 59, 59)
    # each window owns its end; the second after it belongs to the next window
    for w, after in zip(windows, ["second", "third", POST_RELEASE]):
        assert assign_release(w.end, windows) == w.name
        assert assign_release(w.end + timedelta(seconds=1), windows) == after
    # the first window is unbounded below
    assert assign_release(datetime.min.replace(tzinfo=timezone.utc), windows) == "first"


def test_load_single_release():
    windows = load_releases("name,date\nonly,2020-01-01\n")
    assert [w.name for w in windows] == ["only"]
    assert assign_release(datetime.min.replace(tzinfo=timezone.utc), windows) == "only"
    assert assign_release(windows[0].end, windows) == "only"
    assert assign_release(windows[0].end + timedelta(seconds=1), windows) == POST_RELEASE


@pytest.mark.parametrize(
    "config,match",
    [
        ("name,date\nb,2011-01-01\na,2010-01-01\n", "ascending"),
        ("name,date\na,2010-01-01\na,2011-01-01\n", "duplicate"),
        ("name,date\na,2010-01-01\nb,2010-01-01\n", "ascending"),
        ("release,when\na,2010-01-01\n", "header"),
        ("name,date\na,01/02/2010\n", "invalid date"),
        ("name,date\n", "no releases"),
        ("name,date\na\x01b,2010-01-01\n", r"^row 2: release name 'a\\x01b' holds a control"),
        ("name,date\na\ufffeb,2010-01-01\n", r"^row 2: release name 'a\\ufffeb' holds a control"),
        ("name,date\na\uffffb,2010-01-01\n", r"^row 2: release name 'a\\uffffb' holds a control"),
        ('name,date\na,2010-01-01\n"b\nc",2011-01-01\n', "row 3: .* control character"),
        ("name,date\na,2010-01-01\npost-release,2011-01-01\n",
         "^row 3: release name post-release is reserved$"),
        ("name,date\na\x00b,2010-01-01\n", "^releases file holds a NUL character$"),
    ],
)
def test_load_rejects_bad_config(config, match):
    with pytest.raises(ReleaseConfigError, match=match):
        load_releases(config)


def test_assignment_of_mid_window_instant():
    windows = load_releases(CONFIG)
    assert assign_release(utc(2011, 3, 1, 12, 0, 0), windows) == "third"


def test_release_date_itself_is_inclusive():
    windows = load_releases(CONFIG)
    assert assign_release(utc(2011, 2, 3, 23, 59, 59), windows) == "second"
    # the release owns its whole day, fractions of the last second included
    assert assign_release(utc(2011, 2, 3, 23, 59, 59, 500000), windows) == "second"
    assert assign_release(utc(2011, 2, 3, 23, 59, 59, 999999), windows) == "second"
    # one second later falls into the next window
    assert assign_release(utc(2011, 2, 4, 0, 0, 0), windows) == "third"


def test_after_last_release_is_post_release():
    windows = load_releases(CONFIG)
    assert assign_release(utc(2011, 5, 1), windows) == POST_RELEASE


def test_every_instant_gets_exactly_one_label():
    windows = load_releases(CONFIG)
    instants = [
        utc(2009, 1, 1),
        utc(2010, 10, 21, 23, 59, 59),
        utc(2010, 10, 22),
        utc(2011, 2, 3),
        utc(2011, 4, 15, 23, 59, 59),
        utc(2011, 4, 16),
        utc(2020, 1, 1),
    ]
    labels = [assign_release(t, windows) for t in instants]
    names = {w.name for w in windows} | {POST_RELEASE}
    assert all(label in names for label in labels)
    counts = {name: labels.count(name) for name in names}
    assert sum(counts.values()) == len(instants)
