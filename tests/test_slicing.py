from datetime import date, datetime, time, timedelta, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    assert [w.end for w in windows] == [date(2010, 10, 21), date(2011, 2, 3), date(2011, 4, 15)]
    # each window owns its end; the date after it belongs to the next window
    for w, after in zip(windows, ["second", "third", POST_RELEASE]):
        assert assign_release(w.end, windows) == w.name
        assert assign_release(w.end + timedelta(days=1), windows) == after
    # the first window is unbounded below
    assert assign_release(date.min, windows) == "first"


def test_load_single_release():
    windows = load_releases("name,date\nonly,2020-01-01\n")
    assert [w.name for w in windows] == ["only"]
    assert windows[0].end == date(2020, 1, 1)
    assert assign_release(date.min, windows) == "only"
    assert assign_release(date(2020, 1, 1), windows) == "only"
    assert assign_release(date(2020, 1, 2), windows) == POST_RELEASE


@pytest.mark.parametrize(
    "config,match",
    [
        ("name,date\nb,2011-01-01\na,2010-01-01\n", "ascending"),
        ("name,date\na,2010-01-01\na,2011-01-01\n", "duplicate"),
        ("name,date\na,2010-01-01\nb,2010-01-01\n", "ascending"),
        ("release,when\na,2010-01-01\n", "header"),
        ("name,date\na,01/02/2010\n", "invalid date"),
        ("name,date\na,2021-3-1\n", "invalid date '2021-3-1'"),
        ("name,date\na,\u0662\u0660\u0662\u0661-09-01\n", "invalid date"),
        ("name,date\na,2021-03-1\u0660\n", "invalid date"),
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
    assert assign_release(utc(2011, 3, 1, 12, 0, 0).date(), windows) == "third"


def test_release_date_itself_is_inclusive():
    windows = load_releases(CONFIG)
    assert assign_release(date(2011, 2, 3), windows) == "second"
    # the next date falls into the next window
    assert assign_release(date(2011, 2, 4), windows) == "third"


def test_after_last_release_is_post_release():
    windows = load_releases(CONFIG)
    assert assign_release(date(2011, 5, 1), windows) == POST_RELEASE


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
    labels = [assign_release(t.date(), windows) for t in instants]
    assert labels == ["first", "first", "second", "second", "third", POST_RELEASE, POST_RELEASE]


def second_rule(t: datetime, windows) -> str:
    """The window of instant t when a window ends at 23:59:59Z of its date
    and t is compared in whole seconds: the rule a release's date stands for."""
    t = t.astimezone(timezone.utc).replace(microsecond=0)
    for w in windows:
        if t <= datetime.combine(w.end, time(23, 59, 59), timezone.utc):
            return w.name
    return POST_RELEASE


# offsets up to +-14 h, the widest any zone uses
OFFSETS = st.integers(-14 * 60, 14 * 60).map(lambda m: timezone(timedelta(minutes=m)))
RELEASE_DATES = st.lists(
    st.dates(date(2010, 1, 1), date(2012, 12, 31)), min_size=1, max_size=5, unique=True
).map(sorted)


@st.composite
def instants_and_releases(draw):
    """Release dates and an aware instant, often within 2 s of a UTC midnight after one."""
    dates = draw(RELEASE_DATES)
    near = st.builds(
        lambda day, micros: datetime.combine(day, time(), timezone.utc)
        + timedelta(days=1, microseconds=micros),
        st.sampled_from(dates), st.integers(-2_000_000, 2_000_000),
    )
    anywhere = st.datetimes(
        datetime(2009, 6, 1), datetime(2013, 6, 30), timezones=st.just(timezone.utc)
    )
    t = draw(st.one_of(near, anywhere)).astimezone(draw(OFFSETS))
    return t, dates


@given(instants_and_releases())
def test_utc_date_assignment_matches_the_whole_second_rule(case):
    t, dates = case
    config = "name,date\n" + "".join(f"r{i},{d.isoformat()}\n" for i, d in enumerate(dates))
    windows = load_releases(config)
    assert assign_release(t.astimezone(timezone.utc).date(), windows) == second_rule(t, windows)
