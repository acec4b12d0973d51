"""Release windows: partitioning the commit stream by release date.

Each window is a half-open interval (previous release date, release date]
of UTC dates, so a window holds only its name and end: its start is the
previous window's end. A release owns its whole UTC date. The first window
is unbounded below; commits after the last release date get the
post-release marker and are excluded from analysis.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from datetime import date, datetime
from operator import attrgetter
from typing import NamedTuple

from .ingest import CONTROL_RE, InputError, csv_pairs

POST_RELEASE = "post-release"
# ASCII digits only: strptime alone takes 2021-3-1 and non-ASCII digits
DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class ReleaseConfigError(InputError):
    pass


class ReleaseWindow(NamedTuple):
    name: str
    end: date  # inclusive; the window starts after the previous one's end


def load_releases(config: str) -> list[ReleaseWindow]:
    """Parse releases CSV (header name,date) into ordered windows."""
    windows: list[ReleaseWindow] = []
    seen: set[str] = set()
    rows = csv_pairs(config, "name,date", "releases", ReleaseConfigError)
    for row_number, name, date_text in rows:
        if not name:
            raise ReleaseConfigError(f"row {row_number}: empty release name")
        if CONTROL_RE.search(name):  # it names a graph, which GraphML could not hold
            raise ReleaseConfigError(
                f"row {row_number}: release name {name!r} holds a control character"
            )
        if name == POST_RELEASE:
            raise ReleaseConfigError(f"row {row_number}: release name {name} is reserved")
        if name in seen:
            raise ReleaseConfigError(f"row {row_number}: duplicate release name {name}")
        seen.add(name)
        try:
            if not DATE_RE.fullmatch(date_text):
                raise ValueError
            end = datetime.strptime(date_text, "%Y-%m-%d").date()
        except ValueError:
            raise ReleaseConfigError(
                f"row {row_number}: invalid date {date_text!r}"
            ) from None
        if windows and end <= windows[-1].end:
            raise ReleaseConfigError(f"row {row_number}: dates not strictly ascending")
        windows.append(ReleaseWindow(name=name, end=end))
    if not windows:
        raise ReleaseConfigError("no releases defined")
    return windows


def assign_release(day: date, windows: list[ReleaseWindow]) -> str:
    """Name of the window containing the UTC date day, or the post-release marker."""
    i = bisect_left(windows, day, key=attrgetter("end"))
    if i == len(windows):
        return POST_RELEASE
    return windows[i].name
