"""Revenue-stream coopetition analysis.

For each revenue stream, cohesion of the firms competing for it is
compared against cohesion of the remaining firms of the universe: both
node-induced subgraphs are measured independently from the graph's
firm-mixing count, so cross-group edges count toward neither side.
"""

from __future__ import annotations

from typing import NamedTuple

from .ingest import InputError, csv_pairs
from .metrics import FirmMixing, group_counts, pair_density


class RevenueModelError(InputError):
    pass


class RevenueStream(NamedTuple):
    name: str
    competing_firms: frozenset[str]


class DensityComparison(NamedTuple):
    """The tail of a comparisons.csv row, field for column."""

    stream: str
    n_alpha: int  # edges among competing firms
    den_alpha: float | None
    n_beta: int  # edges among non-competing firms
    den_beta: float | None


def load_revenue_models(config: str, universe: set[str]) -> list[RevenueStream]:
    """Parse revenue CSV (header stream,firm), validating firms against the universe.

    Streams keep first-appearance order.
    """
    grouped: dict[str, set[str]] = {}
    rows = csv_pairs(config, "stream,firm", "revenue models", RevenueModelError)
    for row_number, stream, firm in rows:
        if not stream or not firm:
            raise RevenueModelError(f"row {row_number}: empty stream or firm")
        if firm not in universe:
            raise RevenueModelError(f"row {row_number}: unknown firm {firm}")
        grouped.setdefault(stream, set()).add(firm)
    return [
        RevenueStream(name=name, competing_firms=frozenset(firms))
        for name, firms in grouped.items()
    ]


def compare_revenue_stream(
    mix: FirmMixing, stream: RevenueStream, universe: set[str]
) -> DensityComparison:
    """Edge counts and densities of competing vs non-competing subgraphs.

    The non-competing group is the rest of the universe, so developers of
    firms outside it (Unaffiliated, without a firm filter) belong to
    neither side. When the stream covers every firm the complement is
    empty: n_beta is 0 and den_beta undefined.
    """
    if not stream.competing_firms <= universe:
        raise RevenueModelError(
            f"stream {stream.name} names firms outside the universe: "
            f"{sorted(stream.competing_firms - universe)}"
        )
    alpha_nodes, alpha_edges = group_counts(mix, stream.competing_firms)
    beta_nodes, beta_edges = group_counts(mix, universe - stream.competing_firms)
    return DensityComparison(
        stream=stream.name,
        n_alpha=alpha_edges,
        den_alpha=pair_density(alpha_nodes, alpha_edges),
        n_beta=beta_edges,
        den_beta=pair_density(beta_nodes, beta_edges),
    )
