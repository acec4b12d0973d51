"""coopnet: firm-level collaboration network analysis over commit histories."""

from .backbone import (
    BackboneParams,
    SubCommunity,
    detect_subcommunities,
    edge_embeddedness,
    extract_backbone,
    firm_overlap,
)
from .coopetition import (
    DensityComparison,
    RevenueStream,
    compare_revenue_stream,
    load_revenue_models,
)
from .graph import (
    CollaborationGraph,
    FirmFilter,
    build_collaboration_graph,
    merge_graphs,
)
from .identity import (
    BOT,
    UNAFFILIATED,
    AffiliationMap,
    DeveloperIdentity,
    IdentityResolver,
    canonicalize_identities,
    load_affiliation_map,
    resolve_affiliation,
)
from .ingest import (
    CommitRecord,
    ValidationReport,
    convert_vcs_log,
    iter_commits,
    parse_commit_log,
)
from .metrics import (
    EvolutionRow,
    FirmMixing,
    HomophilyReport,
    density,
    evolution_series,
    firm_assortativity,
    firm_mixing,
    homophily_report,
    same_firm_edge_fraction,
)
from .report import RunConfig, RunResult, run_pipeline
from .slicing import ReleaseWindow, assign_release, load_releases

__version__ = "0.1.0"
