"""coopnet: firm-level collaboration network analysis over commit histories."""

from .backbone import BackboneParams, extract_backbone
from .graph import CollaborationGraph
from .identity import IdentityResolver, load_affiliation_map
from .ingest import ValidationReport, iter_commits
from .metrics import density
from .report import RunConfig, run_pipeline
from .slicing import assign_release, load_releases

__version__ = "0.1.0"
