"""Toolkit for 3-neighbour bootstrap percolation on a x b x c grid graphs."""

from .bounds import (
    AuditReport,
    Classification,
    Status,
    classify,
    lower_bound,
    perfect_audit,
    perfect_precondition,
    surface_sum,
)
from .catalog import Catalog, CatalogEntry, CatalogError, builtin_catalog
from .combine import CombineError, combine, thickness1_entry
from .engine import (
    PercolationTrace,
    SimulationTruncated,
    degree_pair_sum,
    percolate,
    surface_quantity,
)
from .families import (
    FamilyError,
    FamilyPattern,
    assemble_family,
    builtin_patterns,
    discover_family,
)
from .grid import CellSet, GridDims, GridError, neighbours
from .gridtext import ParseError, parse_set, render_trace, write_set
from .milestones import Milestone, Region, extract_milestones, fit_affine
from .pipelines import Builder, DependencyError
from .search import (
    AnnealParams,
    SearchError,
    SearchMode,
    SearchResult,
    find_at_bound,
    min_22c,
    min_exhaustive,
)

__all__ = [
    "AnnealParams",
    "AuditReport",
    "Builder",
    "Catalog",
    "CatalogEntry",
    "CatalogError",
    "CellSet",
    "Classification",
    "CombineError",
    "DependencyError",
    "FamilyError",
    "FamilyPattern",
    "GridDims",
    "GridError",
    "Milestone",
    "ParseError",
    "PercolationTrace",
    "Region",
    "SearchError",
    "SearchMode",
    "SearchResult",
    "SimulationTruncated",
    "Status",
    "assemble_family",
    "builtin_catalog",
    "builtin_patterns",
    "classify",
    "combine",
    "degree_pair_sum",
    "discover_family",
    "extract_milestones",
    "find_at_bound",
    "fit_affine",
    "lower_bound",
    "min_22c",
    "min_exhaustive",
    "neighbours",
    "parse_set",
    "percolate",
    "perfect_audit",
    "perfect_precondition",
    "render_trace",
    "surface_quantity",
    "surface_sum",
    "thickness1_entry",
    "write_set",
]

__version__ = "0.1.0"
