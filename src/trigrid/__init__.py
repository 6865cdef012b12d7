"""Weighted shortest paths on equilateral triangle tessellations.

The package spans four layers: lattice geometry and walks (tessellation),
the weighted region metric (metric), solvers for the three path families
(grid_paths, oracle), and the machinery that certifies the
grid-versus-unrestricted cost ratio bound of 2/sqrt(3) (analysis). The
grid-path and vertex-path solvers are exact, the Steiner-refinement oracle
approximates unrestricted paths, and all three share one search contract,
run over Python lists or a dense frontier array (grid_paths). Instance
files, generators, and SVG export live in instances; a command line ties
it together in cli.

The package exports the names the README and the command line use; every
other name is imported from its module.
"""

from .analysis import (
    RATIO_BOUND,
    RATIO_TOL,
    RatioReport,
    ratio_report,
    search_p2_anomaly,
)
from .grid_paths import (
    InvalidCornerError,
    PathResult,
    UnreachableError,
    shortest_grid_path,
    shortest_vertex_path,
)
from .instances import (
    GenerationError,
    Instance,
    ParseError,
    export_svg,
    gen_random,
    gen_strip,
    gen_svp_witness,
    gen_two_weight_maze,
    load_instance,
    save_instance,
)
from .metric import WeightMap, segment_cost
from .oracle import (
    DEFAULT_MAX_LEVEL,
    DEFAULT_REL_TOL,
    OracleResult,
    approx_shortest_path,
    refine_until,
)
from .tessellation import Tessellation, corner_position

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_LEVEL",
    "DEFAULT_REL_TOL",
    "GenerationError",
    "Instance",
    "InvalidCornerError",
    "OracleResult",
    "ParseError",
    "PathResult",
    "RATIO_BOUND",
    "RATIO_TOL",
    "RatioReport",
    "Tessellation",
    "UnreachableError",
    "WeightMap",
    "approx_shortest_path",
    "corner_position",
    "export_svg",
    "gen_random",
    "gen_strip",
    "gen_svp_witness",
    "gen_two_weight_maze",
    "load_instance",
    "ratio_report",
    "refine_until",
    "save_instance",
    "search_p2_anomaly",
    "segment_cost",
    "shortest_grid_path",
    "shortest_vertex_path",
]
