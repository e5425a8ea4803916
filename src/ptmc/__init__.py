"""Perfect truncated-metric codes on grids, tori and the ternary compound."""

from .metric import (
    Ambient,
    Point,
    ball_size_formula,
    truncated_ball,
    truncated_distance,
)
from .codes import (
    CodeSet,
    KappaAssignment,
    VerifyReport,
    box_hull_check,
    code_from_json,
    code_to_json,
    components_of,
    inflate_code,
    verify_kappa_ptmc,
    verify_non_isolated_pds,
    verify_pds,
    verify_t_ptmc,
)
from .cover import (
    CoverOutcome,
    EnumerateOutcome,
    ExactCoverInstance,
    eds_instance,
    enumerate_covers,
    grid_eds_survey,
    solve,
    tiling_instance,
    verify_cover,
)
from .constructions import (
    TemplateBuild,
    TemplateSpec,
    build_box_code,
    build_by_template,
    cube_singleton_template,
    min_component_separation,
    square_singleton_template,
)
from .graphs import Graph, grid_graph, lattice_graph

__version__ = "0.1.0"

__all__ = [
    "Ambient", "Point", "ball_size_formula", "truncated_ball", "truncated_distance",
    "CodeSet", "KappaAssignment", "VerifyReport", "box_hull_check", "code_from_json",
    "code_to_json", "components_of", "inflate_code", "verify_kappa_ptmc",
    "verify_non_isolated_pds", "verify_pds", "verify_t_ptmc",
    "CoverOutcome", "EnumerateOutcome", "ExactCoverInstance", "eds_instance",
    "enumerate_covers", "grid_eds_survey", "solve", "tiling_instance",
    "verify_cover",
    "TemplateBuild", "TemplateSpec", "build_box_code", "build_by_template",
    "cube_singleton_template", "min_component_separation",
    "square_singleton_template",
    "Graph", "grid_graph", "lattice_graph",
]
