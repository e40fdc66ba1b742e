"""2D cut finite element Poisson solver on polygonal surrogate boundaries.

Homogeneous Dirichlet conditions are imposed weakly by Nitsche's method on
the polygon, with ghost-penalty stabilization on the faces near the cut, and
a study harness measures how the boundary location and normal approximation
errors propagate into the energy, H1, and L2 error norms under refinement.
"""

from .assembly import (
    assemble_bulk,
    assemble_ghost_penalty,
    assemble_nitsche_boundary,
    assemble_system,
    build_dofmap,
    ghost_penalty_form,
    penalty_parameters,
)
from .basis import QpBasis, eval_axis_derivative, eval_basis, qp_basis
from .errors import (
    EvaluationError,
    GeometryError,
    MeshError,
    QuadratureError,
    SolverError,
)
from .geometry import (
    BoundaryPolygon,
    Disk,
    UnitSquare,
    closest_point,
    extract_levelset_boundary,
    measure_geometric_errors,
    perturb_circle_boundary,
    perturb_square_boundary,
)
from .mesh import ActiveMesh, BackgroundGrid, classify_elements, ghost_faces
from .quadrature import gauss_legendre_1d
from .solver import (
    DiscreteSolution,
    ReferenceSolution,
    compute_error_norms,
    disk_solution,
    eval_discrete,
    galerkin_residual,
    series_on_lattice,
    series_solution,
    solve_spd,
)
from .studies import (
    ConvergenceRecord,
    StudyConfig,
    compute_rates,
    read_records_csv,
    run_delta_study,
    run_levelset_study,
    run_normal_study,
    run_single,
    write_records_csv,
)

__version__ = "0.1.0"
