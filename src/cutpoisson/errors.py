"""Exception types raised by the solver components."""


class GeometryError(Exception):
    """Invalid or degenerate geometric input/output (polygons, projections)."""


class MeshError(Exception):
    """Background grid / active mesh construction failure."""


class QuadratureError(Exception):
    """The cut geometry misses the polygon's area: the polygon is not simple."""


class SolverError(Exception):
    """Linear solve failed or violated its residual contract."""


class EvaluationError(Exception):
    """Discrete solution evaluated outside the active domain."""
