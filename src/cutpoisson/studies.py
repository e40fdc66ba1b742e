"""Convergence studies on perturbed geometries, observed rates, and CSV output.

Three studies drive the solver end to end: radially perturbed unit square
boundaries with amplitude delta = h^alpha against the series reference,
oscillation-frequency perturbed circles isolating the normal approximation
error, and marching-triangles level-set contours of the unit disk.
``StudyConfig`` checks the shared inputs once; each study adds its own
checks and its polygon builder, and one level loop, ``_run_levels``, halves
h per level, builds the polygon, solves, and records the measured geometric
errors together with the three error norms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .assembly import MAX_CELLS_PER_AXIS, assemble_system, penalty_parameters
from .basis import qp_basis
from .errors import SolverError
from .geometry import (
    Disk,
    UnitSquare,
    extract_levelset_boundary,
    measure_geometric_errors,
    oscillation_frequency,
    perturb_circle_boundary,
    perturb_square_boundary,
)
from .mesh import BackgroundGrid, classify_elements
from .solver import (
    DiscreteSolution,
    ReferenceSolution,
    compute_error_norms,
    galerkin_residual,
    solve_spd,
)

__all__ = [
    "StudyConfig",
    "ConvergenceRecord",
    "run_delta_study",
    "run_normal_study",
    "run_levelset_study",
    "run_single",
    "compute_rates",
    "least_squares_rate",
    "write_records_csv",
    "read_records_csv",
    "format_rate_table",
    "CSV_HEADER",
]

# Mesh domains: the unit square sits in a 1.5 x 1.5 box, the unit circle in
# [-1.25, 1.25]^2; the coarsest grid has 12 cells per side. The square grid
# is shifted by a third of a coarse cell: with the square edges exactly on
# gridlines, a small radial perturbation grazes the gridline tangentially and
# the resulting sliver cuts make the Nitsche system indefinite at beta=25p^2.
# A 1/3-cell offset keeps the edges at offsets {1/3, 2/3} of a cell under
# every halving, so the cut configurations stay uniformly non-degenerate.
SQUARE_SIDE = 1.5
CIRCLE_ORIGIN = (-1.25, -1.25)
CIRCLE_SIDE = 2.5
BASE_CELLS = 12


def _base_cells(side: float, h0: float | None) -> int:
    return BASE_CELLS if h0 is None else max(1, round(side / h0))


def _square_origin(h0: float | None) -> tuple[float, float]:
    shift = SQUARE_SIDE / _base_cells(SQUARE_SIDE, h0) / 3.0
    return (-0.25 - shift, -0.25 - shift)


_NORM_TARGETS = ("energy", "h1", "l2")


@dataclass(frozen=True)
class StudyConfig:
    """One study run's parameters, checked on construction; unset fields fall back to defaults."""

    p: int = 1
    levels: int | None = None
    h0: float | None = None
    alpha: float | None = None
    alpha_n: float | None = None
    norm_target: str = "energy"

    def __post_init__(self):
        if self.h0 is not None and not 0.0 < self.h0 < math.inf:
            raise ValueError(f"h0 must be positive and finite, got {self.h0}")
        for name, value in (("alpha", self.alpha), ("alpha_n", self.alpha_n)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha is not None and self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}: delta = h^alpha must shrink")
        if self.norm_target not in _NORM_TARGETS:
            raise ValueError(f"norm_target must be one of {_NORM_TARGETS}")
        if self.levels is not None and self.levels < 1:
            raise ValueError("levels must be at least 1")
        if self.levels is None:
            object.__setattr__(self, "levels", 5 if self.p <= 2 else 4)


@dataclass
class ConvergenceRecord:
    """One refinement level: mesh size, measured geometric errors, norms, rates."""

    study: str
    p: int
    level: int
    h: float
    delta: float
    delta_n: float
    dofs: int
    err_energy: float
    err_h1: float
    err_l2: float
    rate_energy: float | None = None
    rate_h1: float | None = None
    rate_l2: float | None = None
    wall_time: float = 0.0


# The CSV columns are the record's fields, each with the parser of its type;
# a field of any other type fails here, on import, with a KeyError.
_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
    "float | None": lambda text: float(text) if text else None,
}
_COLUMNS = [(f.name, _PARSERS[f.type]) for f in fields(ConvergenceRecord)]
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def _grid(origin, side, h0: float | None, level: int) -> BackgroundGrid:
    n = _base_cells(side, h0) * 2**level
    return BackgroundGrid(origin=origin, h=side / n, nx=n, ny=n)


def _check_coarsest(cause: str, h: float, bound: str, value: float, limit: float, why: str):
    """Reject, before level 0, the setting under which the coarsest h breaks the study's bound."""
    if not value < limit:
        msg = f"at the coarsest h = {h:.4g}, {bound} = {value:.4g} must be below {limit:g}"
        raise ValueError(f"{cause}: {msg} {why}")


MAX_POLYGON_VERTICES = 1_000_000  # normal-l2 has 21k at its finest default level


def _check_finest_grid(cfg: StudyConfig, side: float):
    """Reject a finest grid with more cells per axis than the dof numbering holds."""
    base = _base_cells(side, cfg.h0)
    cells = base * 2 ** (cfg.levels - 1)
    if cells > MAX_CELLS_PER_AXIS:
        msg = f"h0 = {side / base:.4g} with levels = {cfg.levels} needs {cells:,} cells per axis"
        raise ValueError(f"{msg} on the finest grid, more than {MAX_CELLS_PER_AXIS:,}")


def _run_levels(cfg: StudyConfig, study: str, origin, side, domain, ref, polygon):
    """Solve on each level's grid over ``origin`` and ``side`` and record the errors.

    ``polygon(grid)`` builds the level's boundary, which approximates
    ``domain``; ``ref`` is the exact solution the norms measure against.
    """
    _check_finest_grid(cfg, side)
    basis, params = qp_basis(cfg.p), penalty_parameters(cfg.p)
    records = []
    for i in range(cfg.levels):
        t0 = time.perf_counter()
        try:
            grid = _grid(origin, side, cfg.h0, i)
            poly = polygon(grid)
            geo = measure_geometric_errors(poly, domain)
            am = classify_elements(grid, poly)
            system, dofmap = assemble_system(am, basis, params, f=lambda x, y: np.ones_like(x))
            coeffs = solve_spd(system)
            resid = galerkin_residual(system, coeffs)
            if resid > 1e-10 * np.linalg.norm(system.rhs):
                raise SolverError(f"Galerkin residual {resid:.3e} exceeds contract")
            sol = DiscreteSolution(coefficients=coeffs, dofmap=dofmap, basis=basis, am=am)
            norms = compute_error_norms(sol, ref, params=params)
        except Exception as exc:
            msg = f"{study} study failed at level {i}: {exc}"
            try:
                wrapped = type(exc)(msg)
            except Exception:
                wrapped = RuntimeError(msg)
            raise wrapped from exc
        records.append(
            ConvergenceRecord(
                study=study,
                p=cfg.p,
                level=i,
                h=grid.h,
                delta=geo.delta,
                delta_n=geo.delta_n,
                dofs=dofmap.n_dofs,
                err_energy=norms.energy,
                err_h1=norms.h1_semi,
                err_l2=norms.l2,
                wall_time=time.perf_counter() - t0,
            )
        )
        del am, system, dofmap, coeffs, sol  # free this level before the next, larger one
    return compute_rates(records)


def _square_study(cfg: StudyConfig, study: str) -> list[ConvergenceRecord]:
    """Unit square perturbed by delta = h^alpha, or exact when alpha is unset."""
    if cfg.p not in (1, 2, 3):
        raise ValueError("p must be 1, 2 or 3")

    def delta(h: float) -> float:
        return h**cfg.alpha if cfg.alpha is not None else 0.0

    # The grid ends 0.25 - h/3 past the unit square, which moves out by at most delta.
    origin = _square_origin(cfg.h0)
    h = _grid(origin, SQUARE_SIDE, cfg.h0, 0).h
    too_large = f"alpha = {cfg.alpha} is too small, delta = h^alpha = {delta(h):.4g} too large"
    cause = too_large if h / 3 < 0.25 else f"h0 = {cfg.h0} is too coarse"
    _check_coarsest(cause, h, "h/3 + delta", h / 3 + delta(h), 0.25, "for the square to fit the grid")

    def polygon(grid):
        return perturb_square_boundary(delta(grid.h), 16 * math.ceil(1.0 / grid.h))

    ref = ReferenceSolution.square_series(50 if cfg.p <= 2 else 100)
    return _run_levels(cfg, study, origin, SQUARE_SIDE, UnitSquare(), ref, polygon)


def run_delta_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Perturbed unit square with delta = h^alpha per level."""
    if cfg.alpha is None:
        raise ValueError("delta study requires alpha (delta = h^alpha)")
    return _square_study(cfg, "delta")


def run_normal_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Perturbed unit circle with frequency growing as h^(-alpha_n).

    delta follows the scaling required for optimal convergence in the target
    norm: h^(p+1/2) for energy, h^p for the H1 seminorm, h^(p+1) for L2.
    """
    if cfg.p != 2:
        raise ValueError("the normal approximation study uses p = 2")
    if cfg.alpha_n is None:
        raise ValueError("normal study requires alpha_n")
    exponent = cfg.p + {"energy": 0.5, "h1": 0.0, "l2": 1.0}[cfg.norm_target]
    h_coarse = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, cfg.h0, 0).h
    why = "for the perturbed circle to fit the grid [-1.25, 1.25]^2"
    bound, cause = f"delta = h^{exponent:g}", f"h0 = {cfg.h0} is too coarse"
    _check_coarsest(cause, h_coarse, bound, h_coarse**exponent, 0.25, why)

    def floor(h: float) -> int:
        # Keep the polygon's own chord sag below 0.5% of the amplitude, so
        # the measured location error tracks the nominal delta; for small
        # delta = h^(p+1) the default 64/h vertices are not enough.
        n_sag = math.ceil(2.0 * math.pi / math.sqrt(0.04 * h**exponent)) if h**exponent else 0
        return max(64 * math.ceil(1.0 / h), n_sag)

    def vertices(h: float) -> int:
        return max(floor(h), 16 * oscillation_frequency(cfg.alpha_n, h, h_coarse))

    _check_finest_grid(cfg, CIRCLE_SIDE)
    finest = cfg.levels - 1
    h_finest = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, cfg.h0, finest).h
    # alpha_n does not set the floor: past the bound, the level count is the cause.
    for cause, n_vertices in (
        (f"levels = {cfg.levels}", floor(h_finest)),
        (f"alpha_n = {cfg.alpha_n}", vertices(h_finest)),
    ):
        if n_vertices > MAX_POLYGON_VERTICES:
            msg = f"{n_vertices:.3g} polygon vertices at level {finest}"
            raise ValueError(f"{cause} needs {msg}, more than {MAX_POLYGON_VERTICES:,}")

    def polygon(grid):
        delta = grid.h**exponent
        return perturb_circle_boundary(delta, cfg.alpha_n, grid.h, h_coarse, vertices(grid.h))

    ref = ReferenceSolution.disk_quadratic()
    return _run_levels(cfg, "normal", CIRCLE_ORIGIN, CIRCLE_SIDE, Disk(), ref, polygon)


def run_levelset_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Unit disk described by the zero contour of nodal level-set samples."""
    if cfg.p not in (1, 2):
        raise ValueError("the level-set study uses p = 1 or 2")
    domain = Disk()
    h = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, cfg.h0, 0).h
    cause, why = f"h0 = {cfg.h0} is too coarse", "to resolve the disk"
    _check_coarsest(cause, h, "4 h / radius", 4 * h / domain.radius, 1.0, why)

    def polygon(grid):
        return extract_levelset_boundary(domain, grid)

    ref = ReferenceSolution.disk_quadratic()
    return _run_levels(cfg, "levelset", CIRCLE_ORIGIN, CIRCLE_SIDE, domain, ref, polygon)


def run_single(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """The delta study at the coarsest level only; the exact square without alpha."""
    return _square_study(replace(cfg, levels=1), "single")


def compute_rates(records: list[ConvergenceRecord]) -> list[ConvergenceRecord]:
    """Fill pairwise observed rates log(e_prev/e_cur)/log(h_prev/h_cur).

    The first record keeps rates unset; non-positive errors leave the rate
    undefined (None).
    """
    out = [replace(records[0])] if records else []
    for prev, cur in zip(records, records[1:]):
        rates = {}
        for name in ("energy", "h1", "l2"):
            e0 = getattr(prev, f"err_{name}")
            e1 = getattr(cur, f"err_{name}")
            if e0 > 0.0 and e1 > 0.0 and cur.h < prev.h:
                rates[f"rate_{name}"] = math.log(e0 / e1) / math.log(prev.h / cur.h)
            else:
                rates[f"rate_{name}"] = None
        out.append(replace(cur, **rates))
    return out


def least_squares_rate(
    records: list[ConvergenceRecord], norm: str, last: int = 3
) -> float:
    """Least-squares slope of log(err) vs log(h) over the last levels."""
    recs = records[-last:]
    if len(recs) < 2:
        raise ValueError("need at least two records for a rate")
    hs = np.log([r.h for r in recs])
    es = np.log([getattr(r, f"err_{norm}") for r in recs])
    return float(np.polyfit(hs, es, 1)[0])


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return np.format_float_scientific(float(value), unique=True)


def write_records_csv(records: list[ConvergenceRecord], path) -> None:
    """Write records with full double precision, shortest round-trip fields."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, name)) for name, _ in _COLUMNS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records_csv(path) -> list[ConvergenceRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized records CSV header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(_COLUMNS):
            raise ValueError(f"expected {len(_COLUMNS)} columns, got {len(parts)}")
        values = {name: parse(text) for (name, parse), text in zip(_COLUMNS, parts)}
        records.append(ConvergenceRecord(**values))
    return records


def format_rate_table(records: list[ConvergenceRecord]) -> str:
    """Human-readable per-level table plus least-squares slopes."""
    rows = [
        f"{'level':>5} {'h':>12} {'delta':>12} {'dofs':>8} "
        f"{'energy':>12} {'rate':>6} {'H1':>12} {'rate':>6} {'L2':>12} {'rate':>6}"
    ]
    for r in records:
        def rate(v):
            return f"{v:6.2f}" if v is not None else "     -"

        rows.append(
            f"{r.level:>5} {r.h:>12.5e} {r.delta:>12.5e} {r.dofs:>8} "
            f"{r.err_energy:>12.5e} {rate(r.rate_energy)} "
            f"{r.err_h1:>12.5e} {rate(r.rate_h1)} "
            f"{r.err_l2:>12.5e} {rate(r.rate_l2)}"
        )
    if len(records) >= 2:
        window = min(3, len(records))
        slopes = [least_squares_rate(records, n, window) for n in ("energy", "h1", "l2")]
        rows.append(
            f"least-squares rates over last {window} levels: "
            f"energy {slopes[0]:.2f}, H1 {slopes[1]:.2f}, L2 {slopes[2]:.2f}"
        )
    return "\n".join(rows)
