"""Convergence studies on perturbed geometries, observed rates, and CSV output.

Three studies drive the solver end to end: radially perturbed unit square
boundaries with amplitude delta = h^alpha against the series reference,
oscillation-frequency perturbed circles isolating the normal approximation
error, and marching-triangles level-set contours of the unit disk. Each
refinement level halves h, rebuilds the geometry, solves, and records the
measured geometric errors together with the three error norms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .assembly import assemble_system, penalty_parameters
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
    if h0 is not None and not 0.0 < h0 < math.inf:
        raise ValueError(f"h0 must be positive and finite, got {h0}")
    return BASE_CELLS if h0 is None else max(1, round(side / h0))


def _square_origin(h0: float | None) -> tuple[float, float]:
    shift = SQUARE_SIDE / _base_cells(SQUARE_SIDE, h0) / 3.0
    return (-0.25 - shift, -0.25 - shift)


_NORM_TARGETS = ("energy", "h1", "l2")


@dataclass
class StudyConfig:
    """Parameters of one study run; unset fields fall back to defaults."""

    p: int = 1
    levels: int | None = None
    h0: float | None = None
    alpha: float | None = None
    alpha_n: float | None = None
    norm_target: str = "energy"


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


def _default_levels(p: int) -> int:
    return 5 if p <= 2 else 4


def _default_terms(p: int) -> int:
    return 50 if p <= 2 else 100


def _grid(origin, side, h0: float | None, level: int) -> BackgroundGrid:
    n = _base_cells(side, h0) * 2**level
    return BackgroundGrid(origin=origin, h=side / n, nx=n, ny=n)


def _polygon_vertices(h: float) -> int:
    return 64 * math.ceil(1.0 / h)


def _solve_on_polygon(grid, poly, p, ref, params):
    """Classify, assemble, solve, and measure; returns (norms, dofs)."""
    basis = qp_basis(p)
    am = classify_elements(grid, poly)
    system, dofmap = assemble_system(am, basis, params, f=lambda x, y: np.ones_like(x))
    coeffs = solve_spd(system)
    resid = galerkin_residual(system, coeffs)
    if resid > 1e-10 * np.linalg.norm(system.rhs):
        raise SolverError(f"Galerkin residual {resid:.3e} exceeds contract")
    sol = DiscreteSolution(coefficients=coeffs, dofmap=dofmap, basis=basis, am=am)
    norms = compute_error_norms(sol, ref, params=params)
    return norms, dofmap.n_dofs


def _run_levels(cfg: StudyConfig, study: str, build_level) -> list[ConvergenceRecord]:
    levels = cfg.levels if cfg.levels is not None else _default_levels(cfg.p)
    if levels < 1:
        raise ValueError("levels must be at least 1")
    records = []
    for i in range(levels):
        t0 = time.perf_counter()
        try:
            grid, poly, domain, ref = build_level(i)
            params = penalty_parameters(cfg.p)
            geo = measure_geometric_errors(poly, domain)
            norms, dofs = _solve_on_polygon(grid, poly, cfg.p, ref, params)
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
                dofs=dofs,
                err_energy=norms.energy,
                err_h1=norms.h1_semi,
                err_l2=norms.l2,
                wall_time=time.perf_counter() - t0,
            )
        )
    return compute_rates(records)


def _square_study(cfg: StudyConfig, study: str) -> list[ConvergenceRecord]:
    """Unit square perturbed by delta = h^alpha, or exact when alpha is unset."""
    if cfg.p not in (1, 2, 3):
        raise ValueError("p must be 1, 2 or 3")
    if cfg.alpha is not None and not math.isfinite(cfg.alpha):
        raise ValueError(f"alpha must be finite, got {cfg.alpha}")
    ref = ReferenceSolution.square_series(_default_terms(cfg.p))
    domain = UnitSquare()

    def build(level):
        grid = _grid(_square_origin(cfg.h0), SQUARE_SIDE, cfg.h0, level)
        delta = grid.h**cfg.alpha if cfg.alpha is not None else 0.0
        poly = perturb_square_boundary(delta, 16 * math.ceil(1.0 / grid.h))
        return grid, poly, domain, ref

    return _run_levels(cfg, study, build)


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
    if not math.isfinite(cfg.alpha_n):
        raise ValueError(f"alpha_n must be finite, got {cfg.alpha_n}")
    if cfg.norm_target not in _NORM_TARGETS:
        raise ValueError(f"norm_target must be one of {_NORM_TARGETS}")
    exponent = {"energy": cfg.p + 0.5, "h1": float(cfg.p), "l2": cfg.p + 1.0}[
        cfg.norm_target
    ]
    ref = ReferenceSolution.disk_quadratic()
    domain = Disk(center=(0.0, 0.0), radius=1.0)
    h_coarse = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, cfg.h0, 0).h

    def build(level):
        grid = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, cfg.h0, level)
        delta = grid.h**exponent
        freq = oscillation_frequency(cfg.alpha_n, grid.h, h_coarse)
        # Keep the polygon's own chord sag below 0.5% of the amplitude, so
        # the measured location error tracks the nominal delta; for small
        # delta = h^(p+1) the default 64/h vertices are not enough.
        n_sag = math.ceil(2.0 * math.pi / math.sqrt(0.04 * delta)) if delta > 0 else 0
        n_vertices = max(_polygon_vertices(grid.h), 16 * freq, n_sag)
        poly = perturb_circle_boundary(delta, cfg.alpha_n, grid.h, h_coarse, n_vertices)
        return grid, poly, domain, ref

    return _run_levels(cfg, "normal", build)


def run_levelset_study(cfg: StudyConfig) -> list[ConvergenceRecord]:
    """Unit disk described by the zero contour of nodal level-set samples."""
    if cfg.p not in (1, 2):
        raise ValueError("the level-set study uses p = 1 or 2")
    ref = ReferenceSolution.disk_quadratic()
    domain = Disk(center=(0.0, 0.0), radius=1.0)

    def build(level):
        grid = _grid(CIRCLE_ORIGIN, CIRCLE_SIDE, cfg.h0, level)
        poly = extract_levelset_boundary(domain, grid)
        return grid, poly, domain, ref

    return _run_levels(cfg, "levelset", build)


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
