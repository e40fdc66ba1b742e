"""Spans and counts around the public functions of each cutpoisson module.

The traced run patches module-level names from outside the package, in the
namespace where the caller looks them up: ``studies`` for the calls a study
level makes, ``assembly`` for the stages of ``assemble_system`` and
``solver`` for the second rule builds and the reference evaluations inside
``compute_error_norms``. Nothing inside ``src/`` changes.

A level starts when the study calls its polygon builder, the first call of
every level, and ends at the next one or when the study calls
``compute_rates`` after its last level. The root span is the whole command;
its own time and that of the level spans is the study glue that no layer span
covers (``studies.self_s``). Every span's self time is its duration minus
that of its direct children, so the self times of all spans add up to the
root span's duration.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

STUDY_SELF = "studies.self_s"
FINEST_LEVEL = "studies.finest_level_s"

# Every per-layer metric of the traced run, in report order.
SELF_METRICS = (
    "geometry.polygon_s",
    "geometry.measure_s",
    "mesh.classify_s",
    "quadrature.volume_rules_s",
    "quadrature.boundary_rules_s",
    "assembly.dofmap_s",
    "assembly.bulk_s",
    "assembly.nitsche_s",
    "assembly.ghost_s",
    "solver.solve_s",
    "solver.reference_s",
    "solver.norms_s",
    STUDY_SELF,
)
COUNT_METRICS = (
    "geometry.vertices",
    "mesh.cut_cells",
    "mesh.ghost_faces",
    "quadrature.volume_rule_builds",
    "quadrature.cut_points",
    "quadrature.boundary_points",
    "basis.eval_calls",
    "assembly.dofs",
    "assembly.nnz",
    "solver.reference_points",
)


class Tracer:
    """Spans and counts of one study, kept in memory until it ends.

    A span is a dict with its layer ``metric``, the function ``name``, the
    ``level`` it ran in, the id of its ``parent`` span, and ``start``/``end``
    clock readings. ``clock`` lets a test substitute a fake clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.counts: list[tuple[int, str, int]] = []
        self.level = -1
        self._stack: list[dict] = []
        self._level_span: dict | None = None

    def _open(self, metric: str, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "metric": metric,
            "name": name,
            "level": self.level,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        # Closes the spans still open above ``span`` too, which only happens
        # when an exception unwinds through a level.
        end = self.clock()
        while self._stack:
            top = self._stack.pop()
            top["end"] = end
            if top is span:
                return

    @contextmanager
    def span(self, metric: str, name: str):
        opened = self._open(metric, name)
        try:
            yield
        finally:
            self._close(opened)

    def start_level(self) -> None:
        self.end_level()
        self.level += 1
        self._level_span = self._open(STUDY_SELF, "level")

    def end_level(self) -> None:
        if self._level_span is not None:
            self._close(self._level_span)
            self._level_span = None

    def count(self, name: str, value: int) -> None:
        self.counts.append((self.level, name, int(value)))

    def run(self, fn, *args):
        """Call ``fn(*args)`` under the root span and return its result."""
        with self.span(STUDY_SELF, "study"):
            return fn(*args)

    def self_times(self) -> list[tuple[dict, float]]:
        """(span, duration minus the durations of its direct children)."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] += s["end"] - s["start"]
        return [(s, s["end"] - s["start"] - children[s["id"]]) for s in self.spans]

    def level_reports(self) -> list[dict]:
        """One object per level: its duration, spans, self times and counts."""
        reports = [
            {
                "level": i,
                "level_s": 0.0,
                "spans": [],
                "self_s": dict.fromkeys(SELF_METRICS, 0.0),
                "counts": dict.fromkeys(COUNT_METRICS, 0),
            }
            for i in range(self.level + 1)
        ]
        for s, own in self.self_times():
            if s["level"] < 0:
                continue
            rep = reports[s["level"]]
            rep["self_s"][s["metric"]] += own
            rep["spans"].append({k: s[k] for k in ("id", "name", "parent", "start", "end")})
            if s["name"] == "level":
                rep["level_s"] = s["end"] - s["start"]
        for level, name, value in self.counts:
            if level >= 0:
                reports[level]["counts"][name] += value
        return reports

    def totals(self) -> dict:
        """Per-layer metrics of the whole study: self times and counts summed
        over levels, plus the duration of the finest level."""
        out = dict.fromkeys(SELF_METRICS, 0.0)
        for s, own in self.self_times():
            out[s["metric"]] += own
        out.update(dict.fromkeys(COUNT_METRICS, 0))
        for _, name, value in self.counts:
            out[name] += value
        levels = [s for s in self.spans if s["name"] == "level"]
        out[FINEST_LEVEL] = levels[-1]["end"] - levels[-1]["start"] if levels else 0.0
        return out

    def study_s(self) -> float:
        root = self.spans[0]
        return root["end"] - root["start"]


def _qualname(fn) -> str:
    return fn.__module__ + "." + fn.__qualname__


def _n_points(points) -> int:
    return len(np.atleast_2d(np.asarray(points)))


def _counted(tracer: Tracer, counts, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        for count_name, get in counts:
            tracer.count(count_name, get(args, out))
        return out

    return wrapper


def _timed(tracer: Tracer, metric: str, name: str, fn, counts=()):
    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        with tracer.span(metric, name):
            return fn(*args, **kwargs)

    return _counted(tracer, counts, spanned)


def _level_start(tracer: Tracer, name: str, fn):
    timed = _timed(
        tracer,
        "geometry.polygon_s",
        name,
        fn,
        [("geometry.vertices", lambda a, poly: poly.n_vertices)],
    )

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.start_level()
        return timed(*args, **kwargs)

    return wrapper


def _level_end(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.end_level()
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer):
    """Wrap the layer boundaries with spans and counts; returns the undo."""
    from cutpoisson import assembly, solver, studies

    volume_counts = [
        ("quadrature.volume_rule_builds", lambda a, r: 1),
        ("quadrature.cut_points", lambda a, r: sum(q.weights.size for q in r.cut.values())),
    ]
    boundary_counts = [
        ("quadrature.boundary_points", lambda a, r: sum(q.weights.size for q in r.values())),
    ]
    reference_counts = [("solver.reference_points", lambda a, r: _n_points(a[1]))]
    eval_counts = [("basis.eval_calls", lambda a, r: 1)]

    def timed(metric, counts=()):
        return lambda fn: _timed(tracer, metric, _qualname(fn), fn, counts)

    patches = [
        (studies, name, lambda fn: _level_start(tracer, _qualname(fn), fn))
        for name in (
            "perturb_square_boundary",
            "perturb_circle_boundary",
            "extract_levelset_boundary",
        )
    ]
    patches += [
        (studies, "compute_rates", lambda fn: _level_end(tracer, fn)),
        (studies, "measure_geometric_errors", timed("geometry.measure_s")),
        (
            studies,
            "classify_elements",
            timed(
                "mesh.classify_s",
                [
                    ("mesh.cut_cells", lambda a, am: len(am.cut_ids)),
                    ("mesh.ghost_faces", lambda a, am: len(am.ghost_faces_arr)),
                ],
            ),
        ),
        (
            studies,
            "assemble_system",
            lambda fn: _counted(tracer, [("assembly.nnz", lambda a, r: r[0].matrix.nnz)], fn),
        ),
        (studies, "solve_spd", timed("solver.solve_s")),
        (studies, "compute_error_norms", timed("solver.norms_s")),
        (
            assembly,
            "build_dofmap",
            timed("assembly.dofmap_s", [("assembly.dofs", lambda a, d: d.n_dofs)]),
        ),
        (assembly, "build_volume_rules", timed("quadrature.volume_rules_s", volume_counts)),
        (assembly, "build_boundary_rules", timed("quadrature.boundary_rules_s", boundary_counts)),
        (assembly, "assemble_bulk", timed("assembly.bulk_s")),
        (assembly, "assemble_nitsche_boundary", timed("assembly.nitsche_s")),
        (assembly, "assemble_ghost_penalty", timed("assembly.ghost_s")),
        (assembly, "eval_basis", lambda fn: _counted(tracer, eval_counts, fn)),
        (solver, "build_volume_rules", timed("quadrature.volume_rules_s", volume_counts)),
        (solver, "build_boundary_rules", timed("quadrature.boundary_rules_s", boundary_counts)),
        (solver, "eval_basis", lambda fn: _counted(tracer, eval_counts, fn)),
        (solver.ReferenceSolution, "value", timed("solver.reference_s", reference_counts)),
        (solver.ReferenceSolution, "gradient", timed("solver.reference_s", reference_counts)),
    ]
    originals = []
    try:
        for owner, name, wrap in patches:
            original = getattr(owner, name)
            setattr(owner, name, wrap(original))
            originals.append((owner, name, original))
    except BaseException:
        _restore(originals)
        raise
    return lambda: _restore(originals)


def _restore(originals) -> None:
    for owner, name, original in reversed(originals):
        setattr(owner, name, original)
