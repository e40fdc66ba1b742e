"""The benchmark's workloads: three full convergence studies of the paper.

Each workload is the command line of one study, run through the public
``cutpoisson`` entry point. The inputs are fixed by the paper's set-up, so no
seed changes them. The level count is pinned to the default of 5 so that the
work measured stays the same if the default changes.

- ``delta-p2``: perturbed unit square, p = 2, delta = h^2.5. The 50-term
  series reference takes about half the time and the square's LU has low
  fill. It shows reference and error-norm work; a solver change should not
  move it.
- ``normal-l2``: perturbed unit circle with delta = h^3 and a frequency that
  grows as 1/h. Its polygon has about 21k vertices at the finest level, so
  per-cell clipping in the cut volume rules dominates and the reference
  (a quadratic) costs nothing. A reference change should not move it.
- ``levelset-p2``: marching-triangles contour of the unit disk, p = 2. The
  disk's LU fill makes the sparse solve the largest stage, and it is the only
  workload whose polygon build (contour extraction) costs anything. A
  reference change should not move it.
"""

LEVELS = 5

WORKLOADS = {
    "delta-p2": ("delta-study", "--p", "2", "--alpha", "2.5"),
    "normal-l2": ("normal-study", "--alpha-n", "1", "--norm", "l2"),
    "levelset-p2": ("levelset-study", "--p", "2"),
}


def cli_argv(name: str, out_csv: str, levels: int = LEVELS) -> list[str]:
    """The ``cutpoisson`` command line of a workload, writing its CSV to out_csv."""
    return [*WORKLOADS[name], "--levels", str(levels), "--out", out_csv]
