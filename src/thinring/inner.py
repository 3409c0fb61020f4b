"""Core potential trace from the outer's single layer.

The rescaled core problem is

    -div( (1/(1+eps x1)) grad phi ) = 4 (1 + eps x1)   in Omega_theta,
    phi = 0                                            on the boundary,

whose conormal trace feeds the pressure jump through

    lambda = (1/(1+eps x1)) d_n phi  composed with the boundary chart.

The exact polynomial particular part

    phi_p = -(x1^2/2) (2 + eps x1)^2,
    (1/(1+eps x1)) d_1 phi_p = -2 x1 (2 + eps x1),

leaves a homogeneous remainder u, div(rho^-1 grad u) = 0 with
rho = 1 + eps x1, whose Dirichlet data is g = -phi_p.  The outer's ring
kernel G = sqrt(rho rho~) F(s) / (2 pi) is the fundamental solution of that
operator, so Green's representation on the boundary (Kress, *Linear
Integral Equations*, 3rd ed., 2014, ch. 6) gives

    S lam_u = g/2 + D g,   lam_u = rho^-1 d_n u,

with S the single layer (kernel G ds~) that ``outer.assemble_full`` builds
and D the double layer (kernel rho~^-1 d_n~ G ds~).  Then

    lambda = lam_u - 2 n1 x1 (2 + eps x1).

``outer.solve_outer(grid, w, core=True)`` forms D g in the same pass over
the half rows that forms S, and folds S by the reflection symmetry for its
bordered solve; ``solve_inner`` solves the folded (n/2 + 1) system with the
right side g/2 + D g.  There is no interior grid: the core lives on the
boundary grid, so the solver's two-grid check covers its discretization.
Like the outer operator, the trace needs eps > 0.

At theta = 0 the trace tends to lambda = -2 as eps -> 0.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .outer import OuterSolution
from .shape import BoundaryGrid, resample_trig

__all__ = [
    "InnerSolution",
    "solve_inner",
]


class _Diagnostics(Mapping):
    """Read-only mapping whose callable values are computed on first read.

    A repr, a comparison or dict() reads every entry.
    """

    def __init__(self, entries: dict):
        self._entries = entries

    def __getitem__(self, key):
        value = self._entries[key]
        if callable(value):
            value = self._entries[key] = value()
        return value

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return repr(dict(self))


@dataclass(frozen=True)
class InnerSolution:
    """Core potential trace data on a uniform boundary grid."""

    alpha: np.ndarray
    lam: np.ndarray        # (1/(1+eps x1)) d_n phi on the boundary
    diagnostics: Mapping

    def lam_on(self, n: int) -> np.ndarray:
        """Trigonometric resampling of lambda onto an n-point grid."""
        return resample_trig(self.lam, n)


def solve_inner(grid: BoundaryGrid, outer: OuterSolution) -> InnerSolution:
    """Solve the core problem on grid and return its boundary trace.

    outer is ``solve_outer(grid, w, core=True)`` on the same grid, whose
    folded single layer and right side g/2 + D g this solves; any w serves.
    A solution without them raises ValueError.

    Diagnostics hold the mean-flux defect
    ``int lambda m dalpha + 4 (area + eps moment)``, zero in exact
    arithmetic by the divergence theorem, with the area and the moment
    int_Omega x1 as boundary integrals on the grid (exact once n exceeds
    3 times the shape's highest mode plus 2).  It is computed when first
    read, so a residual pays nothing for it.
    """
    if outer.single is None or outer.core_rhs is None:
        raise ValueError("solve_inner needs solve_outer(grid, w, core=True)")
    h = grid.n // 2
    x1 = grid.x1[:h + 1]
    lam = (np.linalg.solve(outer.single, outer.core_rhs)
           - 2.0 * grid.n1[:h + 1] * x1 * (2.0 + grid.eps * x1))
    # unfold the even trace onto alpha_{h+1} .. alpha_{n-1}
    lam = np.concatenate([lam, lam[h - 1:0:-1]])

    def flux_defect():
        # 4 (area + eps moment) = int r^2 (2 + (4/3) eps x1) dalpha
        r2 = (1.0 + grid.theta) ** 2
        return float(grid.weight * np.sum(
            lam * grid.m + r2 * (2.0 + (4.0 / 3.0) * grid.eps * grid.x1)))

    return InnerSolution(alpha=grid.alpha, lam=lam,
                         diagnostics=_Diagnostics({"flux_defect": flux_defect}))
