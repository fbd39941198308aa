"""Convex feasible regions, Euclidean projections, and the regularized gap.

The per-iteration subproblem

    min_{y in X}  <z, y - x> + (rho/2) ||y - x||^2

has the closed-form solution ``y = project(x - z/rho)``, and its optimal
value is the gap ``eta(x, z) <= 0`` used both by the solver and as a
stationarity certificate: ``eta = 0`` exactly when ``x`` is a fixed point
of the projected step with certificate ``z``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import ProjectionError
from .oracles import check_count

# Polytope.project: a row counts as violated beyond this multiple of the
# iterate's scale, and a new row whose part orthogonal to the active rows has
# squared norm at most _DEPENDENT_SQ (rows are unit vectors) counts as
# linearly dependent on them.
_VIOLATION_TOL = 1e-13
_DEPENDENT_SQ = 1e-14


def _require_finite(**arrays):
    """Raise ValueError naming the first array with a NaN or infinite entry."""
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")


class FeasibleSet(ABC):
    """A nonempty convex compact region of R^dim with a Euclidean projection."""

    dim: int

    @abstractmethod
    def project(self, v: np.ndarray) -> np.ndarray:
        """Return argmin_{y in X} ||y - v||."""

    def project_rows(self, v: np.ndarray) -> np.ndarray:
        """project(v) for one row (shape (dim,)) or for each row of a block (shape (R, dim)).

        The default projects a block's rows one at a time.
        """
        if v.ndim == 1:
            return self.project(v)
        return np.array([self.project(row) for row in v])

    @abstractmethod
    def anchor(self) -> np.ndarray:
        """A canonical feasible point (interior whenever the set has one)."""


class Box(FeasibleSet):
    """Axis-aligned box {lo <= y <= hi}."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must have the same shape")
        if not np.all(self.lo <= self.hi):  # also rejects NaN
            raise ValueError("empty box: lo > hi componentwise, or a NaN bound")
        _require_finite(lo=self.lo, hi=self.hi)
        self.dim = self.lo.size

    def project(self, v):
        return np.minimum(np.maximum(v, self.lo), self.hi)

    def project_rows(self, v):
        return self.project(v)  # clipping takes a whole block at once

    def anchor(self):
        return 0.5 * (self.lo + self.hi)


class Ball(FeasibleSet):
    """Euclidean ball {||y - center|| <= radius}."""

    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if not 0 < self.radius < math.inf or not np.isfinite(self.center).all():  # and NaN
            raise ValueError("radius must be positive and finite, and the center finite")
        self.dim = self.center.size

    def project(self, v):
        d = v - self.center
        r = float(np.linalg.norm(d))
        if r <= self.radius:
            return np.asarray(v, dtype=float)
        return self.center + d * (self.radius / r)

    def anchor(self):
        return self.center.copy()


class Simplex(FeasibleSet):
    """Scaled probability simplex {y >= 0, sum(y) = scale}."""

    def __init__(self, dim: int, scale: float = 1.0):
        check_count("dim", dim, least=1)
        self.dim = int(dim)
        self.scale = float(scale)
        if not 0 < self.scale < math.inf:  # also rejects NaN
            raise ValueError("scale must be positive and finite")

    def project(self, v):
        # sort-and-threshold (Duchi et al., ICML 2008) on Python floats: the
        # running sum adds left to right as np.cumsum does, and the threshold
        # is the last candidate below its sorted entry
        v = np.asarray(v, dtype=float)
        scale = self.scale
        total, theta = 0.0, None
        for i, ui in enumerate(sorted(v.tolist(), reverse=True), 1):
            total += ui
            t = (total - scale) / i
            if ui > t:
                theta = t
        if theta is None or not math.isfinite(total):
            raise ProjectionError("simplex projection needs a finite vector whose "
                                  "entries are not too large for the scale")
        return np.maximum(v - theta, 0.0)

    def anchor(self):
        return np.full(self.dim, self.scale / self.dim)


class Polytope(FeasibleSet):
    """Halfspace intersection {A y <= b}, projected exactly by a dual active-set method.

    Nonemptiness is certified by a required interior point.  ``project`` is
    the dual method of Goldfarb & Idnani (Math. Prog. 27, 1983) with the
    identity Hessian.  It starts from y = v, which minimizes the distance
    with no constraint, and adds the most violated halfspace.  When the new
    row lies in the span of the active rows it takes a pure dual step and
    drops the row whose multiplier would turn negative, so the active rows
    stay linearly independent.  Every step keeps y = v - A_W^T lam with
    lam >= 0 and the active rows tight; the method stops when no halfspace
    is violated beyond rounding, which makes y the exact projection.  It
    keeps no state between calls.  Each add or drop is one step; after
    10 (m + n) steps (steps cycling at a degenerate vertex) it raises
    ProjectionError.
    """

    def __init__(self, A, b, interior_point):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        self.interior_point = np.atleast_1d(np.asarray(interior_point, dtype=float))
        if self.A.shape[0] != self.b.size:
            raise ValueError("A and b row counts differ")
        if self.A.shape[1] != self.interior_point.size:
            raise ValueError("interior point dimension mismatch")
        _require_finite(A=self.A, b=self.b, interior_point=self.interior_point)
        slack = self.A @ self.interior_point - self.b
        if np.any(slack > 1e-12):
            raise ValueError("provided point is not inside the polytope")
        self.dim = self.A.shape[1]
        norms = np.sqrt(np.einsum("ij,ij->i", self.A, self.A))
        if np.any(norms == 0):
            raise ValueError("zero rows in A are not allowed")
        # unit normals: a row's violation is then the distance to its halfspace
        self._U = self.A / norms[:, None]
        self._c = self.b / norms
        self._c_scale = float(np.max(np.abs(self._c)))
        self._max_steps = 10 * (self.A.shape[0] + self.dim)

    def project(self, v):
        v = np.asarray(v, dtype=float)
        U, c = self._U, self._c
        tol = _VIOLATION_TOL * (1.0 + self._c_scale + float(np.max(np.abs(v))))
        y = v.copy()
        active: list[int] = []  # linearly independent rows, tight at y
        lam: list[float] = []   # their multipliers, all >= 0
        p, lam_p = -1, 0.0      # the row being added and its multiplier so far
        for _ in range(self._max_steps):
            if p < 0:
                s = U @ y - c
                p = int(s.argmax())
                if s[p] <= tol:
                    return y
                lam_p = 0.0
            n_p = U[p]
            # split n_p into its part N^T r in the span of the active rows
            # and the orthogonal rest z
            if active:
                N = U[active]
                r = np.linalg.solve(N @ N.T, N @ n_p)
                z = n_p - r @ N
                r = r.tolist()
            else:
                r, z = [], n_p
            # moving y - t z, lam - t r, lam_p + t keeps y = v - A_W^T lam and
            # the active rows tight; t_add makes row p tight, t_drop zeroes the
            # first multiplier that would turn negative
            zz = float(z @ z)
            t_add = float(n_p @ y - c[p]) / zz if zz > _DEPENDENT_SQ else np.inf
            t_drop, j = np.inf, -1
            for i, (li, ri) in enumerate(zip(lam, r)):
                if ri > 0.0 and li / ri < t_drop:
                    t_drop, j = li / ri, i
            if j < 0 and t_add == np.inf:
                raise ProjectionError(
                    f"polytope projection stalled: row {p} lies in the span of the "
                    "active rows and no active multiplier can decrease")
            t = min(t_add, t_drop)
            y = y - t * z
            lam = [li - t * ri for li, ri in zip(lam, r)]
            lam_p += t
            if t_add <= t_drop:
                active.append(p)
                lam.append(lam_p)
                p = -1
            else:
                del active[j], lam[j]
        raise ProjectionError(
            f"polytope projection did not finish in {self._max_steps} active-set steps")

    def anchor(self):
        return self.interior_point.copy()


class CustomSet(FeasibleSet):
    """A set given only through a user projection callback."""

    def __init__(self, dim: int, project_fn, anchor_point=None):
        check_count("dim", dim, least=1)
        self.dim = int(dim)
        self._project_fn = project_fn
        self._anchor = (np.zeros(dim) if anchor_point is None
                        else np.asarray(anchor_point, dtype=float))

    def project(self, v):
        return np.asarray(self._project_fn(np.asarray(v, dtype=float)), dtype=float)

    def anchor(self):
        return self._anchor.copy()


def gap(feasible_set: FeasibleSet, x: np.ndarray, z: np.ndarray,
        rho: float) -> float:
    """Optimal value of the regularized subproblem; always <= 0.

    The minimizer of <z, y-x> + (rho/2)||y-x||^2 over the set is the
    projection of x - z/rho.  The value is zero exactly when x is already the subproblem minimizer, which is the
    stationarity certificate used throughout.
    """
    d = feasible_set.project(x - z / rho) - x
    return float(z @ d) + 0.5 * rho * float(d @ d)
