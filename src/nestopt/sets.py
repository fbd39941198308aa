"""Convex feasible regions, Euclidean projections, and the regularized gap.

The per-iteration subproblem

    min_{y in X}  <z, y - x> + (rho/2) ||y - x||^2

has the closed-form solution ``y = project(x - z/rho)``, and its optimal
value is the gap ``eta(x, z) <= 0`` used both by the solver and as a
stationarity certificate: ``eta = 0`` exactly when ``x`` is a fixed point
of the projected step with certificate ``z``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import ProjectionError


class FeasibleSet(ABC):
    """A nonempty convex compact region of R^dim with a Euclidean projection."""

    dim: int

    @abstractmethod
    def project(self, v: np.ndarray) -> np.ndarray:
        """Return argmin_{y in X} ||y - v||."""

    @abstractmethod
    def anchor(self) -> np.ndarray:
        """A canonical feasible point (interior whenever the set has one)."""

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """Draw a feasible point; almost surely not a vertex of the set."""
        p = self.project(self.anchor() + rng.standard_normal(self.dim))
        return self.anchor() + rng.uniform(0.05, 0.95) * (p - self.anchor())

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        v = np.asarray(v, dtype=float)
        return float(np.linalg.norm(self.project(v) - v)) <= tol

    def diameter(self) -> float:
        """An upper bound on max ||y - y'|| over the set; inf when unknown."""
        return float("inf")

    def sup_norm(self) -> float:
        """An upper bound on max ||y|| over the set; inf when unknown."""
        return float(np.linalg.norm(self.anchor())) + self.diameter()


class Box(FeasibleSet):
    """Axis-aligned box {lo <= y <= hi}."""

    def __init__(self, lo, hi):
        self.lo = np.atleast_1d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo and hi must have the same shape")
        if np.any(self.lo > self.hi):
            raise ValueError("empty box: lo > hi componentwise")
        self.dim = self.lo.size

    def project(self, v):
        return np.minimum(np.maximum(v, self.lo), self.hi)

    def anchor(self):
        return 0.5 * (self.lo + self.hi)

    def random_point(self, rng):
        return self.lo + (self.hi - self.lo) * rng.random(self.dim)

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def sup_norm(self):
        return float(np.linalg.norm(np.maximum(np.abs(self.lo), np.abs(self.hi))))


class Ball(FeasibleSet):
    """Euclidean ball {||y - center|| <= radius}."""

    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self.dim = self.center.size

    def project(self, v):
        d = v - self.center
        r = float(np.linalg.norm(d))
        if r <= self.radius:
            return np.asarray(v, dtype=float)
        return self.center + d * (self.radius / r)

    def anchor(self):
        return self.center.copy()

    def random_point(self, rng):
        # uniform in the ball: gaussian direction, radius ~ U^(1/dim)
        g = rng.standard_normal(self.dim)
        g /= max(np.linalg.norm(g), 1e-300)
        return self.center + self.radius * rng.random() ** (1.0 / self.dim) * g

    def diameter(self):
        return 2.0 * self.radius

    def sup_norm(self):
        return float(np.linalg.norm(self.center)) + self.radius


class Simplex(FeasibleSet):
    """Scaled probability simplex {y >= 0, sum(y) = scale}."""

    def __init__(self, dim: int, scale: float = 1.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = int(dim)
        self.scale = float(scale)
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    def project(self, v):
        # sort-and-threshold; ties resolved by the deterministic threshold
        u = np.sort(v)[::-1]
        css = (np.cumsum(u) - self.scale) / np.arange(1, self.dim + 1)
        k = np.nonzero(u > css)[0][-1]
        return np.maximum(v - css[k], 0.0)

    def anchor(self):
        return np.full(self.dim, self.scale / self.dim)

    def random_point(self, rng):
        return self.scale * rng.dirichlet(np.ones(self.dim))

    def diameter(self):
        return self.scale * np.sqrt(2.0)

    def sup_norm(self):
        return self.scale


class Polytope(FeasibleSet):
    """Halfspace intersection {A y <= b}, projected by Dykstra's algorithm.

    Nonemptiness is certified by a required interior point.  Dykstra's
    alternating projections onto the individual halfspaces converge to the
    exact Euclidean projection for polyhedra; the sweep loop stops when the
    iterate moves less than ``tol`` (sup-norm) in a full sweep.
    """

    def __init__(self, A, b, interior_point, tol: float = 1e-12,
                 max_sweeps: int = 10_000):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.b = np.atleast_1d(np.asarray(b, dtype=float))
        self.interior_point = np.atleast_1d(np.asarray(interior_point, dtype=float))
        if self.A.shape[0] != self.b.size:
            raise ValueError("A and b row counts differ")
        if self.A.shape[1] != self.interior_point.size:
            raise ValueError("interior point dimension mismatch")
        slack = self.A @ self.interior_point - self.b
        if np.any(slack > 1e-12):
            raise ValueError("provided point is not inside the polytope")
        self.dim = self.A.shape[1]
        self.tol = float(tol)
        self.max_sweeps = int(max_sweeps)
        self._row_sq = np.einsum("ij,ij->i", self.A, self.A)
        if np.any(self._row_sq == 0):
            raise ValueError("zero rows in A are not allowed")

    def project(self, v):
        v = np.asarray(v, dtype=float)
        m = self.A.shape[0]
        y = v.copy()
        corr = np.zeros((m, self.dim))
        for _ in range(self.max_sweeps):
            delta = 0.0
            for i in range(m):
                w = y + corr[i]
                viol = float(self.A[i] @ w - self.b[i])
                if viol > 0.0:
                    y_new = w - (viol / self._row_sq[i]) * self.A[i]
                else:
                    y_new = w
                corr[i] = w - y_new
                delta = max(delta, float(np.max(np.abs(y_new - y))))
                y = y_new
            if delta <= self.tol:
                return y
        raise ProjectionError(
            f"Dykstra projection did not converge in {self.max_sweeps} sweeps"
        )

    def anchor(self):
        return self.interior_point.copy()


class CustomSet(FeasibleSet):
    """A set given only through a user projection callback."""

    def __init__(self, dim: int, project_fn, anchor_point=None):
        self.dim = int(dim)
        self._project_fn = project_fn
        self._anchor = (np.zeros(dim) if anchor_point is None
                        else np.asarray(anchor_point, dtype=float))

    def project(self, v):
        return np.asarray(self._project_fn(np.asarray(v, dtype=float)), dtype=float)

    def anchor(self):
        return self._anchor.copy()


def solve_subproblem(feasible_set: FeasibleSet, x: np.ndarray, z: np.ndarray,
                     rho: float) -> np.ndarray:
    """Minimizer of <z, y-x> + (rho/2)||y-x||^2 over the set.

    Equals the projection of ``x - z/rho``; homogeneous in (z, rho) jointly.
    """
    return feasible_set.project(x - z / rho)


def gap(feasible_set: FeasibleSet, x: np.ndarray, z: np.ndarray,
        rho: float) -> float:
    """Optimal value of the regularized subproblem; always <= 0.

    Zero exactly when x is already the subproblem minimizer, which is the
    stationarity certificate used throughout.
    """
    d = solve_subproblem(feasible_set, x, z, rho) - x
    return float(z @ d) + 0.5 * rho * float(d @ d)
