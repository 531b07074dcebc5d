"""Restriction to the commuting position algebra and its converse lift.

With a trivial (or position-commuting) Hamiltonian and real noise
coefficients, the semigroup leaves bounded functions of the position
operators invariant and acts there as the Ornstein-Uhlenbeck generator

    L f = 1/2 sum_jk Q_jk d_j d_k f - sum_jk (R^T X)_jk q_j d_k f

with X = (V - U)/sqrt(2), R = (V + U)/sqrt(2), Q = X^T X and drift matrix
A = -R^T X.  Conversely any OU generator with non-degenerate diffusion is
the restriction of such a model via X = sqrt(Q), R = -(X^T)^{-1} A^T.

The blocks tie back to the quantum data: -R^T X is the bottom-right d x d
block of the drift realization and 2 X^T X the bottom-right block of cz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDiffusion,
    DimensionMismatch,
    NonCommutingHamiltonian,
    NotRealCoefficients,
)
from .model import GklsModel, _norm

__all__ = ["OuGenerator", "restrict_to_ou", "lift_from_ou", "ou_gap_1d"]

REAL_TOL = 1e-14


@dataclass(frozen=True)
class OuGenerator:
    """Diffusion Q (symmetric PSD) and drift A of an OU generator
    1/2 sum Q_jk d_j d_k + sum A_jk q_j d_k."""

    q_mat: np.ndarray
    a_mat: np.ndarray

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.q_mat, dtype=float))
        a = np.atleast_2d(np.asarray(self.a_mat, dtype=float))
        d = q.shape[0]
        if q.shape != (d, d) or a.shape != (d, d):
            raise DimensionMismatch("Q and A must be square of equal size")
        if _norm(q - q.T) > 1e-12 * max(1.0, _norm(q)):
            raise DimensionMismatch("diffusion matrix must be symmetric")
        if np.linalg.eigvalsh(0.5 * (q + q.T))[0] < -1e-12 * max(1.0, _norm(q)):
            raise DegenerateDiffusion("diffusion matrix must be positive semidefinite")
        object.__setattr__(self, "q_mat", 0.5 * (q + q.T))
        object.__setattr__(self, "a_mat", a)

    @property
    def dim_d(self) -> int:
        return self.q_mat.shape[0]


def restrict_to_ou(model: GklsModel) -> OuGenerator:
    """Restrict a position-compatible model to the position algebra.

    Requires real U, V (imaginary parts below 1e-14) and a Hamiltonian that
    acts trivially on the position algebra: either omega = kappa = 0, or the
    kappa = 2 omega pattern with real omega.
    """
    u, v = model.u_mat, model.v_mat
    if (
        np.max(np.abs(u.imag), initial=0.0) > REAL_TOL
        or np.max(np.abs(v.imag), initial=0.0) > REAL_TOL
    ):
        raise NotRealCoefficients(
            "restriction requires real noise coefficient matrices"
        )
    om, ka = model.omega, model.kappa
    trivial_h = np.max(np.abs(om)) <= REAL_TOL and np.max(np.abs(ka)) <= REAL_TOL
    pattern_h = (
        np.max(np.abs(om.imag), initial=0.0) <= REAL_TOL
        and _norm(ka - 2.0 * om) <= 1e-12 * max(1.0, _norm(om))
    )
    if not (trivial_h or pattern_h):
        raise NonCommutingHamiltonian(
            "Hamiltonian does not act trivially on the position algebra "
            "(need omega = kappa = 0 or kappa = 2 omega with real omega)"
        )
    x = (v.real - u.real) / np.sqrt(2.0)
    r = (v.real + u.real) / np.sqrt(2.0)
    return OuGenerator(q_mat=x.T @ x, a_mat=-(r.T @ x))


def lift_from_ou(ou: OuGenerator) -> GklsModel:
    """Model with d noise channels whose position restriction is the given
    OU generator; requires Q strictly positive definite."""
    q, a = ou.q_mat, ou.a_mat
    evals, evecs = np.linalg.eigh(q)
    if evals[0] <= 1e-12 * max(evals[-1], 0.0):
        raise DegenerateDiffusion(
            f"diffusion matrix is singular (min eig {evals[0]:.3e}); "
            "degenerate lifts are unsupported"
        )
    x = (evecs * np.sqrt(evals)) @ evecs.T
    r = -np.linalg.solve(x.T, a.T)
    d = q.shape[0]
    u = (r - x) / np.sqrt(2.0)
    v = (r + x) / np.sqrt(2.0)
    return GklsModel(
        d=d,
        m=d,
        omega=np.zeros((d, d), dtype=complex),
        kappa=np.zeros((d, d), dtype=complex),
        u_mat=u.astype(complex),
        v_mat=v.astype(complex),
        zeta=np.zeros(d, dtype=complex),
    )


def ou_gap_1d(ou: OuGenerator) -> float:
    """Spectral gap of a contracting one-dimensional OU generator: the decay
    rate -A of the drift.  Only defined for d = 1 with A < 0."""
    if ou.dim_d != 1:
        raise DimensionMismatch("closed-form OU gap implemented for d = 1 only")
    a = float(ou.a_mat[0, 0])
    if a >= 0:
        raise ValueError("OU generator is not contracting (drift >= 0)")
    return -a
