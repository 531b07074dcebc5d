"""Invariant Gaussian state: Lyapunov solve, Williamson data, faithfulness.

For a stable drift the invariant state has mean mu solving Z# mu = zeta and
covariance (in 2d coordinates) solving the continuous Lyapunov equation

    Z2d^T S + S Z2d = -C2d.

Faithfulness of the state is positivity of s_tilde = S + iJ, equivalently all
symplectic eigenvalues sigma_j of S exceeding 1; it is decided by whether the
matrix roots the gaps need exist at the relative margin ROOT_MARGIN of the
matrix-root helper.  The second covariance
s_breve = M^T diag(nu, nu) M with nu_j = sqrt(sigma_j^2 - 1) shares the
symplectic eigenbasis of S and drives the square-root-split embedding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import schur, solve_continuous_lyapunov

from .errors import (
    NotFaithful,
    NotPositiveDefinite,
    SingularLyapunov,
    Unstable,
)
from .model import DriftDiffusion
from .realops import hermitian_root_pair, jmat, unvec2d, vec2d

__all__ = [
    "StationaryData",
    "require_stable",
    "solve_stationary",
    "williamson",
    "kms_covariance",
]


@dataclass(frozen=True)
class StationaryData:
    mu: np.ndarray
    s2d: np.ndarray
    s_tilde: np.ndarray
    faithful: bool
    sympl_m: np.ndarray
    sigma: np.ndarray
    s_breve: Optional[np.ndarray]
    nu: Optional[np.ndarray]
    #: (s_tilde^{1/2}, s_tilde^{-1/2}) of a faithful state, else None
    tilde_roots: Optional[tuple]
    #: (s_breve^{1/2}, s_breve^{-1/2}) of a faithful state, else None
    breve_roots: Optional[tuple]

    @property
    def dim_d(self) -> int:
        return self.mu.shape[0]

    @property
    def det_s_tilde(self) -> float:
        return float(np.linalg.det(self.s_tilde).real)


def _solve_lyapunov(z2d, c2d):
    """Solve Z^T S + S Z = -C by Bartels-Stewart: a real Schur factorization
    of Z^T and a quasi-triangular Sylvester solve, O(n^3) in n = 2d."""
    with warnings.catch_warnings():
        # trsyl warns when it has to perturb an eigenvalue pair of Z whose
        # sum is ~0: the operator is then singular at working precision
        warnings.simplefilter("error", RuntimeWarning)
        try:
            s = solve_continuous_lyapunov(z2d.T, -c2d)
        except (np.linalg.LinAlgError, ValueError, RuntimeWarning) as exc:
            raise SingularLyapunov(f"Lyapunov system is singular: {exc}") from exc
    s = 0.5 * (s + s.T)
    resid = np.linalg.norm(z2d.T @ s + s @ z2d + c2d)
    # normwise backward error: the residual of any solve in floating point
    # grows like eps * |Z| * |S|, and |S| grows like 1 / (decay rate)
    scale = max(
        1.0, np.linalg.norm(c2d), 2.0 * np.linalg.norm(z2d) * np.linalg.norm(s)
    )
    if resid > 1e-10 * scale:
        raise SingularLyapunov(
            f"Lyapunov solve is numerically defective (residual {resid:.3e})"
        )
    return s


def require_stable(dd: DriftDiffusion) -> None:
    """Raise Unstable unless the drift has an invariant Gaussian state."""
    if not dd.is_stable:
        raise Unstable(
            f"drift has spectral abscissa {dd.abscissa:.6g}, not below "
            f"-{dd.stable_tol:.6g} (1e-12 * max(1, |Z|_2)); "
            "no invariant Gaussian state"
        )


def solve_stationary(dd: DriftDiffusion, zeta=None) -> StationaryData:
    """Invariant mean and covariance plus faithfulness/Williamson data.

    Raises Unstable when the drift spectrum meets the closed right half
    plane and SingularLyapunov when the linear solves are defective.
    """
    require_stable(dd)
    d = dd.dim_d
    if zeta is None:
        zeta = np.zeros(d, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex).ravel()
    z2d = dd.z2d
    s2d = _solve_lyapunov(z2d, dd.c2d)
    # Z# mu = zeta, on realizations a plain linear system with Z2d^T.
    mu = unvec2d(np.linalg.solve(z2d.T, vec2d(zeta)))

    j = jmat(d)
    s_tilde = s2d.astype(complex) + 1j * j
    s_tilde = 0.5 * (s_tilde + s_tilde.conj().T)

    sympl_m, sigma = williamson(s2d)
    # Faithful means that every root the gaps take exists at ROOT_MARGIN, so
    # no gap can fail on a state called faithful.  In exact arithmetic the
    # s_tilde root decides it: s_breve is the operator geometric mean of
    # s_tilde and its conjugate, so its spectrum lies within s_tilde's.
    try:
        tilde_roots = hermitian_root_pair(s_tilde)
        s_breve, nu = kms_covariance(sympl_m, sigma)
        breve_roots = hermitian_root_pair(s_breve)
    except (NotPositiveDefinite, NotFaithful):
        tilde_roots = breve_roots = s_breve = nu = None
    return StationaryData(
        mu=mu,
        s2d=s2d,
        s_tilde=s_tilde,
        faithful=tilde_roots is not None,
        sympl_m=sympl_m,
        sigma=sigma,
        s_breve=s_breve,
        nu=nu,
        tilde_roots=tilde_roots,
        breve_roots=breve_roots,
    )


def williamson(s2d):
    """Symplectic diagonalization S = M^T diag(sigma, sigma) M with
    M^T J M = J.

    Uses the antisymmetric Schur form of sqrt(S) J sqrt(S): each 2x2
    rotation block carries one symplectic eigenvalue.  sigma is returned
    sorted ascending; the in-block orientation is fixed so the (q-like,
    p-like) column order realizes +sigma in the upper right.
    """
    s2d = np.asarray(s2d, dtype=float)
    n = s2d.shape[0]
    if s2d.shape != (n, n) or n % 2:
        raise NotPositiveDefinite("covariance must be a square matrix of even size")
    if np.linalg.norm(s2d - s2d.T) > 1e-10 * max(1.0, np.linalg.norm(s2d)):
        raise NotPositiveDefinite("covariance must be symmetric")
    d = n // 2
    root, _ = hermitian_root_pair(s2d)
    j = jmat(d)
    k = root @ j @ root
    k = 0.5 * (k - k.T)
    t, q = schur(k, output="real")

    blocks = []
    i = 0
    while i < n:
        if i + 1 >= n or abs(t[i + 1, i]) <= 1e-12 * max(1.0, abs(t[i, i + 1])):
            raise NotPositiveDefinite(
                "symplectic spectrum is numerically singular"
            )
        theta = 0.5 * (t[i, i + 1] - t[i + 1, i])
        u_col, v_col = q[:, i], q[:, i + 1]
        if theta < 0:
            theta, u_col, v_col = -theta, v_col, u_col
        blocks.append((theta, u_col, v_col))
        i += 2
    blocks.sort(key=lambda b: b[0])
    sigma = np.array([b[0] for b in blocks])
    q_ordered = np.column_stack([b[1] for b in blocks] + [b[2] for b in blocks])
    d_inv_root = np.concatenate([1.0 / np.sqrt(sigma)] * 2)
    m = (d_inv_root[:, None] * q_ordered.T) @ root
    return m, sigma


def kms_covariance(sympl_m, sigma):
    """Second covariance M^T diag(nu, nu) M with nu_j = sqrt(sigma_j^2 - 1).

    Requires a faithful state (all sigma_j > 1); nu_j is csch(arccoth sigma_j)
    written through the hyperbolic identity.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.min(sigma) <= 1.0:
        raise NotFaithful(
            f"state is not faithful (min symplectic eigenvalue {np.min(sigma):.6g} <= 1)"
        )
    nu = np.sqrt(sigma**2 - 1.0)
    d_nu = np.concatenate([nu, nu])
    s_breve = sympl_m.T @ (d_nu[:, None] * sympl_m)
    return 0.5 * (s_breve + s_breve.T), nu
