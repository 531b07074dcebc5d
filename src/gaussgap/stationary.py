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

solve_stationary_stack and williamson_stack do the same for a stack of
models at once; see their docstrings for how they differ in method.
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
    raise_first,
)
from .model import DriftDiffusion, DriftDiffusionStack, EntryStack
from .realops import (
    hermitian_root_pair,
    hermitian_root_pairs,
    jmat,
    unvec2d,
    vec2d,
)

__all__ = [
    "StationaryData",
    "StationaryStack",
    "require_stable",
    "solve_stationary",
    "solve_stationary_stack",
    "williamson",
    "williamson_stack",
    "kms_covariance",
]


@dataclass(frozen=True)
class StationaryData:
    mu: np.ndarray
    s2d: np.ndarray
    s_tilde: np.ndarray
    faithful: bool
    #: Williamson data; None when the condition of s2d exceeds
    #: 1 / ROOT_MARGIN, so that s2d has no root at that margin (the state
    #: then counts as not faithful)
    sympl_m: Optional[np.ndarray]
    sigma: Optional[np.ndarray]
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


@dataclass(frozen=True)
class StationaryStack(EntryStack):
    """The covariance fields of StationaryData for N models, each with a
    leading axis of length N; faithful is a boolean array, and s_breve and
    the roots are NaN at the entries whose state is not faithful."""

    s2d: np.ndarray
    faithful: np.ndarray
    sigma: np.ndarray
    s_breve: np.ndarray
    tilde_roots: tuple
    breve_roots: tuple


def _check_lyapunov_residual(z2d, c2d, s):
    """Raise SingularLyapunov unless S (or each S of a stack) solves
    Z^T S + S Z = -C to a normwise backward error of 1e-10."""
    resid = np.linalg.norm(z2d.swapaxes(-1, -2) @ s + s @ z2d + c2d, axis=(-2, -1))
    # the residual of any solve in floating point grows like
    # eps * |Z| * |S|, and |S| grows like 1 / (decay rate)
    fro_z, fro_c, fro_s = (np.linalg.norm(a, axis=(-2, -1)) for a in (z2d, c2d, s))
    scale = np.maximum(np.maximum(1.0, fro_c), 2.0 * fro_z * fro_s)
    raise_first(
        ~(resid <= 1e-10 * scale),
        SingularLyapunov,
        "Lyapunov solve is numerically defective (residual {:.3e})",
        resid,
    )


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
    _check_lyapunov_residual(z2d, c2d, s)
    return s


def _solve_lyapunov_stack(z2d, c2d):
    """Solve Z^T S + S Z = -C for a stack (N, n, n) as one stacked linear
    solve of the n^2 x n^2 Kronecker systems: cheap for the n = 2 of one
    mode, O(n^6) in general."""
    n = z2d.shape[-1]
    eye = np.eye(n)
    # row-major vec(S): (Z^T S)_ij = Z_ki S_kj and (S Z)_ij = S_il Z_lj
    kron = np.einsum("...ki,jl->...ijkl", z2d, eye) + np.einsum(
        "ik,...lj->...ijkl", eye, z2d
    )
    kron = kron.reshape(z2d.shape[:-2] + (n * n, n * n))
    rhs = -c2d.reshape(c2d.shape[:-2] + (n * n, 1))
    try:
        s = np.linalg.solve(kron, rhs).reshape(z2d.shape)
    except np.linalg.LinAlgError:
        # an exactly singular system fails the whole stack: name its entry
        raise_first(
            np.linalg.det(kron) == 0.0, SingularLyapunov, "Lyapunov system is singular"
        )
        raise
    s = 0.5 * (s + s.swapaxes(-1, -2))
    _check_lyapunov_residual(z2d, c2d, s)
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
    plane, SingularLyapunov when the linear solves are defective and
    NotPositiveDefinite when the covariance is not positive semidefinite.
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

    # Faithful means that every root the gaps take exists at ROOT_MARGIN, so
    # no gap can fail on a state called faithful.  In exact arithmetic the
    # s_tilde root decides it: s_breve is the operator geometric mean of
    # s_tilde and its conjugate, so its spectrum lies within s_tilde's.  A
    # covariance too ill-conditioned for its own root has no Williamson data
    # and no faithful state at that margin.
    tilde_roots = breve_roots = s_breve = nu = None
    try:
        sympl_m, sigma = williamson(s2d)
    except NotFaithful:
        sympl_m = sigma = None
    if sigma is not None:
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


def solve_stationary_stack(dds: DriftDiffusionStack) -> StationaryStack:
    """:func:`solve_stationary` for a stack of models, without the mean.

    The Lyapunov equations are solved as one stacked linear system and the
    Williamson data come from :func:`williamson_stack`; faithfulness is the
    same root test at ROOT_MARGIN.  A failed check (an unstable drift
    included) raises for the first entry that fails it, whose position the
    error carries as ``index``.
    """
    raise_first(
        ~dds.is_stable,
        Unstable,
        "drift has spectral abscissa {:.6g}, not below -{:.6g} "
        "(1e-12 * max(1, |Z|_2)); no invariant Gaussian state",
        dds.abscissa,
        dds.stable_tol,
    )
    s2d = _solve_lyapunov_stack(dds.z2d, dds.c2d)
    sympl_m, sigma = williamson_stack(s2d)
    s_tilde = s2d + 1j * jmat(s2d.shape[-1] // 2)
    *tilde_roots, faithful = hermitian_root_pairs(s_tilde)
    faithful &= sigma[:, 0] > 1.0
    # entries that are not faithful keep s_breve = 0, whose roots are NaN
    s_breve = np.zeros_like(s2d)
    s_breve[faithful], _ = kms_covariance(sympl_m[faithful], sigma[faithful])
    *breve_roots, breve_regular = hermitian_root_pairs(s_breve)
    faithful &= breve_regular
    s_breve[~faithful] = np.nan
    return StationaryStack(
        s2d=s2d,
        faithful=faithful,
        sigma=sigma,
        s_breve=s_breve,
        tilde_roots=tuple(tilde_roots),
        breve_roots=tuple(breve_roots),
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
    root, regular = _covariance_root(s2d)
    if not regular:
        raise NotFaithful(
            "covariance condition exceeds 1 / ROOT_MARGIN; it has no root and "
            "no Williamson data at that margin"
        )
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


def williamson_stack(s2d):
    """:func:`williamson` for a stack (N, n, n) of covariances.

    Uses a Hermitian eigendecomposition of i sqrt(S) J sqrt(S) in place of
    the real Schur form: its eigenvalues are -sigma_j and +sigma_j, and the
    imaginary and real parts of the +sigma_j eigenvector, scaled by sqrt(2),
    are the (q-like, p-like) columns of that rotation block.  A covariance
    that is not positive definite or a singular symplectic spectrum raises
    NotPositiveDefinite for the first such entry; M and sigma are NaN at the
    entries whose condition exceeds 1 / ROOT_MARGIN, where
    :func:`williamson` raises NotFaithful.
    """
    n = s2d.shape[-1]
    d = n // 2
    root, regular = _covariance_root(s2d)
    k = root @ jmat(d) @ root
    k = 0.5 * (k - k.swapaxes(-1, -2))
    evals, evecs = np.linalg.eigh(1j * k)
    sigma = evals[..., d:]
    raise_first(
        np.any(sigma <= 1e-12 * np.maximum(1.0, sigma), axis=-1),
        NotPositiveDefinite,
        "symplectic spectrum is numerically singular",
    )
    top = evecs[..., d:]
    q_ordered = np.sqrt(2.0) * np.concatenate([top.imag, top.real], axis=-1)
    d_inv_root = 1.0 / np.sqrt(np.concatenate([sigma, sigma], axis=-1))
    m = (d_inv_root[..., :, None] * q_ordered.swapaxes(-1, -2)) @ root
    m[~regular] = np.nan
    sigma[~regular] = np.nan
    return m, sigma


def _covariance_root(s2d):
    """Root of a covariance, or of each of a stack, and whether it exists at
    ROOT_MARGIN; the identity stands in for the roots that do not.  A
    covariance that is not positive semidefinite to rounding raises
    NotPositiveDefinite, for the first such entry of a stack."""
    root, _, regular = hermitian_root_pairs(s2d)
    if not np.all(regular):
        evals = np.linalg.eigvalsh(s2d)
        # eigvalsh is exact to about n eps lambda_max, so a smallest eigenvalue
        # above minus that is no evidence against a positive semidefinite
        # covariance, which an invariant one is in exact arithmetic; an
        # all-zero covariance has no such margin and is rejected
        floor = -s2d.shape[-1] * np.finfo(float).eps * evals[..., -1]
        raise_first(
            ~(regular | (evals[..., 0] > floor)),
            NotPositiveDefinite,
            "covariance is not positive definite (min eig {:.3e})",
            evals[..., 0],
        )
        root[~regular] = np.eye(s2d.shape[-1])
    return root, regular


def kms_covariance(sympl_m, sigma):
    """Second covariance M^T diag(nu, nu) M with nu_j = sqrt(sigma_j^2 - 1),
    for one state or a stack of them (leading axes).

    Requires a faithful state (all sigma_j > 1); nu_j is csch(arccoth sigma_j)
    written through the hyperbolic identity.
    """
    sigma = np.asarray(sigma, dtype=float)
    sigma_min = np.min(sigma, axis=-1)
    raise_first(
        sigma_min <= 1.0,
        NotFaithful,
        "state is not faithful (min symplectic eigenvalue {:.6g} <= 1)",
        sigma_min,
    )
    nu = np.sqrt(sigma**2 - 1.0)
    d_nu = np.concatenate([nu, nu], axis=-1)
    s_breve = sympl_m.swapaxes(-1, -2) @ (d_nu[..., :, None] * sympl_m)
    return 0.5 * (s_breve + s_breve.swapaxes(-1, -2)), nu
