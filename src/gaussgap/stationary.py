"""Invariant Gaussian state: Lyapunov solve, Williamson data, faithfulness.

For a stable drift the invariant state has mean mu solving Z# mu = zeta,
with the drive zeta the DriftDiffusion carries (so a zero drive is solved
too, not special-cased), and covariance (in 2d coordinates) solving the
continuous Lyapunov equation

    Z2d^T S + S Z2d = -C2d.

Faithfulness of the state is positivity of s_tilde = S + iJ, equivalently all
symplectic eigenvalues sigma_j of S exceeding 1; it is decided by whether the
matrix roots the gaps need exist at the relative margin ROOT_MARGIN of the
matrix-root helper.  The second covariance
s_breve = M^T diag(nu, nu) M with nu_j = sqrt(sigma_j^2 - 1) shares the
symplectic eigenbasis of S and drives the square-root-split embedding.

Every function takes one model or a stack of models (leading axes).  The one
method split is the Lyapunov solve, and it goes by size alone: Bartels-Stewart,
O(d^3), for one model of d >= 2 modes, and the (batched) Kronecker solve,
cheap for the 2 x 2 drifts of one mode, for one mode and for every stack.  So
a one-mode model is solved without scipy.linalg, and bit for bit as the same
model inside a stack.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotFaithful,
    NotPositiveDefinite,
    SingularLyapunov,
    Unstable,
    raise_first,
)
from .model import DriftDiffusion, _EntryIndexing, _fro, _plain
from .realops import hermitian_root_pairs, jmat

__all__ = [
    "StationaryData",
    "require_stable",
    "solve_stationary",
    "williamson",
    "kms_covariance",
]


@dataclass(frozen=True)
class StationaryData(_EntryIndexing):
    """Invariant state of one model or, with a leading axis on every field,
    of a stack; faithful is then a boolean array.

    Entries whose state is not faithful have NaN in s_breve, nu and
    breve_roots, and in tilde_roots where s_tilde has no root at
    ROOT_MARGIN.
    """

    mu: np.ndarray
    s2d: np.ndarray
    s_tilde: np.ndarray
    faithful: bool
    #: Williamson data; NaN where the condition of s2d exceeds
    #: 1 / ROOT_MARGIN, so that s2d has no root at that margin (the state
    #: then counts as not faithful)
    sympl_m: np.ndarray
    sigma: np.ndarray
    s_breve: np.ndarray
    nu: np.ndarray
    #: (s_tilde^{1/2}, s_tilde^{-1/2})
    tilde_roots: tuple
    #: (s_breve^{1/2}, s_breve^{-1/2})
    breve_roots: tuple

    @property
    def dim_d(self) -> int:
        return self.mu.shape[-1]

    @property
    def det_s_tilde(self) -> float:
        return _plain(np.linalg.det(self.s_tilde).real)


def solve_continuous_lyapunov(a, q):
    """scipy.linalg.solve_continuous_lyapunov, imported on first use:
    loading scipy.linalg takes about half of a cold start, and importing the
    package and the Kronecker solves of one mode and of stacks never need
    it.  Every Bartels-Stewart solve goes through this name."""
    from scipy.linalg import solve_continuous_lyapunov as scipy_solve

    return scipy_solve(a, q)


def _check_lyapunov_residual(z2d, c2d, s):
    """Raise SingularLyapunov unless S (or each S of a stack) solves
    Z^T S + S Z = -C to a normwise backward error of 1e-10."""
    # _fro: squaring the entries of a norm overflows from about 1e154, and
    # an infinite scale would accept any residual
    resid = _fro(z2d.swapaxes(-1, -2) @ s + s @ z2d + c2d)
    # the residual of any solve in floating point grows like
    # eps * |Z| * |S|, and |S| grows like 1 / (decay rate)
    fro_z, fro_c, fro_s = (_fro(a) for a in (z2d, c2d, s))
    scale = np.maximum(np.maximum(1.0, fro_c), 2.0 * fro_z * fro_s)
    raise_first(
        ~(resid <= 1e-10 * scale),
        SingularLyapunov,
        "Lyapunov solve is numerically defective (residual {:.3e})",
        resid,
    )


def _kronecker_lyapunov(z2d, c2d):
    """Solve Z^T S + S Z = -C, or each equation of a stack (N, n, n), as one
    (stacked) n^2 x n^2 Kronecker linear system: cheap for the n = 2 of one
    mode and O(n^6) in general."""
    n = z2d.shape[-1]
    eye = np.eye(n)
    # row-major vec(S): (Z^T S)_ij = Z_ki S_kj and (S Z)_ij = S_il Z_lj
    kron = np.einsum("...ki,jl->...ijkl", z2d, eye) + np.einsum(
        "ik,...lj->...ijkl", eye, z2d
    )
    kron = kron.reshape(z2d.shape[:-2] + (n * n, n * n))
    rhs = -c2d.reshape(c2d.shape[:-2] + (n * n, 1))
    try:
        return np.linalg.solve(kron, rhs).reshape(z2d.shape)
    except np.linalg.LinAlgError:
        # an exactly singular system fails the whole stack: name its entry
        raise_first(
            np.linalg.det(kron) == 0.0,
            SingularLyapunov,
            "Lyapunov system is singular",
        )
        raise


def _solve_lyapunov(z2d, c2d):
    """Solve Z^T S + S Z = -C.  The method depends only on the input's size:
    one equation with n = 2d >= 4 goes by Bartels-Stewart, a real Schur
    factorization of Z^T and a quasi-triangular Sylvester solve, O(n^3); a
    2 x 2 equation (one mode) and every stack go by the Kronecker system,
    which needs no scipy.linalg."""
    if z2d.ndim == 2 and z2d.shape[-1] > 2:
        # imported before the filter below, so that a warning raised while
        # scipy loads is not taken for a singular system
        import scipy.linalg  # noqa: F401

        with warnings.catch_warnings():
            # trsyl warns when it has to perturb an eigenvalue pair of Z
            # whose sum is ~0: the operator is then singular at working
            # precision
            warnings.simplefilter("error", RuntimeWarning)
            try:
                s = solve_continuous_lyapunov(z2d.T, -c2d)
            except (np.linalg.LinAlgError, ValueError, RuntimeWarning) as exc:
                raise SingularLyapunov(f"Lyapunov system is singular: {exc}") from exc
    else:
        s = _kronecker_lyapunov(z2d, c2d)
    s = 0.5 * (s + s.swapaxes(-1, -2))
    _check_lyapunov_residual(z2d, c2d, s)
    return s


def require_stable(dd: DriftDiffusion) -> None:
    """Raise Unstable unless the drift (of every entry of a stack) has an
    invariant Gaussian state."""
    raise_first(
        np.logical_not(dd.is_stable),
        Unstable,
        "drift has spectral abscissa {:.6g}, not below -{:.6g} "
        "(1e-12 * max(1, |Z|_2)); no invariant Gaussian state",
        dd.abscissa,
        dd.stable_tol,
    )


def solve_stationary(dd: DriftDiffusion) -> StationaryData:
    """Invariant mean and covariance plus faithfulness/Williamson data; the
    mean always comes from solving Z# mu = zeta with the drive of dd, a zero
    drive included.

    Raises Unstable when the drift spectrum meets the closed right half
    plane, SingularLyapunov when the linear solves are defective and
    NotPositiveDefinite when the covariance is not positive semidefinite;
    on a stack, for the first entry that fails, whose position the error
    carries as ``index``.  Faithful means that every root the gaps take
    exists at ROOT_MARGIN, so no gap can fail on a state called faithful.
    """
    require_stable(dd)
    z2d, d = dd.z2d, dd.dim_d
    s2d = _solve_lyapunov(z2d, dd.c2d)
    # Z# mu = zeta, on realizations a plain linear system with Z2d^T
    rhs = np.concatenate([dd.zeta.real, dd.zeta.imag], axis=-1)[..., None]
    x = np.linalg.solve(z2d.swapaxes(-1, -2), rhs)[..., 0]
    mu = x[..., :d] + 1j * x[..., d:]

    s_tilde = s2d + 1j * jmat(d)
    sympl_m, sigma = williamson(s2d)
    *tilde_roots, faithful = hermitian_root_pairs(s_tilde)
    faithful &= sigma[..., 0] > 1.0
    # entries that are not faithful keep s_breve = 0, whose roots are NaN
    s_breve = np.zeros_like(s2d)
    nu = np.full_like(sigma, np.nan)
    s_breve[faithful], nu[faithful] = kms_covariance(sympl_m[faithful], sigma[faithful])
    *breve_roots, breve_regular = hermitian_root_pairs(s_breve)
    faithful &= breve_regular
    s_breve[~faithful] = np.nan
    nu[~faithful] = np.nan
    return StationaryData(
        mu=mu,
        s2d=s2d,
        s_tilde=s_tilde,
        faithful=_plain(faithful),
        sympl_m=sympl_m,
        sigma=sigma,
        s_breve=s_breve,
        nu=nu,
        tilde_roots=tuple(tilde_roots),
        breve_roots=tuple(breve_roots),
    )


def williamson(s2d):
    """Symplectic diagonalization S = M^T diag(sigma, sigma) M with
    M^T J M = J, of one covariance or each of a stack (leading axes).

    Uses a Hermitian eigendecomposition of i sqrt(S) J sqrt(S): its
    eigenvalues are -sigma_j and +sigma_j, and the imaginary and real parts
    of the +sigma_j eigenvector, scaled by sqrt(2), are the (q-like, p-like)
    columns of that rotation block.  sigma is sorted ascending.  A
    covariance that is not symmetric positive definite or has a singular
    symplectic spectrum raises NotPositiveDefinite, for the first such entry
    of a stack; M and sigma are NaN where the condition exceeds
    1 / ROOT_MARGIN.
    """
    s2d = np.asarray(s2d, dtype=float)
    if s2d.ndim < 2 or s2d.shape[-1] != s2d.shape[-2] or s2d.shape[-1] % 2:
        raise NotPositiveDefinite("covariance must be a square matrix of even size")
    raise_first(
        _fro(s2d - s2d.swapaxes(-1, -2)) > 1e-10 * np.maximum(1.0, _fro(s2d)),
        NotPositiveDefinite,
        "covariance must be symmetric",
    )
    d = s2d.shape[-1] // 2
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
