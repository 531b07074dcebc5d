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
method split is the Lyapunov solve, and it goes by the equation's size
alone: the Cayley transform and squared Smith doubling, O(d^3) in matrix
products per model, for d >= 2 modes, and the Kronecker solve, cheap for the
2 x 2 drifts of one mode, for one mode; each of one model and of a stack.
Both are numpy only, so the module never loads scipy.linalg, and every model
is solved bit for bit as the same model inside a stack.
"""

from __future__ import annotations

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


def _check_lyapunov_residual(z2d, c2d, s):
    """Raise SingularLyapunov unless S (or each S of a stack) solves
    Z^T S + S Z = -C to a normwise backward error of 1e-10."""
    # _fro: squaring the entries of a norm overflows from about 1e154, and
    # an infinite scale would accept any residual
    resid = _fro(z2d.swapaxes(-1, -2) @ s + s @ z2d + c2d)
    # the residual of any solve in floating point grows like
    # eps * |Z| * |S|, and |S| grows like 1 / (decay rate); no absolute
    # floor, so that the bound scales with the model
    fro_z, fro_c, fro_s = (_fro(a) for a in (z2d, c2d, s))
    scale = np.maximum(fro_c, 2.0 * fro_z * fro_s)
    raise_first(
        ~(resid <= 1e-10 * scale),
        SingularLyapunov,
        "Lyapunov solve is numerically defective (residual {:.3e})",
        resid,
    )


def _kronecker_lyapunov(z2d, c2d):
    """Solve the 2 x 2 equation Z^T S + S Z = -C of one mode, or each of a
    stack (N, 2, 2), as one (stacked) 4 x 4 Kronecker linear system."""
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


#: doublings allowed before the Smith series counts as not converging: a
#: drift at the stability threshold (decay rate 1e-12 |Z|_2, so at least
#: 5e-13 of the shift) needs about 45, and the cap leaves a factor 2^19 in
#: the number of terms for the transient growth of a drift far from normal
_SMITH_STEPS = 64


def _smith_lyapunov(z2d, c2d, norm):
    """Solve Z^T S + S Z = -C for one n x n equation, or each of a stack
    (leading axes), with numpy's dense solve and matrix products only,
    O(n^3) per equation.

    The Cayley transform with the shift p, the power of two at or above
    |Z|_2 = norm (so that the shift scales exactly, as in dynamics._flow),
    maps the equation to the Stein equation S = A^T S A + Q with
    A = (pI - Z)^-1 (pI + Z) and Q = 2p (pI - Z)^-T C (pI - Z)^-1; for a
    stable Z the eigenvalues of A lie inside the unit circle, and
    S = sum_k (A^T)^k Q A^k.  Squared Smith doubling sums the series:
    S <- S + A^T S A and A <- A^2 until |A|_F^2 <= eps / 2, when the rest of
    the series, A^T S A for the last A, is below eps |S|.  One step of
    iterative refinement solves the same equation for the residual
    Z^T S + S Z + C with the same powers of A; it recovers the digits the
    transform loses on decay rates far below |Z|.  Each equation of a stack
    stops on its own: its later powers are zero, so every entry is the
    solve of that equation alone, bit for bit.  A singular pI - Z, or
    powers that do not fall below the bound within _SMITH_STEPS doublings
    (a drift that is not stable), raise SingularLyapunov without a warning,
    for the first such entry of a stack.
    """
    e = np.ceil(np.log2(np.where(norm > 0, norm, 1.0))).astype(int)[..., None, None]
    eye = np.eye(z2d.shape[-1])
    shift = np.ldexp(eye, e)
    rhs = np.concatenate([shift + z2d, np.broadcast_to(eye, z2d.shape)], axis=-1)
    try:
        a, inv = np.split(np.linalg.solve(shift - z2d, rhs), 2, axis=-1)
    except np.linalg.LinAlgError as exc:
        raise SingularLyapunov(f"Lyapunov system is singular: {exc}") from exc

    def cayley(q):
        # 2p (pI - Z)^-T Q (pI - Z)^-1, the Stein equation's Q for C = q
        return np.ldexp(inv.swapaxes(-1, -2) @ q @ inv, e + 1)

    powers = []
    s = cayley(c2d)
    with np.errstate(over="ignore", invalid="ignore"):
        # a drift that is not stable has powers that grow past double range
        for _ in range(_SMITH_STEPS):
            powers.append(a)
            s = s + a.swapaxes(-1, -2) @ s @ a
            a = a @ a
            # a power that is not finite never counts as converged
            live = ~(np.einsum("...ij,...ij->...", a, a) <= 0.5 * np.finfo(float).eps)
            if not live.any():
                break
            a = a * live[..., None, None]
    raise_first(
        live, SingularLyapunov,
        f"Lyapunov system is singular: the doubling did not converge in {_SMITH_STEPS} steps",
    )
    correction = cayley(z2d.swapaxes(-1, -2) @ s + s @ z2d + c2d)
    for a in powers:
        correction = correction + a.swapaxes(-1, -2) @ correction @ a
    return s + correction


def _solve_lyapunov(z2d, c2d, norm):
    """Solve Z^T S + S Z = -C, or each equation of a stack, with norm the
    drift's |Z|_2 (an array over the stack).  The method depends only on
    the equation's size: n = 2d >= 4 goes by the Cayley transform and
    squared Smith doubling (_smith_lyapunov), O(n^3) per equation; the
    2 x 2 equations of one mode go by the Kronecker system.  Neither needs
    scipy.linalg."""
    if z2d.shape[-1] > 2:
        s = _smith_lyapunov(z2d, c2d, norm)
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
    s2d = _solve_lyapunov(z2d, dd.c2d, dd.drift_norm)
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
