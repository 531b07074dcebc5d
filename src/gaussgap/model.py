"""GKLS model data and the drift/diffusion triple.

A model is the raw parameter set (d, m, Omega, kappa, U, V, zeta) of a
quasi-free (Gaussian) Markov generator: Omega and kappa are the quadratic
Hamiltonian coefficients, the rows of U and V hold the creation/annihilation
coefficients of the m jump operators, and zeta is the linear drive.

From a validated model we build the real 2d x 2d realizations of the drift Z
and the diffusion C, together with the Hermitian 2d x 2d matrix

    cz = C_2d - i (Z_2d^T J + J Z_2d)

whose strict positivity is equivalent to the model carrying the maximal
number 2d of independent noise channels.  Everything downstream (stationary
state, spectral gaps, no-gap diagnostics, dynamics) is a function of this
triple, the drive zeta and the spectra of Z and cz, which are computed once,
on the build.

Two independent constructions are cross-checked on every build: the defining
formulas for Z and C in terms of (U, V, Omega, kappa), and the equivalent
block formulas in terms of U +- conj(V), including cz = M* M with
M = [U + conj(V), -i (U - conj(V))].

Every stage works on one model or on a stack of models of one shape
(d, m): the fields of a stack carry a leading axis, and every check is
applied to each entry, a failed one raising for the first entry that fails
it with that entry's position as the error's ``index``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import (
    ConsistencyError,
    DependentKraus,
    DimensionMismatch,
    GaussGapError,
    NotHermitian,
    NotSymmetric,
    RangeExceeded,
    raise_first,
)
from .realops import jmat, realize_blocks

__all__ = [
    "GklsModel",
    "DriftDiffusion",
    "ValidationReport",
    "one_dim_family",
    "validate",
    "build_drift_diffusion",
    "appendix_z_realization",
    "appendix_cz",
]

#: relative singular-value threshold for all rank decisions
RANK_TOL = 1e-10


@dataclass(frozen=True)
class GklsModel:
    """Raw generator parameters.

    Arrays are coerced to complex; shapes are (d, d) for omega and kappa,
    (m, d) for u_mat and v_mat, and (d,) for zeta, each behind the leading
    shape of omega: () for one model, (N,) for a stack of N.
    """

    d: int
    m: int
    omega: np.ndarray
    kappa: np.ndarray
    u_mat: np.ndarray
    v_mat: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        if self.d < 1 or self.m < 1:
            raise DimensionMismatch("d and m must be positive integers")
        omega = np.atleast_2d(np.asarray(self.omega, dtype=complex))
        kappa = np.atleast_2d(np.asarray(self.kappa, dtype=complex))
        u = np.atleast_2d(np.asarray(self.u_mat, dtype=complex))
        v = np.atleast_2d(np.asarray(self.v_mat, dtype=complex))
        zeta = np.asarray(self.zeta, dtype=complex)
        d, m = self.d, self.m
        lead = omega.shape[:-2]
        if omega.shape != lead + (d, d):
            raise DimensionMismatch(f"omega must be {d}x{d}, got {omega.shape}")
        if kappa.shape != lead + (d, d):
            raise DimensionMismatch(f"kappa must be {d}x{d}, got {kappa.shape}")
        if u.shape != lead + (m, d):
            raise DimensionMismatch(f"u_mat must be {m}x{d}, got {u.shape}")
        if v.shape != lead + (m, d):
            raise DimensionMismatch(f"v_mat must be {m}x{d}, got {v.shape}")
        if zeta.size != omega.size // d:
            raise DimensionMismatch(f"zeta must have length {d}, got {zeta.shape}")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "u_mat", u)
        object.__setattr__(self, "v_mat", v)
        object.__setattr__(self, "zeta", zeta.reshape(lead + (d,)))


def _lambda_jump_kept(mu2, lambda2):
    """Whether the lambda*adag jump of the single-mode family counts as
    independent of mu*a: the rank rule of :func:`validate`, whose matrix
    [V*; U^T] has the singular values mu and lambda, so lambda2 must exceed
    about 1e-20 mu2.  Entrywise for arrays."""
    return np.sqrt(lambda2) > RANK_TOL * np.sqrt(mu2)


def one_dim_family(mu2, lambda2, omega=0.0, kappa=0.0) -> GklsModel:
    """Single-mode family with jumps mu*a, lambda*adag and a quadratic
    Hamiltonian omega*adag*a + kappa*(adag^2 + a^2)/2; array parameters
    (broadcast together) give a stack of models.

    Requires 0 <= lambda2 < mu2.  A lambda*adag jump that validation would
    call dependent (lambda2 = 0, or below about 1e-20 mu2; see
    _lambda_jump_kept) is dropped, so the remaining one stays independent;
    a stack has one jump count, so every entry must then drop it.
    """
    mu2, lambda2, omega, kappa = np.broadcast_arrays(
        np.asarray(mu2, dtype=float),
        np.asarray(lambda2, dtype=float),
        np.asarray(omega, dtype=complex),
        np.asarray(kappa, dtype=complex),
    )
    if not np.all((0 <= lambda2) & (lambda2 < mu2)):
        raise ValueError("family requires 0 <= lambda2 < mu2")
    mu = np.sqrt(mu2)
    zero = np.zeros_like(mu)
    kept = _lambda_jump_kept(mu2, lambda2)
    if np.all(kept):
        u = np.stack([zero, np.sqrt(lambda2)], axis=-1)
        v = np.stack([mu, zero], axis=-1)
    elif not np.any(kept):
        u, v = zero[..., None], mu[..., None]
    else:
        raise ValueError(
            "a family stack needs lambda2 > 0 everywhere or nowhere, "
            "counting lambda2 below about 1e-20 mu2 as zero"
        )
    return GklsModel(
        d=1,
        m=u.shape[-1],
        omega=omega[..., None, None],
        kappa=kappa[..., None, None],
        u_mat=u[..., None],
        v_mat=v[..., None],
        zeta=np.zeros(mu.shape + (1,), dtype=complex),
    )


def _plain(a):
    """A 0-d array as its Python scalar, any other array as it is: the
    fields of one model are plain floats and bools."""
    return np.asarray(a).item() if np.ndim(a) == 0 else a


def _adjoint(a):
    """Conjugate transpose over the last two axes."""
    return a.swapaxes(-1, -2).conj()


def _norm(a, axis=None):
    """np.linalg.norm(a, axis=axis): the 2-norm of a vector, the Frobenius
    norm of a matrix or over two axes.  Where squaring the entries overflows
    it is max|a| times the norm of a / max|a| instead; every norm that
    np.linalg.norm gets finite keeps its bits."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a, axis=axis)
    over = np.isinf(norm)
    if not over.any():
        return norm
    big = np.max(np.abs(a), axis=axis, keepdims=True)
    scale = np.squeeze(big, axis)
    with np.errstate(over="ignore", invalid="ignore"):
        rescaled = scale * np.linalg.norm(a / big, axis=axis)
    # an infinite entry leaves the norm infinite
    return np.where(over & np.isfinite(scale), rescaled, norm)


def _fro(a):
    """Frobenius norm over the last two axes (see _norm)."""
    return _norm(a, axis=(-2, -1))


def _kraus_rank(u, v):
    """Numerical rank of the stacked 2d x m matrix [V*; U^T]: ker(V*) and
    ker(U^T) both live in C^m, and their intersection is its kernel."""
    stacked = np.concatenate([_adjoint(v), u.swapaxes(-1, -2)], axis=-2)
    svals = np.linalg.svd(stacked, compute_uv=False)
    smax = np.maximum(svals[..., 0], 1e-300)
    return np.sum(svals > RANK_TOL * smax[..., None], axis=-1)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    #: residuals and rank are arrays over the entries of a stack
    hermiticity_residual: float
    symmetry_residual: float
    kraus_rank: int
    errors: tuple = ()


def validate(model: GklsModel, strict: bool = True) -> ValidationReport:
    """Check Hermiticity of omega, symmetry of kappa, m <= 2d and the
    independence of the jump operators (trivial common kernel of the stacked
    coefficient matrices), for one model or each of a stack.

    With ``strict`` the first failed check raises; otherwise the report
    carries the collected error instances.
    """
    omega, kappa, m = model.omega, model.kappa, model.m
    herm = _fro(omega - _adjoint(omega))
    symm = _fro(kappa - kappa.swapaxes(-1, -2))
    rank = _kraus_rank(model.u_mat, model.v_mat)
    checks = [
        (
            herm > 1e-12 * np.maximum(1.0, _fro(omega)),
            NotHermitian,
            "omega is not Hermitian (residual {:.3e})",
            herm,
        ),
        (
            symm > 1e-12 * np.maximum(1.0, _fro(kappa)),
            NotSymmetric,
            "kappa is not symmetric (residual {:.3e})",
            symm,
        ),
        (m > 2 * model.d, DimensionMismatch, f"m = {m} exceeds 2d = {2 * model.d}"),
        (
            rank < m,
            DependentKraus,
            f"jump operators are linearly dependent (rank {{}} < m = {m})",
            rank,
        ),
    ]
    errors = []
    for check in checks:
        try:
            raise_first(*check)
        except GaussGapError as exc:
            if strict:
                raise
            errors.append(exc)
    return ValidationReport(
        ok=not errors,
        hermiticity_residual=_plain(herm),
        symmetry_residual=_plain(symm),
        kraus_rank=_plain(rank),
        errors=tuple(errors),
    )


class _EntryIndexing:
    """Base of the frozen dataclasses whose fields are arrays (or tuples of
    arrays) with a common leading shape: indexing a stack with a boolean
    mask or index array selects those entries in every field."""

    def __getitem__(self, sel):
        def pick(value):
            if isinstance(value, tuple):
                return tuple(a[sel] for a in value)
            return value[sel]

        return replace(
            self, **{f.name: pick(getattr(self, f.name)) for f in fields(self)}
        )


@dataclass(frozen=True)
class DriftDiffusion(_EntryIndexing):
    """Drift/diffusion triple of a validated model and its linear drive, with
    the spectral data every later stage reads; :func:`build_drift_diffusion`
    fills it once.

    z2d and c2d are the real 2d x 2d realizations of drift and diffusion,
    zeta the drive, which shifts the invariant mean but no gap.
    cz is Hermitian positive semidefinite with ascending eigenvalues
    cz_spectrum (tiny negative values are eigensolver noise).  The drift is
    stable when every eigenvalue has strictly negative real part; the
    threshold is relative to the drift norm, so a zero drift is unstable.
    For a stack every field has a leading axis, and the scalar fields are
    arrays over it.
    """

    z2d: np.ndarray
    c2d: np.ndarray
    zeta: np.ndarray
    cz: np.ndarray
    cz_spectrum: np.ndarray
    #: cz strictly positive definite: the model carries 2d independent
    #: noise channels
    kraus_rank_full: bool
    #: spectral norm of z2d, the scale of every drift-relative tolerance
    drift_norm: float
    #: greatest real part of the drift eigenvalues
    abscissa: float
    #: is_stable means abscissa < -stable_tol = -1e-12 * max(1, drift_norm)
    stable_tol: float
    drift_eigenvalues: np.ndarray
    drift_eigenvectors: np.ndarray
    is_stable: bool

    @property
    def dim_d(self) -> int:
        return self.z2d.shape[-1] // 2

    @property
    def cz_min_eig(self) -> float:
        return _plain(self.cz_spectrum[..., 0])


def appendix_z_realization(model):
    """Block formula for the drift realization in terms of U +- conj(V)."""
    u, v = model.u_mat, model.v_mat
    om, ka = model.omega, model.kappa
    p = u + v.conj()
    q = u - v.conj()
    noise = 0.5 * np.block(
        [
            [(_adjoint(q) @ p).real, (_adjoint(q) @ q).imag],
            [-(_adjoint(p) @ p).imag, (_adjoint(p) @ q).real],
        ]
    )
    hamil = np.block(
        [
            [-(om + ka).imag, (ka - om).real],
            [(om + ka).real, (ka - om).imag],
        ]
    )
    return noise + hamil


def appendix_cz(model):
    """Block formula for cz in terms of U +- conj(V)."""
    p = model.u_mat + model.v_mat.conj()
    q = model.u_mat - model.v_mat.conj()
    return np.block(
        [
            [_adjoint(p) @ p, -1j * (_adjoint(p) @ q)],
            [1j * (_adjoint(q) @ p), _adjoint(q) @ q],
        ]
    )


def _realizations(model):
    """(z2d, c2d, cz, cz_spectrum) of a model, cross-checked against the
    block formulas and the Gram factorization of cz."""
    u, v = model.u_mat, model.v_mat
    ut, vt = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        z2d = realize_blocks(
            0.5 * (ut @ u.conj() - vt @ v.conj()) + 1j * model.omega,
            0.5 * (ut @ v - vt @ u) + 1j * model.kappa,
        )
        c2d = realize_blocks(ut @ u.conj() + vt @ v.conj(), ut @ v + vt @ u)
        j = jmat(z2d.shape[-1] // 2)
        cz = c2d.astype(complex) - 1j * (z2d.swapaxes(-1, -2) @ j + j @ z2d)
        cz = 0.5 * (cz + _adjoint(cz))
    # an overflow in z2d or c2d leaves an infinity or NaN in cz
    raise_first(
        ~np.all(np.isfinite(cz), axis=(-2, -1)),
        RangeExceeded,
        "drift or diffusion overflows double precision; rescale the model",
    )

    z_resid = _fro(z2d - appendix_z_realization(model))
    raise_first(
        z_resid > 1e-12 * np.maximum(1.0, _fro(z2d)),
        ConsistencyError,
        "drift realization disagrees with block formula",
    )
    scale = np.maximum(1.0, _fro(cz))
    raise_first(
        _fro(cz - appendix_cz(model)) > 1e-12 * scale,
        ConsistencyError,
        "cz disagrees with block formula",
    )
    m_stack = np.concatenate([u + v.conj(), -1j * (u - v.conj())], axis=-1)
    raise_first(
        _fro(cz - _adjoint(m_stack) @ m_stack) > 1e-10 * scale,
        ConsistencyError,
        "cz disagrees with its Gram factorization",
    )

    cz_spectrum = np.linalg.eigvalsh(cz)
    cz_min = cz_spectrum[..., 0]
    raise_first(
        cz_min < -1e-10 * scale,
        ConsistencyError,
        "cz has a genuinely negative eigenvalue {:.3e}",
        cz_min,
    )
    return z2d, c2d, cz, cz_spectrum


def build_drift_diffusion(model: GklsModel) -> DriftDiffusion:
    """Assemble (Z, C, cz) and their spectral data from a model or a stack,
    cross-checking the defining and the block constructions against each
    other.
    """
    validate(model, strict=True)
    z2d, c2d, cz, cz_spectrum = _realizations(model)
    evals, evecs = np.linalg.eig(z2d)
    abscissa = np.max(evals.real, axis=-1)
    drift_norm = np.linalg.norm(z2d, 2, axis=(-2, -1))
    stable_tol = 1e-12 * np.maximum(1.0, drift_norm)
    # cz is Hermitian PSD, so its 2-norm is its top eigenvalue
    cz_norm = cz_spectrum[..., -1]
    return DriftDiffusion(
        z2d=z2d,
        c2d=c2d,
        zeta=model.zeta,
        cz=cz,
        cz_spectrum=cz_spectrum,
        kraus_rank_full=_plain(
            cz_spectrum[..., 0] > RANK_TOL * np.maximum(cz_norm, 1e-300)
        ),
        drift_norm=_plain(drift_norm),
        abscissa=_plain(abscissa),
        stable_tol=_plain(stable_tol),
        drift_eigenvalues=evals,
        drift_eigenvectors=evecs,
        is_stable=_plain(abscissa < -stable_tol),
    )
