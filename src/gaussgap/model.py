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
state, spectral gaps, no-gap diagnostics) is a function of this triple and
of the spectra of Z and cz, which are computed once, on the build.

Two independent constructions are cross-checked on every build: the defining
formulas for Z and C in terms of (U, V, Omega, kappa), and the equivalent
block formulas in terms of U +- conj(V), including cz = M* M with
M = [U + conj(V), -i (U - conj(V))].

The *_stack functions do the same for N models of one shape (d, m) at once,
on arrays with a leading axis of length N, keeping every per-model check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    ConsistencyError,
    DependentKraus,
    DimensionMismatch,
    NotHermitian,
    NotSymmetric,
    raise_first,
)
from .realops import jmat, realize_blocks

__all__ = [
    "GklsModel",
    "GklsModelStack",
    "DriftDiffusion",
    "DriftDiffusionStack",
    "ValidationReport",
    "one_dim_family",
    "one_dim_family_stack",
    "validate",
    "build_drift_diffusion",
    "build_drift_diffusion_stack",
    "appendix_z_realization",
    "appendix_cz",
]

#: relative singular-value threshold for all rank decisions
RANK_TOL = 1e-10


@dataclass(frozen=True)
class GklsModel:
    """Raw generator parameters.

    Arrays are coerced to complex; shapes are (d, d) for omega and kappa,
    (m, d) for u_mat and v_mat, and (d,) for zeta.
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
        zeta = np.asarray(self.zeta, dtype=complex).ravel()
        d, m = self.d, self.m
        if omega.shape != (d, d):
            raise DimensionMismatch(f"omega must be {d}x{d}, got {omega.shape}")
        if kappa.shape != (d, d):
            raise DimensionMismatch(f"kappa must be {d}x{d}, got {kappa.shape}")
        if u.shape != (m, d):
            raise DimensionMismatch(f"u_mat must be {m}x{d}, got {u.shape}")
        if v.shape != (m, d):
            raise DimensionMismatch(f"v_mat must be {m}x{d}, got {v.shape}")
        if zeta.shape != (d,):
            raise DimensionMismatch(f"zeta must have length {d}, got {zeta.shape}")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "u_mat", u)
        object.__setattr__(self, "v_mat", v)
        object.__setattr__(self, "zeta", zeta)


def one_dim_family(mu2, lambda2, omega=0.0, kappa=0.0):
    """Single-mode family with jumps mu*a, lambda*adag and a quadratic
    Hamiltonian omega*adag*a + kappa*(adag^2 + a^2)/2.

    Requires 0 <= lambda2 < mu2.  For lambda2 = 0 the (identically zero)
    second jump operator is dropped so the remaining one stays independent.
    """
    stack = one_dim_family_stack([mu2], [lambda2], [omega], [kappa])
    return GklsModel(
        d=1,
        m=stack.m,
        omega=stack.omega[0],
        kappa=stack.kappa[0],
        u_mat=stack.u_mat[0],
        v_mat=stack.v_mat[0],
        zeta=np.zeros(1, dtype=complex),
    )


@dataclass(frozen=True)
class GklsModelStack:
    """N models of one shape (d, m) and without linear drive: omega and
    kappa of shape (N, d, d), u_mat and v_mat of shape (N, m, d)."""

    omega: np.ndarray
    kappa: np.ndarray
    u_mat: np.ndarray
    v_mat: np.ndarray

    def __post_init__(self):
        omega, kappa, u, v = (
            np.asarray(a, dtype=complex)
            for a in (self.omega, self.kappa, self.u_mat, self.v_mat)
        )
        if not (
            omega.ndim == 3
            and omega.shape[1] == omega.shape[2]
            and kappa.shape == omega.shape
            and u.ndim == 3
            and v.shape == u.shape
            and u.shape[::2] == omega.shape[:2]
        ):
            raise DimensionMismatch(
                f"stack shapes omega {omega.shape}, kappa {kappa.shape}, "
                f"u_mat {u.shape}, v_mat {v.shape} are not (N, d, d) and (N, m, d)"
            )
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "u_mat", u)
        object.__setattr__(self, "v_mat", v)

    @property
    def d(self) -> int:
        return self.omega.shape[-1]

    @property
    def m(self) -> int:
        return self.u_mat.shape[1]


def one_dim_family_stack(mu2, lambda2, omega, kappa) -> GklsModelStack:
    """:func:`one_dim_family` for N parameter points given as four arrays.

    A stack has one jump count, so lambda2 must be positive everywhere
    (m = 2) or zero everywhere (m = 1).
    """
    mu2, lambda2 = (np.asarray(a, dtype=float).ravel() for a in (mu2, lambda2))
    omega, kappa = (np.asarray(a, dtype=complex).ravel() for a in (omega, kappa))
    if not np.all((0 <= lambda2) & (lambda2 < mu2)):
        raise ValueError("family requires 0 <= lambda2 < mu2")
    mu = np.sqrt(mu2)
    zero = np.zeros_like(mu)
    if np.all(lambda2 > 0):
        u = np.stack([zero, np.sqrt(lambda2)], axis=-1)
        v = np.stack([mu, zero], axis=-1)
    elif np.all(lambda2 == 0):
        u, v = zero[:, None], mu[:, None]
    else:
        raise ValueError("a family stack needs lambda2 > 0 everywhere or nowhere")
    return GklsModelStack(
        omega=omega[:, None, None],
        kappa=kappa[:, None, None],
        u_mat=u[..., None],
        v_mat=v[..., None],
    )


def _adjoint(a):
    """Conjugate transpose over the last two axes."""
    return a.swapaxes(-1, -2).conj()


def _fro(a):
    """Frobenius norm over the last two axes."""
    return np.linalg.norm(a, axis=(-2, -1))


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
    hermiticity_residual: float
    symmetry_residual: float
    kraus_rank: int
    kraus_rank_required: int
    errors: tuple = ()


def validate(model: GklsModel, strict: bool = True) -> ValidationReport:
    """Check Hermiticity of omega, symmetry of kappa, m <= 2d and the
    independence of the jump operators (trivial common kernel of the stacked
    coefficient matrices).

    With ``strict`` the first failed check raises; otherwise the report
    carries the collected error instances.
    """
    errors = []
    herm = float(np.linalg.norm(model.omega - model.omega.conj().T))
    scale_o = max(1.0, float(np.linalg.norm(model.omega)))
    if herm > 1e-12 * scale_o:
        errors.append(NotHermitian(f"omega is not Hermitian (residual {herm:.3e})"))
    symm = float(np.linalg.norm(model.kappa - model.kappa.T))
    scale_k = max(1.0, float(np.linalg.norm(model.kappa)))
    if symm > 1e-12 * scale_k:
        errors.append(NotSymmetric(f"kappa is not symmetric (residual {symm:.3e})"))
    if model.m > 2 * model.d:
        errors.append(
            DimensionMismatch(f"m = {model.m} exceeds 2d = {2 * model.d}")
        )
    rank = int(_kraus_rank(model.u_mat, model.v_mat))
    if rank < model.m:
        errors.append(
            DependentKraus(
                f"jump operators are linearly dependent (rank {rank} < m = {model.m})"
            )
        )
    if strict and errors:
        raise errors[0]
    return ValidationReport(
        ok=not errors,
        hermiticity_residual=herm,
        symmetry_residual=symm,
        kraus_rank=rank,
        kraus_rank_required=model.m,
        errors=tuple(errors),
    )


@dataclass(frozen=True)
class DriftDiffusion:
    """Drift/diffusion triple of a validated model, with the spectral data
    every later stage reads; :func:`build_drift_diffusion` fills it once.

    z2d and c2d are the real 2d x 2d realizations of drift and diffusion.
    cz is Hermitian positive semidefinite with ascending eigenvalues
    cz_spectrum (tiny negative values are eigensolver noise).  The drift is
    stable when every eigenvalue has strictly negative real part; the
    threshold is relative to the drift norm, so a zero drift is unstable.
    """

    z2d: np.ndarray
    c2d: np.ndarray
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
    #: propagators and gramians of the dynamics layer, keyed by (kind, t)
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim_d(self) -> int:
        return self.z2d.shape[0] // 2

    @property
    def cz_min_eig(self) -> float:
        return float(self.cz_spectrum[0])


class EntryStack:
    """Base of the frozen stack dataclasses, whose fields are arrays (or
    tuples of arrays) with one leading entry axis: indexing a stack with a
    boolean mask or index array selects those entries in every field."""

    def __getitem__(self, sel):
        def pick(value):
            if isinstance(value, tuple):
                return tuple(a[sel] for a in value)
            return value[sel]

        return replace(
            self, **{f.name: pick(getattr(self, f.name)) for f in fields(self)}
        )


@dataclass(frozen=True)
class DriftDiffusionStack(EntryStack):
    """The DriftDiffusion fields of N models, each with a leading axis of
    length N; the drift eigenpairs are not kept."""

    z2d: np.ndarray
    c2d: np.ndarray
    cz: np.ndarray
    cz_spectrum: np.ndarray
    kraus_rank_full: np.ndarray
    drift_norm: np.ndarray
    abscissa: np.ndarray
    stable_tol: np.ndarray
    is_stable: np.ndarray


def appendix_z_realization(model):
    """Block formula for the drift realization in terms of U +- conj(V), for
    a GklsModel or a GklsModelStack."""
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
    """Block formula for cz in terms of U +- conj(V), for a GklsModel or a
    GklsModelStack."""
    p = model.u_mat + model.v_mat.conj()
    q = model.u_mat - model.v_mat.conj()
    return np.block(
        [
            [_adjoint(p) @ p, -1j * (_adjoint(p) @ q)],
            [1j * (_adjoint(q) @ p), _adjoint(q) @ q],
        ]
    )


def _realizations(model):
    """(z2d, c2d, cz, cz_spectrum) of a GklsModel or a GklsModelStack,
    cross-checked against the block formulas and the Gram factorization of
    cz; a stack raises for the first entry that fails a check."""
    u, v = model.u_mat, model.v_mat
    ut, vt = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
    z2d = realize_blocks(
        0.5 * (ut @ u.conj() - vt @ v.conj()) + 1j * model.omega,
        0.5 * (ut @ v - vt @ u) + 1j * model.kappa,
    )
    c2d = realize_blocks(ut @ u.conj() + vt @ v.conj(), ut @ v + vt @ u)
    j = jmat(z2d.shape[-1] // 2)
    cz = c2d.astype(complex) - 1j * (z2d.swapaxes(-1, -2) @ j + j @ z2d)
    cz = 0.5 * (cz + _adjoint(cz))

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
    """Assemble (Z, C, cz) and their spectral data from a model,
    cross-checking the defining and the block constructions against each
    other.
    """
    validate(model, strict=True)
    z2d, c2d, cz, cz_spectrum = _realizations(model)
    cz_min = float(cz_spectrum[0])
    # cz is Hermitian PSD, so its 2-norm is its top eigenvalue
    cz_norm = float(cz_spectrum[-1])
    evals, evecs = np.linalg.eig(z2d)
    abscissa = float(np.max(evals.real))
    drift_norm = float(np.linalg.norm(z2d, 2))
    stable_tol = 1e-12 * max(1.0, drift_norm)
    return DriftDiffusion(
        z2d=z2d,
        c2d=c2d,
        cz=cz,
        cz_spectrum=cz_spectrum,
        kraus_rank_full=bool(cz_min > RANK_TOL * max(cz_norm, 1e-300)),
        drift_norm=drift_norm,
        abscissa=abscissa,
        stable_tol=stable_tol,
        drift_eigenvalues=evals,
        drift_eigenvectors=evecs,
        is_stable=bool(abscissa < -stable_tol),
    )


def build_drift_diffusion_stack(models: GklsModelStack) -> DriftDiffusionStack:
    """:func:`build_drift_diffusion` for a stack of models, with the checks
    of :func:`validate` and every cross-check applied to each entry; a
    failed check raises for the first entry that fails it, whose position
    the error carries as ``index``."""
    omega, kappa = models.omega, models.kappa
    herm = _fro(omega - _adjoint(omega))
    raise_first(
        herm > 1e-12 * np.maximum(1.0, _fro(omega)),
        NotHermitian,
        "omega is not Hermitian (residual {:.3e})",
        herm,
    )
    symm = _fro(kappa - kappa.swapaxes(-1, -2))
    raise_first(
        symm > 1e-12 * np.maximum(1.0, _fro(kappa)),
        NotSymmetric,
        "kappa is not symmetric (residual {:.3e})",
        symm,
    )
    if models.m > 2 * models.d:
        raise DimensionMismatch(f"m = {models.m} exceeds 2d = {2 * models.d}")
    rank = _kraus_rank(models.u_mat, models.v_mat)
    raise_first(
        rank < models.m,
        DependentKraus,
        "jump operators are linearly dependent (rank {} < m = " + f"{models.m})",
        rank,
    )
    z2d, c2d, cz, cz_spectrum = _realizations(models)
    abscissa = np.max(np.linalg.eigvals(z2d).real, axis=-1)
    drift_norm = np.linalg.norm(z2d, 2, axis=(-2, -1))
    stable_tol = 1e-12 * np.maximum(1.0, drift_norm)
    return DriftDiffusionStack(
        z2d=z2d,
        c2d=c2d,
        cz=cz,
        cz_spectrum=cz_spectrum,
        kraus_rank_full=cz_spectrum[:, 0]
        > RANK_TOL * np.maximum(cz_spectrum[:, -1], 1e-300),
        drift_norm=drift_norm,
        abscissa=abscissa,
        stable_tol=stable_tol,
        is_stable=abscissa < -stable_tol,
    )
