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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConsistencyError,
    DependentKraus,
    DimensionMismatch,
    NotHermitian,
    NotSymmetric,
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
    if not 0 <= lambda2 < mu2:
        raise ValueError("family requires 0 <= lambda2 < mu2")
    mu = float(np.sqrt(mu2))
    lam = float(np.sqrt(lambda2))
    if lambda2 > 0:
        u = np.array([[0.0], [lam]], dtype=complex)
        v = np.array([[mu], [0.0]], dtype=complex)
        m = 2
    else:
        u = np.array([[0.0]], dtype=complex)
        v = np.array([[mu]], dtype=complex)
        m = 1
    return GklsModel(
        d=1,
        m=m,
        omega=np.array([[omega]], dtype=complex),
        kappa=np.array([[kappa]], dtype=complex),
        u_mat=u,
        v_mat=v,
        zeta=np.zeros(1, dtype=complex),
    )


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
    # ker(V*) and ker(U^T) both live in C^m; their intersection is the kernel
    # of the stacked 2d x m matrix.
    stacked = np.vstack([model.v_mat.conj().T, model.u_mat.T])
    svals = np.linalg.svd(stacked, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > RANK_TOL * max(smax, 1e-300)))
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


def appendix_z_realization(model: GklsModel):
    """Block formula for the drift realization in terms of U +- conj(V)."""
    u, v = model.u_mat, model.v_mat
    om, ka = model.omega, model.kappa
    p = u + v.conj()
    q = u - v.conj()
    noise = 0.5 * np.block(
        [
            [(q.conj().T @ p).real, (q.conj().T @ q).imag],
            [-(p.conj().T @ p).imag, (p.conj().T @ q).real],
        ]
    )
    hamil = np.block(
        [
            [-(om + ka).imag, (ka - om).real],
            [(om + ka).real, (ka - om).imag],
        ]
    )
    return noise + hamil


def appendix_cz(model: GklsModel):
    """Block formula for cz in terms of U +- conj(V)."""
    p = model.u_mat + model.v_mat.conj()
    q = model.u_mat - model.v_mat.conj()
    return np.block(
        [
            [p.conj().T @ p, -1j * (p.conj().T @ q)],
            [1j * (q.conj().T @ p), q.conj().T @ q],
        ]
    )


def build_drift_diffusion(model: GklsModel) -> DriftDiffusion:
    """Assemble (Z, C, cz) and their spectral data from a model,
    cross-checking the defining and the block constructions against each
    other.
    """
    validate(model, strict=True)
    u, v = model.u_mat, model.v_mat
    z2d = realize_blocks(
        0.5 * (u.T @ u.conj() - v.T @ v.conj()) + 1j * model.omega,
        0.5 * (u.T @ v - v.T @ u) + 1j * model.kappa,
    )
    c2d = realize_blocks(u.T @ u.conj() + v.T @ v.conj(), u.T @ v + v.T @ u)
    j = jmat(model.d)
    cz = c2d.astype(complex) - 1j * (z2d.T @ j + j @ z2d)
    cz = 0.5 * (cz + cz.conj().T)

    z_blocks = appendix_z_realization(model)
    if np.linalg.norm(z2d - z_blocks) > 1e-12 * max(1.0, np.linalg.norm(z2d)):
        raise ConsistencyError("drift realization disagrees with block formula")
    cz_blocks = appendix_cz(model)
    scale = max(1.0, float(np.linalg.norm(cz)))
    if np.linalg.norm(cz - cz_blocks) > 1e-12 * scale:
        raise ConsistencyError("cz disagrees with block formula")
    m_stack = np.hstack([u + v.conj(), -1j * (u - v.conj())])
    if np.linalg.norm(cz - m_stack.conj().T @ m_stack) > 1e-10 * scale:
        raise ConsistencyError("cz disagrees with its Gram factorization")

    cz_spectrum = np.linalg.eigvalsh(cz)
    cz_min = float(cz_spectrum[0])
    if cz_min < -1e-10 * scale:
        raise ConsistencyError(f"cz has a genuinely negative eigenvalue {cz_min:.3e}")
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
