"""Closed-form dynamics: Weyl decay factors, Gaussian state flow, decay
kernels and the split-embedding trace formula.

The semigroup acts on a Weyl operator with argument z by damping it with

    exp(-1/2 int_0^t Re<exp(sZ) z, C exp(sZ) z> ds)

(plus a phase from the linear drive) and transporting the argument along
exp(tZ).  All finite-time integrals are evaluated with the block-matrix
exponential trick (exponentiate [[-Z^T, C], [0, Z]] t and read the
off-diagonal block), which is quadrature-free and accurate to machine
precision.

The decay of centered Weyl combinations in either embedding reduces to the
kernels

    s_t(z, w)      = <exp(tZ2d) vz, (S + iJ) exp(tZ2d) vw>     (one-sided)
    s_breve_t(z,w) = <exp(tZ2d) vz, s_breve exp(tZ2d) vw>      (split)

with vz = [Re z; Im z]; norm_decay sums xi_j* xi_k (exp(s_t) - 1) over the
combination with centered coefficients xi_j = exp(-Re<z_j, S z_j>/2) eta_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    ConsistencyError,
    NotFaithful,
    NotPositiveDefinite,
    RangeExceeded,
)
from .model import DriftDiffusion
from .realops import jmat, unvec2d, vec2d
from .stationary import StationaryData
from .gap import fix_phase, gns_gap

__all__ = [
    "GaussianStateParams",
    "WeylCombo",
    "WeylEvolution",
    "weyl_evolve",
    "state_evolve",
    "char_fn",
    "kernel_s",
    "norm_decay",
    "kernel_psd_check",
    "sharpness_witness",
    "SharpnessWitness",
    "kms_weyl_trace",
    "gramian_cov",
    "integrated_exp",
    "propagator",
]

#: |quadratic form| above which exp() would leave double precision
EXP_GUARD = 700.0


@dataclass(frozen=True)
class GaussianStateParams:
    """Mean vector and 2d x 2d covariance of a Gaussian state.

    The covariance must satisfy the uncertainty bound: cov2d + iJ >= 0.
    """

    mean: np.ndarray
    cov2d: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=complex).ravel()
        cov = np.asarray(self.cov2d, dtype=float)
        d = mean.shape[0]
        if cov.shape != (2 * d, 2 * d):
            raise NotPositiveDefinite(
                f"covariance must be {2 * d}x{2 * d}, got {cov.shape}"
            )
        cov = 0.5 * (cov + cov.T)
        tilde = cov.astype(complex) + 1j * jmat(d)
        lam = float(np.linalg.eigvalsh(0.5 * (tilde + tilde.conj().T))[0])
        if lam < -1e-10 * max(1.0, np.linalg.norm(cov)):
            raise NotPositiveDefinite(
                f"covariance violates the uncertainty bound (min eig {lam:.3e})"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov2d", cov)

    @property
    def dim_d(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def vacuum(cls, d):
        return cls(np.zeros(d, dtype=complex), np.eye(2 * d))


@dataclass(frozen=True)
class WeylCombo:
    """Finite combination sum_j eta_j W(z_j)."""

    coefficients: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex).ravel()
        vecs = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        if coeff.shape[0] == 0:
            raise ValueError("combination must have at least one term")
        if vecs.shape[0] != coeff.shape[0]:
            raise ValueError("one vector per coefficient required")
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "vectors", vecs)

    def __len__(self):
        return self.coefficients.shape[0]


def propagator(dd: DriftDiffusion, t: float):
    """exp(t Z2d), cached on the drift/diffusion object."""
    if not math.isfinite(t):
        raise ValueError("time parameter must be finite")
    key = ("prop", float(t))
    if key not in dd._cache:
        dd._cache[key] = expm(float(t) * dd.z2d)
    return dd._cache[key]


def gramian_cov(dd: DriftDiffusion, t: float):
    """int_0^t exp(s Z2d^T) C2d exp(s Z2d) ds by the block-exponential
    method."""
    key = ("gram", float(t))
    if key in dd._cache:
        return dd._cache[key]
    z2d, c2d = dd.z2d, dd.c2d
    n = z2d.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = -z2d.T
    blk[:n, n:] = c2d
    blk[n:, n:] = z2d
    eblk = expm(float(t) * blk)
    gram = expm(float(t) * z2d.T) @ eblk[:n, n:]
    gram = 0.5 * (gram + gram.T)
    dd._cache[key] = gram
    return gram


def integrated_exp(a2d, t: float):
    """int_0^t exp(s A) ds by the block-exponential method."""
    a2d = np.asarray(a2d, dtype=float)
    n = a2d.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = a2d
    blk[:n, n:] = np.eye(n)
    return expm(float(t) * blk)[:n, n:]


@dataclass(frozen=True)
class WeylEvolution:
    decay_exponent: float
    phase: float
    z_t: np.ndarray


def weyl_evolve(dd: DriftDiffusion, z, t: float, zeta=None) -> WeylEvolution:
    """Damping exponent, drive phase and transported argument of an evolved
    Weyl operator: the image is exp(decay + i phase) W(z_t)."""
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    z = np.asarray(z, dtype=complex).ravel()
    vz = vec2d(z)
    decay = -0.5 * float(vz @ gramian_cov(dd, t) @ vz)
    z_t = unvec2d(propagator(dd, t) @ vz)
    phase = 0.0
    if zeta is not None:
        zeta = np.asarray(zeta, dtype=complex).ravel()
        if np.any(zeta != 0):
            phase = float(vec2d(zeta) @ integrated_exp(dd.z2d, t) @ vz)
    return WeylEvolution(decay_exponent=decay, phase=phase, z_t=z_t)


def state_evolve(
    dd: DriftDiffusion, sp: GaussianStateParams, t: float, zeta=None
) -> GaussianStateParams:
    """Flow of Gaussian state parameters:
    mu_t = exp(tZ#) mu - int_0^t exp(sZ#) zeta ds,
    S_t = exp(tZ#) S exp(tZ) + int_0^t exp(sZ#) C exp(sZ) ds."""
    if t < 0:
        raise ValueError("evolution time must be non-negative")
    et = propagator(dd, t)
    et_sharp = et.T
    mu_vec = et_sharp @ vec2d(sp.mean)
    if zeta is not None:
        zeta = np.asarray(zeta, dtype=complex).ravel()
        if np.any(zeta != 0):
            mu_vec = mu_vec - integrated_exp(dd.z2d.T, t) @ vec2d(zeta)
    cov_t = et_sharp @ sp.cov2d @ et + gramian_cov(dd, t)
    return GaussianStateParams(mean=unvec2d(mu_vec), cov2d=cov_t)


def char_fn(sp: GaussianStateParams, z) -> complex:
    """Quantum characteristic function
    exp(-i Re<mu, z> - Re<z, S z>/2)."""
    vz = vec2d(z)
    lin = float(vec2d(sp.mean) @ vz)
    quad = float(vz @ sp.cov2d @ vz)
    return complex(np.exp(-1j * lin - 0.5 * quad))


def _kernel_matrix(st: StationaryData, dd: DriftDiffusion, vecs, t, mode):
    """Gram matrix of the decay kernel over the columns of vecs (2d x l)."""
    if mode not in ("gns", "kms"):
        raise ValueError(f"unknown mode {mode!r}")
    w = propagator(dd, t) @ vecs if t != 0 else vecs
    if mode == "gns":
        return w.T @ st.s_tilde @ w
    if st.s_breve is None:
        raise NotFaithful("split-embedding kernel needs a faithful state")
    return w.T @ st.s_breve @ w


def kernel_s(st: StationaryData, dd: DriftDiffusion, z, w, t: float, mode="gns"):
    """Decay kernel s_t(z, w) (complex for the one-sided embedding, real for
    the split one)."""
    if t < 0:
        raise ValueError("kernel time must be non-negative")
    vecs = np.column_stack([vec2d(z), vec2d(w)])
    val = _kernel_matrix(st, dd, vecs, t, mode)[0, 1]
    return complex(val) if mode == "gns" else float(val.real)


def _centered_coefficients(st: StationaryData, combo: WeylCombo):
    vecs = np.column_stack([vec2d(z) for z in combo.vectors])
    quad = np.einsum("ji,jk,ki->i", vecs, st.s2d, vecs)
    return np.exp(-0.5 * quad) * combo.coefficients


def norm_decay(
    st: StationaryData, dd: DriftDiffusion, combo: WeylCombo, t: float, mode="gns"
) -> float:
    """Squared embedded norm of the evolved, centered combination.

    Equals sum_{j,k} conj(xi_j) xi_k (exp(s_t(z_j, z_k)) - 1) and is real
    non-negative; a material imaginary residue raises ConsistencyError since
    the closed form guarantees a real value.
    """
    if t < 0:
        raise ValueError("decay time must be non-negative")
    vecs = np.column_stack([vec2d(z) for z in combo.vectors])
    gram = _kernel_matrix(st, dd, vecs, t, mode)
    if float(np.max(np.abs(gram))) > EXP_GUARD:
        raise RangeExceeded(
            "kernel values exceed the exp() envelope; rescale the Weyl arguments"
        )
    xi = _centered_coefficients(st, combo)
    total = complex(np.conj(xi) @ (np.exp(gram) - 1.0) @ xi)
    scale = max(1.0, abs(total))
    if abs(total.imag) > 1e-9 * scale:
        raise ConsistencyError(
            f"decay norm acquired an imaginary part {total.imag:.3e}"
        )
    return float(total.real)


def kernel_psd_check(
    st: StationaryData,
    dd: DriftDiffusion,
    points,
    n: int,
    t: float,
    rate: float,
    mode="gns",
    use_root=False,
):
    """Minimum eigenvalue of the Gram matrix of the decay-dominance kernel

        K_{n,t}(z, w) = exp(-2 rate t) s_0(z, w)^n - s_t(z, w)^n

    over the given points (with the n-th-root variant
    exp(-2 rate t / n) s_0 - s_t when use_root is set).  The kernel is
    positive semidefinite exactly when the rate is a valid decay rate.
    """
    if n < 1:
        raise ValueError("kernel order must be >= 1")
    if t < 0:
        raise ValueError("kernel time must be non-negative")
    vecs = np.column_stack([vec2d(z) for z in points])
    g0 = _kernel_matrix(st, dd, vecs, 0.0, mode)
    gt = _kernel_matrix(st, dd, vecs, t, mode)
    if use_root:
        term0 = np.exp(-2.0 * rate * t / n) * g0
        termt = gt
    else:
        term0 = np.exp(-2.0 * rate * t) * g0**n
        termt = gt**n
    kmat = term0 - termt
    kmat = 0.5 * (kmat + kmat.conj().T)
    lam_min = float(np.linalg.eigvalsh(kmat)[0])
    # the difference vanishes at the exact rate, so the pass threshold is
    # scaled by the ingredients rather than by the difference itself
    scale = max(
        float(np.linalg.norm(term0)), float(np.linalg.norm(termt)), 1e-300
    )
    return lam_min, bool(lam_min >= -1e-8 * scale)


@dataclass(frozen=True)
class SharpnessWitness:
    """Two-term combination W(r z1) + i W(r z2) that beats any decay rate
    faster than the spectral bound for small r and t."""

    z1: np.ndarray
    z2: np.ndarray
    coefficients: np.ndarray
    omega0: float
    s0_zz: float
    f2: float


def sharpness_witness(
    st: StationaryData, dd: DriftDiffusion, omega_test: float
) -> SharpnessWitness:
    """Optimality certificate for the one-sided decay rate.

    Builds z in C^{2d} whose s_tilde^{1/2} image is a top eigenvector of the
    Hermitian similarity matrix, splits it into the two Weyl arguments
    z1 = Re z_p + i Re z_q, z2 = Im z_p + i Im z_q, and returns

        f''(0) = 2 (omega0 - omega_test) s_0(z, z)

    for f(r) = d/dt[ ||T_t x_r||^2 - e^{t omega_test} ||x_r||^2 ]|_{t=0} with
    x_r = W(r z1) + i W(r z2).  The analytic value is cross-checked against a
    fourth-order central second difference of f at step 1e-3 (the stencil
    order keeps the truncation error below the 1e-4 agreement requirement
    even when omega_test sits just below omega0); f2 > 0 certifies that
    every rate faster than omega0 is violated for small r, t.
    """
    gns = gns_gap(dd, st)
    omega0 = gns.omega0
    if omega_test >= omega0:
        raise ValueError(
            f"omega_test = {omega_test:.6g} must lie strictly below omega0 = {omega0:.6g}"
        )
    root, inv_root = st.tilde_roots
    # fix_phase is invariant under a global phase, so the phase gns_gap gave
    # its witness does not matter here
    z_coord = fix_phase(inv_root @ gns.witness)
    # scale so that s_0(z, z) = 1 exactly: <z, s_tilde z> = ||root z||^2
    nrm = float(np.linalg.norm(root @ z_coord))
    z_coord = z_coord / nrm
    d = dd.dim_d
    z_p, z_q = z_coord[:d], z_coord[d:]
    z1 = z_p.real + 1j * z_q.real
    z2 = z_p.imag + 1j * z_q.imag
    s0_zz = float((z_coord.conj() @ st.s_tilde @ z_coord).real)
    f2 = 2.0 * (omega0 - omega_test) * s0_zz

    # independent check by differencing f(r) around r = 0 (f is even)
    coeffs = np.array([1.0, 1.0j])
    vecs = np.column_stack([vec2d(z1), vec2d(z2)])
    g0 = vecs.T @ st.s_tilde @ vecs
    dsdt = -(vecs.T @ dd.cz @ vecs)

    def f_of_r(r):
        xi = np.exp(-0.5 * r**2 * np.diag(g0).real) * coeffs
        inner = (r**2 * dsdt - omega_test) * np.exp(r**2 * g0) + omega_test
        return float((np.conj(xi) @ inner @ xi).real)

    h = 1e-3
    f2_fd = (
        -f_of_r(2 * h)
        + 16.0 * f_of_r(h)
        - 30.0 * f_of_r(0.0)
        + 16.0 * f_of_r(-h)
        - f_of_r(-2 * h)
    ) / (12.0 * h**2)
    if abs(f2_fd - f2) > 1e-4 * max(abs(f2), 1e-12):
        raise ConsistencyError(
            f"sharpness second derivative mismatch: {f2:.6e} vs {f2_fd:.6e}"
        )
    return SharpnessWitness(
        z1=z1, z2=z2, coefficients=coeffs, omega0=omega0, s0_zz=s0_zz, f2=f2
    )


def kms_weyl_trace(st: StationaryData, z, w) -> float:
    """Overlap tr(rho^1/2 W(z) rho^1/2 W(w)) of the faithful invariant state:
    exp(-(Re<z,Sz> + Re<w,Sw> + 2 Re<z, s_breve w>)/2)."""
    if st.s_breve is None:
        raise NotFaithful("split trace formula needs a faithful state")
    vz, vw = vec2d(z), vec2d(w)
    qz = float(vz @ st.s2d @ vz)
    qw = float(vw @ st.s2d @ vw)
    cross = float(vz @ st.s_breve @ vw)
    return float(np.exp(-0.5 * (qz + qw + 2.0 * cross)))
