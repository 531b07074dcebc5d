"""Closed-form dynamics: Weyl decay factors, Gaussian state flow, decay
kernels and the split-embedding trace formula.

The semigroup acts on a Weyl operator with argument z by damping it with

    exp(-1/2 int_0^t Re<exp(sZ) z, C exp(sZ) z> ds)

(plus a phase from the linear drive) and transporting the argument along
exp(tZ).  Every function takes its propagators exp(tZ2d) from one expm call,
for one time or a whole array of times.  The finite-time integrals of the
flow come from the block-matrix exponential (exponentiate
[[-Z^T, C], [0, Z]] h and read the off-diagonal block) at a step h short
enough that the block stays of order one, followed by doubling steps up to
t, which add positive semidefinite terms only; this keeps full relative
precision at short times, at long times and near the stability boundary.

The decay of centered Weyl combinations in either embedding reduces to the
kernels

    s_t(z, w)      = <exp(tZ2d) vz, (S + iJ) exp(tZ2d) vw>     (one-sided)
    s_breve_t(z,w) = <exp(tZ2d) vz, s_breve exp(tZ2d) vw>      (split)

with vz = [Re z; Im z]; norm_decay sums xi_j* xi_k (exp(s_t) - 1) over the
combination with centered coefficients xi_j = exp(-Re<z_j, S z_j>/2) eta_j.
Every flow function (propagator, gramian_cov, weyl_evolve, state_evolve,
kernel_s, norm_decay) takes a time or a 1-D array of times and gives an
array a leading time axis, each entry bit-identical to the single-time
call; norm_decay_at takes one propagator or a stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    ConsistencyError,
    NotFaithful,
    NotPositiveDefinite,
    RangeExceeded,
    raise_first,
)
from .model import DriftDiffusion, _fro, _plain
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
    "norm_decay_at",
    "kernel_psd_check",
    "sharpness_witness",
    "SharpnessWitness",
    "kms_weyl_trace",
    "gramian_cov",
    "propagator",
]

#: |quadratic form| above which exp() would leave double precision
EXP_GUARD = 700.0


@dataclass(frozen=True)
class GaussianStateParams:
    """Mean vector and 2d x 2d covariance of a Gaussian state, or of each of
    a stack: the mean has shape (..., d) and the covariance (..., 2d, 2d).

    Every covariance must satisfy the uncertainty bound cov2d + iJ >= 0; one
    stacked eigensolve checks them all, and a failing entry of a stack is
    reported as ``index``.
    """

    mean: np.ndarray
    cov2d: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=complex))
        cov = np.asarray(self.cov2d, dtype=float)
        d = mean.shape[-1]
        if cov.shape != mean.shape[:-1] + (2 * d, 2 * d):
            raise NotPositiveDefinite(
                f"covariance must be {2 * d}x{2 * d}, got {cov.shape}"
            )
        cov = 0.5 * (cov + cov.swapaxes(-1, -2))
        # cov + iJ is exactly Hermitian: cov is symmetric and J antisymmetric
        lam = np.linalg.eigvalsh(cov + 1j * jmat(d))[..., 0]
        raise_first(
            lam < -1e-10 * np.maximum(1.0, _fro(cov)),
            NotPositiveDefinite,
            "covariance violates the uncertainty bound (min eig {:.3e})",
            lam,
        )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov2d", cov)

    @property
    def dim_d(self) -> int:
        return self.mean.shape[-1]

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


def _times(t):
    """A time or a 1-D array of times as a float array (0-d for a time)."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    if not np.all(np.isfinite(times)):
        raise ValueError("time parameter must be finite")
    return times


def _forward_times(t, kind="evolution"):
    """:func:`_times` for an evolution, a decay or a kernel, which run
    forward only."""
    times = _times(t)
    if np.any(times < 0):
        raise ValueError(f"{kind} time must be non-negative")
    return times


def propagator(dd: DriftDiffusion, t):
    """exp(t Z2d) for a time t, or the stack (len(t), 2d, 2d) of them for a
    1-D array of times, from one expm call.  expm treats each slice of a
    stack as a separate matrix, so a slice equals the single-time result
    bit for bit."""
    return expm(_times(t)[..., None, None] * dd.z2d)


def _flow(dd: DriftDiffusion, times, zeta=None):
    """(E, G, f) at each time t: the propagator E = exp(t Z2d), the gramian
    G = int_0^t exp(s Z2d^T) C2d exp(s Z2d) ds and, for a drive zeta, the
    drift f = int_0^t exp(s Z2d^T) ds vec2d(zeta) (else None).

    One expm call exponentiates [[-Z^T, C], [0, Z]] h, and [[Z^T, 1], [0, 0]] h
    for a drive, at the step h = t / 2^k of each time, with the least k >= 0
    such that h |Z2d|_1 <= 1; the blocks give E(h), E(h)^-T G(h) and f(h).
    k doubling steps

        G(2h) = G(h) + E(h)^T G(h) E(h),  f(2h) = f(h) + E(h)^T f(h),
        E(2h) = E(h)^2

    then reach t.  The block grows by at most exp(h |Z2d|_1) <= e over a
    step, and every doubling adds positive semidefinite terms, so G keeps
    its relative precision at every t, on stable drifts and on others.  A
    time's result does not depend on the other times of the array.
    """
    z2d = dd.z2d
    n = z2d.shape[0]
    span = np.abs(times) * np.linalg.norm(z2d, 1)
    k = np.ceil(np.log2(np.maximum(span, 1.0)))
    h = (times / 2.0**k)[..., None, None]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = -z2d.T
    blk[:n, n:] = dd.c2d
    blk[n:, n:] = z2d
    if zeta is None:
        eblk = expm(h * blk)
        drift = None
    else:
        dblk = np.zeros((2 * n, 2 * n))
        dblk[:n, :n] = z2d.T
        dblk[:n, n:] = np.eye(n)
        eblk, edrift = expm(np.stack([h * blk, h * dblk]))
        drift = edrift[..., :n, n:] @ vec2d(zeta)
    et = eblk[..., n:, n:]
    gram = et.swapaxes(-1, -2) @ eblk[..., :n, n:]
    for step in range(int(np.max(k, initial=0.0))):
        # the times that still double
        live = (step < k)[..., None, None]
        et_sharp = et.swapaxes(-1, -2)
        gram = np.where(live, gram + et_sharp @ gram @ et, gram)
        if drift is not None:
            drift = np.where(live[..., 0], drift + (et_sharp @ drift[..., None])[..., 0], drift)
        et = np.where(live, et @ et, et)
    return et, 0.5 * (gram + gram.swapaxes(-1, -2)), drift


def gramian_cov(dd: DriftDiffusion, t):
    """int_0^t exp(s Z2d^T) C2d exp(s Z2d) ds for a time t or a 1-D array of
    times, to full relative precision at every t (see :func:`_flow`)."""
    return _flow(dd, _times(t))[1]


def _nonzero(zeta):
    """zeta as a complex vector, or None when it is absent or zero."""
    if zeta is None:
        return None
    zeta = np.asarray(zeta, dtype=complex).ravel()
    return zeta if np.any(zeta != 0) else None


@dataclass(frozen=True)
class WeylEvolution:
    """exp(decay_exponent + i phase) W(z_t); a 1-D array of times gives
    every field a leading time axis."""

    decay_exponent: float
    phase: float
    z_t: np.ndarray


def weyl_evolve(dd: DriftDiffusion, z, t, zeta=None) -> WeylEvolution:
    """Damping exponent, drive phase and transported argument of an evolved
    Weyl operator at a time t (floats and a vector), or at each of a 1-D
    array of times (arrays), from one :func:`_flow` call."""
    vz = vec2d(z)
    col = vz[:, None]
    et, gram, drift = _flow(dd, _forward_times(t), _nonzero(zeta))
    # one matrix product per time: a vector-stack-vector product would
    # change the last digit of some times against a single-time call
    decay = -0.5 * ((vz @ gram)[..., None, :] @ col)[..., 0, 0]
    phase = np.zeros_like(decay) if drift is None else (drift[..., None, :] @ col)[..., 0, 0]
    return WeylEvolution(_plain(decay), _plain(phase), unvec2d((et @ col)[..., 0]))


def state_evolve(dd: DriftDiffusion, sp: GaussianStateParams, t, zeta=None):
    """Flow of Gaussian state parameters,

        mu_t = exp(tZ#) mu - int_0^t exp(sZ#) zeta ds,
        S_t = exp(tZ#) S exp(tZ) + int_0^t exp(sZ#) C exp(sZ) ds,

    as one GaussianStateParams for a time t, or for a 1-D array of times
    (a leading time axis; one uncertainty check over the whole stack), with
    every integral from one :func:`_flow` call.
    """
    et, gram, drift = _flow(dd, _forward_times(t), _nonzero(zeta))
    mean = vec2d(sp.mean) @ et
    if drift is not None:
        mean = mean - drift
    cov = et.swapaxes(-1, -2) @ sp.cov2d @ et + gram
    return GaussianStateParams(mean=unvec2d(mean), cov2d=cov)


def char_fn(sp: GaussianStateParams, z) -> complex:
    """Quantum characteristic function
    exp(-i Re<mu, z> - Re<z, S z>/2)."""
    vz = vec2d(z)
    lin = float(vec2d(sp.mean) @ vz)
    quad = float(vz @ sp.cov2d @ vz)
    return complex(np.exp(-1j * lin - 0.5 * quad))


def _kernel_matrix(st: StationaryData, vecs, et, mode):
    """Gram matrix of the decay kernel over the columns of vecs (2d x l) at
    the propagator et = exp(t Z2d), or at each of a stack (T, 2d, 2d) of
    them.  The stacked products equal the single-propagator ones slice by
    slice, bit for bit."""
    if mode not in ("gns", "kms"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "gns":
        form = st.s_tilde
    elif st.faithful:
        form = st.s_breve
    else:
        raise NotFaithful("split-embedding kernel needs a faithful state")
    w = et @ vecs
    return w.swapaxes(-1, -2) @ form @ w


def kernel_s(st: StationaryData, dd: DriftDiffusion, z, w, t, mode="gns"):
    """Decay kernel s_t(z, w) (complex for the one-sided embedding, real for
    the split one) at a time t, or the array of them at a 1-D array of
    times."""
    vecs = np.column_stack([vec2d(z), vec2d(w)])
    et = propagator(dd, _forward_times(t, "kernel"))
    val = _kernel_matrix(st, vecs, et, mode)[..., 0, 1]
    return _plain(val if mode == "gns" else val.real)


def norm_decay(st: StationaryData, dd: DriftDiffusion, combo: WeylCombo, t, mode="gns"):
    """Squared embedded norm of the evolved, centered combination at a time
    t, or the array of them at a 1-D array of times (one :func:`propagator`
    call and one :func:`norm_decay_at` call).

    Equals sum_{j,k} conj(xi_j) xi_k (exp(s_t(z_j, z_k)) - 1) and is real
    non-negative; a material imaginary residue raises ConsistencyError since
    the closed form guarantees a real value.
    """
    return norm_decay_at(st, combo, propagator(dd, _forward_times(t, "decay")), mode)


def norm_decay_at(st: StationaryData, combo: WeylCombo, et, mode="gns"):
    """:func:`norm_decay` at the propagator et = exp(t Z2d) (a float), or at
    each of a stack (T, 2d, 2d) of them (an array of T norms), for callers
    that evaluate a fixed time grid: the combination's coordinates and
    centered coefficients are built once, and the propagators of a whole
    grid come from one :func:`propagator` call, t = 0 included (expm of the
    zero matrix is exactly the identity)."""
    vecs = np.column_stack([vec2d(z) for z in combo.vectors])
    gram = _kernel_matrix(st, vecs, et, mode)
    if float(np.max(np.abs(gram))) > EXP_GUARD:
        raise RangeExceeded(
            "kernel values exceed the exp() envelope; rescale the Weyl arguments"
        )
    quad = np.einsum("ji,jk,ki->i", vecs, st.s2d, vecs)
    xi = np.exp(-0.5 * quad) * combo.coefficients
    # one matrix product per propagator: a vector-stack-vector product would
    # change the last digit of some norms against a single-propagator call
    total = ((np.conj(xi) @ (np.exp(gram) - 1.0))[..., None, :] @ xi[:, None])[..., 0, 0]
    residue = np.abs(total.imag) > 1e-9 * np.maximum(1.0, np.abs(total))
    if np.any(residue):
        first = int(np.flatnonzero(residue)[0])
        where = f" at propagator {first} of the stack" if total.ndim else ""
        raise ConsistencyError(
            f"decay norm acquired an imaginary part {total.flat[first].imag:.3e}{where}"
        )
    return total.real if total.ndim else float(total.real)


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
    props = propagator(dd, _forward_times([0.0, t], "kernel"))
    vecs = np.column_stack([vec2d(z) for z in points])
    g0, gt = _kernel_matrix(st, vecs, props, mode)
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
    if not st.faithful:
        raise NotFaithful("split trace formula needs a faithful state")
    vz, vw = vec2d(z), vec2d(w)
    qz = float(vz @ st.s2d @ vz)
    qw = float(vw @ st.s2d @ vw)
    cross = float(vz @ st.s_breve @ vw)
    return float(np.exp(-0.5 * (qz + qw + 2.0 * cross)))
