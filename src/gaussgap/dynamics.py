"""Closed-form dynamics: Weyl decay factors, Gaussian state flow, decay
kernels and the split-embedding trace formula.

The semigroup acts on a Weyl operator with argument z by damping it with

    exp(-1/2 int_0^t Re<exp(sZ) z, C exp(sZ) z> ds)

(plus a phase from the linear drive) and transporting the argument along
exp(tZ).  Every exp(tZ2d) and every finite-time integral of the flow, for
one time or an array of times, comes from one routine: the block-matrix
exponential (the right block column of exp([[-Z^T, C], [0, Z]] h), from a
numpy Taylor polynomial whose powers every time shares) at a step h with
h |Z2d|_2 <= 1, then doubling steps up to t, which add positive
semidefinite terms only.  This keeps
full relative precision at short times, at long times and near the
stability boundary, and a stable flow stays finite at every time, down to
an exact zero where the propagator underflows.  The module needs no
scipy.

The decay of centered Weyl combinations in either embedding reduces to the
kernels

    s_t(z, w)      = <exp(tZ2d) vz, (S + iJ) exp(tZ2d) vw>     (one-sided)
    s_breve_t(z,w) = <exp(tZ2d) vz, s_breve exp(tZ2d) vw>      (split)

with vz = [Re z; Im z]; norm_decay sums xi_j* xi_k (exp(s_t) - 1) over the
combination with centered coefficients xi_j = exp(-Re<z_j, S z_j>/2) eta_j.
Every flow function (propagator, gramian_cov, weyl_evolve, state_evolve,
kernel_s) takes a time or a 1-D array of times and gives an array a leading
time axis, each entry bit-identical to the single-time call; norm_decay
takes one propagator or a stack of them.  A WeylCombo may also hold a stack
of combinations, which norm_decay evaluates at once, the combination axes
before the propagator axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
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
    "kernel_psd_check",
    "sharpness_witness",
    "SharpnessWitness",
    "kms_weyl_trace",
    "gramian_cov",
    "propagator",
]

#: |quadratic form| above which exp() would leave double precision
EXP_GUARD = 700.0


#: degree m of the Taylor polynomial of :func:`expm`.  At theta = 1 the
#: remainder of the diagonal blocks, sum_{j > m} 1 / j!, and that of the
#: coupling block relative to |B|, sum_{j >= m} 1 / j! (see expm), are at
#: most 8.6e-18, below half the unit roundoff 2^-53: the Taylor bound of
#: Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 31(3), 2009
TAYLOR_DEGREE = 19
_TAYLOR_COEFFS = [1.0 / math.factorial(j) for j in range(TAYLOR_DEGREE + 1)]


def expm(base, x):
    """Right block column exp(x base)[..., :, n:] of each 2n x 2n block of
    base at each x, n = base.shape[-1] // 2, from the Taylor polynomial of
    degree TAYLOR_DEGREE.  x is an array that broadcasts against the leading
    axes of base and leads the result: times of shape (T,) and one block
    give (T, 2n, n), times of shape (T, 1) and a pair of blocks
    (T, 2, 2n, n).

    The columns P_j = base^j [0; I] take one (2n x 2n) @ (2n x n) product
    per degree, once for all x, as in the exp(tA)B of Al-Mohy and Higham,
    SIAM J. Sci. Comput. 33(2), 2011.  Each x then weighs them,
    sum_j x^j / j! P_j, highest degree first, by a (1 x m) @ (m x 2n^2)
    product of its own, so its column is the same bit for bit whatever the
    other x of the array.  One matrix product of all the weights with the
    stacked columns would not be: BLAS blocks its sums by the size of the
    stack, which changes the last digit of some x against a call with that
    x alone.  An elementwise Horner sum per x is stack-independent too, but
    it streams the whole stack once per degree: about six times as long for
    400 times at d = 8.  The j = 0 term, 1 on the diagonal of [0; I], comes
    last.

    The blocks are upper block triangular, [[A, B], [0, D]] with |x A|_2
    and |x D|_2 at most theta = 1 (:func:`_flow` steps them there).  The
    j-th Taylor term of the coupling block is a sum of j products
    A^i B D^(j-1-i) over j!, of norm at most |x B| / (j - 1)!, and linear in
    B; so the column keeps full relative precision whatever the size of B.
    Every exponential of this module goes through this name."""
    n = base.shape[-1] // 2
    powers = [base[..., n:]]
    for _ in range(TAYLOR_DEGREE - 1):
        powers.append(base @ powers[-1])
    if not powers[1].any():
        # base squares to zero, as for a drift of zero, where x is the time
        # itself and may be far above 1: the polynomial is 1 + x base
        # exactly, and no x^j overflows against a zero power
        powers = powers[:1]
    # x^j / j!, j = m, ..., 1, as a contiguous row per x: a reversed view
    # would take numpy's own loop instead of BLAS
    degrees = len(powers)
    x = np.asarray(x)[..., None, None]
    weights = np.cumprod(np.broadcast_to(x, x.shape[:-1] + (degrees,)), axis=-1)
    weights = np.ascontiguousarray((weights * _TAYLOR_COEFFS[1 : degrees + 1])[..., ::-1])
    stacked = np.stack(powers[::-1], axis=-3).reshape(base.shape[:-2] + (degrees, -1))
    col = (weights @ stacked)[..., 0, :]
    col = col.reshape(col.shape[:-1] + (2 * n, n))
    np.einsum("...ii->...i", col[..., n:, :])[...] += _TAYLOR_COEFFS[0]
    return col


@dataclass(frozen=True)
class GaussianStateParams:
    """Mean vector and 2d x 2d covariance of a Gaussian state, or of each of
    a stack: the mean has shape (..., d) and the covariance (..., 2d, 2d)
    (else DimensionMismatch).

    Mean and covariance must be finite (else RangeExceeded), and every
    covariance must satisfy the uncertainty bound cov2d + iJ >= 0 up to
    tol = 1e-10 max(1, |cov2d|_F): one stacked Cholesky factorization of
    cov2d + iJ + tol / 2 accepts them all, and only when it fails does one
    stacked eigensolve decide, reporting a failing entry of a stack as
    ``index``.  The stored covariance is 0.5 (cov + cov^T), and
    floating-point addition commutes, so every cov2d entry of a stack equals
    its transpose bit for bit, signs of zero included.
    """

    mean: np.ndarray
    cov2d: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=complex))
        cov = np.asarray(self.cov2d, dtype=float)
        d = mean.shape[-1]
        if cov.shape != mean.shape[:-1] + (2 * d, 2 * d):
            raise DimensionMismatch(f"covariance must be {2 * d}x{2 * d}, got {cov.shape}")
        raise_first(
            ~(np.all(np.isfinite(mean), axis=-1) & np.all(np.isfinite(cov), axis=(-2, -1))),
            RangeExceeded,
            "mean or covariance is not finite: the state left double precision",
        )
        cov = 0.5 * (cov + cov.swapaxes(-1, -2))
        # cov + iJ is exactly Hermitian: cov is symmetric and J antisymmetric
        form = cov + 1j * jmat(d)
        tol = 1e-10 * np.maximum(1.0, _fro(cov))
        try:
            # a factor of the form shifted by tol / 2 proves min eig >= -tol
            # for every entry, far outside the factorization's rounding
            np.linalg.cholesky(form + np.asarray(0.5 * tol)[..., None, None] * np.eye(2 * d))
        except np.linalg.LinAlgError:
            lam = np.linalg.eigvalsh(form)[..., 0]
            raise_first(
                lam < -tol,
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
    """Finite combination sum_j eta_j W(z_j), or a stack of them with a
    common term count l: the coefficients have shape (..., l) and the
    vectors (..., l, d).  One combination has no leading axis."""

    coefficients: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        coeff = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        vecs = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        if coeff.shape[-1] == 0:
            raise ValueError("combination must have at least one term")
        if vecs.shape[:-1] != coeff.shape:
            raise ValueError("one vector per coefficient required")
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "vectors", vecs)


def _times(t):
    """A time or a 1-D array of times as a float array (0-d for a time); the
    flow runs forward only."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    if not np.all(np.isfinite(times)):
        raise ValueError("time parameter must be finite")
    if np.any(times < 0):
        raise ValueError("time must be non-negative")
    return times


def propagator(dd: DriftDiffusion, t):
    """exp(t Z2d) for a time t, or the stack (len(t), 2d, 2d) of them for a
    1-D array of times, each slice bit for bit the single-time result."""
    return _flow(dd, t, drive=False)[0]


def _flow(dd: DriftDiffusion, t, start=None, drive=True):
    """(E, G, f) at each time t: the propagator E = exp(t Z2d), the gramian
    G = int_0^t exp(s Z2d^T) C2d exp(s Z2d) ds and the drift
    f = int_0^t exp(s Z2d^T) ds vec2d(zeta) of the drive of dd (None when
    every drive entry is zero, or drive is False for a caller that reads
    only E and G).  Given a start GaussianStateParams, G and f come back as
    the covariance E^T S E + G and the mean vec2d(mu) E - f of that state
    flowed to t.

    Each time takes the step h = t / 2^k, with the least k >= 0 such that
    h |Z2d|_2 <= 1.  One expm call gives the right block columns of the
    exponentials of B h, B = [[-Z^T, C], [0, Z]], and of [[Z^T, 1], [0, 0]] h
    for a nonzero drive that is asked for, at every step; the columns give
    E(h)^-T G(h), E(h) and f(h).  Its base is B / 2^e, with 2^e the power
    of two at or above |Z2d|_2, so the scaling is exact and the base's
    powers stay near 1, and its argument is x = h 2^e <= 2: the Taylor
    powers are shared by every time of the array.  k doubling steps

        G(2h) = G(h) + E(h)^T G(h) E(h),  f(2h) = f(h) + E(h)^T f(h),
        E(2h) = E(h)^2

    then reach t.  The stack is ordered by k once, so the times that still
    double at a step are its tail, and only they are multiplied, in place.
    C and the drive enter the blocks linearly, so the step depends on Z2d
    alone, and a model's E and G are the same bit for bit with and without
    its drive.  E grows by at most a factor e over a step, and every
    doubling adds positive semidefinite terms, so G keeps its relative
    precision at every t, on stable drifts and on others.  A time's result
    does not depend on the other times of the array, nor on their order.  A
    flow that leaves double precision gives values that are not finite,
    without a warning; the callers' guards report them.
    """
    times = _times(t)
    z2d = dd.z2d
    n = z2d.shape[0]
    norm = dd.drift_norm
    # the power of two 2^e at or above |Z2d|_2 scales the blocks exactly
    e = math.ceil(math.log2(norm)) if norm > 0 else 0
    with np.errstate(over="ignore", invalid="ignore"):
        # one stack for a time and for an array of times
        flat = times.reshape(-1)
        span = flat * norm
        # past double range the exponent comes from the logarithms
        logs = np.log2(np.maximum(flat, 1.0)) + np.log2(max(norm, 1.0))
        k = np.ceil(np.where(np.isinf(span), logs, np.log2(np.maximum(span, 1.0)))).astype(int)
        # the stack in the order of k, so that the times that still double
        # at each step are its tail
        order = np.argsort(k, kind="stable")
        k = k[order]
        # x = h 2^e at the step h = t / 2^k
        x = np.ldexp(flat[order], e - k)
        zero = np.zeros((n, n))
        blk = np.block([[-z2d.T, dd.c2d], [zero, z2d]])
        if not (drive and np.any(dd.zeta)):
            col = expm(np.ldexp(blk, -e), x)
            drift = None
        else:
            dblk = np.block([[z2d.T, np.eye(n)], [zero, zero]])
            cols = expm(np.ldexp(np.stack([blk, dblk]), -e), x[:, None])
            col = cols[:, 0]
            drift = cols[:, 1, :n, :] @ vec2d(dd.zeta)
        et = col[..., n:, :]
        gram = et.swapaxes(-1, -2) @ col[..., :n, :]
        for step in range(np.max(k, initial=0)):
            live = np.searchsorted(k, step, side="right")
            et_live, gram_live = et[live:], gram[live:]
            et_sharp = et_live.swapaxes(-1, -2)
            gram_live += et_sharp @ gram_live @ et_live
            if drift is not None:
                drift[live:] += (et_sharp @ drift[live:, :, None])[..., 0]
            et[live:] = et_live @ et_live
        gram = 0.5 * (gram + gram.swapaxes(-1, -2))
        if start is not None:
            mean = vec2d(start.mean) @ et
            drift = mean if drift is None else mean - drift
            gram = et.swapaxes(-1, -2) @ start.cov2d @ et + gram
    # back to the order and shape of t
    undo = np.argsort(order).reshape(times.shape)
    et, gram = et[undo], gram[undo]
    if drift is not None:
        drift = drift[undo]
    return et, gram, drift


def gramian_cov(dd: DriftDiffusion, t):
    """int_0^t exp(s Z2d^T) C2d exp(s Z2d) ds for a time t or a 1-D array of
    times, to full relative precision at every t (see :func:`_flow`)."""
    return _flow(dd, t, drive=False)[1]


@dataclass(frozen=True)
class WeylEvolution:
    """exp(decay_exponent + i phase) W(z_t); a 1-D array of times gives
    every field a leading time axis."""

    decay_exponent: float
    phase: float
    z_t: np.ndarray


def weyl_evolve(dd: DriftDiffusion, z, t) -> WeylEvolution:
    """Damping exponent, drive phase and transported argument of an evolved
    Weyl operator at a time t (floats and a vector), or at each of a 1-D
    array of times (arrays), from one :func:`_flow` call.  A result that
    leaves double precision raises RangeExceeded, naming the first such time
    of an array as ``index``."""
    vz = vec2d(z)
    col = vz[:, None]
    et, gram, drift = _flow(dd, t)
    with np.errstate(over="ignore", invalid="ignore"):
        # one matrix product per time: a vector-stack-vector product would
        # change the last digit of some times against a single-time call
        decay = -0.5 * ((vz @ gram)[..., None, :] @ col)[..., 0, 0]
        phase = np.zeros_like(decay) if drift is None else (drift[..., None, :] @ col)[..., 0, 0]
        z_t = (et @ col)[..., 0]
    raise_first(
        ~(np.isfinite(decay) & np.isfinite(phase) & np.all(np.isfinite(z_t), axis=-1)),
        RangeExceeded,
        "evolved Weyl operator is not finite: the flow left double precision",
    )
    return WeylEvolution(_plain(decay), _plain(phase), unvec2d(z_t))


def state_evolve(dd: DriftDiffusion, sp: GaussianStateParams, t):
    """Flow of Gaussian state parameters,

        mu_t = exp(tZ#) mu - int_0^t exp(sZ#) zeta ds,
        S_t = exp(tZ#) S exp(tZ) + int_0^t exp(sZ#) C exp(sZ) ds,

    with the drive zeta of dd, as one GaussianStateParams for a time t, or
    for a 1-D array of times (a leading time axis; one uncertainty check
    over the whole stack), with the state flowed by one :func:`_flow` call.
    """
    # a flow that overflows gives a state that is not finite, which
    # GaussianStateParams rejects
    _, cov, mean = _flow(dd, t, sp)
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
    val = _kernel_matrix(st, vecs, propagator(dd, t), mode)[..., 0, 1]
    return _plain(val if mode == "gns" else val.real)


def norm_decay(st: StationaryData, combo: WeylCombo, et, mode="gns"):
    """Squared embedded norm of the evolved, centered combination at the
    propagator et = exp(t Z2d), or at each of a stack (T, 2d, 2d) of them:
    the coordinates and centered coefficients are built once, and the
    propagators of a whole time grid come from one :func:`propagator` call,
    t = 0 included (the flow gives exactly the identity there).

    Equals sum_{j,k} conj(xi_j) xi_k (exp(s_t(z_j, z_k)) - 1) and is real
    non-negative; a material imaginary residue raises ConsistencyError since
    the closed form guarantees a real value, and a kernel value past the
    exp() envelope raises RangeExceeded.

    One combination gives a float, or an array of T norms; a stack of
    combinations (leading shape C) gives an array of shape C or C + (T,).
    Every entry equals the call on its own combination and propagator bit
    for bit.  Both guards name the first failing combination of a stack as
    ``index``.
    """
    coeff = combo.coefficients
    cshape, terms = coeff.shape[:-1], coeff.shape[-1]
    # [Re z; Im z] of each term as the columns of a C-contiguous (2d, l)
    # block per combination: a transposed view changes the Gram products'
    # last digits for l >= 2
    vecs = np.ascontiguousarray(
        np.concatenate([combo.vectors.real, combo.vectors.imag], axis=-1).swapaxes(-1, -2)
    )
    over_t = np.ndim(et) > 2
    gram = _kernel_matrix(st, vecs[..., None, :, :] if cshape and over_t else vecs, et, mode)
    # NaN-safe: a propagator that left double precision fails too
    peak = np.max(np.abs(gram), axis=tuple(range(len(cshape), gram.ndim)))
    raise_first(
        ~(peak <= EXP_GUARD),
        RangeExceeded,
        "kernel values exceed the exp() envelope or are not finite; "
        "rescale the Weyl arguments or the times",
    )
    # one einsum per combination: a stacked einsum changes the last digit
    # of some forms (d = 1, l = 1)
    flat = vecs.reshape(-1, *vecs.shape[-2:])
    quad = np.stack([np.einsum("ji,jk,ki->i", v, st.s2d, v) for v in flat])
    xi = np.exp(-0.5 * quad.reshape(coeff.shape)) * coeff
    # xi as a row per combination and propagator, for one matrix product per
    # propagator: a vector-stack-vector product would change the last digit
    # of some norms against a single-propagator call
    row = xi.reshape(cshape + (1,) * over_t + (1, terms))
    total = ((np.conj(row) @ (np.exp(gram) - 1.0)) @ row.swapaxes(-1, -2))[..., 0, 0]
    residue = np.abs(total.imag) > 1e-9 * np.maximum(1.0, np.abs(total))
    if over_t:
        first = np.argmax(residue, axis=-1)
        imag = np.take_along_axis(total.imag, first[..., None], -1)[..., 0]
        raise_first(
            residue.any(axis=-1),
            ConsistencyError,
            "decay norm acquired an imaginary part {:.3e} at propagator {} of the stack",
            imag,
            first,
        )
    else:
        raise_first(
            residue, ConsistencyError, "decay norm acquired an imaginary part {:.3e}", total.imag
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
):
    """Minimum eigenvalue of the Gram matrix of the decay-dominance kernel

        K_{n,t}(z, w) = exp(-2 rate t) s_0(z, w)^n - s_t(z, w)^n

    over the given points.  The kernel is positive semidefinite exactly when
    the rate is a valid decay rate.
    """
    if n < 1:
        raise ValueError("kernel order must be >= 1")
    vecs = np.column_stack([vec2d(z) for z in points])
    g0, gt = _kernel_matrix(st, vecs, propagator(dd, [0.0, t]), mode)
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
