"""Spectral gaps of the embedded semigroup, closed forms and diagnostics.

For a stable drift with faithful invariant state the contraction semigroup
obtained by right multiplication with the square root of the invariant
density has decay rate g = -omega0/2, where omega0 is the greatest eigenvalue
of the Hermitian matrix

    B = T^{1/2} Z T^{-1/2} + T^{-1/2} Z^T T^{1/2},      T = s_tilde,

equivalently -omega0 is the smallest eigenvalue of cz T^{-1}.  The symmetric
split embedding (density root on both sides) obeys the same construction
with the real covariance s_breve in place of s_tilde.  Both routes are always
computed and must agree; disagreements raise, they are never averaged away.

When the drift is unstable or cz is singular there is no gap in the
one-sided embedding; no_gap_diagnosis produces a checkable witness for the
failing condition.

gns_gap and kms_gap take one model or a stack of models (leading axes);
analyze_stack runs the pipeline on a stack through the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    GaussGapError,
    NoFaithfulState,
    NotFaithful,
    RangeExceeded,
    raise_first,
)
from .model import DriftDiffusion, GklsModel, _norm, _plain, build_drift_diffusion
from .stationary import StationaryData, solve_stationary

__all__ = [
    "GapReport",
    "Finding",
    "gns_gap",
    "kms_gap",
    "one_dim_closed_forms",
    "OneDimClosedForms",
    "no_gap_diagnosis",
    "analyze",
    "analyze_stack",
    "StackAnalysis",
    "fix_phase",
]

ROUTE_TOL = 1e-10
#: two routes to omega0 through the roots of a matrix T differ by rounding of
#: order eps * |Z| * cond(T); a cross-check also accepts this many times that
#: (measured: at most about 2 times, on single-mode walks to the pure
#: boundary and random models up to d = 16)
ROUTE_ROUNDING = 64


def _routes_agree(drift_norm, omega0, other, roots):
    """Whether two routes to omega0 that go through roots = (T^{1/2},
    T^{-1/2}) agree to ROUTE_TOL, or else within ROUTE_ROUNDING times their
    rounding; entrywise for stacks."""
    diff = abs(omega0 - other)
    agree = diff <= ROUTE_TOL * np.maximum(1.0, abs(omega0))
    if agree.all():
        return agree
    root, inv_root = roots
    cond = (
        np.linalg.norm(root, 2, axis=(-2, -1))
        * np.linalg.norm(inv_root, 2, axis=(-2, -1))
    ) ** 2
    return agree | (diff <= ROUTE_ROUNDING * np.finfo(float).eps * drift_norm * cond)


def fix_phase(v):
    """Normalize a vector and rotate its global phase so the largest-modulus
    entry is real positive (first such entry on ties)."""
    v = np.asarray(v, dtype=complex).ravel()
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return v
    v = v / nrm
    idx = int(np.argmax(np.abs(v)))
    pivot = v[idx]
    if abs(pivot) > 0:
        v = v * (abs(pivot) / pivot)
    out = v.copy()
    out[idx] = abs(out[idx])
    return out


@dataclass(frozen=True)
class GapComputation:
    """Decay rate of one embedding with the data that certifies it; for a
    stack every field is an array over its entries."""

    omega0: float
    g: float
    #: top eigenvector of the Hermitian similarity matrix, real for the
    #: split embedding
    top: np.ndarray
    #: smallest eigenvalue of the dissipation form K = -(Z^T T + T Z):
    #: cz for the one-sided embedding, kbreve for the split one
    form_min_eig: float
    #: kernel condition of the gap theorem: K strictly positive (for the
    #: one-sided embedding, full Kraus rank)
    kernel_condition_ok: bool

    @property
    def witness(self) -> np.ndarray:
        """The top eigenvector, phase-fixed (see fix_phase)."""
        w = np.apply_along_axis(fix_phase, -1, self.top)
        return w if np.iscomplexobj(self.top) else w.real


def _top_rate(z2d, drift_norm, roots, k_form):
    """omega0 and its top eigenvector for the embedding of T with
    roots = (T^{1/2}, T^{-1/2}) and dissipation form k_form = K; entrywise
    for stacks.

    The similarity route takes the top eigenpair of
    T^{1/2} Z T^{-1/2} + h.c.; the form route the smallest eigenvalue of
    T^{-1/2} K T^{-1/2}, which is -omega0 by an algebraic identity.  Both
    must agree (see _routes_agree).
    """
    root, inv_root = roots
    sim = root @ z2d @ inv_root
    # sim + sim^H is exactly Hermitian in floating point
    evals, evecs = np.linalg.eigh(sim + sim.swapaxes(-1, -2).conj())
    omega0 = evals[..., -1]
    form = inv_root @ k_form @ inv_root
    form = 0.5 * (form + form.swapaxes(-1, -2).conj())
    alt = -np.linalg.eigvalsh(form)[..., 0]
    raise_first(
        ~_routes_agree(drift_norm, omega0, alt, roots),
        ConsistencyError,
        "gap routes disagree: similarity {:.3e} vs form {:.3e}",
        omega0,
        alt,
    )
    return omega0, evecs[..., -1]


def _kbreve(z2d, s_breve):
    """kbreve = -(Z^T s_breve + s_breve Z), symmetrized."""
    kbreve = -(z2d.swapaxes(-1, -2) @ s_breve + s_breve @ z2d)
    return 0.5 * (kbreve + kbreve.swapaxes(-1, -2))


def gns_gap(dd: DriftDiffusion, st: StationaryData) -> GapComputation:
    """Decay rate of the one-sided embedding, T = s_tilde and K = cz.

    When cz is singular the gap is reported as exactly zero.  Every entry
    of a stack must have a faithful state.
    """
    raise_first(
        np.logical_not(st.faithful),
        NotFaithful,
        "one-sided gap needs a faithful invariant state",
    )
    omega0, top = _top_rate(dd.z2d, dd.drift_norm, st.tilde_roots, dd.cz)
    return GapComputation(
        omega0=_plain(omega0),
        g=_plain(np.where(dd.kraus_rank_full, -omega0 / 2.0, 0.0)),
        top=top,
        form_min_eig=dd.cz_min_eig,
        kernel_condition_ok=dd.kraus_rank_full,
    )


def kms_gap(dd: DriftDiffusion, st: StationaryData) -> GapComputation:
    """Decay rate of the split embedding, T = s_breve and
    K = kbreve = -(Z^T s_breve + s_breve Z), all in real arithmetic.

    A singular kbreve means the sharpness hypothesis of the split-embedding
    gap theorem fails and the returned rate is only an upper-bound candidate.
    """
    raise_first(
        np.logical_not(st.faithful),
        NotFaithful,
        "split-embedding gap needs a faithful invariant state",
    )
    kbreve = _kbreve(dd.z2d, st.s_breve)
    kb_spectrum = np.linalg.eigvalsh(kbreve)
    omega0, top = _top_rate(dd.z2d, dd.drift_norm, st.breve_roots, kbreve)
    kb_min = kb_spectrum[..., 0]
    # kbreve is symmetric, so its 2-norm is its largest eigenvalue modulus
    scale = np.maximum(1.0, np.max(np.abs(kb_spectrum), axis=-1))
    return GapComputation(
        omega0=_plain(omega0),
        g=_plain(-omega0 / 2.0),
        top=top,
        form_min_eig=_plain(kb_min),
        kernel_condition_ok=_plain(kb_min > 1e-10 * scale),
    )


@dataclass(frozen=True)
class OneDimClosedForms:
    """Closed forms of one single-mode model, or arrays over a stack."""

    gamma: float
    g: float
    g_breve: float
    sigma: float


def one_dim_closed_forms(mu2, lambda2, omega_h, kappa_h) -> OneDimClosedForms:
    """Closed forms for the single-mode family (jumps mu*a, lambda*adag,
    Hamiltonian omega*adag*a + kappa*(adag^2+a^2)/2), 0 <= lambda2 < mu2.

    gamma = (mu2 - lambda2)/2, and with D = gamma^2 + omega^2 - kappa^2 > 0:

        g       = gamma * (1 - |kappa| (mu2+lambda2)
                            / (2 sqrt(mu2 lambda2 (gamma^2+omega^2) + gamma^2 kappa^2)))
        g_breve = gamma * (1 - |kappa| / sqrt(omega^2 + gamma^2))
        sigma   = (mu2+lambda2)/(2 gamma) * sqrt((gamma^2+omega^2)/D)

    g is one half of the smallest eigenvalue of cz s_tilde^{-1}; at
    lambda = 0 the noise form is singular and g vanishes identically.
    Faithfulness additionally needs lambda and kappa not both zero (else the
    invariant state is the pure vacuum); that boundary raises too.

    Array parameters (broadcast together) give arrays over their leading
    axis, each entry bit-identical to a call with its scalars; a failed
    check raises for the first failing entry and carries its position as
    ``index``.
    """
    mu2, lambda2, omega_h, kappa_h = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (mu2, lambda2, omega_h, kappa_h))
    )
    raise_first(
        ~((0 <= lambda2) & (lambda2 < mu2)),
        ValueError,
        "family requires 0 <= lambda2 < mu2",
    )
    gamma = 0.5 * (mu2 - lambda2)
    params = np.stack([gamma, omega_h, kappa_h])
    # Python float arithmetic, which the scalar formulas were written in,
    # overflows to inf silently, except in a power
    with np.errstate(over="ignore", invalid="ignore"):
        # libm pow, as in Python's x**2: x * x moves the last bit of some
        # squares, and with it printed digits
        gamma2, omega2, kappa2 = squares = np.float_power(params, 2.0)
        raise_first(
            np.any(np.isinf(squares) & np.isfinite(params), axis=0),
            RangeExceeded,
            "closed forms overflow double precision",
        )
        disc = gamma2 + omega2 - kappa2
        raise_first(
            disc <= 0,
            NoFaithfulState,
            "gamma^2 + omega^2 - kappa^2 = {:.6g} <= 0: no faithful invariant state",
            disc,
        )
        # pure damping relaxes to the vacuum: sigma = 1, pure boundary
        raise_first(
            (lambda2 == 0.0) & (kappa_h == 0.0),
            NoFaithfulState,
            "lambda = kappa = 0 drives the system to the pure vacuum state",
        )
        denom = 2.0 * np.sqrt(mu2 * lambda2 * (gamma2 + omega2) + gamma2 * kappa2)
        g = gamma * (1.0 - np.abs(kappa_h) * (mu2 + lambda2) / denom)
        g_breve = gamma * (1.0 - np.abs(kappa_h) / np.sqrt(omega2 + gamma2))
        sigma = (mu2 + lambda2) / (2.0 * gamma) * np.sqrt((gamma2 + omega2) / disc)
    return OneDimClosedForms(
        gamma=_plain(gamma),
        g=_plain(g),
        g_breve=_plain(g_breve),
        sigma=_plain(sigma),
    )


@dataclass(frozen=True)
class Finding:
    """One no-gap diagnostic with its numerically checkable witness."""

    kind: str  # "GapExists" | "Unstable" | "CZKernel"
    message: str
    eigenvalue: Optional[complex] = None
    eigenvector: Optional[np.ndarray] = None
    case: Optional[int] = None
    kernel_vector: Optional[np.ndarray] = None
    residual: Optional[float] = None


def no_gap_diagnosis(dd: DriftDiffusion) -> Finding:
    """Classify why the one-sided embedding has no gap, or report GapExists.

    Unstable drift: returns the offending eigenpair (Z w = lam w) and
    distinguishes case 1 (C w = 0: the diffusion vanishes on the invariant
    real plane of w, so observables survive unchanged) from case 2 (the
    damping integral diverges).  Stable drift with singular cz: returns a unit
    kernel vector of cz.
    """
    z2d = dd.z2d
    if not dd.is_stable:
        evals, evecs = np.linalg.eig(z2d)
        idx = int(np.argmax(evals.real))
        lam = complex(evals[idx])
        w = evecs[:, idx]
        w = w / np.linalg.norm(w)
        # C is real, so it vanishes on span(Re w, Im w) exactly when C w = 0
        c_scale = max(1.0, float(np.linalg.norm(dd.c2d, 2)))
        case = 1 if _norm(dd.c2d @ w) <= 1e-10 * c_scale else 2
        resid = float(_norm(z2d @ w - lam * w))
        return Finding(
            kind="Unstable",
            message=(
                f"drift eigenvalue {lam:.6g} has real part not below "
                f"-{dd.stable_tol:.6g} (1e-12 * max(1, |Z|_2)); "
                + (
                    "its invariant subspace is diffusion-free (case 1)"
                    if case == 1
                    else "the damping integral diverges on it (case 2)"
                )
            ),
            eigenvalue=lam,
            eigenvector=w,
            case=case,
            residual=resid,
        )
    if not dd.kraus_rank_full:
        evals, evecs = np.linalg.eigh(dd.cz)
        v = fix_phase(evecs[:, 0])
        resid = float(np.linalg.norm(dd.cz @ v))
        return Finding(
            kind="CZKernel",
            message="cz is singular: the noise form vanishes on a direction",
            kernel_vector=v,
            residual=resid,
        )
    return Finding(kind="GapExists", message="drift stable and cz positive definite")


@dataclass
class GapReport:
    """Aggregated gap data for one model."""

    has_gns_gap: bool
    stationary: Optional[StationaryData] = None
    gns: Optional[GapComputation] = None
    kms: Optional[GapComputation] = None
    diagnostics: list = field(default_factory=list)

    @property
    def g(self) -> Optional[float]:
        """Decay rate of the one-sided embedding, None when unavailable."""
        return None if self.gns is None else self.gns.g

    @property
    def g_breve(self) -> Optional[float]:
        """Decay rate of the split embedding, None when unavailable."""
        return None if self.kms is None else self.kms.g


def analyze(dd: DriftDiffusion) -> GapReport:
    """Run the full gap pipeline on a built model, degrading gracefully.

    Unstable or unfaithful models produce a report whose unavailable fields
    stay None and whose diagnostics say why.  A state that is not faithful
    at working precision leaves no gap to report, so has_gns_gap is then
    False even when the noise form has full rank.
    """
    finding = no_gap_diagnosis(dd)
    report = GapReport(has_gns_gap=dd.is_stable and dd.kraus_rank_full)
    if finding.kind != "GapExists":
        report.diagnostics.append(finding)
    if not dd.is_stable:
        return report
    st = solve_stationary(dd)
    report.stationary = st
    if not st.faithful:
        report.has_gns_gap = False
        report.diagnostics.append(
            Finding(
                kind="NotFaithful",
                message="invariant state is not faithful; embeddings undefined",
            )
        )
        return report
    report.gns = gns_gap(dd, st)
    report.kms = kms_gap(dd, st)
    if not report.kms.kernel_condition_ok:
        report.diagnostics.append(
            Finding(
                kind="KbreveSingular",
                message=(
                    "Z^T s_breve + s_breve Z is singular; the split-embedding "
                    "rate is an upper-bound candidate only"
                ),
            )
        )
    return report


@dataclass(frozen=True)
class StackAnalysis:
    """Rates of the entries of a stack that have a stable drift and a
    faithful state, in stack order."""

    #: positions of those entries in the stack
    index: np.ndarray
    g: np.ndarray
    g_breve: np.ndarray
    #: ascending symplectic eigenvalues, shape (len(index), d)
    sigma: np.ndarray


def analyze_stack(models: GklsModel) -> StackAnalysis:
    """Both gaps of each model of a stack whose drift is stable and whose
    state is faithful; the other models have no gaps and are left out.

    Each entry passes every check of the per-model pipeline; a failed check
    raises for an entry that fails it, and the error carries that entry's
    position in the stack as ``index``.
    """
    if models.omega.ndim != 3:
        raise DimensionMismatch("analyze_stack needs models with one leading axis")
    index = np.arange(models.omega.shape[0])
    try:
        dd = build_drift_diffusion(models)
        index, dd = index[dd.is_stable], dd[dd.is_stable]
        st = solve_stationary(dd)
        index, dd, st = index[st.faithful], dd[st.faithful], st[st.faithful]
        g = gns_gap(dd, st).g
        g_breve = kms_gap(dd, st).g
    except GaussGapError as exc:
        if exc.index is not None:
            exc.index = int(index[exc.index])
        raise
    return StackAnalysis(index=index, g=g, g_breve=g_breve, sigma=st.sigma)
