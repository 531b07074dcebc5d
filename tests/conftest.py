"""Shared fixtures: the three reference single-mode models and fuzzers."""

import numpy as np
import pytest

from gaussgap.errors import GaussGapError
from gaussgap.gap import ROUTE_ROUNDING
from gaussgap.model import GklsModel, build_drift_diffusion, one_dim_family
from gaussgap.stationary import solve_stationary

MODEL_A_PARAMS = (3.0, 1.0, 0.0, 0.0)
MODEL_B_PARAMS = (3.0, 1.0, 2.0, 1.0)
MODEL_C_PARAMS = (2.0, 0.0, 2.0, 1.0)


def make_pipeline(params):
    model = one_dim_family(*params)
    dd = build_drift_diffusion(model)
    st = solve_stationary(dd)
    return model, dd, st


@pytest.fixture(scope="session")
def model_a():
    return make_pipeline(MODEL_A_PARAMS)


@pytest.fixture(scope="session")
def model_b():
    return make_pipeline(MODEL_B_PARAMS)


@pytest.fixture(scope="session")
def model_c():
    return make_pipeline(MODEL_C_PARAMS)


def rounding_allowances(dd, st):
    """How far two correct evaluations of (g, g_breve, sigma) may differ
    beyond 1e-12 relative: ROUTE_ROUNDING rounding units of |Z| cond(T) in
    each gap (absolute, the envelope of the route cross-check, T the matrix
    whose roots the gap takes), and of the drift condition |Z| / |abscissa|
    in sigma (relative).  For a stack of models, arrays over the stack."""
    eps = np.finfo(float).eps

    def gap_allowance(roots):
        cond = (
            np.linalg.norm(roots[0], 2, axis=(-2, -1)) * np.linalg.norm(roots[1], 2, axis=(-2, -1))
        ) ** 2
        return 0.5 * ROUTE_ROUNDING * eps * dd.drift_norm * cond

    return (
        gap_allowance(st.tilde_roots),
        gap_allowance(st.breve_roots),
        ROUTE_ROUNDING * eps * dd.drift_norm / abs(dd.abscissa),
    )


def random_model(rng, d, m, u_scale=0.35, v_scale=1.0, h_scale=0.5):
    """Random valid model; v-dominant rows bias the drift toward stability."""
    u = u_scale * (rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d)))
    v = v_scale * (rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d)))
    w = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return GklsModel(
        d=d,
        m=m,
        omega=h_scale * 0.5 * (w + w.conj().T),
        kappa=h_scale * 0.5 * (k + k.T),
        u_mat=u,
        v_mat=v,
        zeta=np.zeros(d, dtype=complex),
    )


def random_stable_faithful(rng, d, max_tries=300):
    """Stable model with a well-separated faithful invariant state."""
    for _ in range(max_tries):
        model = random_model(rng, d, m=2 * d)
        try:
            dd = build_drift_diffusion(model)
            if not dd.is_stable or dd.abscissa > -0.05:
                continue
            st = solve_stationary(dd)
        except GaussGapError:
            continue
        if not st.faithful or float(np.min(st.sigma)) < 1.05:
            continue
        if np.linalg.cond(st.s_tilde) > 1e4 or np.linalg.cond(st.s2d) > 1e4:
            continue
        return model, dd, st
    raise RuntimeError("could not fuzz a stable faithful model")


def random_unstable(rng, d, max_tries=300):
    """u-dominant rows push the drift spectrum into the right half plane."""
    for _ in range(max_tries):
        model = random_model(rng, d, m=2 * d, u_scale=1.0, v_scale=0.3)
        try:
            dd = build_drift_diffusion(model)
        except GaussGapError:
            continue
        if dd.abscissa > 1e-3:
            return model, dd
    raise RuntimeError("could not fuzz an unstable model")


def random_singular_cz(rng, d, max_tries=300):
    """Stable model with fewer than 2d noise channels, so cz is singular."""
    for _ in range(max_tries):
        model = random_model(rng, d, m=max(1, d))
        try:
            dd = build_drift_diffusion(model)
        except GaussGapError:
            continue
        if dd.is_stable and dd.abscissa < -0.05:
            return model, dd
    raise RuntimeError("could not fuzz a stable singular-cz model")


def random_weyl_combo(rng, d, max_terms=4, scale=0.6):
    n_terms = int(rng.integers(1, max_terms + 1))
    coeff = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    vecs = scale * (
        rng.standard_normal((n_terms, d)) + 1j * rng.standard_normal((n_terms, d))
    )
    from gaussgap.dynamics import WeylCombo

    return WeylCombo(coefficients=coeff, vectors=vecs)
