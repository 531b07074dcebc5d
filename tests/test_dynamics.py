"""Closed-form dynamics, decay kernels, sharpness and the split trace."""

import numpy as np
import pytest

from conftest import random_stable_faithful, random_weyl_combo
from gaussgap.dynamics import (
    GaussianStateParams,
    WeylCombo,
    char_fn,
    gramian_cov,
    kernel_psd_check,
    kernel_s,
    kms_weyl_trace,
    norm_decay,
    sharpness_witness,
    state_evolve,
    weyl_evolve,
)
from gaussgap.errors import NotPositiveDefinite, RangeExceeded
from gaussgap.gap import analyze
from gaussgap.model import GklsModel, build_drift_diffusion, one_dim_family
from gaussgap.stationary import solve_stationary


class TestWeylEvolve:
    def test_identity_at_zero(self, model_b):
        _, dd, _ = model_b
        res = weyl_evolve(dd, np.array([0.3 + 0.4j]), 0.0)
        assert res.decay_exponent == pytest.approx(0.0, abs=1e-14)
        assert res.phase == 0.0
        assert np.allclose(res.z_t, [0.3 + 0.4j])

    def test_model_a_closed_curve(self, model_a):
        _, dd, _ = model_a
        for t in (0.1, 0.5, 2.0):
            res = weyl_evolve(dd, np.array([1.0]), t)
            assert res.decay_exponent == pytest.approx(-(1 - np.exp(-2 * t)), abs=1e-12)
            assert res.phase == 0.0
            assert np.allclose(res.z_t, [np.exp(-t)], atol=1e-12)

    def test_long_time_reaches_char_fn(self, model_a):
        _, dd, st = model_a
        res = weyl_evolve(dd, np.array([1.0]), 60.0)
        sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        assert np.exp(res.decay_exponent) == pytest.approx(
            abs(char_fn(sp, np.array([1.0]))), rel=1e-10
        )

    def test_negative_time_rejected(self, model_a):
        _, dd, _ = model_a
        with pytest.raises(ValueError):
            weyl_evolve(dd, np.array([1.0]), -0.1)

    def test_semigroup_composition(self, model_b):
        # decay exponents add along the transported argument
        _, dd, _ = model_b
        z = np.array([0.7 - 0.2j])
        s, t = 0.4, 0.9
        full = weyl_evolve(dd, z, s + t)
        first = weyl_evolve(dd, z, t)
        second = weyl_evolve(dd, first.z_t, s)
        assert full.decay_exponent == pytest.approx(
            first.decay_exponent + second.decay_exponent, abs=1e-10
        )
        assert np.allclose(full.z_t, second.z_t, atol=1e-10)

    def test_invariance_of_stationary_expectation(self, model_b):
        # tr(rho T_t(W(z))) is constant in t for the invariant state
        _, dd, st = model_b
        sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        z = np.array([0.8 + 0.1j])
        base = char_fn(sp, z)
        for t in (0.2, 1.0, 3.0):
            res = weyl_evolve(dd, z, t)
            val = np.exp(res.decay_exponent + 1j * res.phase) * char_fn(sp, res.z_t)
            assert abs(val - base) < 1e-10

    def test_drive_phase(self):
        base = one_dim_family(3, 1, 2, 1)
        zeta = np.array([0.5 + 0.25j])
        model = GklsModel(
            d=1, m=2, omega=base.omega, kappa=base.kappa,
            u_mat=base.u_mat, v_mat=base.v_mat, zeta=zeta,
        )
        dd = build_drift_diffusion(model)
        st = solve_stationary(dd, zeta)
        sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        z = np.array([0.4 - 0.6j])
        base_val = char_fn(sp, z)
        for t in (0.3, 1.2):
            res = weyl_evolve(dd, z, t, zeta)
            val = np.exp(res.decay_exponent + 1j * res.phase) * char_fn(sp, res.z_t)
            assert abs(val - base_val) < 1e-10


class TestStateEvolve:
    def test_vacuum_relaxation_model_a(self, model_a):
        _, dd, _ = model_a
        sp = GaussianStateParams.vacuum(1)
        for t in (0.0, 0.3, 1.5):
            out = state_evolve(dd, sp, t)
            assert np.allclose(out.cov2d, (2 - np.exp(-2 * t)) * np.eye(2), atol=1e-12)
            assert np.allclose(out.mean, 0)

    def test_zero_time_identity(self, model_b):
        _, dd, _ = model_b
        sp = GaussianStateParams(
            mean=np.array([0.2 + 0.1j]), cov2d=np.array([[1.5, 0.2], [0.2, 1.1]])
        )
        out = state_evolve(dd, sp, 0.0)
        assert np.allclose(out.cov2d, sp.cov2d, atol=1e-14)
        assert np.allclose(out.mean, sp.mean, atol=1e-14)

    def test_stationary_fixed_point(self, model_b):
        _, dd, st = model_b
        sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        for t in (0.2, 1.0, 4.0):
            out = state_evolve(dd, sp, t)
            assert np.linalg.norm(out.cov2d - st.s2d) < 1e-10
            assert np.linalg.norm(out.mean - st.mu) < 1e-12

    def test_monotone_approach_to_stationarity(self, model_b):
        _, dd, st = model_b
        sp = GaussianStateParams.vacuum(1)
        dists = []
        for t in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0):
            out = state_evolve(dd, sp, t)
            dists.append(np.linalg.norm(out.cov2d - st.s2d))
        assert all(b < a + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_driven_fixed_point(self):
        base = one_dim_family(3, 1, 2, 1)
        zeta = np.array([0.3 - 0.8j])
        model = GklsModel(
            d=1, m=2, omega=base.omega, kappa=base.kappa,
            u_mat=base.u_mat, v_mat=base.v_mat, zeta=zeta,
        )
        dd = build_drift_diffusion(model)
        st = solve_stationary(dd, zeta)
        sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        out = state_evolve(dd, sp, 0.7, zeta)
        assert np.linalg.norm(out.mean - st.mu) < 1e-12
        assert np.linalg.norm(out.cov2d - st.s2d) < 1e-10

    def test_invalid_covariance_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianStateParams(mean=np.zeros(1), cov2d=0.5 * np.eye(2))


class TestCharFn:
    def test_normalization(self, model_a):
        _, _, st = model_a
        sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        assert char_fn(sp, np.zeros(1)) == pytest.approx(1.0)

    def test_model_a_value(self, model_a):
        _, _, st = model_a
        sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        assert char_fn(sp, np.array([1.0])) == pytest.approx(np.exp(-1.0), abs=1e-14)

    def test_vacuum_gaussian(self):
        sp = GaussianStateParams.vacuum(2)
        rng = np.random.default_rng(51)
        for _ in range(10):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            expected = np.exp(-0.5 * np.linalg.norm(z) ** 2)
            assert char_fn(sp, z) == pytest.approx(expected, rel=1e-12)

    def test_modulus_bounded(self, model_b):
        _, _, st = model_b
        sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        rng = np.random.default_rng(52)
        for _ in range(20):
            z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            assert abs(char_fn(sp, z)) <= 1.0 + 1e-12


class TestKernel:
    def test_model_a_values(self, model_a):
        _, dd, st = model_a
        one = np.array([1.0])
        for t in (0.0, 0.4, 1.3):
            assert kernel_s(st, dd, one, one, t, "gns") == pytest.approx(
                2 * np.exp(-2 * t), abs=1e-12
            )
            assert kernel_s(st, dd, one, one, t, "kms") == pytest.approx(
                np.sqrt(3) * np.exp(-2 * t), abs=1e-12
            )

    def test_diagonal_is_real_quadratic_form(self, model_b):
        _, dd, st = model_b
        rng = np.random.default_rng(53)
        for _ in range(10):
            z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            from gaussgap.realops import vec2d

            val = kernel_s(st, dd, z, z, 0.0, "gns")
            expected = float(vec2d(z) @ st.s2d @ vec2d(z))
            assert val == pytest.approx(expected, abs=1e-12)
            assert abs(complex(val).imag) < 1e-14

    def test_phase_term(self, model_a):
        _, dd, st = model_a
        val = kernel_s(st, dd, np.array([1.0]), np.array([1.0j]), 0.0, "gns")
        assert val == pytest.approx(1j, abs=1e-13)

    def test_derivative_identity_at_zero(self, model_b):
        # d/dt s_t|_0 = -<vz, cz vw> via the Lyapunov identity; one-sided
        # second-order stencil with step 1e-6, agreement 1e-6 relative
        _, dd, st = model_b
        from gaussgap.realops import vec2d

        rng = np.random.default_rng(54)
        h = 1e-6
        for _ in range(5):
            z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            w = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            s0 = kernel_s(st, dd, z, w, 0.0, "gns")
            s1 = kernel_s(st, dd, z, w, h, "gns")
            s2 = kernel_s(st, dd, z, w, 2 * h, "gns")
            fd = (4.0 * s1 - s2 - 3.0 * s0) / (2.0 * h)
            exact = -(vec2d(z) @ dd.cz @ vec2d(w))
            assert abs(fd - exact) < 1e-6 * max(1.0, abs(exact))


class TestNormDecay:
    def test_single_weyl_at_zero(self, model_a):
        # ||(W(1) - rho_hat(1)) rho^(1/2)||^2 = 1 - |rho_hat(1)|^2, i.e. the
        # kernel formula value exp(-2) (exp(2) - 1); cross-checked against a
        # truncated Fock evaluation in the oracle suite
        _, dd, st = model_a
        combo = WeylCombo(coefficients=[1.0], vectors=[[1.0]])
        assert norm_decay(st, dd, combo, 0.0, "gns") == pytest.approx(
            np.exp(-2.0) * (np.exp(2.0) - 1.0), rel=1e-12
        )

    def test_single_weyl_decay_and_bound(self, model_a):
        _, dd, st = model_a
        combo = WeylCombo(coefficients=[1.0], vectors=[[1.0]])
        val = norm_decay(st, dd, combo, 0.5, "gns")
        assert val == pytest.approx(np.exp(-2.0) * (np.exp(2 / np.e) - 1.0), rel=1e-12)
        bound = np.exp(-2 * 0.5 * 1.0) * np.exp(-2.0) * (np.exp(2.0) - 1.0)
        assert val <= bound * (1 + 1e-9)

    def test_identity_term_drops(self, model_b):
        _, dd, st = model_b
        combo = WeylCombo(coefficients=[1.0], vectors=[[0.0]])
        for t in (0.0, 0.7):
            assert norm_decay(st, dd, combo, t, "gns") == pytest.approx(0.0, abs=1e-14)
            assert norm_decay(st, dd, combo, t, "kms") == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_and_decaying(self, model_b):
        _, dd, st = model_b
        rng = np.random.default_rng(55)
        rep = analyze(dd)
        for _ in range(25):
            combo = random_weyl_combo(rng, 1)
            v0g = norm_decay(st, dd, combo, 0.0, "gns")
            v0k = norm_decay(st, dd, combo, 0.0, "kms")
            assert v0g >= -1e-10 and v0k >= -1e-10
            for t in (0.05, 0.2, 0.5, 1.0, 3.0):
                vg = norm_decay(st, dd, combo, t, "gns")
                vk = norm_decay(st, dd, combo, t, "kms")
                assert vg <= np.exp(-2 * rep.g * t) * v0g * (1 + 1e-9)
                assert vk <= np.exp(-2 * rep.g_breve * t) * v0k * (1 + 1e-9)

    def test_decay_bounds_on_fuzzed_models(self):
        rng = np.random.default_rng(56)
        for _ in range(6):
            d = int(rng.integers(1, 4))
            _, dd, st = random_stable_faithful(rng, d)
            rep = analyze(dd)
            for _ in range(10):
                combo = random_weyl_combo(rng, d, scale=0.4)
                v0g = norm_decay(st, dd, combo, 0.0, "gns")
                v0k = norm_decay(st, dd, combo, 0.0, "kms")
                for t in (0.05, 0.5, 2.0):
                    assert norm_decay(st, dd, combo, t, "gns") <= np.exp(
                        -2 * rep.g * t
                    ) * v0g * (1 + 1e-9)
                    assert norm_decay(st, dd, combo, t, "kms") <= np.exp(
                        -2 * rep.g_breve * t
                    ) * v0k * (1 + 1e-9)

    def test_overflow_guard(self, model_a):
        _, dd, st = model_a
        combo = WeylCombo(coefficients=[1.0], vectors=[[40.0]])
        with pytest.raises(RangeExceeded):
            norm_decay(st, dd, combo, 0.0, "gns")

    def test_empty_combo_rejected(self):
        with pytest.raises(ValueError):
            WeylCombo(coefficients=[], vectors=np.zeros((0, 1)))


class TestKernelPsd:
    def test_boundary_at_exact_rate(self, model_a):
        _, dd, st = model_a
        lam, ok = kernel_psd_check(st, dd, [np.array([1.0])], 1, 0.5, 1.0, "gns")
        assert abs(lam) < 1e-12
        assert ok

    def test_slack_below_rate(self, model_a):
        _, dd, st = model_a
        lam, ok = kernel_psd_check(st, dd, [np.array([1.0])], 1, 0.5, 0.9, "gns")
        assert lam > 0 and ok

    def test_violation_above_rate(self, model_a):
        _, dd, st = model_a
        lam, ok = kernel_psd_check(st, dd, [np.array([1.0])], 1, 0.5, 1.1, "gns")
        assert lam < 0 and not ok

    def test_psd_at_gap_rate_random_points(self, model_b):
        _, dd, st = model_b
        rep = analyze(dd)
        rng = np.random.default_rng(57)
        for n in range(1, 5):
            for _ in range(5):
                pts = [
                    0.5 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
                    for _ in range(int(rng.integers(1, 6)))
                ]
                for t, rate, mode in (
                    (0.3, rep.g, "gns"),
                    (1.0, rep.g, "gns"),
                    (0.3, rep.g_breve, "kms"),
                    (1.0, rep.g_breve, "kms"),
                ):
                    lam, ok = kernel_psd_check(st, dd, pts, n, t, rate, mode)
                    assert ok, (n, t, rate, mode, lam)

    def test_root_kernel_psd(self, model_b):
        _, dd, st = model_b
        rep = analyze(dd)
        rng = np.random.default_rng(58)
        pts = [0.5 * (rng.standard_normal(1) + 1j * rng.standard_normal(1)) for _ in range(4)]
        for n in range(1, 5):
            lam, ok = kernel_psd_check(
                st, dd, pts, n, 0.6, rep.g, "gns", use_root=True
            )
            assert ok, (n, lam)


class TestSharpness:
    def test_model_a_witness(self, model_a):
        _, dd, st = model_a
        wit = sharpness_witness(st, dd, -3.0)
        assert wit.omega0 == pytest.approx(-2.0, abs=1e-12)
        # witness is normalized so its kernel diagonal is one, hence
        # f''(0) = 2 (omega0 - omega_test)
        assert wit.s0_zz == pytest.approx(1.0, abs=1e-12)
        assert wit.f2 == pytest.approx(2.0, abs=1e-10)

    def test_rejects_rate_not_below_omega0(self, model_a):
        _, dd, st = model_a
        omega0 = sharpness_witness(st, dd, -3.0).omega0
        with pytest.raises(ValueError):
            sharpness_witness(st, dd, omega0)  # equality is not below
        with pytest.raises(ValueError):
            sharpness_witness(st, dd, -1.5)

    def test_affine_in_omega_test(self, model_b):
        # f''(0) is affine in omega_test with slope -2 s0(z, z)
        _, dd, st = model_b
        omega0 = analyze(dd).gns.omega0
        w1 = sharpness_witness(st, dd, 1.1 * omega0)
        w2 = sharpness_witness(st, dd, 1.3 * omega0)
        assert w1.f2 > 0 and w2.f2 > 0
        expected = -2.0 * w1.s0_zz * (1.3 * omega0 - 1.1 * omega0)
        assert w2.f2 - w1.f2 == pytest.approx(expected, rel=1e-9)

    def test_witness_violates_faster_rates(self, model_b):
        # the two-term combination built from the witness beats any decay
        # faster than omega0 at small r and t
        _, dd, st = model_b
        rep = analyze(dd)
        omega_test = 1.05 * rep.gns.omega0  # below omega0 (both negative)
        wit = sharpness_witness(st, dd, omega_test)
        assert wit.f2 > 0
        violated = False
        t = 1e-3
        for r in np.linspace(0.01, 0.1, 10):
            combo = WeylCombo(
                coefficients=wit.coefficients,
                vectors=np.stack([r * wit.z1, r * wit.z2]),
            )
            v0 = norm_decay(st, dd, combo, 0.0, "gns")
            vt = norm_decay(st, dd, combo, t, "gns")
            if vt > np.exp(omega_test * t) * v0:
                violated = True
                break
        assert violated


class TestKmsWeylTrace:
    def test_unit_trace(self, model_a):
        _, _, st = model_a
        assert kms_weyl_trace(st, np.zeros(1), np.zeros(1)) == pytest.approx(1.0)

    def test_model_a_value(self, model_a):
        _, _, st = model_a
        val = kms_weyl_trace(st, np.array([1.0]), np.array([1.0]))
        assert val == pytest.approx(np.exp(-(2 + np.sqrt(3))), rel=1e-12)

    def test_reduces_to_char_fn(self, model_b):
        _, _, st = model_b
        sp = GaussianStateParams(mean=np.zeros(1), cov2d=st.s2d)
        rng = np.random.default_rng(59)
        for _ in range(5):
            z = 0.7 * (rng.standard_normal(1) + 1j * rng.standard_normal(1))
            assert kms_weyl_trace(st, z, np.zeros(1)) == pytest.approx(
                char_fn(sp, z).real, rel=1e-12
            )

    def test_symmetric(self, model_b):
        _, _, st = model_b
        rng = np.random.default_rng(60)
        for _ in range(5):
            z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            w = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            assert kms_weyl_trace(st, z, w) == pytest.approx(
                kms_weyl_trace(st, w, z), rel=1e-12
            )

    def test_needs_faithful_state(self):
        from gaussgap.errors import NotFaithful

        dd = build_drift_diffusion(one_dim_family(1.0, 0.0))
        st = solve_stationary(dd)
        with pytest.raises(NotFaithful):
            kms_weyl_trace(st, np.array([0.5]), np.array([0.5]))


def test_gramian_additivity(model_b):
    # int_0^{s+t} = int_0^t + exp(tZ)^T int_0^s exp(tZ)
    _, dd, _ = model_b
    from gaussgap.dynamics import propagator

    s, t = 0.6, 1.1
    full = gramian_cov(dd, s + t)
    et = propagator(dd, t)
    stitched = gramian_cov(dd, t) + et.T @ gramian_cov(dd, s) @ et
    assert np.linalg.norm(full - stitched) < 1e-12
