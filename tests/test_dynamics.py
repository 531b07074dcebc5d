"""Closed-form dynamics, decay kernels, sharpness and the split trace."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    random_model,
    random_stable_faithful,
    random_unstable,
    random_weyl_combo,
)
from gaussgap.dynamics import (
    GaussianStateParams,
    WeylCombo,
    char_fn,
    gramian_cov,
    kernel_psd_check,
    kernel_s,
    kms_weyl_trace,
    norm_decay,
    norm_decay_at,
    propagator,
    sharpness_witness,
    state_evolve,
    weyl_evolve,
)
from gaussgap.errors import ConsistencyError, NotFaithful, NotPositiveDefinite, RangeExceeded
from gaussgap.gap import analyze
from gaussgap.model import GklsModel, build_drift_diffusion, one_dim_family
from gaussgap.realops import vec2d
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
        grid = np.array([0.0, 0.05, 0.2, 0.5, 1.0, 3.0])
        times = grid[1:]
        for _ in range(25):
            combo = random_weyl_combo(rng, 1)
            vg = norm_decay(st, dd, combo, grid, "gns")
            vk = norm_decay(st, dd, combo, grid, "kms")
            assert vg[0] >= -1e-10 and vk[0] >= -1e-10
            assert np.all(vg[1:] <= np.exp(-2 * rep.g * times) * vg[0] * (1 + 1e-9))
            assert np.all(vk[1:] <= np.exp(-2 * rep.g_breve * times) * vk[0] * (1 + 1e-9))

    def test_decay_bounds_on_fuzzed_models(self):
        rng = np.random.default_rng(56)
        grid = np.array([0.0, 0.05, 0.5, 2.0])
        times = grid[1:]
        for _ in range(6):
            d = int(rng.integers(1, 4))
            _, dd, st = random_stable_faithful(rng, d)
            rep = analyze(dd)
            for _ in range(10):
                combo = random_weyl_combo(rng, d, scale=0.4)
                vg = norm_decay(st, dd, combo, grid, "gns")
                vk = norm_decay(st, dd, combo, grid, "kms")
                assert np.all(vg[1:] <= np.exp(-2 * rep.g * times) * vg[0] * (1 + 1e-9))
                assert np.all(
                    vk[1:] <= np.exp(-2 * rep.g_breve * times) * vk[0] * (1 + 1e-9)
                )

    def test_overflow_guard(self, model_a):
        _, dd, st = model_a
        combo = WeylCombo(coefficients=[1.0], vectors=[[40.0]])
        with pytest.raises(RangeExceeded):
            norm_decay(st, dd, combo, 0.0, "gns")

    def test_empty_combo_rejected(self):
        with pytest.raises(ValueError):
            WeylCombo(coefficients=[], vectors=np.zeros((0, 1)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_time_array_matches_scalar_calls(self, d):
        # one propagator call and one norm_decay_at call for the whole grid;
        # each entry equals the single-time call bit for bit
        rng = np.random.default_rng(90 + d)
        _, dd, st = random_stable_faithful(rng, d)
        grid = np.array([0.0, 0.05, 0.3, 1.0, 2.5])
        for n_terms in (1, 2, 3):
            combo = WeylCombo(
                coefficients=rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms),
                vectors=0.5 * (rng.standard_normal((n_terms, d)) + 1j * rng.standard_normal((n_terms, d))),
            )
            for mode in ("gns", "kms"):
                values = norm_decay(st, dd, combo, grid, mode)
                assert values.shape == grid.shape
                singles = [norm_decay(st, dd, combo, t, mode) for t in grid]
                assert all(type(v) is float for v in singles)
                assert np.array_equal(values, singles)

    def test_time_array_rejects_negative_time(self, model_b):
        _, dd, st = model_b
        combo = WeylCombo(coefficients=[1.0], vectors=[[0.5]])
        with pytest.raises(ValueError):
            norm_decay(st, dd, combo, np.array([0.0, 0.5, -0.1]), "gns")
        with pytest.raises(ValueError):
            norm_decay(st, dd, combo, -0.1, "gns")


class TestNormDecayStack:
    """norm_decay_at on a hand-built stack of propagators applies every
    guard at every slice."""

    def test_range_guard_on_last_slice_only(self, model_a):
        _, _, st = model_a
        combo = WeylCombo(coefficients=[1.0], vectors=[[1.0]])
        # s_0(1, 1) = 2 on model A, so a factor 30 gives 1800 > EXP_GUARD
        stack = np.stack([np.eye(2), 0.5 * np.eye(2), 30.0 * np.eye(2)])
        assert norm_decay_at(st, combo, stack[:2], "gns").shape == (2,)
        with pytest.raises(RangeExceeded):
            norm_decay_at(st, combo, stack, "gns")

    def test_imaginary_residue_on_one_slice(self, model_b):
        _, _, st = model_b
        # a form with an anti-Hermitian part gives the kernel a complex
        # diagonal; the zero propagators leave their slices at zero
        broken = dataclasses.replace(st, s_tilde=st.s2d + 1j * np.eye(2))
        combo = WeylCombo(coefficients=[1.0], vectors=[[0.5 + 0.5j]])
        stack = np.stack([np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))])
        with pytest.raises(ConsistencyError, match="propagator 1 of the stack"):
            norm_decay_at(broken, combo, stack, "gns")
        assert np.array_equal(norm_decay_at(broken, combo, stack[[0, 2]], "gns"), [0.0, 0.0])

    def test_kms_needs_faithful_state(self):
        dd = build_drift_diffusion(one_dim_family(1.0, 0.0))
        st = solve_stationary(dd)
        combo = WeylCombo(coefficients=[1.0], vectors=[[0.5]])
        stack = propagator(dd, np.array([0.0, 0.5]))
        assert norm_decay_at(st, combo, stack, "gns").shape == (2,)
        with pytest.raises(NotFaithful):
            norm_decay_at(st, combo, stack, "kms")

    def test_unknown_mode(self, model_b):
        _, dd, st = model_b
        combo = WeylCombo(coefficients=[1.0], vectors=[[0.5]])
        with pytest.raises(ValueError, match="unknown mode"):
            norm_decay_at(st, combo, propagator(dd, np.array([0.0, 0.5])), "both")

    def test_single_propagator_gives_a_float(self, model_b):
        _, dd, st = model_b
        combo = WeylCombo(coefficients=[1.0, 0.5j], vectors=[[0.5], [0.2 - 0.3j]])
        stack = propagator(dd, np.array([0.0, 0.7]))
        for mode in ("gns", "kms"):
            single = norm_decay_at(st, combo, stack[1], mode)
            assert type(single) is float
            assert single == norm_decay_at(st, combo, stack, mode)[1]


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
    s, t = 0.6, 1.1
    full = gramian_cov(dd, s + t)
    et = propagator(dd, t)
    stitched = gramian_cov(dd, t) + et.T @ gramian_cov(dd, s) @ et
    assert np.linalg.norm(full - stitched) < 1e-12


def _mp_vacuum_flow(dd, zeta, t, z):
    """60-digit reference for the flow from the vacuum and for the evolved
    Weyl operator W(z), from the eigendecomposition Z2d = V diag(lam) V^-1:
    exp(tZ) = V diag(exp(t lam)) V^-1 and

        int_0^t exp(sZ^T) C exp(sZ) ds
            = V^-T [(V^T C V)_ij expm1(t (lam_i + lam_j)) / (lam_i + lam_j)] V^-1,

    which involves neither the Lyapunov solution nor a block exponential.
    Returns (cov, mean, decay, phase, z_t) as doubles."""
    import mpmath as mp

    with mp.workdps(60):
        lam, v = mp.eig(mp.matrix(dd.z2d.tolist()))
        vinv = v**-1
        n = len(lam)
        noise = v.T * mp.matrix(dd.c2d.tolist()) * v
        inner = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                rate = lam[i] + lam[j]
                inner[i, j] = noise[i, j] * mp.expm1(t * rate) / rate
        gram = vinv.T * inner * vinv
        et = v * mp.diag([mp.exp(t * x) for x in lam]) * vinv
        integ = mp.diag([mp.expm1(t * x) / x for x in lam])
        zeta_v = mp.matrix(vec2d(zeta).tolist())
        vz = mp.matrix(vec2d(z).tolist())
        cov = et.T * et + gram
        mean = -(vinv.T * integ * v.T * zeta_v)
        decay = -(vz.T * gram * vz)[0] / 2
        phase = (zeta_v.T * v * integ * vinv * vz)[0]
        z_t = et * vz

        def real(a):
            return np.array(
                [[float(mp.re(a[i, j])) for j in range(a.cols)] for i in range(a.rows)]
            )

        return (
            real(cov),
            real(mean).ravel(),
            float(mp.re(decay)),
            float(mp.re(phase)),
            real(z_t).ravel(),
        )


def _long_time_models():
    """The kappa = 0.95 one-mode model (drift rates 1.95 and 0.05) and fuzzed
    stable models at d = 2..4, every second one with a linear drive."""
    models = [one_dim_family(3.0, 1.0, 0.0, 0.95)]
    rng = np.random.default_rng(71)
    for d in (2, 3, 4):
        for k in range(2):
            while True:
                model = random_model(rng, d, m=2 * d)
                dd = build_drift_diffusion(model)
                if dd.is_stable and dd.abscissa < -0.05:
                    break
            if k:
                zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                model = dataclasses.replace(model, zeta=zeta)
            models.append(model)
    return models


def _assert_flow_matches_mpmath(model, times, seed):
    """state_evolve from the vacuum over the time list and weyl_evolve at
    each time agree with :func:`_mp_vacuum_flow` to 1e-12 relative."""
    dd = build_drift_diffusion(model)
    rng = np.random.default_rng(seed)
    z = 0.4 * rng.standard_normal(model.d) + 0.3j * rng.standard_normal(model.d)
    states = state_evolve(dd, GaussianStateParams.vacuum(model.d), np.array(times), model.zeta)
    res = weyl_evolve(dd, z, np.array(times), model.zeta)
    for i, t in enumerate(times):
        cov, mean, decay, phase, z_t = _mp_vacuum_flow(dd, model.zeta, t, z)
        assert np.linalg.norm(states.cov2d[i] - cov) <= 1e-12 * np.linalg.norm(cov), t
        assert np.linalg.norm(vec2d(states.mean[i]) - mean) <= 1e-12 * np.linalg.norm(mean), t
        assert abs(res.decay_exponent[i] - decay) <= 1e-12 * abs(decay), t
        assert abs(res.phase[i] - phase) <= 1e-12 * abs(phase), t
        assert np.linalg.norm(vec2d(res.z_t[i]) - z_t) <= 1e-12 * np.linalg.norm(z_t), t


@pytest.mark.parametrize("index", range(7))
def test_long_time_flow_matches_mpmath(index):
    # the block-exponential gramian at the full time failed here from
    # t = 20 on
    _assert_flow_matches_mpmath(_long_time_models()[index], [0.5, 5.0, 20.0, 50.0], 72 + index)


@pytest.mark.parametrize("omega, kappa", [(0.0, 1.0 - 1e-9), (2.0, np.sqrt(5.0) - 1e-9)])
@pytest.mark.parametrize("drive", [0.0, 1.0 - 0.5j])
def test_flow_near_stability_boundary_matches_mpmath(omega, kappa, drive):
    # decay rate ~1e-9, so |S| ~ 1e9 and |mu| ~ 1e9 |zeta|: a flow taken
    # relative to the invariant state would lose nine digits at short times
    # and leave the uncertainty bound at t = 1e-9
    model = dataclasses.replace(one_dim_family(3.0, 1.0, omega, kappa), zeta=np.array([drive]))
    _assert_flow_matches_mpmath(model, [0.0, 1e-9, 1e-6, 1e-3, 1.0, 10.0, 100.0], 76)


@pytest.mark.parametrize("index", range(6))
def test_unstable_flow_matches_mpmath(index):
    # the flow grows like exp(2 t abscissa); the agreement is relative
    rng = np.random.default_rng(75 + index)
    d = 1 + index // 2
    model, _ = random_unstable(rng, d)
    if index % 2:
        model = dataclasses.replace(model, zeta=rng.standard_normal(d) + 1j * rng.standard_normal(d))
    _assert_flow_matches_mpmath(model, [0.5, 2.0, 5.0], 81 + index)


class TestTimeArrays:
    """propagator and the flows take an array of times through one stacked
    exponential; each entry equals the single-time call."""

    def test_propagator_slices_are_bit_identical(self):
        rng = np.random.default_rng(73)
        times = np.array([0.0, 0.05, 0.5, 2.0, 7.5])
        for d in (1, 3):
            model, dd, _ = random_stable_faithful(rng, d)
            stack = propagator(dd, times)
            assert stack.shape == (len(times), 2 * d, 2 * d)
            for t, et in zip(times, stack):
                assert np.array_equal(et, propagator(dd, t))

    def test_propagator_rejects_bad_times(self, model_b):
        _, dd, _ = model_b
        with pytest.raises(ValueError):
            propagator(dd, np.ones((2, 2)))
        with pytest.raises(ValueError):
            propagator(dd, np.array([0.5, np.nan]))

    def test_state_evolve_list_matches_single_times(self, model_b):
        _, dd, _ = model_b
        sp = GaussianStateParams.vacuum(1)
        times = [0.0, 0.3, 1.7]
        states = state_evolve(dd, sp, np.array(times))
        assert states.mean.shape == (len(times), 1)
        assert states.cov2d.shape == (len(times), 2, 2)
        assert states.dim_d == 1
        for i, t in enumerate(times):
            single = state_evolve(dd, sp, t)
            assert np.array_equal(states.cov2d[i], single.cov2d)
            assert np.array_equal(states.mean[i], single.mean)

    def test_unstable_drift_uses_block_gramian(self):
        rng = np.random.default_rng(74)
        model, dd = random_unstable(rng, 2)
        times = np.array([0.2, 0.6])
        gram = gramian_cov(dd, times)
        # additivity over [0, 0.2] + [0.2, 0.6] checks the block method
        et = propagator(dd, 0.2)
        stitched = gram[0] + et.T @ gramian_cov(dd, 0.4) @ et
        assert np.linalg.norm(gram[1] - stitched) < 1e-10 * np.linalg.norm(gram[1])
        zeta = np.array([0.3 + 0.1j, -0.2j])
        states = state_evolve(dd, GaussianStateParams.vacuum(2), times, zeta)
        for i, t in enumerate(times):
            single = state_evolve(dd, GaussianStateParams.vacuum(2), float(t), zeta)
            assert np.array_equal(states.cov2d[i], single.cov2d)
            assert np.array_equal(states.mean[i], single.mean)

    @pytest.mark.parametrize("driven", [False, True])
    def test_weyl_evolve_slices_are_bit_identical(self, driven):
        rng = np.random.default_rng(77)
        times = np.array([0.0, 1e-9, 0.05, 0.5, 2.0, 7.5, 50.0])
        for d in (1, 3):
            model, dd, _ = random_stable_faithful(rng, d)
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d) if driven else None
            res = weyl_evolve(dd, z, times, zeta)
            assert res.decay_exponent.shape == res.phase.shape == times.shape
            assert res.z_t.shape == (len(times), d)
            for i, t in enumerate(times):
                single = weyl_evolve(dd, z, t, zeta)
                assert isinstance(single.decay_exponent, float)
                assert isinstance(single.phase, float)
                assert res.decay_exponent[i] == single.decay_exponent
                assert res.phase[i] == single.phase
                assert np.array_equal(res.z_t[i], single.z_t)

    @pytest.mark.parametrize("mode, kind", [("gns", complex), ("kms", float)])
    def test_kernel_s_slices_are_bit_identical(self, mode, kind):
        rng = np.random.default_rng(78)
        times = np.array([0.0, 1e-9, 0.05, 0.5, 2.0, 7.5])
        for d in (1, 3):
            _, dd, st = random_stable_faithful(rng, d)
            z, w = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
            vals = kernel_s(st, dd, z, w, times, mode)
            assert vals.shape == times.shape
            for t, val in zip(times, vals):
                single = kernel_s(st, dd, z, w, t, mode)
                assert isinstance(single, kind)
                assert val == single

    def test_state_stack_reports_failing_entry(self):
        covs = np.stack([np.eye(2), 0.5 * np.eye(2), np.eye(2)])
        with pytest.raises(NotPositiveDefinite, match="uncertainty bound") as caught:
            GaussianStateParams(mean=np.zeros((3, 1)), cov2d=covs)
        assert caught.value.index == 1
        with pytest.raises(NotPositiveDefinite) as caught:
            GaussianStateParams(mean=np.zeros(1), cov2d=0.5 * np.eye(2))
        assert caught.value.index is None
