"""Stability data, Lyapunov solve, Williamson data and the second covariance."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from conftest import random_model, random_stable_faithful
from gaussgap import stationary
from gaussgap.errors import NotFaithful, NotPositiveDefinite, SingularLyapunov, Unstable
from gaussgap.model import (
    GklsModel,
    build_drift_diffusion,
    build_drift_diffusion_stack,
    one_dim_family,
    one_dim_family_stack,
)
from gaussgap.realops import jmat
from gaussgap.stationary import (
    _check_lyapunov_residual,
    _solve_lyapunov,
    _solve_lyapunov_stack,
    kms_covariance,
    solve_stationary,
    solve_stationary_stack,
    williamson,
    williamson_stack,
)


def pump_model():
    return GklsModel(
        d=1,
        m=1,
        omega=np.zeros((1, 1)),
        kappa=np.zeros((1, 1)),
        u_mat=np.array([[1.0]]),
        v_mat=np.array([[0.0]]),
        zeta=np.zeros(1),
    )


class TestStability:
    def test_model_a_stable(self, model_a):
        _, dd, _ = model_a
        assert dd.is_stable
        assert abs(dd.abscissa + 1.0) < 1e-13

    def test_model_b_eigenvalues(self, model_b):
        _, dd, _ = model_b
        assert dd.is_stable
        expected = np.array([-1 + 1j * np.sqrt(3), -1 - 1j * np.sqrt(3)])
        assert np.allclose(sorted(dd.drift_eigenvalues, key=np.imag), sorted(expected, key=np.imag), atol=1e-12)

    def test_pump_unstable(self):
        dd = build_drift_diffusion(pump_model())
        assert not dd.is_stable
        assert abs(dd.abscissa - 0.5) < 1e-13
        with pytest.raises(Unstable):
            solve_stationary(dd)


class TestStationarySolve:
    def test_model_a(self, model_a):
        _, dd, st = model_a
        assert np.allclose(st.mu, 0)
        assert np.allclose(st.s2d, 2 * np.eye(2), atol=1e-12)

    def test_model_b_covariance(self, model_b):
        _, dd, st = model_b
        assert np.allclose(st.s2d, [[3.5, 0.5], [0.5, 1.5]], atol=1e-12)

    def test_model_c_det_s_tilde(self, model_c):
        # det(S + iJ) = det(S) - 1 for one mode; solving the Lyapunov
        # equation at (mu2, lambda2, omega, kappa) = (2, 0, 2, 1) gives
        # S = [[7, 1], [1, 3]]/4, so det S - 1 = 5/4 - 1 = 1/4
        _, dd, st = model_c
        det_s = float(np.linalg.det(st.s2d))
        assert abs(det_s - 1.25) < 1e-12
        assert abs(st.det_s_tilde - (det_s - 1.0)) < 1e-12
        assert abs(st.det_s_tilde - 0.25) < 1e-12

    def test_lyapunov_residual_relative(self, model_b):
        _, dd, st = model_b
        resid = np.linalg.norm(dd.z2d.T @ st.s2d + st.s2d @ dd.z2d + dd.c2d)
        assert resid <= 1e-10 * np.linalg.norm(dd.c2d)

    def test_mean_solves_sharp_system(self):
        base = one_dim_family(3, 1, 2, 1)
        zeta = np.array([0.4 + 0.3j])
        model = GklsModel(
            d=1, m=2, omega=base.omega, kappa=base.kappa,
            u_mat=base.u_mat, v_mat=base.v_mat, zeta=zeta,
        )
        dd = build_drift_diffusion(model)
        st = solve_stationary(dd, zeta)
        # Z# mu = zeta through the pair form: Z has the pair (a1, a2) below,
        # and its sharp adjoint the pair (a1*, a2^T)
        u, v = model.u_mat, model.v_mat
        a1 = 0.5 * (u.T @ u.conj() - v.T @ v.conj()) + 1j * model.omega
        a2 = 0.5 * (u.T @ v - v.T @ u) + 1j * model.kappa
        resid = a1.conj().T @ st.mu + a2.T @ np.conj(st.mu) - zeta
        assert np.linalg.norm(resid) < 1e-12


def kronecker_lyapunov(z2d, c2d):
    """Z^T S + S Z = -C as a dense (2d)^2 x (2d)^2 system (column stacking)."""
    n = z2d.shape[0]
    eye = np.eye(n)
    system = np.kron(eye, z2d.T) + np.kron(z2d.T, eye)
    s = np.linalg.solve(system, -c2d.reshape(-1, order="F")).reshape((n, n), order="F")
    return 0.5 * (s + s.T)


def random_stable(rng, d):
    """Random model whose drift decays at rate 0.05 or faster."""
    while True:
        dd = build_drift_diffusion(random_model(rng, d, m=2 * d))
        if dd.is_stable and dd.abscissa < -0.05:
            return dd


def lyapunov_residual_ok(dd, s):
    resid = np.linalg.norm(dd.z2d.T @ s + s @ dd.z2d + dd.c2d)
    scale = max(
        1.0, np.linalg.norm(dd.c2d), 2.0 * np.linalg.norm(dd.z2d) * np.linalg.norm(s)
    )
    return resid <= 1e-10 * scale


class TestLyapunovSolve:
    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    def test_matches_kronecker_reference(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(3):
            dd = random_stable(rng, d)
            s = _solve_lyapunov(dd.z2d, dd.c2d)
            ref = kronecker_lyapunov(dd.z2d, dd.c2d)
            assert np.array_equal(s, s.T)
            assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_d64_passes_residual_bound(self):
        # the (2d)^2 x (2d)^2 Kronecker system would take 2 GB per matrix here
        dd = random_stable(np.random.default_rng(164), 64)
        s = _solve_lyapunov(dd.z2d, dd.c2d)
        assert s.shape == (128, 128)
        assert lyapunov_residual_ok(dd, s)
        assert np.linalg.eigvalsh(s)[0] > 0

    def test_perturbed_solution_rejected(self, model_b, monkeypatch):
        _, dd, _ = model_b
        solve = stationary.solve_continuous_lyapunov
        monkeypatch.setattr(
            stationary,
            "solve_continuous_lyapunov",
            lambda a, q: solve(a, q) + 1e-6 * np.array([[1.0, 0.0], [0.0, -1.0]]),
        )
        with pytest.raises(SingularLyapunov, match="numerically defective"):
            solve_stationary(dd)

    def test_singular_operator_raises_without_warning(self):
        # eigenvalues 1 and -1 of Z sum to zero: trsyl perturbs them and warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SingularLyapunov, match="singular"):
                _solve_lyapunov(np.diag([1.0, -1.0]), np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert caught == []

    def test_stability_boundary_walk_emits_no_warning(self):
        # kappa^2 -> gamma^2 + omega^2: the decay rate falls to ~1e-11 and
        # the solve grows ill-conditioned; past the stability threshold the
        # drift is unstable and nothing is solved
        walk = [(3.0, 1.0, 0.0, 1.0 - 10.0**-e) for e in range(1, 14)]
        walk += [(3.0, 1.0, 2.0, np.sqrt(5.0) - 10.0**-e) for e in range(1, 14)]
        solved = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for params in walk:
                dd = build_drift_diffusion(one_dim_family(*params))
                if not dd.is_stable:
                    with pytest.raises(Unstable):
                        solve_stationary(dd)
                    continue
                st = solve_stationary(dd)
                assert lyapunov_residual_ok(dd, st.s2d), params
                solved += 1
        assert solved >= 20


class TestStationaryStack:
    def test_matches_per_model(self):
        params = np.array([[3.0, 1.0, 2.0, 1.0], [4.0, 0.5, 1.0, 1.2], [2.0, 1.5, 0.0, 0.1]])
        dds = build_drift_diffusion_stack(one_dim_family_stack(*params.T))
        sts = solve_stationary_stack(dds)
        for i, p in enumerate(params):
            st = solve_stationary(build_drift_diffusion(one_dim_family(*p)))
            assert sts.faithful[i]
            assert np.linalg.norm(sts.s2d[i] - st.s2d) < 1e-13 * np.linalg.norm(st.s2d)
            assert np.linalg.norm(sts.s_breve[i] - st.s_breve) < 1e-13 * np.linalg.norm(st.s_breve)
            assert abs(sts.sigma[i, 0] - st.sigma[0]) < 1e-13 * st.sigma[0]

    def test_unfaithful_entry_flagged(self):
        # kappa = 1e-6 at lambda = 0: sigma - 1 ~ 1e-13, inside the root margin
        dds = build_drift_diffusion_stack(one_dim_family_stack([3.0] * 2, [0.0] * 2, [2.0] * 2, [1e-6, 0.5]))
        sts = solve_stationary_stack(dds)
        assert sts.faithful.tolist() == [False, True]
        assert np.all(np.isnan(sts.tilde_roots[0][0])) and np.all(np.isnan(sts.s_breve[0]))
        assert not solve_stationary(build_drift_diffusion(one_dim_family(3.0, 0.0, 2.0, 1e-6))).faithful

    def test_unstable_entry_raises(self):
        dds = build_drift_diffusion_stack(one_dim_family_stack([3.0] * 2, [1.0] * 2, [0.0] * 2, [0.5, 2.0]))
        with pytest.raises(Unstable, match="spectral abscissa") as caught:
            solve_stationary_stack(dds)
        assert caught.value.index == 1

    def test_singular_system_names_entry(self):
        # eigenvalues 1 and -1 of the second drift sum to zero
        z = np.array([-np.eye(2), np.diag([1.0, -1.0])])
        c = np.array([np.eye(2)] * 2)
        with pytest.raises(SingularLyapunov, match="singular") as caught:
            _solve_lyapunov_stack(z, c)
        assert caught.value.index == 1

    def test_residual_check_names_entry(self, model_b):
        _, dd, st = model_b
        z = np.array([dd.z2d] * 3)
        c = np.array([dd.c2d] * 3)
        s = np.array([st.s2d] * 3)
        _check_lyapunov_residual(z, c, s)
        s[2] += 1e-6 * np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(SingularLyapunov, match="numerically defective") as caught:
            _check_lyapunov_residual(z, c, s)
        assert caught.value.index == 2


def test_lyapunov_matches_quadrature():
    rng = np.random.default_rng(31)
    _, dd, st = random_stable_faithful(rng, 2)
    horizon = 40.0 / abs(dd.abscissa)

    def integrand(s):
        e = expm(s * dd.z2d)
        return e.T @ dd.c2d @ e

    val, _ = quad_vec(integrand, 0.0, horizon, epsabs=1e-12, epsrel=1e-12)
    assert np.linalg.norm(val - st.s2d) < 1e-8 * max(1.0, np.linalg.norm(st.s2d))


@pytest.mark.parametrize("params", [(3.0, 1.0, 0.0, 0.0), (3.0, 1.0, 2.0, 1.0)])
def test_s_tilde_integral_representation(params):
    # S + iJ equals the integral of exp(s Z2d*) cz exp(s Z2d)
    model = one_dim_family(*params)
    dd = build_drift_diffusion(model)
    st = solve_stationary(dd)

    def integrand(s):
        e = expm(s * dd.z2d).astype(complex)
        out = e.conj().T @ dd.cz @ e
        return np.stack([out.real, out.imag])

    val, _ = quad_vec(integrand, 0.0, 45.0, epsabs=1e-12, epsrel=1e-12)
    approx = val[0] + 1j * val[1]
    assert np.linalg.norm(approx - st.s_tilde) < 1e-8


class TestWilliamson:
    def test_model_a_diagonal(self, model_a):
        _, _, st = model_a
        assert np.allclose(st.sigma, [2.0], atol=1e-12)
        assert np.allclose(st.sympl_m, np.eye(2), atol=1e-10)

    def test_model_b_sigma(self, model_b):
        _, _, st = model_b
        assert abs(st.sigma[0] - np.sqrt(5.0)) < 1e-12

    def test_one_mode_sigma_is_sqrt_det(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            a = rng.standard_normal((2, 2))
            s = a @ a.T + 0.3 * np.eye(2)
            m, sigma = williamson(s)
            assert abs(sigma[0] - np.sqrt(np.linalg.det(s))) < 1e-10
            assert np.linalg.norm(m.T @ np.diag([sigma[0]] * 2) @ m - s) < 1e-10

    def test_reconstruction_and_symplectic_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            d = int(rng.integers(1, 9))
            a = rng.standard_normal((2 * d, 2 * d))
            s = a @ a.T + 0.5 * np.eye(2 * d)
            m, sigma = williamson(s)
            j = jmat(d)
            d_sigma = np.diag(np.concatenate([sigma, sigma]))
            scale = max(1.0, np.linalg.norm(s))
            assert np.linalg.norm(m.T @ d_sigma @ m - s) < 1e-10 * scale
            assert np.linalg.norm(m.T @ j @ m - j) < 1e-10
            assert np.all(sigma[:-1] <= sigma[1:])
            assert np.all(sigma > 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_reconstruction_and_symplectic_identity(self, d):
        rng = np.random.default_rng(35 + d)
        a = rng.standard_normal((12, 2 * d, 2 * d))
        s = a @ np.swapaxes(a, -1, -2) + 0.5 * np.eye(2 * d)
        m, sigma = williamson_stack(s)
        j = jmat(d)
        for i in range(len(s)):
            d_sigma = np.diag(np.concatenate([sigma[i], sigma[i]]))
            scale = max(1.0, np.linalg.norm(s[i]))
            assert np.linalg.norm(m[i].T @ d_sigma @ m[i] - s[i]) < 1e-10 * scale
            assert np.linalg.norm(m[i].T @ j @ m[i] - j) < 1e-10
            assert np.all(np.abs(sigma[i] - williamson(s[i])[1]) < 1e-12 * sigma[i])

    def test_condition_beyond_root_margin_is_not_faithful(self):
        # eigenvalues 1 and 4e16 (that of omega = kappa = 1e8): no root at
        # ROOT_MARGIN; a smallest eigenvalue within rounding of eigvalsh
        # (2 eps lambda_max, about 18 here) below zero is no evidence that
        # the covariance is not positive semidefinite
        for small in (1.0, 0.0, -1.0, -17.0):
            with pytest.raises(NotFaithful):
                williamson(np.diag([small, 4e16]))
        with pytest.raises(NotPositiveDefinite):
            williamson(np.diag([-20.0, 4e16]))
        m, sigma = williamson_stack(np.array([np.eye(2), np.diag([-1.0, 4e16])]))
        assert np.all(np.isnan(sigma[1])) and np.all(np.isfinite(sigma[0]))

    def test_stack_rejects_non_spd_entry(self):
        with pytest.raises(NotPositiveDefinite) as caught:
            williamson_stack(np.array([np.eye(2), np.diag([1.0, -1.0])]))
        assert caught.value.index == 1

    def test_rejects_non_spd(self):
        with pytest.raises(NotPositiveDefinite):
            williamson(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            williamson(np.zeros((2, 2)))
        with pytest.raises(NotPositiveDefinite):
            williamson(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestFaithfulness:
    def test_three_criteria_agree_on_fuzz(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            _, dd, st = random_stable_faithful(rng, d)
            lam_min = np.linalg.eigvalsh(st.s_tilde)[0]
            assert st.faithful
            assert lam_min > 0
            assert np.min(st.sigma) > 1
            # and the dual route: positivity of S - iJ
            s_minus = st.s2d.astype(complex) - 1j * jmat(d)
            assert np.linalg.eigvalsh(0.5 * (s_minus + s_minus.conj().T))[0] > 0

    def test_unfaithful_state_detected(self):
        # pure lowering noise drives the system to the vacuum: sigma = 1
        dd = build_drift_diffusion(one_dim_family(1.0, 0.0))
        st = solve_stationary(dd)
        assert np.allclose(st.sigma, [1.0], atol=1e-12)
        assert not st.faithful
        assert st.s_breve is None
        lam_min = np.linalg.eigvalsh(st.s_tilde)[0]
        assert abs(lam_min) < 1e-12


class TestKmsCovariance:
    def test_model_a_values(self, model_a):
        _, _, st = model_a
        assert np.allclose(st.nu, [np.sqrt(3.0)], atol=1e-12)
        assert np.allclose(st.s_breve, np.sqrt(3.0) * np.eye(2), atol=1e-10)

    def test_model_b_proportional_to_s(self, model_b):
        _, _, st = model_b
        assert np.allclose(st.nu, [2.0], atol=1e-12)
        assert np.allclose(st.s_breve, (2 / np.sqrt(5)) * st.s2d, atol=1e-10)

    def test_hyperbolic_identity(self):
        # csch(arccoth(sigma)) = sqrt(sigma^2 - 1)
        rng = np.random.default_rng(35)
        for sigma in 1.0 + rng.uniform(1e-3, 10, size=25):
            s = 0.5 * np.log((sigma + 1) / (sigma - 1))  # arccoth
            csch = 1.0 / np.sinh(s)
            assert abs(csch - np.sqrt(sigma**2 - 1)) < 1e-10 * max(1.0, csch)

    def test_pure_boundary_limit(self):
        sigma = 1.0 + 1e-12
        nu = np.sqrt(sigma**2 - 1.0)
        assert 0 < nu < 2e-6

    def test_rejects_unfaithful(self):
        with pytest.raises(NotFaithful):
            kms_covariance(np.eye(2), np.array([1.0]))
        with pytest.raises(NotFaithful):
            kms_covariance(np.eye(2), np.array([0.8]))

    def test_spd_on_fuzz(self):
        rng = np.random.default_rng(36)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            _, _, st = random_stable_faithful(rng, d)
            assert np.linalg.norm(st.s_breve - st.s_breve.T) < 1e-12
            assert np.linalg.eigvalsh(st.s_breve)[0] > 0
            d_nu = np.diag(np.concatenate([st.nu, st.nu]))
            resid = np.linalg.norm(st.sympl_m.T @ d_nu @ st.sympl_m - st.s_breve)
            assert resid < 1e-10 * max(1.0, np.linalg.norm(st.s_breve))
