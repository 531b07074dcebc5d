"""Stability data, Lyapunov solve, Williamson data and the second covariance."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from conftest import (
    MODEL_A_PARAMS,
    MODEL_B_PARAMS,
    direct_sum,
    random_model,
    random_stable_faithful,
)
from gaussgap import cli, stationary
from gaussgap.errors import NotFaithful, NotPositiveDefinite, SingularLyapunov, Unstable
from gaussgap.gap import analyze
from gaussgap.model import GklsModel, build_drift_diffusion, one_dim_family
from gaussgap.realops import jmat
from gaussgap.stationary import (
    _check_lyapunov_residual,
    _solve_lyapunov,
    kms_covariance,
    solve_stationary,
    williamson,
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
        st = solve_stationary(dd)
        # Z# mu = zeta through the pair form: Z has the pair (a1, a2) below,
        # and its sharp adjoint the pair (a1*, a2^T)
        u, v = model.u_mat, model.v_mat
        a1 = 0.5 * (u.T @ u.conj() - v.T @ v.conj()) + 1j * model.omega
        a2 = 0.5 * (u.T @ v - v.T @ u) + 1j * model.kappa
        resid = a1.conj().T @ st.mu + a2.T @ np.conj(st.mu) - zeta
        assert np.linalg.norm(resid) < 1e-12

    def test_drive_travels_with_the_build(self):
        # the drive is read from the built model: no stage can leave it out
        model = dataclasses.replace(one_dim_family(3, 1, 2, 1), zeta=np.array([0.5 + 0.2j]))
        dd = build_drift_diffusion(model)
        assert np.array_equal(dd.zeta, model.zeta)
        want = np.array([-0.275 + 0.075j])
        assert np.abs(solve_stationary(dd).mu - want).max() < 1e-15
        assert np.abs(analyze(dd).stationary.mu - want).max() < 1e-15


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


def stack_models(models):
    """One GklsModel stack of models of one shape (d, m)."""
    return GklsModel(
        d=models[0].d,
        m=models[0].m,
        **{name: [getattr(m, name) for m in models]
           for name in ("omega", "kappa", "u_mat", "v_mat", "zeta")},
    )


def lyapunov_residual_ok(dd, s):
    resid = np.linalg.norm(dd.z2d.T @ s + s @ dd.z2d + dd.c2d)
    scale = max(np.linalg.norm(dd.c2d), 2.0 * np.linalg.norm(dd.z2d) * np.linalg.norm(s))
    return resid <= 1e-10 * scale


class TestLyapunovSolve:
    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
    def test_matches_kronecker_reference(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(3):
            dd = random_stable(rng, d)
            s = _solve_lyapunov(dd.z2d, dd.c2d, dd.drift_norm)
            ref = kronecker_lyapunov(dd.z2d, dd.c2d)
            assert np.array_equal(s, s.T)
            assert np.linalg.norm(s - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_d64_passes_residual_bound(self):
        # the (2d)^2 x (2d)^2 Kronecker system would take 2 GB per matrix here
        dd = random_stable(np.random.default_rng(164), 64)
        s = _solve_lyapunov(dd.z2d, dd.c2d, dd.drift_norm)
        assert s.shape == (128, 128)
        assert lyapunov_residual_ok(dd, s)
        assert np.linalg.eigvalsh(s)[0] > 0

    def test_perturbed_solution_rejected(self, monkeypatch):
        # a two-mode model: one mode does not reach the Smith doubling
        dd = random_stable(np.random.default_rng(154), 2)
        solve = stationary._smith_lyapunov
        monkeypatch.setattr(
            stationary,
            "_smith_lyapunov",
            lambda z, c, norm: solve(z, c, norm) + 1e-6 * np.diag([1.0, 0.0, 0.0, -1.0]),
        )
        with pytest.raises(SingularLyapunov, match="numerically defective"):
            solve_stationary(dd)

    def test_perturbed_kronecker_solution_rejected(self, model_b, monkeypatch):
        _, dd, _ = model_b
        solve = stationary._kronecker_lyapunov
        monkeypatch.setattr(
            stationary,
            "_kronecker_lyapunov",
            lambda z, c: solve(z, c) + 1e-6 * np.array([[1.0, 0.0], [0.0, -1.0]]),
        )
        with pytest.raises(SingularLyapunov, match="numerically defective"):
            solve_stationary(dd)

    @pytest.mark.parametrize(
        "scale, delta",
        [(1.0, 10.0**-k) for k in range(1, 13)]
        + [(s, delta) for s in (1e100, 1e-100) for delta in (None, 1e-6)],
        ids=[f"kappa-sqrt5-1e-{k}" for k in range(1, 13)]
        + [f"{tag}-{s}" for s in ("1e100", "1e-100") for tag in ("B", "kappa-sqrt5-1e-6")],
    )
    def test_one_mode_matches_mpmath(self, scale, delta):
        # kappa -> sqrt(5) on (3, 1, 2, kappa) walks to the stability
        # boundary, where the decay rate is about delta and |S| ~ 1 / delta
        import mpmath as mp

        kappa = 1.0 if delta is None else np.sqrt(5.0) - delta
        dd = build_drift_diffusion(one_dim_family(*(scale * p for p in (3.0, 1.0, 2.0, kappa))))
        z2d, c2d = dd.z2d, dd.c2d
        s = _solve_lyapunov(z2d, c2d, dd.drift_norm)
        with mp.workdps(60):
            # Z^T S + S Z = -C of the stored doubles, as its 4 x 4 system
            zm = mp.matrix(z2d.tolist())
            system = mp.zeros(4, 4)
            for i, j, k in itertools.product(range(2), repeat=3):
                system[2 * i + j, 2 * k + j] += zm[k, i]
                system[2 * i + j, 2 * i + k] += zm[k, j]
            vec = mp.lu_solve(system, mp.matrix((-c2d).ravel().tolist()))
            exact = mp.matrix(2, 2)
            for i, j in itertools.product(range(2), repeat=2):
                exact[i, j] = vec[2 * i + j]
            err = float(mp.mnorm(mp.matrix(s.tolist()) - exact, "f") / mp.mnorm(exact, "f"))
            exact = np.array(exact.tolist(), dtype=float)
        # a backward-stable solve: eps times the condition |Z| |S| / |C|,
        # which the model's scale leaves unchanged; observed at most 0.14
        # of it (at 1e100 on B), 0.02 along the walk
        bound = (np.finfo(float).eps * np.linalg.norm(z2d, 2) * np.linalg.norm(exact, 2)
                 / np.linalg.norm(c2d, 2))
        assert err <= bound, (err, bound)

    def test_residual_check_at_extreme_scale(self):
        # |Z| ~ 1e160: the squares of the residual's entries overflow, and an
        # infinite norm would accept any residual, a doubled S included
        dd = build_drift_diffusion(one_dim_family(1e160, 1e159, 0.0, 0.0))
        st = solve_stationary(dd)
        _check_lyapunov_residual(dd.z2d, dd.c2d, st.s2d)
        with pytest.raises(SingularLyapunov, match="numerically defective"):
            _check_lyapunov_residual(dd.z2d, dd.c2d, 2.0 * st.s2d)

    @pytest.mark.parametrize("d", [1, 2])
    def test_residual_check_is_scale_free(self, d):
        # model B, next to model A at d = 2, at rate scales 1 ... 1e-12: S
        # stays, and at every scale the check rejects a relative error of
        # 1e-9 and accepts one of 1e-12; an absolute floor on the bound
        # would accept any small residual of a slow model
        def model(scale):
            b = one_dim_family(*(scale * p for p in MODEL_B_PARAMS))
            return b if d == 1 else direct_sum(b, one_dim_family(*(scale * p for p in MODEL_A_PARAMS)))

        s = solve_stationary(build_drift_diffusion(model(1.0))).s2d
        flip = np.linalg.norm(s) * np.diag([1.0] + [0.0] * (2 * d - 2) + [-1.0])
        for k in range(13):
            dd = build_drift_diffusion(model(10.0**-k))
            _check_lyapunov_residual(dd.z2d, dd.c2d, s + 1e-12 * flip)
            with pytest.raises(SingularLyapunov, match="numerically defective"):
                _check_lyapunov_residual(dd.z2d, dd.c2d, s + 1e-9 * flip)

    def test_singular_operator_raises_without_warning(self):
        # eigenvalues 1 and -1 of Z sum to zero: the 2 x 2 Kronecker system
        # is exactly singular, and at 4 x 4 trsyl perturbs them and warns
        for z2d in (np.diag([1.0, -1.0]), np.diag([1.0, -1.0, 2.0, 3.0])):
            c2d = np.eye(len(z2d)) + 0.5 * np.ones_like(z2d)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(SingularLyapunov, match="singular"):
                    _solve_lyapunov(z2d, c2d, np.linalg.norm(z2d, 2))
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

    @pytest.mark.parametrize("rate_exp", range(2, 13))
    def test_two_mode_boundary_walk_keeps_exit_codes(self, rate_exp):
        # one mode walks to the stability threshold next to model B: the
        # decay rate 10^-rate_exp of the (3, 1, 2, kappa) and the
        # (3, 1, 0, 1 - rate) mode; at 1e-12 the drift counts as unstable
        # (stable_tol is 1e-12 |Z|_2), and the report exits 2
        rate = 10.0**-rate_exp
        b = one_dim_family(3.0, 1.0, 2.0, 1.0)
        walks = (
            direct_sum(one_dim_family(3.0, 1.0, 2.0, np.sqrt(4.0 + (1.0 - rate) ** 2)), b),
            direct_sum(b, one_dim_family(3.0, 1.0, 0.0, 1.0 - rate)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = [cli._report_exit_code(cli.run_report(model)) for model in walks]
        assert codes == [2 if rate_exp == 12 else 0] * 2


def exact_lyapunov(z2d, c2d, dps=40):
    """S of Z^T S + S Z = -C for the stored doubles, at dps digits: the
    linear system in the n (n + 1) / 2 entries S_ij, i <= j, of the
    symmetric solution."""
    import mpmath as mp

    n = len(z2d)
    entries = [(i, j) for i in range(n) for j in range(i, n)]
    column = {ij: k for k, ij in enumerate(entries)}
    with mp.workdps(dps):
        system = mp.zeros(len(entries), len(entries))
        for row, (i, j) in enumerate(entries):
            # (Z^T S)_ij = Z_ki S_kj and (S Z)_ij = S_ik Z_kj
            for k in range(n):
                system[row, column[min(k, j), max(k, j)]] += mp.mpf(z2d[k, i])
                system[row, column[min(i, k), max(i, k)]] += mp.mpf(z2d[k, j])
        vec = mp.lu_solve(system, mp.matrix([-mp.mpf(c2d[i, j]) for i, j in entries]))
        exact = mp.matrix(n, n)
        for (i, j), k in column.items():
            exact[i, j] = exact[j, i] = vec[k]
        return exact


def smith_cases():
    """(id, DriftDiffusion) of the multi-mode accuracy test."""
    rng = np.random.default_rng(2033)
    for d in (2, 3, 4):
        for k in range(3):
            yield f"fuzz-d{d}-{k}", random_stable_faithful(rng, d)[1]
    # a mode at decay rate 1e-2 ... 1e-11 next to model B
    b = one_dim_family(3.0, 1.0, 2.0, 1.0)
    for e in range(2, 12):
        slow = one_dim_family(3.0, 1.0, 2.0, np.sqrt(4.0 + (1.0 - 10.0**-e) ** 2))
        yield f"boundary-1e-{e}", build_drift_diffusion(direct_sum(slow, b))
    # decoupled modes at decay rates 1e4 and 1e-4
    stiff = direct_sum(one_dim_family(3e4, 1e4, 0.0, 0.0), one_dim_family(3e-4, 1e-4, 0.0, 0.0))
    yield "stiff-pair", build_drift_diffusion(stiff)


SMITH_CASES = dict(smith_cases())


@pytest.mark.parametrize("case", list(SMITH_CASES))
def test_multi_mode_solve_matches_mpmath(case):
    # eps times the condition |Z|_2 |S|_2 / |C|_2, as for one mode; observed
    # at most 0.83 of it on these fuzzed models (1.24 on 75 others at
    # d = 2 ... 4), 0.55 on the stiff pair and 0.03 along the boundary.
    # Bartels-Stewart's error reached 7.7 eps cond on these fuzzed models
    import mpmath as mp

    dd = SMITH_CASES[case]
    z2d, c2d = dd.z2d, dd.c2d
    s = _solve_lyapunov(z2d, c2d, dd.drift_norm)
    exact = exact_lyapunov(z2d, c2d)
    with mp.workdps(40):
        err = float(mp.mnorm(mp.matrix(s.tolist()) - exact, "f") / mp.mnorm(exact, "f"))
    exact = np.array(exact.tolist(), dtype=float)
    cond = np.linalg.norm(z2d, 2) * np.linalg.norm(exact, 2) / np.linalg.norm(c2d, 2)
    assert err <= 4.0 * np.finfo(float).eps * cond, (err, cond)


class TestStationaryStack:
    def test_driven_means_match_single_solves(self):
        rng = np.random.default_rng(91)
        models = []
        for _ in range(4):
            model, _, _ = random_stable_faithful(rng, 2)
            zeta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            models.append(dataclasses.replace(model, zeta=zeta))
        sts = solve_stationary(build_drift_diffusion(stack_models(models)))
        for i, model in enumerate(models):
            mu = solve_stationary(build_drift_diffusion(model)).mu
            assert np.all(mu != 0)
            assert np.array_equal(sts.mu[i], mu)

    def test_matches_per_model(self):
        params = np.array([[3.0, 1.0, 2.0, 1.0], [4.0, 0.5, 1.0, 1.2], [2.0, 1.5, 0.0, 0.1]])
        dds = build_drift_diffusion(one_dim_family(*params.T))
        sts = solve_stationary(dds)
        for i, p in enumerate(params):
            st = solve_stationary(build_drift_diffusion(one_dim_family(*p)))
            assert sts.faithful[i]
            for name in ("s2d", "s_breve", "sigma"):
                assert getattr(sts, name)[i].tobytes() == getattr(st, name).tobytes(), name

    @pytest.mark.parametrize("d", range(1, 9))
    def test_entries_are_single_solves_bit_for_bit(self, d):
        # fuzzed models and, from d = 2 on, direct sums (zero off-diagonal
        # blocks) with a mode at decay rate 1e-2 ... 1e-9, whose equations
        # need more doublings than the others: each entry of the stack
        # stops on its own and is the solve of its model alone, signed
        # zeros included
        rng = np.random.default_rng(60 + d)
        models = [random_stable_faithful(rng, d)[0] for _ in range(6)]
        if d > 1:
            for e in range(2, 10):
                rate = 10.0**-e
                slow = one_dim_family(3.0, 1.0, 2.0, np.sqrt(4.0 + (1.0 - rate) ** 2))
                models.append(direct_sum(random_stable_faithful(rng, d - 1)[0], slow))
        sts = solve_stationary(build_drift_diffusion(stack_models(models)))
        for i, model in enumerate(models):
            st = solve_stationary(build_drift_diffusion(model))
            assert sts.s2d[i].tobytes() == st.s2d.tobytes(), i
            assert sts.sigma[i].tobytes() == st.sigma.tobytes(), i

    def test_multi_mode_stack_memory(self):
        # 20 models at d = 16 by the Smith doubling: O(N d^2) memory, where
        # their (2d)^2 x (2d)^2 Kronecker systems took 320 MiB
        import tracemalloc

        rng = np.random.default_rng(1616)
        models = []
        while len(models) < 20:
            model = random_model(rng, 16, m=32)
            if build_drift_diffusion(model).is_stable:
                models.append(model)
        dds = build_drift_diffusion(stack_models(models))
        tracemalloc.start()
        try:
            solve_stationary(dds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_unfaithful_entry_flagged(self):
        # kappa = 1e-6 at lambda = 0: sigma - 1 ~ 1e-13, inside the root margin
        dds = build_drift_diffusion(one_dim_family([3.0] * 2, [0.0] * 2, [2.0] * 2, [1e-6, 0.5]))
        sts = solve_stationary(dds)
        assert sts.faithful.tolist() == [False, True]
        assert np.all(np.isnan(sts.tilde_roots[0][0])) and np.all(np.isnan(sts.s_breve[0]))
        assert not solve_stationary(build_drift_diffusion(one_dim_family(3.0, 0.0, 2.0, 1e-6))).faithful

    def test_unstable_entry_raises(self):
        dds = build_drift_diffusion(one_dim_family([3.0] * 2, [1.0] * 2, [0.0] * 2, [0.5, 2.0]))
        with pytest.raises(Unstable, match="spectral abscissa") as caught:
            solve_stationary(dds)
        assert caught.value.index == 1

    def test_singular_system_names_entry(self):
        # eigenvalues 1 and -1 of the second drift sum to zero
        z = np.array([-np.eye(2), np.diag([1.0, -1.0])])
        c = np.array([np.eye(2)] * 2)
        with pytest.raises(SingularLyapunov, match="singular") as caught:
            _solve_lyapunov(z, c, np.linalg.norm(z, 2, axis=(-2, -1)))
        assert caught.value.index == 1

    def test_doubling_failure_names_entry(self):
        # the second drift is not stable: its powers of A grow past double
        # range while the first entry's converge, without a warning
        z = np.array([-np.eye(4), np.diag([1.0, -1.0, 2.0, 3.0])])
        c = np.array([np.eye(4)] * 2)
        with pytest.raises(SingularLyapunov, match="did not converge in 64 steps") as caught:
            _solve_lyapunov(z, c, np.linalg.norm(z, 2, axis=(-2, -1)))
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
        # S = 2 I: the Williamson matrices are exactly the phase-space
        # rotations, the orthogonal symplectic 2 x 2 matrices
        m, j = st.sympl_m, jmat(1)
        assert np.allclose(m.T @ m, np.eye(2), atol=1e-10)
        assert np.allclose(m.T @ j @ m, j, atol=1e-10)

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
        m, sigma = williamson(s)
        j = jmat(d)
        for i in range(len(s)):
            d_sigma = np.diag(np.concatenate([sigma[i], sigma[i]]))
            scale = max(1.0, np.linalg.norm(s[i]))
            assert np.linalg.norm(m[i].T @ d_sigma @ m[i] - s[i]) < 1e-10 * scale
            assert np.linalg.norm(m[i].T @ j @ m[i] - j) < 1e-10
            # the eigenvalues of i J S are -sigma_j and +sigma_j
            reference = np.sort(np.abs(np.linalg.eigvals(1j * j @ s[i])))[::2]
            assert np.all(np.abs(sigma[i] - reference) < 1e-12 * sigma[i])

    @pytest.mark.parametrize("d", range(2, 9))
    def test_repeated_symplectic_eigenvalues(self, d):
        # S = M^T diag(sigma, sigma) M with a random symplectic M = exp(J H)
        # and sigma holding repeated values, all equal at odd d
        rng = np.random.default_rng(50 + d)
        j = jmat(d)
        h = rng.standard_normal((2 * d, 2 * d))
        sympl = expm(0.3 * j @ (h + h.T))
        sigma_true = np.repeat([1.5, 2.5], [d - d // 2, d // 2]) if d % 2 == 0 else np.full(d, 1.5)
        s = sympl.T @ np.diag(np.concatenate([sigma_true, sigma_true])) @ sympl
        s = 0.5 * (s + s.T)
        m, sigma = williamson(s)
        d_sigma = np.diag(np.concatenate([sigma, sigma]))
        assert np.linalg.norm(m.T @ j @ m - j) < 1e-12
        assert np.linalg.norm(m.T @ d_sigma @ m - s) < 1e-12 * np.linalg.norm(s)
        assert np.all(np.abs(sigma - sigma_true) < 1e-12 * sigma_true)

    def test_condition_beyond_root_margin_is_not_faithful(self):
        # eigenvalues 1 and 4e16 (that of omega = kappa = 1e8): no root at
        # ROOT_MARGIN; a smallest eigenvalue within rounding of eigvalsh
        # (2 eps lambda_max, about 18 here) below zero is no evidence that
        # the covariance is not positive semidefinite
        for small in (1.0, 0.0, -1.0, -17.0):
            m, sigma = williamson(np.diag([small, 4e16]))
            assert np.all(np.isnan(sigma)) and np.all(np.isnan(m))
        with pytest.raises(NotPositiveDefinite):
            williamson(np.diag([-20.0, 4e16]))
        m, sigma = williamson(np.array([np.eye(2), np.diag([-1.0, 4e16])]))
        assert np.all(np.isnan(sigma[1])) and np.all(np.isfinite(sigma[0]))

    def test_stack_rejects_non_spd_entry(self):
        with pytest.raises(NotPositiveDefinite) as caught:
            williamson(np.array([np.eye(2), np.diag([1.0, -1.0])]))
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
        assert np.all(np.isnan(st.s_breve))
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
