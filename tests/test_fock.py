"""Truncated Fock-space oracle: operators, generator, traces, gaps."""

import numpy as np
import pytest
from scipy.linalg import expm

from gaussgap.dynamics import GaussianStateParams, char_fn, kms_weyl_trace, weyl_evolve
from gaussgap.errors import (
    ConsistencyError,
    DimensionTooLarge,
    OutsideEnvelope,
)
from gaussgap.fock import (
    Superoperator,
    _blocked_eigvalsh,
    _components,
    _metric_roots,
    _weighted_generator,
    build_hamiltonian,
    build_space,
    build_superoperator,
    leakage_norm,
    oracle_char_fn,
    oracle_gap,
    oracle_kms_trace,
    steady_state,
    thermal_density,
    weyl_matrix,
)
from gaussgap.gap import analyze
from gaussgap.model import GklsModel, build_drift_diffusion, one_dim_family
from gaussgap.stationary import solve_stationary

# thermal jumps (mu2 = 3.2, lambda2 = 0.6) with a linear drive: the invariant
# state is a displaced thermal state, not number-diagonal
DRIVEN = GklsModel(
    d=1, m=2,
    omega=np.array([[2.0]]), kappa=np.zeros((1, 1)),
    u_mat=np.array([[0.0], [np.sqrt(0.6)]]), v_mat=np.array([[np.sqrt(3.2)], [0.0]]),
    zeta=np.array([1.5 + 0.5j]),
)


def _two_mode_model(rng):
    """Two modes with inter-mode couplings in omega, kappa and the noise
    matrices, plus a linear drive."""
    d, m = 2, 4
    return GklsModel(
        d=d,
        m=m,
        omega=np.array([[0.4, 0.15 - 0.1j], [0.15 + 0.1j, -0.2]]),
        kappa=np.array([[0.05, 0.1 + 0.05j], [0.1 + 0.05j, -0.04]]),
        u_mat=0.12 * (rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))),
        v_mat=1.0 * (rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))),
        zeta=np.array([0.1 - 0.08j, 0.06 + 0.1j]),
    )


class TestSpace:
    def test_single_mode_lowering_matrix(self):
        space = build_space(1, 2)
        expected = np.array(
            [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex
        )
        assert np.allclose(space.a_ops[0], expected)

    def test_ccr_below_cutoff(self):
        space = build_space(1, 12)
        q, p = space.q_op(0), space.p_op(0)
        comm = q @ p - p @ q
        sub = slice(0, space.cutoff)  # occupations strictly below the cutoff
        assert np.allclose(comm[sub, sub], 1j * np.eye(space.cutoff), atol=1e-12)

    def test_two_modes_commute(self):
        space = build_space(2, 3)
        assert space.dim == 16
        a0, a1 = space.a_ops
        assert np.allclose(a0 @ a1 - a1 @ a0, 0)
        assert np.allclose(a0 @ a1.conj().T - a1.conj().T @ a0, 0)

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            build_space(4, 15)


class TestSuperoperator:
    def test_trace_preservation(self, model_b):
        model, _, _ = model_b
        superop = build_superoperator(model, build_space(1, 15))
        assert superop.trace_preservation_residual() <= 1e-10 * np.linalg.norm(
            superop.predual
        )

    def test_duality_pairing(self, model_a):
        model, _, _ = model_a
        space = build_space(1, 10)
        superop = build_superoperator(model, space)
        rng = np.random.default_rng(71)
        for _ in range(5):
            rho = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
            x = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
            lhs = np.trace(superop.apply_predual(rho) @ x)
            rhs = np.trace(rho @ superop.apply_heisenberg(x))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_model_a_steady_state_is_thermal(self, model_a):
        # sigma = 2 means mean occupation 1/2, i.e. weights (1 - q) q^n with
        # q = 1/3
        model, _, _ = model_a
        space = build_space(1, 25)
        rho = steady_state(build_superoperator(model, space))
        expected = thermal_density(space, 0.5)
        assert np.linalg.norm(rho - expected) < 1e-10
        resid = np.linalg.norm(
            build_superoperator(model, space).apply_predual(rho)
        )
        assert resid < 1e-10

    def test_model_b_moments_match_covariance(self, model_b):
        model, _, st = model_b
        space = build_space(1, 25)
        rho = steady_state(build_superoperator(model, space))
        q, p = space.q_op(0), space.p_op(0)
        vp = np.trace(rho @ p @ p).real
        vq = np.trace(rho @ q @ q).real
        cov = 0.5 * np.trace(rho @ (q @ p + p @ q)).real
        # covariance entries: S = [[2 Var p, -2 Cov(q,p)], [-2 Cov(q,p), 2 Var q]]
        assert abs(2 * vp - st.s2d[0, 0]) < 1e-3
        assert abs(2 * vq - st.s2d[1, 1]) < 1e-3
        assert abs(-2 * cov - st.s2d[0, 1]) < 1e-3

    def test_stationarity_residual_decreases_with_cutoff(self, model_b):
        model, _, st = model_b
        resids = []
        for cutoff in (12, 18, 24):
            space = build_space(1, cutoff)
            superop = build_superoperator(model, space)
            nbar_like = thermal_density(space, (st.sigma[0] - 1) / 2)
            resids.append(np.linalg.norm(superop.apply_predual(nbar_like)))
        assert resids[0] > resids[1] > resids[2]

    def test_leakage_reported(self, model_a):
        model, _, _ = model_a
        space = build_space(1, 18)
        superop = build_superoperator(model, space)
        rho = thermal_density(space, 0.5)
        rate = superop.apply_predual(rho)
        assert leakage_norm(space, rate) < 1e-6
        assert leakage_norm(space, np.ones((space.dim, space.dim))) > 1


class TestCharFnOracle:
    def test_vacuum(self):
        space = build_space(1, 40)
        vac = np.zeros((space.dim, space.dim), dtype=complex)
        vac[0, 0] = 1.0
        val = oracle_char_fn(space, vac, [1.0])
        assert abs(val - np.exp(-0.5)) < 1e-8

    def test_argument_zero(self, model_a):
        model, _, _ = model_a
        space = build_space(1, 20)
        rho = thermal_density(space, 0.5)
        assert oracle_char_fn(space, rho, [0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_model_a_thermal(self, model_a):
        _, _, st = model_a
        space = build_space(1, 40)
        rho = thermal_density(space, 0.5)
        val = oracle_char_fn(space, rho, [1.0])
        assert abs(val - np.exp(-1.0)) < 1e-6

    @pytest.mark.parametrize("params", [(3.0, 1.0, 0.0, 0.0), (3.0, 1.0, 2.0, 1.0)])
    def test_grid_agreement(self, params):
        model = one_dim_family(*params)
        dd = build_drift_diffusion(model)
        st = solve_stationary(dd)
        sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        space = build_space(1, 40)
        rho = steady_state(build_superoperator(model, space))
        for re in np.linspace(-1, 1, 5):
            for im in np.linspace(-1, 1, 5):
                z = np.array([re + 1j * im])
                assert abs(char_fn(sp, z) - oracle_char_fn(space, rho, z)) < 1e-6


class TestKmsTraceOracle:
    def test_model_a_formula(self, model_a):
        model, _, st = model_a
        space = build_space(1, 40)
        rho = steady_state(build_superoperator(model, space))
        closed = kms_weyl_trace(st, np.array([1.0]), np.array([1.0]))
        oracle = oracle_kms_trace(space, rho, [1.0], [1.0])
        assert closed == pytest.approx(np.exp(-(2 + np.sqrt(3))), rel=1e-12)
        assert abs(oracle - closed) / closed < 1e-6

    def test_reduces_to_char_fn(self, model_a):
        model, _, _ = model_a
        space = build_space(1, 35)
        rho = thermal_density(space, 0.5)
        z = [0.6]
        lhs = oracle_kms_trace(space, rho, z, [0.0])
        rhs = oracle_char_fn(space, rho, z)
        assert abs(lhs - rhs) < 1e-10

    def test_trace_one_at_origin(self, model_a):
        space = build_space(1, 25)
        rho = thermal_density(space, 0.5)
        assert oracle_kms_trace(space, rho, [0.0], [0.0]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", [(3.0, 1.0, 2.0, 1.0), (4.0, 0.5, 1.0, 1.2)])
    def test_off_number_diagonal(self, params):
        # kappa != 0: the steady state is not number-diagonal, and the full
        # root keeps the split trace truncation-limited (max relative error
        # 2.5e-7 and 1.2e-7 at cutoff 30, 1.1e-4 and 6.1e-6 at cutoff 25)
        model = one_dim_family(*params)
        st = solve_stationary(build_drift_diffusion(model))
        space = build_space(1, 30)
        rho = steady_state(build_superoperator(model, space))
        assert np.linalg.norm(rho - np.diag(np.diag(rho))) > 1e-3
        for z, w in [(1.0, 1.0), (0.5, -0.5), (0.8j, 0.3)]:
            closed = kms_weyl_trace(st, [z], [w])
            oracle = oracle_kms_trace(space, rho, [z], [w])
            assert abs(oracle - closed) < 3e-6 * closed

class TestGapOracle:
    @pytest.mark.parametrize("mode", ["gns", "kms"])
    def test_model_a_both_embeddings(self, mode):
        model = one_dim_family(3, 1)
        g = oracle_gap(model, build_space(1, 30))[("gns", "kms").index(mode)]
        assert abs(g - 1.0) < 0.05

    @pytest.mark.parametrize("mode", ["gns", "kms"])
    def test_rotation_does_not_move_gap(self, mode):
        # kappa = 0: both closed forms reduce to gamma independently of omega
        model = one_dim_family(3, 1, omega=2.0)
        g = oracle_gap(model, build_space(1, 30))[("gns", "kms").index(mode)]
        assert abs(g - 1.0) < 0.05

    def test_monotone_cutoff_study(self):
        model = one_dim_family(3, 1)
        errs = [
            abs(oracle_gap(model, build_space(1, n))[0] - 1.0)
            for n in (20, 25, 30)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-6

    def test_envelope_enforced(self):
        from gaussgap.model import GklsModel

        with pytest.raises(OutsideEnvelope):
            oracle_gap(one_dim_family(3, 1, 0.0, 0.5), build_space(1, 10))
        pumped = GklsModel(
            d=1, m=2,
            omega=np.zeros((1, 1)), kappa=np.zeros((1, 1)),
            u_mat=np.array([[0.0], [1.0]]), v_mat=np.array([[0.5], [0.0]]),
            zeta=np.zeros(1),
        )
        with pytest.raises(OutsideEnvelope):
            oracle_gap(pumped, build_space(1, 10))
        # mixed raising/lowering jump leaves the thermal-diagonal family
        mixed = GklsModel(
            d=1, m=1,
            omega=np.zeros((1, 1)), kappa=np.zeros((1, 1)),
            u_mat=np.array([[0.4]]), v_mat=np.array([[1.0]]),
            zeta=np.zeros(1),
        )
        with pytest.raises(OutsideEnvelope):
            oracle_gap(mixed, build_space(1, 10))
        # a drive displaces the thermal state off the number diagonal
        with pytest.raises(OutsideEnvelope):
            oracle_gap(DRIVEN, build_space(1, 10))
        # lambda2 = 0: the thermal state is the pure vacuum, not faithful
        with pytest.raises(OutsideEnvelope):
            oracle_gap(one_dim_family(2, 0), build_space(1, 10))


def _lstsq_steady_state(superop):
    """Least-squares solve of the predual kernel with the unit-trace row
    appended, Hermitized and normalized."""
    dim = superop.space.dim
    system = np.vstack([superop.predual, np.eye(dim).reshape(1, -1, order="F")])
    rhs = np.zeros(dim * dim + 1, dtype=complex)
    rhs[-1] = 1.0
    sol = np.linalg.lstsq(system, rhs, rcond=None)[0]
    rho = sol.reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


class TestSquareSteadyState:
    @pytest.mark.parametrize(
        "model, cutoff",
        [
            (one_dim_family(3.0, 1.0, 0.0, 0.0), 25),
            (one_dim_family(3.0, 1.0, 2.0, 1.0), 25),
            (DRIVEN, 25),
            (_two_mode_model(np.random.default_rng(11)), 5),
        ],
        ids=["thermal", "squeezed", "driven", "two-mode"],
    )
    def test_matches_augmented_least_squares(self, model, cutoff):
        superop = build_superoperator(model, build_space(model.d, cutoff))
        rho = steady_state(superop)
        assert np.max(np.abs(rho - _lstsq_steady_state(superop))) < 1e-12
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(superop.apply_predual(rho)) < 1e-13

    def test_degenerate_kernel_refused(self):
        # a closed system: every function of H is stationary, so the
        # square system is singular
        model = one_dim_family(3.0, 1.0, 2.0, 1.0)
        space = build_space(1, 8)
        h = build_hamiltonian(model, space)
        eye = np.eye(space.dim)
        comm = np.kron(eye, h) - np.kron(h.T, eye)
        closed = Superoperator(space=space, predual=-1j * comm, heisenberg=1j * comm)
        with pytest.raises(OutsideEnvelope, match="no unique steady state"):
            steady_state(closed)

    def test_replaced_row_is_checked(self):
        # a predual that is not trace preserving: the solve never sees the
        # |0><0| row, so only the full residual catches it
        model = one_dim_family(3.0, 1.0, 0.0, 0.0)
        superop = build_superoperator(model, build_space(1, 10))
        predual = superop.predual.copy()
        predual[0] += 0.1 * np.eye(11).reshape(-1, order="F")
        broken = Superoperator(
            space=superop.space, predual=predual, heisenberg=superop.heisenberg
        )
        with pytest.raises(ConsistencyError, match="steady-state residual"):
            steady_state(broken)


class TestBlockedEigensolve:
    @pytest.mark.parametrize(
        "model, blocks",
        [
            (one_dim_family(3.0, 1.0, 0.0, 0.0), 51),  # U(1) sectors l - m
            (one_dim_family(3.0, 1.0, 2.0, 1.0), 2),  # parity halves
            (DRIVEN, 1),
        ],
        ids=["thermal", "squeezed", "driven"],
    )
    def test_component_counts(self, model, blocks):
        heis = build_superoperator(model, build_space(1, 25)).heisenberg
        labels = _components((heis != 0) | (heis.T != 0))
        assert labels.max() + 1 == blocks
        assert set(labels) == set(range(blocks))

    @pytest.mark.parametrize("embedding", [0, 1], ids=["gns", "kms"])
    def test_union_of_blocks_is_the_spectrum(self, embedding):
        model = one_dim_family(3.0, 1.0, 2.0, 0.0)
        space = build_space(1, 25)
        superop = build_superoperator(model, space)
        pops = np.diag(thermal_density(space, 0.5)).real
        gsym = _weighted_generator(superop, _metric_roots(pops)[embedding])
        assert _components(gsym != 0).max() + 1 == 51
        dense = np.linalg.eigvalsh(gsym)
        assert np.max(np.abs(_blocked_eigvalsh(gsym) - dense)) <= 1e-12 * np.linalg.norm(gsym)

    def test_planted_entry_merges_components(self):
        heis = build_superoperator(
            one_dim_family(3.0, 1.0, 0.0, 0.0), build_space(1, 6)
        ).heisenberg
        pattern = (heis != 0) | (heis.T != 0)
        labels = _components(pattern)
        assert labels.max() + 1 == 13
        i, j = 1, 7  # vec indices of |1><0| and |0><1|: sectors +1 and -1
        assert labels[i] != labels[j]
        pattern[i, j] = pattern[j, i] = True
        merged = _components(pattern)
        assert merged.max() + 1 == 12
        assert merged[i] == merged[j]
        # the blocked solve follows the planted coupling
        rng = np.random.default_rng(5)
        mat = np.where(pattern, rng.standard_normal(pattern.shape), 0.0)
        mat = mat + mat.T
        assert np.allclose(_blocked_eigvalsh(mat), np.linalg.eigvalsh(mat), atol=1e-12)


def test_two_mode_cross_validation():
    # full convention check at d = 2 with inter-mode couplings in omega,
    # kappa and the noise matrices, plus a linear drive: the truncated
    # steady state must reproduce the closed-form mean and covariance
    # through the moment dictionary
    #   S = 2 [[Cov(p,p), -Cov(p,q)], [-Cov(q,p), Cov(q,q)]],
    #   mu = sqrt(2) E[p] - i sqrt(2) E[q],
    # and characteristic functions / evolved Weyl expectations must agree
    rng = np.random.default_rng(11)
    d = 2
    model = _two_mode_model(rng)
    dd = build_drift_diffusion(model)
    st = solve_stationary(dd, model.zeta)
    sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)

    space = build_space(d, 5)
    superop = build_superoperator(model, space)
    rho = steady_state(superop)
    qs = [space.q_op(j) for j in range(d)]
    ps = [space.p_op(j) for j in range(d)]

    def ev(op):
        return np.trace(rho @ op).real

    mean_q = np.array([ev(q) for q in qs])
    mean_p = np.array([ev(p) for p in ps])

    def cov(a, b, ma, mb):
        return 0.5 * np.trace(rho @ (a @ b + b @ a)).real - ma * mb

    s_est = np.zeros((2 * d, 2 * d))
    for j in range(d):
        for k in range(d):
            s_est[j, k] = 2 * cov(ps[j], ps[k], mean_p[j], mean_p[k])
            s_est[d + j, d + k] = 2 * cov(qs[j], qs[k], mean_q[j], mean_q[k])
            s_est[j, d + k] = -2 * cov(ps[j], qs[k], mean_p[j], mean_q[k])
            s_est[d + j, k] = -2 * cov(qs[j], ps[k], mean_q[j], mean_p[k])
    assert np.linalg.norm(s_est - st.s2d) < 1e-3
    mu_est = np.sqrt(2) * mean_p - 1j * np.sqrt(2) * mean_q
    assert np.linalg.norm(mu_est - st.mu) < 1e-4

    for _ in range(4):
        z = 0.3 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        assert abs(char_fn(sp, z) - oracle_char_fn(space, rho, z)) < 1e-4

    z = np.array([0.25 - 0.15j, 0.1 + 0.2j])
    res = weyl_evolve(dd, z, 0.4, model.zeta)
    closed = np.exp(res.decay_exponent + 1j * res.phase) * char_fn(sp, res.z_t)
    prop = expm(0.4 * superop.heisenberg)
    w_t = (prop @ weyl_matrix(space, z).reshape(-1, order="F")).reshape(
        (space.dim, space.dim), order="F"
    )
    assert abs(np.trace(rho @ w_t) - closed) < 1e-4


def test_general_state_gap_study(model_b):
    # test-only study past the supported gap-oracle envelope: with kappa != 0
    # the stationary density is not number-diagonal, so the weighted metrics
    # need full matrix roots (eigendecomposition with a floor on the tail
    # eigenvalues).  Both embedded gaps must still approach the closed forms.
    model, dd, _ = model_b
    rep = analyze(dd)
    space = build_space(1, 25)
    superop = build_superoperator(model, space)
    rho = steady_state(superop)
    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals, 1e-14, None)
    eye_vec = np.eye(space.dim).reshape(-1, order="F")

    def embedded_gap(mode):
        if mode == "gns":
            half = (evecs * np.sqrt(evals)) @ evecs.conj().T
            w_root = np.kron(half.T, np.eye(space.dim))
            w_root_inv = np.kron(np.linalg.inv(half).T, np.eye(space.dim))
        else:
            quarter = (evecs * evals**0.25) @ evecs.conj().T
            w_root = np.kron(quarter.T, quarter)
            w_root_inv = np.kron(np.linalg.inv(quarter).T, np.linalg.inv(quarter))
        gmat = w_root @ superop.heisenberg @ w_root_inv
        gsym = 0.5 * (gmat + gmat.conj().T)
        u = w_root @ eye_vec
        u = u / np.linalg.norm(u)
        gsym = gsym - np.outer(u, u.conj() @ gsym)
        gsym = gsym - np.outer(gsym @ u, u.conj())
        gsym = 0.5 * (gsym + gsym.conj().T)
        return -np.linalg.eigvalsh(gsym)[-2]

    assert abs(embedded_gap("gns") - rep.g) < 5e-4
    assert abs(embedded_gap("kms") - rep.g_breve) < 5e-4


def test_weyl_evolution_cross_check(model_b):
    # evolve W(z) through the exponential of the brute-force generator and
    # compare the stationary expectation with the closed form
    model, dd, st = model_b
    space = build_space(1, 24)
    superop = build_superoperator(model, space)
    rho = steady_state(superop)
    z = np.array([0.5 - 0.3j])
    w_mat = weyl_matrix(space, z)
    sp = GaussianStateParams(mean=st.mu, cov2d=st.s2d)
    base = char_fn(sp, z)
    for t in (0.1, 0.5):
        prop = expm(t * superop.heisenberg)
        w_t = (prop @ w_mat.reshape(-1, order="F")).reshape(w_mat.shape, order="F")
        oracle_val = np.trace(rho @ w_t)
        res = weyl_evolve(dd, z, t)
        closed_val = np.exp(res.decay_exponent + 1j * res.phase) * char_fn(sp, res.z_t)
        assert abs(oracle_val - base) < 1e-4
        assert abs(oracle_val - closed_val) < 1e-4
        # and against the literal closed form of the evolved operator
        direct = np.exp(res.decay_exponent) * np.trace(
            rho @ weyl_matrix(space, res.z_t)
        )
        assert abs(oracle_val - direct) < 1e-4
