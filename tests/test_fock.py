"""Truncated Fock-space oracle: operators, generator, traces, gaps."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

from gaussgap import fock
from gaussgap.dynamics import GaussianStateParams, char_fn, kms_weyl_trace, weyl_evolve
from gaussgap.errors import (
    ConsistencyError,
    DimensionTooLarge,
    OutsideEnvelope,
)
from gaussgap.fock import (
    Superoperator,
    TruncatedSpace,
    _blocked_eigvalsh,
    _metric_roots,
    _thermal_envelope,
    _weighted_hermitian_parts,
    build_hamiltonian,
    build_kraus,
    build_space,
    build_superoperator,
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

# number-diagonal thermal models (mu2, lambda2, omega, kappa = 0)
THERMAL_GRID = [(3.0, 1.0, 0.0, 0.0), (2.6, 0.4, 2.0, 0.0), (3.7, 1.3, 1.1, 0.0)]

# thermal jumps (mu2 = 3.2, lambda2 = 0.6) with a linear drive: the invariant
# state is a displaced thermal state, not number-diagonal
DRIVEN = GklsModel(
    d=1, m=2,
    omega=np.array([[2.0]]), kappa=np.zeros((1, 1)),
    u_mat=np.array([[0.0], [np.sqrt(0.6)]]), v_mat=np.array([[np.sqrt(3.2)], [0.0]]),
    zeta=np.array([1.5 + 0.5j]),
)

# jumps a + adag/2 and a - adag/2: the cross terms a^T kron a and a kron adag
# of their Kronecker products (conj(a) kron adag and adag kron a in the
# predual) cancel exactly
CANCELLING = GklsModel(
    d=1, m=2,
    omega=np.array([[0.7]]), kappa=np.zeros((1, 1)),
    u_mat=np.array([[0.5], [-0.5]]), v_mat=np.array([[1.0], [1.0]]),
    zeta=np.zeros(1),
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
        assert build_space(1, 63).dim == build_space(2, 7).dim == build_space(3, 3).dim == 64
        for d, cutoff, dim in ((1, 64, 65), (2, 8, 81), (4, 15, 65536)):
            with pytest.raises(
                DimensionTooLarge,
                match=f"^truncated dimension {dim} exceeds the superoperator cap 64$",
            ):
                build_space(d, cutoff)


class TestSuperoperator:
    def test_superoperator_cap(self, model_b):
        # build_space refuses this space; a hand-built one meets the same cap
        model, _, _ = model_b
        local = np.diag(np.sqrt(np.arange(1, 65)), k=1).astype(complex)
        space = TruncatedSpace(d=1, cutoff=64, dim=65, a_ops=(local,))
        with pytest.raises(
            DimensionTooLarge,
            match="^truncated dimension 65 exceeds the superoperator cap 64$",
        ):
            build_superoperator(model, space)

    def test_trace_preservation(self, model_b):
        model, _, _ = model_b
        superop = build_superoperator(model, build_space(1, 15))
        assert superop.trace_preservation_residual() <= 1e-10 * np.linalg.norm(
            superop.predual.toarray()
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

    @pytest.mark.parametrize(
        "model, cutoff, cancels",
        [
            (one_dim_family(3.0, 1.0, 0.0, 0.0), 8, False),
            (one_dim_family(3.0, 1.0, 2.0, 1.0), 8, False),
            (DRIVEN, 8, False),
            (_two_mode_model(np.random.default_rng(11)), 5, False),
            (CANCELLING, 8, True),
        ],
        ids=["thermal", "squeezed", "driven", "two-mode", "cancelling"],
    )
    def test_sparse_assembly_is_the_kronecker_formula(self, model, cutoff, cancels):
        # vec(A x B) = (B^T kron A) vec(x): both pictures entry by entry from
        # dense Kronecker products summed in the same order, and nothing
        # stored outside their nonzeros, not even where terms cancel exactly
        space = build_space(model.d, cutoff)
        superop = build_superoperator(model, space)
        kraus = build_kraus(model, space)
        g = 1j * build_hamiltonian(model, space)
        for ell in kraus:
            g -= 0.5 * (ell.conj().T @ ell)
        eye = np.eye(space.dim)
        heis_terms = [np.kron(eye, g), np.kron(g.conj(), eye)]
        heis_terms += [np.kron(ell.T, ell.conj().T) for ell in kraus]
        pred_terms = [np.kron(eye, g.conj().T), np.kron(g.T, eye)]
        pred_terms += [np.kron(ell.conj(), ell) for ell in kraus]
        for sparse_op, terms in ((superop.heisenberg, heis_terms), (superop.predual, pred_terms)):
            dense_op = terms[0] + terms[1]
            for term in terms[2:]:
                dense_op += term
            touched = np.any([term != 0 for term in terms], axis=0)
            assert np.any(touched & (dense_op == 0)) == cancels
            assert sparse_op.format == "csr"
            assert np.array_equal(sparse_op.toarray(), dense_op)
            coo = sparse_op.tocoo()
            stored = set(zip(coo.row.tolist(), coo.col.tolist()))
            assert stored == set(zip(*(idx.tolist() for idx in np.nonzero(dense_op))))

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
        # the thermal state is stationary up to the truncation boundary
        assert np.linalg.norm(superop.apply_predual(rho)) < 1e-6


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

    @pytest.mark.parametrize("params", THERMAL_GRID)
    @pytest.mark.parametrize("error", [1e-6, 0.1])
    def test_weights_off_the_stationary_density_refused(self, monkeypatch, params, error):
        # weights from a wrong mean occupation leave the invariant direction
        # out of the kernel; nothing projects it out, so the check must fire
        exact = fock.thermal_density
        monkeypatch.setattr(
            fock, "thermal_density", lambda space, nbar: exact(space, nbar * (1 + error))
        )
        with pytest.raises(ConsistencyError, match="invariant-direction residual"):
            oracle_gap(one_dim_family(*params), build_space(1, 25))


def _lstsq_steady_state(superop):
    """Least-squares solve of the predual kernel with the unit-trace row
    appended, Hermitized and normalized."""
    dim = superop.space.dim
    system = np.vstack([superop.predual.toarray(), np.eye(dim).reshape(1, -1, order="F")])
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

    @pytest.mark.parametrize("lambda2", [1e-6, 1e-3])
    def test_small_populations_keep_relative_accuracy(self, lambda2):
        # the truncated thermal state is exactly stationary; its populations
        # fall to q^25 (about 1e-158 at lambda2 = 1e-6), and each must come
        # out with a small relative error, not only a small absolute one
        space = build_space(1, 25)
        rho = steady_state(build_superoperator(one_dim_family(2.0, lambda2), space))
        exact = np.diag(thermal_density(space, lambda2 / (2.0 - lambda2))).real
        assert np.max(np.abs(np.diag(rho).real - exact) / exact) < 1e-13

    def test_degenerate_kernel_refused(self):
        # a closed system: every function of H is stationary, so the
        # square system is singular
        model = one_dim_family(3.0, 1.0, 2.0, 1.0)
        space = build_space(1, 8)
        h = build_hamiltonian(model, space)
        eye = np.eye(space.dim)
        comm = np.kron(eye, h) - np.kron(h.T, eye)
        closed = Superoperator(
            space=space,
            predual=sparse.csr_array(-1j * comm),
            heisenberg=sparse.csr_array(1j * comm),
        )
        with pytest.raises(OutsideEnvelope, match="no unique steady state"):
            steady_state(closed)

    def test_replaced_row_is_checked(self):
        # a predual that is not trace preserving: the solve never sees the
        # |0><0| row, so only the full residual catches it
        model = one_dim_family(3.0, 1.0, 0.0, 0.0)
        superop = build_superoperator(model, build_space(1, 10))
        predual = superop.predual.toarray()
        predual[0] += 0.1 * np.eye(11).reshape(-1, order="F")
        broken = Superoperator(
            space=superop.space, predual=sparse.csr_array(predual), heisenberg=superop.heisenberg
        )
        with pytest.raises(ConsistencyError, match="steady-state residual"):
            steady_state(broken)


    def test_refusal_leaves_global_rng_alone(self):
        # the condition estimate takes one all-ones column and draws nothing
        # from numpy's global generator, on a unique steady state, on a
        # system singular to working precision (a closed system with a
        # 1e-15 dissipator) and on an exactly singular one
        model = one_dim_family(3.0, 1.0, 2.0, 1.0)
        space = build_space(1, 8)
        h = build_hamiltonian(model, space)
        eye = np.eye(space.dim)
        comm = np.kron(eye, h) - np.kron(h.T, eye)
        damped = build_superoperator(one_dim_family(3.0, 1.0, 0.0, 0.0), space)
        weak = Superoperator(
            space=space,
            predual=sparse.csr_array(-1j * comm + 1e-15 * damped.predual.toarray()),
            heisenberg=None,
        )
        closed = Superoperator(
            space=space,
            predual=sparse.csr_array(-1j * comm),
            heisenberg=sparse.csr_array(1j * comm),
        )
        before = np.random.get_state()
        steady_state(damped)
        for superop in (weak, closed):
            with pytest.raises(OutsideEnvelope, match="no unique steady state"):
                steady_state(superop)
        after = np.random.get_state()
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]

def _spy_eigvalsh(monkeypatch):
    """Shapes of the arguments of every np.linalg.eigvalsh call from now on."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes


def _dense(rows, cols, vals, n):
    """The n x n matrices, one per row of vals, with those entries."""
    out = np.zeros((len(vals), n, n), dtype=vals.dtype)
    out[:, rows, cols] = vals
    return out


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
    def test_component_counts(self, model, blocks, monkeypatch):
        # one block per component of the Heisenberg generator's symmetric
        # pattern, and every vertex in one of them
        heis = build_superoperator(model, build_space(1, 25)).heisenberg
        n = heis.shape[0]
        rows, cols, _ = _weighted_hermitian_parts(heis, np.ones((1, n)))
        shapes = _spy_eigvalsh(monkeypatch)
        _blocked_eigvalsh(rows, cols, np.ones((1, rows.size)), n)
        assert len(shapes) == blocks
        assert sum(shape[-1] for shape in shapes) == n

    @pytest.mark.parametrize("embedding", [0, 1], ids=["gns", "kms"])
    def test_union_of_blocks_is_the_spectrum(self, embedding, monkeypatch):
        model = one_dim_family(3.0, 1.0, 2.0, 0.0)
        space = build_space(1, 25)
        heis = build_superoperator(model, space).heisenberg
        pops = np.diag(thermal_density(space, 0.5)).real
        rows, cols, gsym = _weighted_hermitian_parts(heis, np.stack(_metric_roots(pops)))
        shapes = _spy_eigvalsh(monkeypatch)
        blocked = _blocked_eigvalsh(rows, cols, gsym, heis.shape[0])
        # both embeddings in each of the 51 calls
        assert len(shapes) == 51
        assert {shape[0] for shape in shapes} == {2}
        monkeypatch.undo()
        mat = _dense(rows, cols, gsym, heis.shape[0])[embedding]
        dense = np.linalg.eigvalsh(mat)
        assert np.max(np.abs(blocked[embedding] - dense)) <= 1e-12 * np.linalg.norm(mat)

    @pytest.mark.parametrize("embedding", [0, 1], ids=["gns", "kms"])
    def test_sparse_weighting_matches_dense_formula(self, embedding):
        # reference: weight every entry of the dense generator, project with
        # dense outer products, take the dense Hermitian part
        space = build_space(1, 25)
        superop = build_superoperator(one_dim_family(3.0, 1.0, 2.0, 0.0), space)
        w_roots = np.stack(_metric_roots(np.diag(thermal_density(space, 0.5)).real))
        w_root = w_roots[embedding]
        gmat = (w_root[:, None] / w_root[None, :]) * superop.heisenberg.toarray()
        u = w_root * np.eye(space.dim).reshape(-1, order="F")
        u = u / np.linalg.norm(u)
        gmat -= np.outer(u, u.conj() @ gmat)
        gmat -= np.outer(gmat @ u, u.conj())
        dense = 0.5 * (gmat + gmat.conj().T)
        rows, cols, gsym = _weighted_hermitian_parts(superop.heisenberg, w_roots)
        got = _dense(rows, cols, gsym, space.dim**2)[embedding]
        assert np.max(np.abs(got - dense)) <= 1e-15 * np.linalg.norm(dense)

    def test_planted_entry_merges_components(self, monkeypatch):
        heis = build_superoperator(
            one_dim_family(3.0, 1.0, 0.0, 0.0), build_space(1, 6)
        ).heisenberg.toarray()
        pattern = (heis != 0) | (heis.T != 0)
        n = pattern.shape[0]
        shapes = _spy_eigvalsh(monkeypatch)
        _blocked_eigvalsh(*np.nonzero(pattern), np.ones((1, pattern.sum())), n)
        assert len(shapes) == 13
        # the largest block is the diagonal sector l = m, of 7 vertices
        assert max(shape[-1] for shape in shapes) == 7
        i, j = 1, 7  # vec indices of |1><0| and |0><1|: sectors +1 and -1
        pattern[i, j] = pattern[j, i] = True
        shapes.clear()
        _blocked_eigvalsh(*np.nonzero(pattern), np.ones((1, pattern.sum())), n)
        assert len(shapes) == 12
        # sectors +1 and -1 hold 6 vertices each; merged they make one block
        assert max(shape[-1] for shape in shapes) == 12
        # the blocked solve follows the planted coupling
        rng = np.random.default_rng(5)
        mat = np.where(pattern, rng.standard_normal(pattern.shape), 0.0)
        mat = mat + mat.T
        rows, cols = np.nonzero(pattern)
        monkeypatch.undo()
        assert np.allclose(
            _blocked_eigvalsh(rows, cols, mat[None, rows, cols], n)[0],
            np.linalg.eigvalsh(mat),
            atol=1e-12,
        )

    def test_oracle_gap_makes_one_eigensolve_per_block(self, monkeypatch):
        # 51 sectors l - m at cutoff 25, each one call for both embeddings
        shapes = _spy_eigvalsh(monkeypatch)
        oracle_gap(one_dim_family(3.0, 1.0, 2.0, 0.0), build_space(1, 25))
        assert len(shapes) == 51


def _reference_superoperator(model, space):
    """Both pictures as the chain of scipy.sparse Kronecker products and CSR
    sums that build_superoperator's formula spells out."""
    kraus = build_kraus(model, space)
    g = 1j * build_hamiltonian(model, space)
    for ell in kraus:
        g -= 0.5 * (ell.conj().T @ ell)
    eye = sparse.csr_array(np.eye(space.dim, dtype=complex))

    def kron(left, right):
        return sparse.kron(left, right, format="csr")

    heis = kron(eye, g) + kron(g.conj(), eye)
    pred = kron(eye, g.conj().T) + kron(g.T, eye)
    for ell in kraus:
        heis = heis + kron(ell.T, ell.conj().T)
        pred = pred + kron(ell.conj(), ell)
    return Superoperator(space=space, predual=pred, heisenberg=heis)


def _reference_weighted_generator(superop, w_root, project=True):
    """The weighting, both rank-one projections off the invariant direction
    (unless project is False) and the Hermitian part as scipy.sparse
    operations on the CSR Heisenberg generator."""
    heis = sparse.csr_array(superop.heisenberg)
    n = heis.shape[0]
    rows = np.repeat(np.arange(n), np.diff(heis.indptr))
    ratio = w_root[rows] / w_root[heis.indices]
    gmat = sparse.csr_array((ratio * heis.data, heis.indices, heis.indptr), shape=heis.shape)
    if project:
        support = np.arange(superop.space.dim) * (superop.space.dim + 1)
        u_vals = w_root[support]
        u_vals = u_vals / np.linalg.norm(u_vals)
        u = sparse.csr_array((u_vals, (support, np.zeros_like(support))), shape=(n, 1))
        u_h = u.conj().T
        gmat = gmat - u @ (u_h @ gmat)
        gmat = gmat - (gmat @ u) @ u_h
    return 0.5 * (gmat + gmat.conj().T)


def _reference_oracle_gap(model, space):
    """(g, g_breve) from the reference assembly and weighting, with one dense
    eigvalsh per connected component of each embedding's own pattern."""
    mu2, lambda2 = _thermal_envelope(model)
    pops = np.diag(thermal_density(space, lambda2 / (mu2 - lambda2))).real
    superop = _reference_superoperator(model, space)
    gaps = []
    for w_root in _metric_roots(pops):
        gsym = _reference_weighted_generator(superop, w_root)
        # each embedding labelled on its own; a stored zero is not an edge
        count, labels = connected_components(gsym != 0, directed=False)
        blocks = [np.flatnonzero(labels == b) for b in range(count)]
        evals = np.concatenate([np.linalg.eigvalsh(gsym[b][:, b].toarray()) for b in blocks])
        gaps.append(-float(np.sort(evals)[-2]))
    return tuple(gaps)


WEIGHTING_CASES = [(one_dim_family(*p), c) for p in THERMAL_GRID for c in (20, 25, 30)] + [
    (one_dim_family(3.0, 1.0, 2.0, 1.0), 12),
    (DRIVEN, 12),
]


class TestBitwiseReference:
    @pytest.mark.parametrize("cutoff", [20, 25, 30])
    def test_superoperator_is_the_sparse_chain(self, cutoff):
        for params in THERMAL_GRID + [(3.0, 1.0, 2.0, 1.0)]:
            space = build_space(1, cutoff)
            got = build_superoperator(one_dim_family(*params), space)
            ref = _reference_superoperator(one_dim_family(*params), space)
            for new, old in ((got.heisenberg, ref.heisenberg), (got.predual, ref.predual)):
                assert np.array_equal(new.indptr, old.indptr)
                assert np.array_equal(new.indices, old.indices)
                assert new.data.tobytes() == old.data.tobytes()

    @pytest.mark.parametrize("model, cutoff", WEIGHTING_CASES)
    def test_weighting_is_the_sparse_formula(self, model, cutoff):
        # the scipy.sparse weighting and Hermitian part, with no projection,
        # up to rounding: within eps of its largest entry
        space = build_space(1, cutoff)
        superop = build_superoperator(model, space)
        pops = np.diag(thermal_density(space, 0.5)).real
        w_roots = np.stack(_metric_roots(pops))
        rows, cols, gsym = _weighted_hermitian_parts(superop.heisenberg, w_roots)
        n = space.dim**2
        # one pattern for both embeddings: distinct entries in row-major order
        assert np.all(np.diff(rows * n + cols) > 0)
        for vals, w_root in zip(gsym, w_roots):
            got = sparse.csr_array((vals, (rows, cols)), shape=(n, n))
            ref = _reference_weighted_generator(superop, w_root, project=False)
            assert abs(got - ref).max() <= np.finfo(float).eps * abs(ref).max()

    @pytest.mark.parametrize("model, cutoff", WEIGHTING_CASES)
    def test_weighting_is_exactly_hermitian(self, model, cutoff):
        # equal by value, not up to rounding: each entry is paired with the
        # conjugate of its transpose after both are summed
        space = build_space(1, cutoff)
        superop = build_superoperator(model, space)
        pops = np.diag(thermal_density(space, 0.5)).real
        rows, cols, gsym = _weighted_hermitian_parts(
            superop.heisenberg, np.stack(_metric_roots(pops))
        )
        n = space.dim**2
        keys = rows * n + cols
        transposed = np.searchsorted(keys, cols * n + rows)
        # the pattern holds every transpose, and each entry is the conjugate
        # of its transpose's, in both embeddings
        assert np.array_equal(keys[transposed], cols * n + rows)
        assert np.array_equal(gsym[:, transposed], gsym.conj())

    @pytest.mark.parametrize("cutoff", [10, 20, 25, 30, 40, 63])
    def test_oracle_gap_is_the_reference_pipeline(self, cutoff):
        # the grid and two seeded thermal models: lambda2 from 0.05 to 0.8
        # of mu2, any omega
        rng = np.random.default_rng(900 + cutoff)
        seeded = [(mu2, float(rng.uniform(0.05, 0.8)) * mu2, float(rng.uniform(-3, 3)), 0.0)
                  for mu2 in rng.uniform(1.0, 4.0, size=2)]
        space = build_space(1, cutoff)
        for params in THERMAL_GRID + seeded:
            model = one_dim_family(*params)
            assert oracle_gap(model, space) == _reference_oracle_gap(model, space)


def test_components_skip_stored_zeros(monkeypatch):
    # an entry that is zero in both embeddings is not an edge of the
    # pattern; one that is zero in only one of them is
    rows, cols = np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2])
    vals = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    shapes = _spy_eigvalsh(monkeypatch)
    evals = _blocked_eigvalsh(rows, cols, vals, 4)
    assert sorted(shapes) == [(2, 1, 1), (2, 1, 1), (2, 2, 2)]
    assert evals.tolist() == [[0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 1.0]]


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
    st = solve_stationary(dd)
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
    res = weyl_evolve(dd, z, 0.4)
    closed = np.exp(res.decay_exponent + 1j * res.phase) * char_fn(sp, res.z_t)
    w_t = expm_multiply(
        0.4 * superop.heisenberg, weyl_matrix(space, z).reshape(-1, order="F")
    ).reshape((space.dim, space.dim), order="F")
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
        gmat = w_root @ superop.heisenberg.toarray() @ w_root_inv
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
        w_t = expm_multiply(t * superop.heisenberg, w_mat.reshape(-1, order="F")).reshape(
            w_mat.shape, order="F"
        )
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


def test_oracle_never_densifies():
    # at cutoff 25 one dense superoperator is 676^2 complex entries (7.3 MB);
    # neither the steady state nor the gap may allocate one
    space = build_space(1, 25)
    dense_bytes = (space.dim**2) ** 2 * 16
    squeezed = one_dim_family(3.0, 1.0, 2.0, 1.0)
    thermal = one_dim_family(3.0, 1.0, 2.0, 0.0)
    # warm up, so that lazy imports do not count
    steady_state(build_superoperator(squeezed, space))
    oracle_gap(thermal, space)
    for run in (
        lambda: steady_state(build_superoperator(squeezed, space)),
        lambda: oracle_gap(thermal, space),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_bytes
