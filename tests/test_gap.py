"""Spectral gap routes, closed forms and the no-gap diagnostics."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import (
    random_model,
    random_singular_cz,
    random_stable_faithful,
    random_unstable,
    rounding_allowances,
)
from gaussgap.errors import ConsistencyError, DimensionMismatch, NoFaithfulState, RangeExceeded
from gaussgap.gap import (
    analyze,
    analyze_stack,
    gns_gap,
    kms_gap,
    no_gap_diagnosis,
    one_dim_closed_forms,
)
from gaussgap.model import (
    GklsModel,
    build_drift_diffusion,
    one_dim_family,
)
from gaussgap.realops import hermitian_root_pairs
from gaussgap.stationary import solve_stationary


class TestGnsGap:
    def test_model_a(self, model_a):
        _, dd, st = model_a
        res = gns_gap(dd, st)
        assert abs(res.omega0 + 2.0) < 1e-12
        assert abs(res.g - 1.0) < 1e-12

    def test_model_b(self, model_b):
        _, dd, st = model_b
        res = gns_gap(dd, st)
        assert abs(res.g - 0.5) < 1e-12
        # trace identity for the quadratic-form route at d = 1
        prod = dd.cz @ np.linalg.inv(st.s_tilde)
        assert abs(np.trace(prod).real - 4.0) < 1e-10

    def test_model_c_gap_zero(self, model_c):
        _, dd, st = model_c
        res = gns_gap(dd, st)
        assert res.g == 0.0
        assert abs(res.omega0) < 1e-10

    def test_witness_attains_omega0(self, model_b):
        _, dd, st = model_b
        res = gns_gap(dd, st)
        root, inv_root, _ = hermitian_root_pairs(st.s_tilde)
        h1 = root @ dd.z2d.astype(complex) @ inv_root
        h1 = h1 + h1.conj().T
        v = res.witness
        rayleigh = (v.conj() @ h1 @ v).real
        assert abs(rayleigh - res.omega0) < 1e-10
        # deterministic phase: largest entry real positive
        idx = np.argmax(np.abs(v))
        assert abs(v[idx].imag) < 1e-12 and v[idx].real > 0

    def test_route_agreement_on_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            _, dd, st = random_stable_faithful(rng, d)
            res = gns_gap(dd, st)
            _, inv_root = st.tilde_roots
            form_min = np.linalg.eigvalsh(inv_root @ dd.cz @ inv_root)[0]
            assert abs(res.omega0 + form_min) < 1e-10 * max(
                1.0, abs(res.omega0)
            )

    def test_dissipative_similarity_residual(self):
        # T^1/2 Z T^-1/2 + T^-1/2 Z^T T^1/2 = -T^-1/2 cz T^-1/2
        rng = np.random.default_rng(43)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            _, dd, st = random_stable_faithful(rng, d)
            root, inv_root, _ = hermitian_root_pairs(st.s_tilde)
            zc = dd.z2d.astype(complex)
            lhs = root @ zc @ inv_root + inv_root @ zc.conj().T @ root
            rhs = -inv_root @ dd.cz @ inv_root
            assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_route_disagreement_raises(self, model_b):
        # a cz off by 1e-7 moves only the form route
        _, dd, st = model_b
        bad = dataclasses.replace(dd, cz=dd.cz + 1e-7 * np.eye(dd.cz.shape[0]))
        with pytest.raises(ConsistencyError):
            gns_gap(bad, st)


class TestKmsGap:
    def test_model_a(self, model_a):
        _, dd, st = model_a
        res = kms_gap(dd, st)
        assert abs(res.g - 1.0) < 1e-12

    def test_model_b(self, model_b):
        _, dd, st = model_b
        res = kms_gap(dd, st)
        assert abs(res.g - (1 - 1 / np.sqrt(5))) < 1e-12
        assert res.kernel_condition_ok

    def test_model_c_split_gap_positive(self, model_c):
        _, dd, st = model_c
        res = kms_gap(dd, st)
        assert abs(res.g - (1 - 1 / np.sqrt(5))) < 1e-12
        assert res.g > 0

    def test_kbreve_reported(self, model_b):
        _, dd, st = model_b
        res = kms_gap(dd, st)
        kbreve = -(dd.z2d.T @ st.s_breve + st.s_breve @ dd.z2d)
        assert abs(res.form_min_eig - np.linalg.eigvalsh(kbreve)[0]) < 1e-12

    def test_route_disagreement_raises(self, model_b):
        # an s_breve off by 1e-7, with its roots kept, moves only the form
        # route through kbreve
        _, dd, st = model_b
        n = st.s_breve.shape[0]
        bad = dataclasses.replace(st, s_breve=st.s_breve + 1e-7 * np.eye(n))
        with pytest.raises(ConsistencyError):
            kms_gap(dd, bad)


def _python_closed_forms(mu2, lambda2, omega, kappa):
    """(gamma, g, g_breve, sigma) in Python float arithmetic, whose x**2 is
    libm pow: the bits the closed-form columns of sweep have always had."""
    gamma = 0.5 * (mu2 - lambda2)
    disc = gamma**2 + omega**2 - kappa**2
    denom = 2.0 * math.sqrt(mu2 * lambda2 * (gamma**2 + omega**2) + gamma**2 * kappa**2)
    g = gamma * (1.0 - abs(kappa) * (mu2 + lambda2) / denom)
    g_breve = gamma * (1.0 - abs(kappa) / math.sqrt(omega**2 + gamma**2))
    sigma = (mu2 + lambda2) / (2.0 * gamma) * math.sqrt((gamma**2 + omega**2) / disc)
    return gamma, g, g_breve, sigma


class TestClosedForms:
    def test_kappa_zero_collapse(self):
        cf = one_dim_closed_forms(3, 1, 0, 0)
        assert cf.g == pytest.approx(1.0, abs=1e-14)
        assert cf.g_breve == pytest.approx(1.0, abs=1e-14)
        assert cf.sigma == pytest.approx(2.0, abs=1e-14)

    def test_model_b_values(self, model_b):
        _, dd, st = model_b
        cf = one_dim_closed_forms(3, 1, 2, 1)
        assert cf.g == pytest.approx(0.5, abs=1e-14)
        assert cf.g_breve == pytest.approx(1 - 1 / np.sqrt(5), abs=1e-14)
        assert cf.sigma == pytest.approx(np.sqrt(5), abs=1e-14)
        assert abs(gns_gap(dd, st).g - cf.g) < 1e-10
        assert abs(kms_gap(dd, st).g - cf.g_breve) < 1e-10

    def test_degenerate_noise_case(self):
        cf = one_dim_closed_forms(2, 0, 2, 1)
        assert cf.g == 0.0
        assert cf.g_breve == pytest.approx(1 - 1 / np.sqrt(5), abs=1e-14)

    def test_no_faithful_state(self):
        with pytest.raises(NoFaithfulState):
            one_dim_closed_forms(2, 0, 0, 1.5)

    def test_pure_vacuum_boundary_rejected(self):
        # lambda = kappa = 0 relaxes to the vacuum, which is pure
        with pytest.raises(NoFaithfulState):
            one_dim_closed_forms(2, 0, 1.0, 0.0)

    def test_bad_family_parameters(self):
        with pytest.raises(ValueError):
            one_dim_closed_forms(1, 2, 0, 0)

    def test_overflow_is_range_error(self):
        # omega^2 = 1e400 leaves double precision
        with pytest.raises(RangeExceeded, match="closed forms overflow"):
            one_dim_closed_forms(3, 1, 1e200, 0)

    def test_stack_matches_scalar_calls(self):
        # each entry bit for bit, signed zeros, negative parameters and a
        # tiny lambda2 included, and both bit for bit as Python floats
        rng = np.random.default_rng(23)
        # values whose square x * x rounds apart from x**2
        apart = [x for x in rng.uniform(-2.0, 2.0, 20000).tolist() if x * x != x**2]
        points = []
        for mu2, lambda2, omega, kappa in itertools.product(
            rng.uniform(0.5, 6.0, 6),
            [0.0, -0.0, 1e-300, 1e-9, *rng.uniform(0.01, 2.0, 3)],
            [-0.0, 0.0, *rng.uniform(-3.0, 3.0, 3), *apart[:2]],
            [-0.0, *rng.uniform(-2.0, 2.0, 5), *apart[2:4]],
        ):
            if 0 <= lambda2 < mu2 and not lambda2 == kappa == 0.0:
                gamma = 0.5 * (mu2 - lambda2)
                if gamma**2 + omega**2 - kappa**2 > 0:
                    points.append((mu2, lambda2, omega, kappa))
        assert len(points) > 500
        points = [tuple(map(float, p)) for p in points]
        reference = np.array([_python_closed_forms(*p) for p in points]).T
        scalar = [one_dim_closed_forms(*p) for p in points]
        stacked = one_dim_closed_forms(*np.array(points).T)
        for name, want in zip(("gamma", "g", "g_breve", "sigma"), reference):
            assert np.array_equal([getattr(cf, name) for cf in scalar], want), name
            assert np.array_equal(getattr(stacked, name), want), name
        assert all(type(cf.g) is float for cf in scalar)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ((1.0, 2.0, 0.0, 0.0), ValueError),
            ((3.0, 1.0, 1e200, 0.0), RangeExceeded),
            ((2.0, 0.0, 0.0, 1.5), NoFaithfulState),
            ((2.0, 0.0, 1.0, 0.0), NoFaithfulState),
        ],
        ids=["range", "overflow", "unstable", "pure-vacuum"],
    )
    def test_stack_error_names_entry(self, bad, error):
        points = [(3.0, 1.0, 2.0, 1.0)] * 3 + [bad, bad, (4.0, 0.5, 1.0, 1.2)]
        with pytest.raises(error) as scalar:
            one_dim_closed_forms(*bad)
        with pytest.raises(error) as stacked:
            one_dim_closed_forms(*np.array(points).T)
        assert stacked.value.index == 3
        assert str(stacked.value) == str(scalar.value)


def test_split_gap_dominates_on_grid():
    # g_breve >= g across the family, strictly when kappa != 0 and both
    # noise channels are active
    for mu2 in (1.5, 2.0, 3.0, 4.0):
        for lambda2 in (0.0, 0.3, 1.0):
            if lambda2 >= mu2:
                continue
            gamma = 0.5 * (mu2 - lambda2)
            for omega in (0.0, 1.0, 2.0):
                for kappa in (0.0, 0.5, 1.0):
                    if gamma**2 + omega**2 - kappa**2 <= 1e-9:
                        continue
                    if lambda2 == 0.0 and kappa == 0.0:
                        continue  # pure vacuum boundary, no faithful state
                    cf = one_dim_closed_forms(mu2, lambda2, omega, kappa)
                    assert cf.g_breve >= cf.g - 1e-12
                    if kappa != 0 and lambda2 * mu2 != 0:
                        assert cf.g_breve - cf.g > 1e-12
                    if kappa == 0:
                        assert abs(cf.g_breve - cf.g) < 1e-12


def _fuzzed_stack(rng, d, count):
    models = [random_model(rng, d, m=2 * d) for _ in range(count)]
    stack = GklsModel(
        d=d,
        m=2 * d,
        omega=[m.omega for m in models],
        kappa=[m.kappa for m in models],
        u_mat=[m.u_mat for m in models],
        v_mat=[m.v_mat for m in models],
        zeta=[m.zeta for m in models],
    )
    return models, stack


def _assert_split_gap_dominates(res):
    # equality holds at kappa = 0, so only rounding may put g above g_breve
    excess = res.g - res.g_breve
    assert np.all(excess <= 1e-12 * np.maximum(1.0, np.abs(res.g_breve))), np.max(excess)


def _assert_within_spectral_bound(models, res):
    # g_breve <= -abscissa(Z) (with g <= g_breve, the spectral bound), up to
    # the split gap's rounding allowance (eps times the conditioning of its
    # roots); returns the slack, which vanishes at kappa = 0
    dd = build_drift_diffusion(models)[res.index]
    _, g_breve_tol, _ = rounding_allowances(dd, solve_stationary(dd))
    slack = -dd.abscissa - res.g_breve
    assert np.all(slack >= -g_breve_tol), np.min(slack)
    return slack, g_breve_tol


def test_split_gap_dominates_stacked_one_mode_grid():
    # g <= g_breve over a dense one-mode grid, strictly when kappa != 0 and
    # both noise channels are active
    axes = (
        np.linspace(1.2, 6.0, 13),
        np.linspace(0.0, 2.4, 13),
        np.linspace(-2.0, 3.0, 11),
        np.linspace(0.0, 2.5, 11),
    )
    params = np.array(
        [p for p in itertools.product(*axes) if p[1] < p[0] and (p[1] or p[3])]
    )
    admitted = 0
    for group in (params[:, 1] == 0.0, params[:, 1] > 0.0):
        models = one_dim_family(*params[group].T)
        res = analyze_stack(models)
        _assert_split_gap_dominates(res)
        slack, g_breve_tol = _assert_within_spectral_bound(models, res)
        kappa = params[group][res.index, 3]
        # at kappa = 0 both gaps reach the drift's decay rate
        assert np.all(np.abs(slack[kappa == 0.0]) <= g_breve_tol[kappa == 0.0])
        strict = (kappa != 0.0) & (params[group][res.index, 1] > 0.0)
        margin = (res.g_breve - res.g)[strict]
        assert np.all(margin > 1e-12 * np.maximum(1.0, res.g_breve[strict]))
        admitted += res.index.size
    assert admitted > 12000


@pytest.mark.parametrize("d", [2, 3, 4])
def test_split_gap_dominates_fuzzed_multimode(d):
    _, stack = _fuzzed_stack(np.random.default_rng(7 + d), d, 150)
    res = analyze_stack(stack)
    assert res.index.size > 100  # stable, with a faithful state
    assert np.all(res.g > 0)  # m = 2d independent jumps: cz is full rank
    _assert_split_gap_dominates(res)
    _assert_within_spectral_bound(stack, res)


def test_analyze_stack_needs_a_stack():
    with pytest.raises(DimensionMismatch):
        analyze_stack(one_dim_family(3.0, 1.0, 2.0, 1.0))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_analyze_stack_matches_per_model(d):
    models, stack = _fuzzed_stack(np.random.default_rng(40 + d), d, 40)
    res = analyze_stack(stack)
    admitted = []
    for i, model in enumerate(models):
        dd = build_drift_diffusion(model)
        rep = analyze(dd)
        if rep.gns is None:
            continue
        k = len(admitted)
        admitted.append(i)
        g_tol, g_breve_tol, sigma_rel = rounding_allowances(dd, rep.stationary)
        assert abs(res.g[k] - rep.g) <= max(1e-12 * abs(rep.g), g_tol)
        assert abs(res.g_breve[k] - rep.g_breve) <= max(1e-12 * abs(rep.g_breve), g_breve_tol)
        sigma = rep.stationary.sigma
        assert np.all(np.abs(res.sigma[k] - sigma) <= max(1e-12, sigma_rel) * sigma)
    assert res.index.tolist() == admitted
    assert len(admitted) > 20


def test_gap_positive_iff_stable_and_full_rank():
    rng = np.random.default_rng(44)
    for _ in range(8):
        d = int(rng.integers(1, 4))
        _, dd, st = random_stable_faithful(rng, d)
        rep = analyze(dd)
        assert rep.has_gns_gap
        assert rep.g > 0
    for _ in range(4):
        d = int(rng.integers(1, 4))
        _, dd = random_unstable(rng, d)
        rep = analyze(dd)
        assert not rep.has_gns_gap
        assert rep.g is None
    for _ in range(4):
        d = int(rng.integers(1, 4))
        _, dd = random_singular_cz(rng, d)
        rep = analyze(dd)
        assert not rep.has_gns_gap
        if rep.g is not None:
            assert rep.g == 0.0


class TestNoGapDiagnosis:
    def test_model_a_gap_exists(self, model_a):
        _, dd, _ = model_a
        assert no_gap_diagnosis(dd).kind == "GapExists"

    def test_model_c_kernel_witness(self, model_c):
        _, dd, _ = model_c
        finding = no_gap_diagnosis(dd)
        assert finding.kind == "CZKernel"
        # kernel direction of [[2, 2i], [-2i, 2]] is (1, i)/sqrt(2) after
        # phase fixing
        expected = np.array([1.0, 1.0j]) / np.sqrt(2)
        assert np.linalg.norm(finding.kernel_vector - expected) < 1e-10
        assert finding.residual <= 1e-10

    def test_pump_is_divergent_case(self):
        model = GklsModel(
            d=1, m=1,
            omega=np.zeros((1, 1)), kappa=np.zeros((1, 1)),
            u_mat=np.array([[1.0]]), v_mat=np.array([[0.0]]),
            zeta=np.zeros(1),
        )
        dd = build_drift_diffusion(model)
        finding = no_gap_diagnosis(dd)
        assert finding.kind == "Unstable"
        assert finding.case == 2
        assert abs(finding.eigenvalue - 0.5) < 1e-12
        assert finding.residual <= 1e-10

    @pytest.mark.parametrize(
        "params, bound",
        [((3.0, 1.0, 0.0, 0.999999999999), "-2e-12"), ((3.0, 1.0, 1e160, 0.0), "-1e+148")],
        ids=["near-boundary", "huge-omega"],
    )
    def test_unstable_message_states_tested_bound(self, params, bound):
        # the eigenvalue's real part is negative but not below the relative
        # threshold -stable_tol that decides stability
        dd = build_drift_diffusion(one_dim_family(*params))
        finding = no_gap_diagnosis(dd)
        assert finding.kind == "Unstable"
        assert -dd.stable_tol <= finding.eigenvalue.real < 0
        assert f"has real part not below {bound} (1e-12 * max(1, |Z|_2)); " in finding.message
        assert "Re >= 0" not in finding.message
        assert np.isfinite(finding.residual)

    def test_noise_free_rotating_mode_is_kernel_case(self):
        # mode 1 rotates without noise: the unstable invariant plane lies in
        # the kernel of the diffusion
        model = GklsModel(
            d=2, m=1,
            omega=np.diag([1.0, 0.0]), kappa=np.zeros((2, 2)),
            u_mat=np.array([[0.0, 0.0]]), v_mat=np.array([[0.0, 1.0]]),
            zeta=np.zeros(2),
        )
        dd = build_drift_diffusion(model)
        finding = no_gap_diagnosis(dd)
        assert finding.kind == "Unstable"
        assert finding.case == 1
        assert abs(finding.eigenvalue.real) < 1e-12
        assert abs(abs(finding.eigenvalue.imag) - 1.0) < 1e-12

    def test_noise_free_squeezed_mode_is_kernel_case(self):
        # mode 1 is squeezed without noise: its drift has the real eigenvalue
        # 1, whose eigenvector the diffusion annihilates
        model = GklsModel(
            d=2, m=1,
            omega=np.zeros((2, 2)), kappa=np.diag([1.0, 0.0]),
            u_mat=np.array([[0.0, 0.0]]), v_mat=np.array([[0.0, 1.0]]),
            zeta=np.zeros(2),
        )
        dd = build_drift_diffusion(model)
        finding = no_gap_diagnosis(dd)
        assert finding.kind == "Unstable"
        assert finding.case == 1
        assert finding.eigenvalue == 1.0
        assert np.linalg.norm(dd.c2d @ finding.eigenvector) <= 1e-12
        assert "diffusion-free (case 1)" in finding.message

    def test_fuzzed_witnesses_verify(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            _, dd = random_unstable(rng, d)
            finding = no_gap_diagnosis(dd)
            assert finding.kind == "Unstable"
            w, lam = finding.eigenvector, finding.eigenvalue
            assert np.linalg.norm(dd.z2d @ w - lam * w) <= 1e-10
        for _ in range(10):
            d = int(rng.integers(1, 4))
            _, dd = random_singular_cz(rng, d)
            finding = no_gap_diagnosis(dd)
            assert finding.kind == "CZKernel"
            assert np.linalg.norm(dd.cz @ finding.kernel_vector) <= 1e-10


def test_analyze_model_b_full_report(model_b):
    _, dd, _ = model_b
    rep = analyze(dd)
    assert rep.has_gns_gap
    assert abs(rep.g - 0.5) < 1e-12
    assert abs(rep.g_breve - (1 - 1 / np.sqrt(5))) < 1e-12
    assert rep.kms.kernel_condition_ok
    assert rep.diagnostics == []
