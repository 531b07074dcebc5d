"""Model validation and the drift/diffusion triple."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_model
from gaussgap.errors import (
    DependentKraus,
    DimensionMismatch,
    NotHermitian,
    RangeExceeded,
)
from gaussgap.model import (
    GklsModel,
    appendix_cz,
    appendix_z_realization,
    build_drift_diffusion,
    one_dim_family,
    validate,
)
from gaussgap.realops import realize_blocks


def test_model_a_is_valid():
    report = validate(one_dim_family(3, 1))
    assert report.ok
    assert report.kraus_rank == 2


def test_dependent_kraus_rejected():
    model = GklsModel(
        d=1,
        m=1,
        omega=np.zeros((1, 1)),
        kappa=np.zeros((1, 1)),
        u_mat=np.zeros((1, 1)),
        v_mat=np.zeros((1, 1)),
        zeta=np.zeros(1),
    )
    with pytest.raises(DependentKraus):
        validate(model)
    report = validate(model, strict=False)
    assert not report.ok


def test_non_hermitian_omega_rejected():
    model = GklsModel(
        d=1,
        m=1,
        omega=np.array([[1j]]),
        kappa=np.array([[1j]]),  # symmetric, allowed
        u_mat=np.zeros((1, 1)),
        v_mat=np.ones((1, 1)),
        zeta=np.zeros(1),
    )
    with pytest.raises(NotHermitian):
        validate(model)


def test_non_hermitian_omega_rejected_at_huge_scale():
    # squares of entries this large overflow; an infinite residual was once
    # compared with an infinite bound and passed
    model = GklsModel(
        d=2,
        m=2,
        omega=1e200 * np.array([[1.0, 1.0], [0.0, 1.0]]),
        kappa=np.zeros((2, 2)),
        u_mat=np.zeros((2, 2)),
        v_mat=np.eye(2),
        zeta=np.zeros(2),
    )
    report = validate(model, strict=False)
    assert [type(e) for e in report.errors] == [NotHermitian]
    assert report.hermiticity_residual == pytest.approx(np.sqrt(2.0) * 1e200)


def test_m_above_2d_rejected():
    model = GklsModel(
        d=1,
        m=3,
        omega=np.zeros((1, 1)),
        kappa=np.zeros((1, 1)),
        u_mat=np.array([[1.0], [0.0], [1.0]]),
        v_mat=np.array([[0.0], [1.0], [1.0]]),
        zeta=np.zeros(1),
    )
    with pytest.raises(DimensionMismatch):
        validate(model)


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        GklsModel(
            d=2,
            m=1,
            omega=np.zeros((1, 1)),
            kappa=np.zeros((2, 2)),
            u_mat=np.zeros((1, 2)),
            v_mat=np.ones((1, 2)),
            zeta=np.zeros(2),
        )


def test_model_a_triple(model_a):
    _, dd, _ = model_a
    assert np.allclose(dd.z2d, -np.eye(2), atol=1e-14)
    assert np.allclose(dd.c2d, 4 * np.eye(2), atol=1e-14)
    expected_cz = np.array([[4.0, 2.0j], [-2.0j, 4.0]])
    assert np.allclose(dd.cz, expected_cz, atol=1e-13)
    assert np.allclose(np.linalg.eigvalsh(dd.cz), [2.0, 6.0], atol=1e-12)
    assert dd.kraus_rank_full


def test_model_b_drift(model_b):
    _, dd, _ = model_b
    assert np.allclose(dd.z2d, np.array([[-1.0, -1.0], [3.0, -1.0]]), atol=1e-14)


def test_model_c_singular_noise_form(model_c):
    _, dd, _ = model_c
    assert abs(np.linalg.det(dd.cz)) < 1e-12
    assert abs(dd.cz_min_eig) < 1e-12
    assert not dd.kraus_rank_full


def test_single_lowering_channel_not_full_rank():
    # one jump operator can never span the 2d noise directions
    dd = build_drift_diffusion(one_dim_family(1.0, 0.0))
    assert not dd.kraus_rank_full


def test_diffusion_gram_factorization():
    # C = sqrtC^sharp sqrtC with sqrtC z = conj(U) z + V conj(z)
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 2 * d + 1))
        model = random_model(rng, d, m)
        try:
            dd = build_drift_diffusion(model)
        except DependentKraus:
            continue
        root = realize_blocks(model.u_mat.conj(), model.v_mat)
        resid = np.linalg.norm(dd.c2d - root.T @ root)
        assert resid < 1e-10 * max(1.0, np.linalg.norm(dd.c2d))
        # positive semidefinite as a consequence
        assert np.linalg.eigvalsh(dd.c2d)[0] > -1e-12 * np.linalg.norm(dd.c2d)


def test_cz_hermitian_psd_on_fuzz():
    rng = np.random.default_rng(22)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 2 * d + 1))
        try:
            dd = build_drift_diffusion(random_model(rng, d, m))
        except DependentKraus:
            continue
        assert np.linalg.norm(dd.cz - dd.cz.conj().T) < 1e-12
        scale = np.linalg.norm(dd.cz, 2)
        assert dd.cz_min_eig >= -1e-10 * scale


def test_definition_matches_block_formulas():
    rng = np.random.default_rng(23)
    for _ in range(25):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 2 * d + 1))
        model = random_model(rng, d, m)
        try:
            dd = build_drift_diffusion(model)
        except DependentKraus:
            continue
        assert np.linalg.norm(dd.z2d - appendix_z_realization(model)) < 1e-12 * max(
            1.0, np.linalg.norm(dd.z2d)
        )
        assert np.linalg.norm(dd.cz - appendix_cz(model)) < 1e-12 * max(
            1.0, np.linalg.norm(dd.cz)
        )


def test_kraus_rank_matches_m_and_rank():
    # full rank iff m = 2d and the stacked coefficient matrix has rank 2d
    rng = np.random.default_rng(24)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 2 * d + 1))
        model = random_model(rng, d, m)
        try:
            dd = build_drift_diffusion(model)
        except DependentKraus:
            continue
        m_stack = np.hstack(
            [
                model.u_mat + model.v_mat.conj(),
                -1j * (model.u_mat - model.v_mat.conj()),
            ]
        )
        rank = np.linalg.matrix_rank(m_stack, tol=1e-10)
        assert dd.kraus_rank_full == (m == 2 * d and rank == 2 * d)


def test_zeta_stored_but_gap_independent():
    base = one_dim_family(3, 1, 2, 1)
    driven = GklsModel(
        d=1,
        m=2,
        omega=base.omega,
        kappa=base.kappa,
        u_mat=base.u_mat,
        v_mat=base.v_mat,
        zeta=np.array([0.7 - 0.2j]),
    )
    from gaussgap.gap import analyze

    rep0 = analyze(build_drift_diffusion(base))
    rep1 = analyze(build_drift_diffusion(driven))
    assert abs(rep0.g - rep1.g) < 1e-14
    assert abs(rep0.g_breve - rep1.g_breve) < 1e-14
    assert np.linalg.norm(rep1.stationary.mu) > 0


class TestStack:
    def test_stack_matches_per_model_build(self):
        rng = np.random.default_rng(60)
        models = [random_model(rng, 2, 3) for _ in range(6)]
        stack = GklsModel(
            d=2,
            m=3,
            omega=[m.omega for m in models],
            kappa=[m.kappa for m in models],
            u_mat=[m.u_mat for m in models],
            v_mat=[m.v_mat for m in models],
            zeta=[m.zeta for m in models],
        )
        dds = build_drift_diffusion(stack)
        for i, model in enumerate(models):
            dd = build_drift_diffusion(model)
            for name in ("z2d", "c2d", "zeta", "cz", "cz_spectrum", "kraus_rank_full",
                         "drift_norm", "stable_tol", "is_stable"):
                assert np.array_equal(getattr(dds, name)[i], getattr(dd, name)), name
            assert abs(dds.abscissa[i] - dd.abscissa) <= 1e-14 * dd.drift_norm

    def test_family_stack_matches_family(self):
        stack = one_dim_family([3.0, 2.0], [1.0, 0.5], [2.0, 0.0], [1.0, 0.3])
        for i, params in enumerate([(3.0, 1.0, 2.0, 1.0), (2.0, 0.5, 0.0, 0.3)]):
            model = one_dim_family(*params)
            for name in ("omega", "kappa", "u_mat", "v_mat"):
                assert np.array_equal(getattr(stack, name)[i], getattr(model, name))

    def test_family_stack_needs_one_jump_count(self):
        with pytest.raises(ValueError, match="lambda2 > 0 everywhere or nowhere"):
            one_dim_family([3.0, 3.0], [0.0, 1.0], [0.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="0 <= lambda2 < mu2"):
            one_dim_family([3.0, 1.0], [1.0, 2.0], [0.0, 0.0], [0.5, 0.5])

    def test_failed_check_names_entry(self):
        # lambda / mu below RANK_TOL: the two jumps are numerically dependent
        # (the family drops such a jump, so its coefficient is set here)
        stack = one_dim_family([3.0] * 3, [1.0] * 3, [0.0] * 3, [0.5] * 3)
        lam = np.sqrt([1.0, 1e-25, 1e-25])[:, None, None]
        with pytest.raises(DependentKraus, match=r"rank 1 < m = 2") as caught:
            build_drift_diffusion(replace(stack, u_mat=lam * stack.u_mat))
        assert caught.value.index == 1
        model = one_dim_family(3.0, 1.0, 0.0, 0.5)
        with pytest.raises(DependentKraus):
            build_drift_diffusion(replace(model, u_mat=np.sqrt(1e-25) * model.u_mat))

    def test_family_drops_a_dependent_jump(self):
        # validation's rank rule: lambda is dependent once
        # sqrt(lambda2) <= RANK_TOL sqrt(mu2), i.e. lambda2 <= about 3e-20 here
        assert one_dim_family(3.0, 1e-19, 2.0, 1.0).m == 2
        for lambda2 in (1e-21, 1e-319, 0.0):
            model = one_dim_family(3.0, lambda2, 2.0, 1.0)
            assert model.m == 1
            assert validate(model).kraus_rank == 1
        stack = one_dim_family([3.0, 3.0], [0.0, 1e-25], [2.0, 2.0], [1.0, 1.0])
        assert stack.m == 1
        assert np.array_equal(stack.u_mat, np.zeros((2, 1, 1)))

    def test_overflowing_realization_rejected(self):
        # |V|^2 = 1e320 leaves double precision: no eigensolver may see it
        big = dict(d=1, m=1, omega=np.zeros((1, 1)), kappa=np.zeros((1, 1)),
                   u_mat=np.zeros((1, 1)), zeta=np.zeros(1))
        with pytest.raises(RangeExceeded, match="overflows double precision"):
            build_drift_diffusion(GklsModel(v_mat=np.array([[1e160]]), **big))
        stack = one_dim_family([3.0] * 3, [1.0] * 3, [0.0] * 3, [0.5] * 3)
        scale = np.array([1.0, 1.0, 1e160])[:, None, None]
        stack = replace(stack, u_mat=scale * stack.u_mat, v_mat=scale * stack.v_mat)
        with pytest.raises(RangeExceeded) as caught:
            build_drift_diffusion(stack)
        assert caught.value.index == 2

    def test_stack_shapes_checked(self):
        with pytest.raises(DimensionMismatch):
            GklsModel(d=1, m=1, omega=np.zeros((2, 1, 1)), kappa=np.zeros((2, 1, 1)),
                      u_mat=np.zeros((3, 1, 1)), v_mat=np.zeros((3, 1, 1)),
                      zeta=np.zeros((2, 1)))
