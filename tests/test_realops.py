"""Realizations of real-linear operators, adjoints, exponentials and the
matrix-root helper.

A real-linear operator is given by a pair (a1, a2) acting as
``apply(a1, a2, z) = a1 z + a2 conj(z)``; every property the pipeline relies
on is stated against its realization ``realize_blocks(a1, a2)``.
"""

import numpy as np
import pytest

from conftest import random_model
from gaussgap.dynamics import propagator
from gaussgap.errors import DimensionMismatch
from gaussgap.model import build_drift_diffusion, one_dim_family
from gaussgap.realops import (
    ROOT_MARGIN,
    hermitian_root_pairs,
    jmat,
    realize_blocks,
    unvec2d,
    vec2d,
)


def apply(a1, a2, z):
    return a1 @ z + a2 @ np.conj(z)


def random_pair(rng, d):
    return (
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
        rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
    )


def sharp(a1, a2):
    """Pair of the adjoint for Re<., .>."""
    return a1.conj().T, a2.T


def random_vec(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def test_realize_zero():
    zero = np.zeros((3, 3))
    assert np.array_equal(realize_blocks(zero, zero), np.zeros((6, 6)))


def test_realize_j_operator():
    # z -> -i z realizes as [[0, I], [-I, 0]]
    d = 2
    j = realize_blocks(-1j * np.eye(d), np.zeros((d, d)))
    assert np.allclose(j, jmat(d))
    assert np.allclose(jmat(d).T, -jmat(d))
    assert np.allclose(jmat(d) @ jmat(d), -np.eye(2 * d))


def test_realize_conjugation():
    # z -> conj(z) realizes as diag(I, -I)
    d = 3
    conj = realize_blocks(np.zeros((d, d)), np.eye(d))
    expected = np.diag([1.0] * d + [-1.0] * d)
    assert np.allclose(conj, expected)
    z = np.array([1 + 2j, -0.5j, 3.0])
    assert np.allclose(conj @ vec2d(z), vec2d(np.conj(z)))


def test_action_bridge():
    rng = np.random.default_rng(7)
    for d in (1, 2, 4):
        for _ in range(20):
            a1, a2 = random_pair(rng, d)
            z = random_vec(rng, d)
            lhs = realize_blocks(a1, a2) @ vec2d(z)
            rhs = vec2d(apply(a1, a2, z))
            assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, np.linalg.norm(rhs))


def test_scalar_product_bridge():
    rng = np.random.default_rng(8)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        a1, a2 = random_pair(rng, d)
        z, w = random_vec(rng, d), random_vec(rng, d)
        lhs = np.vdot(z, apply(a1, a2, w)).real
        rhs = vec2d(z) @ realize_blocks(a1, a2) @ vec2d(w)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_scalar_product_bridge_with_phase():
    rng = np.random.default_rng(9)
    for _ in range(30):
        d = int(rng.integers(1, 5))
        a1, a2 = random_pair(rng, d)
        z, w = random_vec(rng, d), random_vec(rng, d)
        lhs = np.vdot(z, apply(a1, a2, w)).real + 1j * np.vdot(z, w).imag
        mat = realize_blocks(a1, a2).astype(complex) + 1j * jmat(d)
        rhs = vec2d(z) @ mat @ vec2d(w)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_realize_is_homomorphism():
    # composition and sum of real-linear maps realize as product and sum
    rng = np.random.default_rng(10)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        a, b = random_pair(rng, d), random_pair(rng, d)
        z = random_vec(rng, d)
        composed = vec2d(apply(*a, apply(*b, z)))
        assert np.allclose(
            realize_blocks(*a) @ realize_blocks(*b) @ vec2d(z), composed, atol=1e-12
        )
        summed = realize_blocks(a[0] + b[0], a[1] + b[1])
        assert np.allclose(summed, realize_blocks(*a) + realize_blocks(*b), atol=1e-13)


def test_realize_injective_on_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        a1, a2 = random_pair(rng, d)
        m = realize_blocks(a1, a2)
        # the pair is read back from the four blocks
        b11, b12, b21, b22 = m[:d, :d], m[:d, d:], m[d:, :d], m[d:, d:]
        assert np.allclose((b11 + b22) / 2 + 1j * (b21 - b12) / 2, a1, atol=1e-13)
        assert np.allclose((b11 - b22) / 2 + 1j * (b21 + b12) / 2, a2, atol=1e-13)
        # distinct pairs realize distinctly
        r1, r2 = random_pair(rng, d)
        if not (np.allclose(r1, a1) and np.allclose(r2, a2)):
            assert not np.allclose(realize_blocks(r1, r2), m)


class TestSharpAdjoint:
    """The transpose of a realization is the adjoint for Re<., .>, and it
    realizes the pair (a1*, a2^T)."""

    def test_identity_self_adjoint(self):
        eye = realize_blocks(np.eye(2), np.zeros((2, 2)))
        assert np.allclose(eye.T, eye)
        assert np.allclose(realize_blocks(*sharp(np.eye(2), np.zeros((2, 2)))), eye)

    def test_j_sharp_is_minus_j(self):
        d = 2
        pair = (-1j * np.eye(d), np.zeros((d, d)))
        assert np.allclose(realize_blocks(*pair).T, -jmat(d))
        assert np.allclose(realize_blocks(*sharp(*pair)), -jmat(d))

    def test_sharp_realizes_transpose(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            a1, a2 = random_pair(rng, d)
            assert np.allclose(
                realize_blocks(*sharp(a1, a2)), realize_blocks(a1, a2).T, atol=1e-13
            )

    def test_sharp_adjoint_pairing(self):
        # Re<A z, w> = Re<z, A# w>, with A# realized by the transpose
        rng = np.random.default_rng(13)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            a1, a2 = random_pair(rng, d)
            z, w = random_vec(rng, d), random_vec(rng, d)
            lhs = np.vdot(apply(a1, a2, z), w).real
            rhs = vec2d(z) @ realize_blocks(a1, a2).T @ vec2d(w)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
            assert abs(lhs - np.vdot(z, apply(*sharp(a1, a2), w)).real) < 1e-12 * max(
                1.0, abs(lhs)
            )


class TestPairExp:
    """exp(t Z2d) of the drift realization, as dynamics.propagator takes it."""

    def test_zero_time(self):
        dd = build_drift_diffusion(random_model(np.random.default_rng(1), 3, 6))
        assert np.allclose(propagator(dd, 0.0), np.eye(6))

    def test_scalar_contraction(self):
        # pure damping at rate 1: the drift realizes the pair (-1, 0)
        dd = build_drift_diffusion(one_dim_family(3, 1))
        assert np.allclose(dd.z2d, realize_blocks(np.array([[-1.0]]), np.zeros((1, 1))))
        assert np.allclose(propagator(dd, 1.0), np.exp(-1.0) * np.eye(2))

    def test_model_a_drift(self):
        dd = build_drift_diffusion(one_dim_family(3, 1))
        assert np.allclose(propagator(dd, 0.5), np.exp(-0.5) * np.eye(2))

    def test_semigroup_property(self):
        dd = build_drift_diffusion(random_model(np.random.default_rng(14), 2, 4))
        lhs = propagator(dd, 0.3) @ propagator(dd, 0.9)
        assert np.allclose(lhs, propagator(dd, 1.2), atol=1e-12)

    def test_nonfinite_time_rejected(self):
        dd = build_drift_diffusion(one_dim_family(3, 1))
        with pytest.raises(ValueError):
            propagator(dd, np.inf)
        with pytest.raises(ValueError):
            propagator(dd, np.nan)


class TestHermitianRootPair:
    def test_roots_on_fuzz(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            x = rng.standard_normal((2 * d, 2 * d)) + 1j * rng.standard_normal((2 * d, 2 * d))
            mat = x @ x.conj().T + 0.1 * np.eye(2 * d)
            root, inv_root, regular = hermitian_root_pairs(mat)
            assert regular
            assert np.allclose(root @ root, mat, atol=1e-10)
            assert np.allclose(root @ inv_root, np.eye(2 * d), atol=1e-10)
            assert np.allclose(root, root.conj().T, atol=1e-12)

    def test_real_input_gives_real_roots(self):
        root, inv_root, regular = hermitian_root_pairs(np.diag([4.0, 9.0]))
        assert regular
        assert not np.iscomplexobj(root) and not np.iscomplexobj(inv_root)
        assert np.allclose(root, np.diag([2.0, 3.0]))

    def test_margin_rejects_singular(self):
        root, inv_root, regular = hermitian_root_pairs(np.diag([1.0, 0.5 * ROOT_MARGIN]))
        assert not regular
        assert np.all(np.isnan(root)) and np.all(np.isnan(inv_root))
        assert hermitian_root_pairs(np.diag([1.0, 10.0 * ROOT_MARGIN]))[2]

    def test_stack_entrywise(self):
        mats = np.array([np.diag([4.0, 9.0]), np.diag([1.0, 0.5 * ROOT_MARGIN]), np.eye(2)])
        root, inv_root, regular = hermitian_root_pairs(mats)
        assert regular.tolist() == [True, False, True]
        assert np.all(np.isnan(root[1])) and np.all(np.isnan(inv_root[1]))
        for i in (0, 2):
            assert np.array_equal(root[i], hermitian_root_pairs(mats[i])[0])
            assert np.array_equal(inv_root[i], hermitian_root_pairs(mats[i])[1])


def test_realize_blocks_stack_is_entrywise():
    rng = np.random.default_rng(16)
    a1 = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
    a2 = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
    stacked = realize_blocks(a1, a2)
    for i in range(5):
        assert np.array_equal(stacked[i], realize_blocks(a1[i], a2[i]))


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        realize_blocks(np.eye(3), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        unvec2d(np.zeros(3))
