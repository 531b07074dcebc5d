"""Phase-space coordinates and the Hermitian matrix-root helper.

A real-linear operator A on C^d acts as ``A z = a1 @ z + a2 @ conj(z)`` with
complex matrices a1, a2.  Identifying C^d with R^{2d} through
z -> [Re z; Im z] turns A into a real 2d x 2d matrix (its *realization*), and
the same matrix read with complex scalars is the complexification of A.  All
spectral work in this package happens on realizations; the (a1, a2) pairs
appear only as the faithful parametrization of the model data.

The sharp adjoint is the adjoint with respect to the real scalar product
Re<., .>; on realizations it is the plain transpose.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "ROOT_MARGIN",
    "realize_blocks",
    "jmat",
    "vec2d",
    "unvec2d",
    "hermitian_root_pairs",
]

#: relative eigenvalue margin: a Hermitian matrix whose smallest eigenvalue
#: is at most ROOT_MARGIN times its largest counts as singular.  It decides
#: both whether a matrix root is taken and whether an invariant state is
#: faithful, so a state called faithful always has its roots.  It sits a few
#: hundred rounding units above zero: smaller eigenvalue ratios are not
#: resolved by a Hermitian eigensolver in double precision.
ROOT_MARGIN = 1e-13


def vec2d(z):
    """Coordinates [Re z; Im z] in R^{2d} of a complex vector z."""
    z = np.asarray(z, dtype=complex).ravel()
    return np.concatenate([z.real, z.imag])


def unvec2d(x):
    """Inverse of :func:`vec2d`, over the last axis of x (leading axes
    stack)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] % 2:
        raise DimensionMismatch("2d coordinate vector has odd length")
    d = x.shape[-1] // 2
    return x[..., :d] + 1j * x[..., d:]


def realize_blocks(a1, a2):
    """Real block matrix of the real-linear map z -> a1 z + a2 conj(z).

    Accepts rectangular m x d blocks (maps C^d -> C^m), or stacks of them
    along leading axes, and returns the 2m x 2d realization
    ``[[Re a1 + Re a2, Im a2 - Im a1], [Im a1 + Im a2, Re a1 - Re a2]]``.
    """
    a1 = np.atleast_2d(np.asarray(a1, dtype=complex))
    a2 = np.atleast_2d(np.asarray(a2, dtype=complex))
    if a1.shape != a2.shape:
        raise DimensionMismatch(f"block shapes differ: {a1.shape} vs {a2.shape}")
    top = np.concatenate([a1.real + a2.real, a2.imag - a1.imag], axis=-1)
    bot = np.concatenate([a1.imag + a2.imag, a1.real - a2.real], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def jmat(d):
    """Realization [[0, I], [-I, 0]] of the multiplication z -> -i z."""
    j = np.zeros((2 * d, 2 * d))
    j[:d, d:] = np.eye(d)
    j[d:, :d] = -np.eye(d)
    return j


def hermitian_root_pairs(mat):
    """Square root and inverse square root of a Hermitian (or real
    symmetric) matrix, or of each of a stack (leading axes); real input
    gives real roots.

    Returns (root, inv_root, regular): regular marks the matrices whose
    smallest eigenvalue exceeds ROOT_MARGIN times the largest, and the roots
    of every other one are NaN rather than regularized, since
    regularization would fabricate a gap.
    """
    mat = np.asarray(mat)
    evals, evecs = np.linalg.eigh(0.5 * (mat + mat.swapaxes(-1, -2).conj()))
    regular = evals[..., 0] > ROOT_MARGIN * np.maximum(evals[..., -1], 0.0)
    sqrt_evals = np.sqrt(np.where(regular[..., None], evals, 1.0))[..., None, :]
    adjoint = evecs.swapaxes(-1, -2).conj()
    root = (evecs * sqrt_evals) @ adjoint
    inv_root = (evecs / sqrt_evals) @ adjoint
    root[~regular] = np.nan
    inv_root[~regular] = np.nan
    return root, inv_root, regular
