"""Brute-force oracle on a truncated Fock space.

Everything here is deliberately independent of the closed-form machinery:
operators are dense matrices on the occupation-number basis truncated at a
cutoff, the generator is assembled directly from the Hamiltonian and jump
operators, and traces are evaluated literally.  The closed-form modules are
validated against these numbers, never the other way round.

The steady state is one square LU solve.  Trace preservation
(vec(1)^dagger predual = 0, exact at truncation) makes the |0><0| row of the
predual minus the sum of the other diagonal-index rows, so that row is
replaced by the trace row without changing the solution set; the square
system is nonsingular exactly when the truncated kernel is one-dimensional.
A singular system (kernel of dimension two or more) is refused, and the full
residual |predual rho| is checked.

The gap oracle is restricted to the single-mode, number-conserving-
Hamiltonian, undriven family (kappa = 0, zeta = 0, jumps mu*a and
lambda*adag) whose stationary density is exactly diagonal in the number
basis, so the weighted inner products of both embeddings are diagonal and
free of uncontrolled approximation.  The populations must be positive normal
floats (near the pure vacuum the top ones underflow, and such a model is
refused).  The weighted, symmetrized generator is block diagonal in the
connected components of its exact nonzero pattern (for this family the U(1)
sectors l - m); each block is diagonalized on its own, and the union of the
block spectra is the spectrum.  The blocks are read from the assembled
matrix, never from the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.linalg import expm, get_lapack_funcs

from .errors import (
    ConsistencyError,
    DimensionTooLarge,
    OutsideEnvelope,
)
from .model import GklsModel, validate

__all__ = [
    "TruncatedSpace",
    "Superoperator",
    "build_space",
    "build_superoperator",
    "build_hamiltonian",
    "build_kraus",
    "weyl_matrix",
    "thermal_density",
    "steady_state",
    "oracle_char_fn",
    "oracle_kms_trace",
    "oracle_gap",
    "leakage_norm",
]

MAX_SPACE_DIM = 4096
MAX_SUPEROP_DIM = 64  # dense superoperator eigensolves stay below 4096^2 entries
# backward-error bound of the steady-state solve, relative to the system's
# infinity norm times |rho|; LU with partial pivoting stays near n eps
STEADY_RESIDUAL = 1e-10


@dataclass(frozen=True)
class TruncatedSpace:
    """Occupation-number basis with per-mode cutoff.

    a_ops[j] annihilates mode j; the canonical commutator holds exactly on
    states with occupation below the cutoff.
    """

    d: int
    cutoff: int
    dim: int
    a_ops: tuple

    def adag_ops(self):
        return tuple(a.conj().T for a in self.a_ops)

    def q_op(self, j):
        a = self.a_ops[j]
        return (a + a.conj().T) / np.sqrt(2.0)

    def p_op(self, j):
        a = self.a_ops[j]
        return 1j * (a.conj().T - a) / np.sqrt(2.0)

    def occupations(self):
        """Array (dim, d) of occupation numbers per basis state."""
        grids = np.meshgrid(
            *[np.arange(self.cutoff + 1)] * self.d, indexing="ij"
        )
        return np.column_stack([g.ravel() for g in grids])


def build_space(d: int, cutoff: int) -> TruncatedSpace:
    """Dense mode operators for d modes truncated at the given occupation."""
    if d < 1 or cutoff < 1:
        raise ValueError("need at least one mode and cutoff >= 1")
    dim = (cutoff + 1) ** d
    if dim > MAX_SPACE_DIM:
        raise DimensionTooLarge(
            f"truncated dimension {dim} exceeds the dense cap {MAX_SPACE_DIM}"
        )
    local = np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1).astype(complex)
    eye = np.eye(cutoff + 1, dtype=complex)
    a_ops = []
    for j in range(d):
        factors = [eye] * d
        factors[j] = local
        a_ops.append(reduce(np.kron, factors))
    return TruncatedSpace(d=d, cutoff=cutoff, dim=dim, a_ops=tuple(a_ops))


def build_hamiltonian(model: GklsModel, space: TruncatedSpace):
    """Quadratic Hamiltonian matrix from (omega, kappa, zeta)."""
    h = np.zeros((space.dim, space.dim), dtype=complex)
    a = space.a_ops
    ad = space.adag_ops()
    for j in range(model.d):
        for k in range(model.d):
            if model.omega[j, k] != 0:
                h += model.omega[j, k] * (ad[j] @ a[k])
            if model.kappa[j, k] != 0:
                h += 0.5 * model.kappa[j, k] * (ad[j] @ ad[k])
                h += 0.5 * np.conj(model.kappa[j, k]) * (a[j] @ a[k])
        if model.zeta[j] != 0:
            h += 0.5 * model.zeta[j] * ad[j] + 0.5 * np.conj(model.zeta[j]) * a[j]
    return h


def build_kraus(model: GklsModel, space: TruncatedSpace):
    """Jump operator matrices L_l = sum_k conj(v_lk) a_k + u_lk adag_k."""
    a = space.a_ops
    ad = space.adag_ops()
    ops = []
    for ell in range(model.m):
        mat = np.zeros((space.dim, space.dim), dtype=complex)
        for k in range(model.d):
            if model.v_mat[ell, k] != 0:
                mat += np.conj(model.v_mat[ell, k]) * a[k]
            if model.u_mat[ell, k] != 0:
                mat += model.u_mat[ell, k] * ad[k]
        ops.append(mat)
    return ops


@dataclass
class Superoperator:
    """Vectorized generator (column stacking) in both pictures."""

    space: TruncatedSpace
    predual: np.ndarray
    heisenberg: np.ndarray

    def trace_preservation_residual(self) -> float:
        """Norm of vec(1)^dagger applied to the predual generator; exact
        trace preservation holds even at truncation."""
        vec_id = np.eye(self.space.dim, dtype=complex).reshape(-1, order="F")
        return float(np.linalg.norm(vec_id.conj() @ self.predual))

    def apply_predual(self, rho):
        out = self.predual @ np.asarray(rho, dtype=complex).reshape(-1, order="F")
        return out.reshape((self.space.dim, self.space.dim), order="F")

    def apply_heisenberg(self, x):
        out = self.heisenberg @ np.asarray(x, dtype=complex).reshape(-1, order="F")
        return out.reshape((self.space.dim, self.space.dim), order="F")


def build_superoperator(model: GklsModel, space: TruncatedSpace) -> Superoperator:
    """Assemble the GKLS generator and its predual as dense matrices.

    With G = iH - K/2 and K = sum_l L_l^dag L_l, the Heisenberg generator is
    x -> G x + x G^dag + sum_l L_l^dag x L_l and the predual
    rho -> G^dag rho + rho G + sum_l L_l rho L_l^dag.  The commutator and
    anticommutator parts are written straight into the block-diagonal and
    the strided entries, without a Kronecker product; the jump terms of each
    picture are built separately, and the two pictures are checked against
    each other through the duality pairing
    tr(predual(rho) x) = tr(rho heisenberg(x)) on pseudo-random matrices.
    """
    validate(model, strict=True)
    if space.dim > MAX_SUPEROP_DIM:
        raise DimensionTooLarge(
            f"superoperator for dim {space.dim} exceeds the dense cap "
            f"{MAX_SUPEROP_DIM}"
        )
    h = build_hamiltonian(model, space)
    kraus = build_kraus(model, space)
    dim = space.dim
    g = 1j * h
    for ell in kraus:
        g -= 0.5 * (ell.conj().T @ ell)

    heis = np.zeros((dim * dim, dim * dim), dtype=complex)
    pred = np.zeros_like(heis)
    # views [i, k, j, l] of row i*dim + k and column j*dim + l: the
    # vectorization vec(A x B) = (B^T kron A) vec(x) puts B^T[i, j] A[k, l]
    # there, so a left factor fills the blocks i = j and a right factor the
    # entries k = l
    heis4 = heis.reshape((dim,) * 4)
    pred4 = pred.reshape((dim,) * 4)
    diag = np.arange(dim)
    heis4[diag, :, diag, :] = g
    heis4[:, diag, :, diag] += g.conj()
    pred4[diag, :, diag, :] = g.conj().T
    pred4[:, diag, :, diag] += g.T
    for ell in kraus:
        heis4 += ell.T[:, None, :, None] * ell.conj().T[None, :, None, :]
        pred4 += ell.conj()[:, None, :, None] * ell[None, :, None, :]

    rng = np.random.default_rng(31)
    for _ in range(2):
        rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = np.trace(
            (pred @ rho.reshape(-1, order="F")).reshape((dim, dim), order="F") @ x
        )
        rhs = np.trace(
            rho @ (heis @ x.reshape(-1, order="F")).reshape((dim, dim), order="F")
        )
        scale = max(1.0, abs(lhs), abs(rhs))
        if abs(lhs - rhs) > 1e-8 * scale:
            raise ConsistencyError(
                f"duality pairing violated: {lhs:.6e} vs {rhs:.6e}"
            )
    return Superoperator(space=space, predual=pred, heisenberg=heis)


def steady_state(superop: Superoperator):
    """Stationary density of the truncated generator, Hermitized.

    One square LU solve: the |0><0| row of the predual (vec index 0), which
    trace preservation makes minus the sum of the other diagonal-index
    rows, is replaced by the unit-trace row.  A system singular to working
    precision (reciprocal condition estimate below n eps, n = dim^2) means a
    truncated kernel of dimension two or more and raises OutsideEnvelope; a
    full residual |predual rho| above STEADY_RESIDUAL |system| |rho| raises
    ConsistencyError.
    """
    dim = superop.space.dim
    n = dim * dim
    system = superop.predual.copy()
    system[0] = np.eye(dim).reshape(-1, order="F")
    # system.T is Fortran-ordered, so LAPACK factors it in place; solving
    # with the transpose of that factorization solves system x = e_0
    getrf, getrs, gecon, lange = get_lapack_funcs(
        ("getrf", "getrs", "gecon", "lange"), (system,)
    )
    anorm = lange("1", system.T)  # infinity norm of system
    lu, piv, info = getrf(system.T, overwrite_a=True)
    rcond = gecon(lu, anorm, norm="1")[0] if info == 0 else 0.0
    if not rcond >= n * np.finfo(float).eps:
        raise OutsideEnvelope(
            f"truncated generator at cutoff {superop.space.cutoff} has no unique "
            f"steady state (kernel of dimension two or more, reciprocal "
            f"condition {rcond:.1e})"
        )
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    sol = getrs(lu, piv, rhs, trans=1)[0]
    rho = sol.reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    resid = np.linalg.norm(superop.predual @ rho.reshape(-1, order="F"))
    bound = STEADY_RESIDUAL * anorm * np.linalg.norm(rho)
    if not resid <= bound:
        raise ConsistencyError(
            f"steady-state residual {resid:.3e} exceeds {bound:.3e}"
        )
    return rho


def thermal_density(space: TruncatedSpace, nbar: float):
    """Truncated single-mode thermal state diag((1-q) q^n), q = nbar/(1+nbar),
    renormalized to unit trace on the truncation."""
    if space.d != 1:
        raise OutsideEnvelope("thermal density helper is single mode only")
    if nbar < 0:
        raise ValueError("mean occupation must be non-negative")
    q = nbar / (1.0 + nbar)
    weights = q ** np.arange(space.dim, dtype=float)
    weights /= weights.sum()
    return np.diag(weights).astype(complex)


def weyl_matrix(space: TruncatedSpace, z):
    """exp(sum_j z_j adag_j - conj(z_j) a_j) on the truncated space."""
    z = np.asarray(z, dtype=complex).ravel()
    if z.shape[0] != space.d:
        raise OutsideEnvelope("argument length must match the number of modes")
    gen = np.zeros((space.dim, space.dim), dtype=complex)
    for j, (a, ad) in enumerate(zip(space.a_ops, space.adag_ops())):
        gen += z[j] * ad - np.conj(z[j]) * a
    return expm(gen)


def oracle_char_fn(space: TruncatedSpace, rho, z) -> complex:
    """tr(rho W(z)) by literal matrix evaluation."""
    return complex(np.trace(np.asarray(rho, dtype=complex) @ weyl_matrix(space, z)))


def _psd_sqrt(rho):
    evals, evecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    clipped = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(clipped)) @ evecs.conj().T


def oracle_kms_trace(space: TruncatedSpace, rho, z, w) -> complex:
    """tr(rho^1/2 W(z) rho^1/2 W(w)) by explicit square root.

    On number-diagonal densities the root is exact; off the diagonal the
    full Hermitian root stays accurate, and only the truncation limits the
    result.
    """
    root = _psd_sqrt(np.asarray(rho, dtype=complex))
    return complex(
        np.trace(root @ weyl_matrix(space, z) @ root @ weyl_matrix(space, w))
    )


def leakage_norm(space: TruncatedSpace, mat) -> float:
    """Norm of the rows/columns of a matrix touching the top occupation
    level; measures how strongly truncation boundary terms act."""
    occ = space.occupations()
    top = np.any(occ == space.cutoff, axis=1)
    mat = np.asarray(mat)
    sub_rows = mat[top, :]
    sub_cols = mat[:, top]
    return float(np.sqrt(np.linalg.norm(sub_rows) ** 2 + np.linalg.norm(sub_cols) ** 2))


def _thermal_envelope(model: GklsModel):
    """Check the gap-oracle envelope and return (mu2, lambda2).

    Envelope: d = 1, kappa = 0, zeta = 0 (a drive displaces the thermal
    state off the number diagonal), every jump operator proportional to a
    or to adag, net damping (lambda2 < mu2) and a faithful thermal state
    (lambda2 > 0; at lambda2 = 0 the state is the pure vacuum).
    """
    if model.d != 1:
        raise OutsideEnvelope("gap oracle is single mode only")
    if np.max(np.abs(model.kappa)) > 1e-12:
        raise OutsideEnvelope("gap oracle requires kappa = 0 (thermal-diagonal family)")
    if np.max(np.abs(model.zeta)) > 1e-12:
        raise OutsideEnvelope(
            "gap oracle requires zeta = 0 (a driven state is not number-diagonal)"
        )
    mu2 = 0.0
    lambda2 = 0.0
    for ell in range(model.m):
        u = complex(model.u_mat[ell, 0])
        v = complex(model.v_mat[ell, 0])
        if abs(u) > 1e-14 and abs(v) > 1e-14:
            raise OutsideEnvelope(
                "gap oracle requires each jump to be a pure raising or "
                "lowering operator"
            )
        mu2 += abs(v) ** 2
        lambda2 += abs(u) ** 2
    if lambda2 >= mu2:
        raise OutsideEnvelope("gap oracle requires net damping (lambda2 < mu2)")
    if lambda2 <= 0.0:
        raise OutsideEnvelope(
            "gap oracle requires a faithful thermal state (lambda2 > 0)"
        )
    return mu2, lambda2


def _components(pattern):
    """Connected components of the graph whose adjacency is the symmetric
    boolean matrix pattern, as labels 0..k-1, one per vertex."""
    rows, cols = np.nonzero(pattern)
    labels = np.arange(pattern.shape[0])
    while True:
        # each vertex takes the least label among itself and its neighbours,
        # then the label of that label (pointer jumping)
        low = labels.copy()
        np.minimum.at(low, rows, labels[cols])
        low = low[low]
        if np.array_equal(low, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = low


def _blocked_eigvalsh(mat):
    """Ascending eigenvalues of a Hermitian matrix, from one eigvalsh per
    connected component of its exact nonzero pattern."""
    labels = _components(mat != 0)
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return np.sort(
        np.concatenate([np.linalg.eigvalsh(mat[np.ix_(b, b)]) for b in blocks])
    )


def _weighted_generator(superop: Superoperator, w_root):
    """Hermitian part of the Heisenberg generator in the orthonormal basis of
    the diagonal metric with square-root weights w_root, projected off the
    invariant direction w_root * vec(1)."""
    gmat = (w_root[:, None] / w_root[None, :]) * superop.heisenberg
    u = w_root * np.eye(superop.space.dim).reshape(-1, order="F")
    u = u / np.linalg.norm(u)
    # the projector is Hermitian, so projecting before taking the Hermitian
    # part gives the projected Hermitian part
    gmat -= np.outer(u, u.conj() @ gmat)
    gmat -= np.outer(gmat @ u, u.conj())
    return 0.5 * (gmat + gmat.conj().T)


def _metric_roots(pops):
    """Square roots of the diagonal weights of both embeddings at vec index
    l + m*dim (column stacking): tr(rho x* y) weights by pops[m],
    tr(rho^1/2 x* rho^1/2 y) by the geometric mean of row and column
    populations.  The split root is a product of fourth roots, so it never
    underflows for populations that are positive normal floats."""
    if not np.all(pops >= np.finfo(float).tiny):
        raise OutsideEnvelope(
            "gap oracle requires thermal populations that are positive normal "
            f"floats (smallest {pops.min():.1e}: too close to the pure vacuum "
            "for this cutoff)"
        )
    dim = pops.shape[0]
    l_idx = np.tile(np.arange(dim), dim)
    m_idx = np.repeat(np.arange(dim), dim)
    root4 = np.sqrt(np.sqrt(pops))
    return np.sqrt(pops)[m_idx], root4[m_idx] * root4[l_idx]


def oracle_gap(model: GklsModel, space: TruncatedSpace) -> tuple[float, float]:
    """Spectral gaps (g, g_breve) of the truncated generator in the
    one-sided and the split embedding.

    The exactly-diagonal thermal stationary weights make both weighted inner
    products diagonal; the generator is conjugated into the corresponding
    orthonormal basis, symmetrized, projected off the invariant direction,
    and its least-negative remaining eigenvalue returned (sign flipped).
    The eigenvalues come one block at a time from the connected components
    of the symmetrized matrix's nonzero pattern.
    """
    mu2, lambda2 = _thermal_envelope(model)
    nbar = lambda2 / (mu2 - lambda2)
    pops = np.diag(thermal_density(space, nbar)).real
    w_roots = _metric_roots(pops)
    superop = build_superoperator(model, space)
    gaps = []
    for w_root in w_roots:
        evals = _blocked_eigvalsh(_weighted_generator(superop, w_root))
        # the projection pins one eigenvalue at zero (the invariant
        # direction); the gap is the distance from zero of the rest
        gaps.append(-float(evals[-2]))
    return tuple(gaps)
