"""Brute-force oracle on a truncated Fock space.

Everything here is deliberately independent of the closed-form machinery:
operators are dense matrices on the occupation-number basis truncated at a
cutoff, the generator is assembled directly from the Hamiltonian and jump
operators, and traces are evaluated literally.  The closed-form modules are
validated against these numbers, never the other way round.

The generator of a quadratic model is sparse (at cutoff 25, 2526 nonzeros
of 676^2 entries), so both pictures are held as CSR arrays only.  Each is
summed entry by entry, in formula order, from the Kronecker terms of the
dim x dim operators, bit for bit as the chain of scipy.sparse Kronecker
products and sums.  scipy.sparse is imported inside the oracle functions,
and scipy.linalg inside the module's expm on its first call, so importing
the package loads neither.

The steady state is one square sparse LU solve.  Trace preservation
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
refused).  The weights scale only the stored entries, and the Hermitian
part equals its conjugate transpose exactly.  The invariant direction
w_root * vec(1) must lie in its kernel, which holds to rounding only for
stationary weights, and is checked rather than projected out.  Both embeddings
share one pass: the pattern is built once, and both are weighted as one
stacked array.  The results are block diagonal in the connected components
of their joint exact nonzero pattern (for this family the U(1) sectors
l - m), labelled by scipy.sparse.csgraph (a stored zero is not an edge);
the entries are sorted once by component, and each block, read from the
assembled matrix and never from the model, holds both embeddings and is
diagonalized by one stacked eigvalsh call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

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
]

# the superoperators are sparse, but the steady-state LU fills in (at d = 2,
# cutoff 7, 132608 nonzeros give 6.4e6 factor entries and a 3 s solve) and a
# component of the gap pattern becomes one dense eigenvalue block; every
# oracle check needs the superoperator, so build_space refuses a larger
# space before it allocates the mode operators
MAX_SUPEROP_DIM = 64
# backward-error bound of the steady-state solve, relative to the system's
# infinity norm times |rho|; LU with threshold pivoting and one refinement
# step stays near n eps; the gap oracle bounds the residual of the invariant
# direction, relative to the largest entry, by the same figure
STEADY_RESIDUAL = 1e-10


def expm(a):
    """scipy.linalg.expm, imported on first use (see the module docstring);
    every Weyl matrix goes through this name."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


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


def build_space(d: int, cutoff: int) -> TruncatedSpace:
    """Dense mode operators for d modes truncated at the given occupation."""
    if d < 1 or cutoff < 1:
        raise ValueError("need at least one mode and cutoff >= 1")
    dim = (cutoff + 1) ** d
    if dim > MAX_SUPEROP_DIM:
        raise DimensionTooLarge(
            f"truncated dimension {dim} exceeds the superoperator cap {MAX_SUPEROP_DIM}"
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
    """Vectorized generator (column stacking) in both pictures.

    build_superoperator stores CSR arrays in canonical order (sorted column
    indices, no duplicates, no stored zeros), the one form the oracle
    functions read."""

    space: TruncatedSpace
    predual: object
    heisenberg: object

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


def _kron_sum(terms, dim):
    """CSR array of kron(left_1, right_1) + kron(left_2, right_2) + ... for
    dense dim x dim factors, as the chain of scipy.sparse sums forms it.

    Each term's (row, col, value) comes from the nonzeros of its factors by
    index arithmetic, each value one product of a left and a right entry, as
    sparse.kron multiplies them.  Each entry is summed from +0 over the terms
    in order, the left fold of the chain of CSR sums, so each stored value is
    bit for bit that of the chain; exact cancellations are not stored.
    """
    n = dim * dim
    keys, vals = [], []
    for left, right in terms:
        lrow, lcol = np.nonzero(left)
        rrow, rcol = np.nonzero(right)
        rvals = right[rrow, rcol]
        rows = (lrow * dim)[:, None] + rrow
        cols = (lcol * dim)[:, None] + rcol
        keys.append((rows * n + cols).ravel())
        vals.append(
            (left[lrow, lcol].repeat(rvals.size).reshape(lrow.size, -1) * rvals).ravel()
        )
    keys = np.concatenate(keys)
    union = _distinct(keys)
    total = _ordered_sum(np.searchsorted(union, keys), np.concatenate(vals), union.size)
    keep = total != 0
    return _csr_from_sorted(*np.divmod(union[keep], n), total[keep], n)


def _distinct(keys):
    """The distinct keys in ascending order."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _ordered_sum(slot, vals, size):
    """Sums of complex vals into size slots, each from +0 in the order of
    vals; complex addition adds the real and imaginary parts separately."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(slot, weights=vals.real, minlength=size)
    out.imag = np.bincount(slot, weights=vals.imag, minlength=size)
    return out


def _csr_from_sorted(rows, cols, vals, n):
    """n x n CSR array of distinct entries given in row-major order."""
    from scipy import sparse

    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_array((vals, cols.astype(np.int32), indptr), shape=(n, n))


def build_superoperator(model: GklsModel, space: TruncatedSpace) -> Superoperator:
    """Assemble the GKLS generator and its predual as sparse CSR arrays.

    With G = iH - K/2 and K = sum_l L_l^dag L_l, the Heisenberg generator is
    x -> G x + x G^dag + sum_l L_l^dag x L_l and the predual
    rho -> G^dag rho + rho G + sum_l L_l rho L_l^dag.  The vectorization
    vec(A x B) = (B^T kron A) vec(x) makes them
    1 kron G + conj(G) kron 1 + sum_l L_l^T kron L_l^dag and
    1 kron G^dag + G^T kron 1 + sum_l conj(L_l) kron L_l.  Each picture is
    summed in that order from the nonzeros of the dim x dim factors and
    stored once as a CSR array (see _kron_sum).  The jump terms of each
    picture are built separately, and the two pictures are checked against
    each other through the duality pairing
    tr(predual(rho) x) = tr(rho heisenberg(x)) on pseudo-random matrices.
    """
    validate(model, strict=True)
    if space.dim > MAX_SUPEROP_DIM:
        raise DimensionTooLarge(
            f"truncated dimension {space.dim} exceeds the superoperator cap "
            f"{MAX_SUPEROP_DIM}"
        )
    h = build_hamiltonian(model, space)
    kraus = build_kraus(model, space)
    dim = space.dim
    g = 1j * h
    for ell in kraus:
        g -= 0.5 * (ell.conj().T @ ell)

    eye = np.eye(dim, dtype=complex)
    heis = _kron_sum(
        [(eye, g), (g.conj(), eye)] + [(ell.T, ell.conj().T) for ell in kraus], dim
    )
    pred = _kron_sum(
        [(eye, g.conj().T), (g.T, eye)] + [(ell.conj(), ell) for ell in kraus], dim
    )

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

    One square sparse LU solve: the |0><0| row of the predual (vec index 0),
    which trace preservation makes minus the sum of the other
    diagonal-index rows, is replaced by the unit-trace row.  A system that
    is exactly singular, or singular to working precision (reciprocal
    condition below n eps, n = dim^2, in the infinity norm, from a
    deterministic one-column norm estimate of the inverse), means a
    truncated kernel of dimension two or more and raises OutsideEnvelope; a
    full residual |predual rho| above STEADY_RESIDUAL |system| |rho| raises
    ConsistencyError.
    """
    from scipy import sparse
    from scipy.sparse.linalg import LinearOperator, onenormest, splu

    dim = superop.space.dim
    n = dim * dim
    predual = superop.predual
    trace_row = sparse.csr_array(np.eye(dim, dtype=complex).reshape(1, -1, order="F"))
    system = sparse.vstack([trace_row, predual[1:]], format="csr")
    anorm = float(abs(system).sum(axis=1).max())  # infinity norm of system
    # system.T is the CSC array splu factors; solving with the transpose of
    # that factorization solves system x = e_0, and the 1-norm of the
    # inverse of system.T is the infinity norm of the inverse of system
    try:
        lu = splu(system.T)
    except RuntimeError:  # exactly singular factor
        rcond = 0.0
    else:
        # t = 1 starts from the all-ones column and draws no random columns
        inv_t = LinearOperator(
            (n, n), dtype=complex, matvec=lu.solve,
            rmatvec=lambda v: lu.solve(v, trans="H"),
        )
        rcond = 1.0 / (anorm * onenormest(inv_t, t=1))
    if not rcond >= n * np.finfo(float).eps:
        raise OutsideEnvelope(
            f"truncated generator at cutoff {superop.space.cutoff} has no unique "
            f"steady state (kernel of dimension two or more, reciprocal "
            f"condition {rcond:.1e})"
        )
    rhs = np.zeros(n, dtype=complex)
    rhs[0] = 1.0
    sol = lu.solve(rhs, trans="T")
    # one step of refinement with the same factor: the sparse pivot order
    # alone leaves small populations with large relative errors (4e-4 on
    # the first excited one at lambda2 = 1e-12, cutoff 25; 2e-16 after)
    sol += lu.solve(rhs - system @ sol, trans="T")
    rho = sol.reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    resid = np.linalg.norm(predual @ rho.reshape(-1, order="F"))
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


def _weighted_hermitian_parts(heis, w_roots):
    """Rows, columns and values of the Hermitian parts of the CSR Heisenberg
    generator heis in the orthonormal bases of the diagonal metrics with
    square-root weights w_roots (one row per metric), on one pattern.

    The pattern is the sorted union of the stored keys and their transposes;
    its rows and columns come in row-major order.  Only the stored entries
    are weighted, by w_root[row] / w_root[col], each into its slot; the
    Hermitian part 0.5 (m_ij + conj(m_ji)) reads each transpose through an
    argsort of the transposed keys, so it equals its conjugate transpose
    exactly.  Values that cancel exactly stay in place as zeros.
    """
    n = heis.shape[0]
    rows = np.repeat(np.arange(n), np.diff(heis.indptr))
    keys = rows * n + heis.indices
    pattern = _distinct(np.concatenate((keys, heis.indices * n + rows)))
    m = np.zeros((len(w_roots), pattern.size), dtype=complex)
    m[:, np.searchsorted(pattern, keys)] = w_roots[:, rows] / w_roots[:, heis.indices] * heis.data
    prow, pcol = np.divmod(pattern, n)
    return prow, pcol, 0.5 * (m + m[:, np.argsort(pcol * n + prow)].conj())


def _blocked_eigvalsh(rows, cols, vals, n):
    """Ascending eigenvalues, one row per matrix, of the Hermitian n x n
    matrices whose entries at (rows, cols), distinct and in row-major order,
    are the rows of vals; one stacked eigvalsh per connected component of
    the entries that are nonzero in any of them (a stored zero is not an
    edge).

    The entries are sorted once by component; each block takes its run of
    them, at the positions of their rows and columns in ascending index
    order within the component."""
    from scipy.sparse.csgraph import connected_components

    edge = np.any(vals != 0, axis=0)
    rows, cols, vals = rows[edge], cols[edge], vals[:, edge]
    graph = _csr_from_sorted(rows, cols, np.ones(rows.size), n)
    labels = connected_components(graph, directed=False)[1]
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[order] = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    by_block = np.argsort(labels[rows])
    ends = np.cumsum(np.bincount(labels[rows], minlength=sizes.size))
    rows, cols, vals = pos[rows[by_block]], pos[cols[by_block]], vals[:, by_block]
    evals = []
    start = 0
    for size, end in zip(sizes, ends):
        block = np.zeros((len(vals), size, size), dtype=vals.dtype)
        block[:, rows[start:end], cols[start:end]] = vals[:, start:end]
        evals.append(np.linalg.eigvalsh(block))
        start = end
    return np.sort(np.concatenate(evals, axis=1), axis=1)


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
    products diagonal; the generator is conjugated into both orthonormal
    bases and symmetrized in one pass.  The invariant direction
    u = w_root * vec(1) / |w_root * vec(1)| lies in the kernel of each result
    exactly when the weights are the stationary density, which is checked:
    |gsym u| above STEADY_RESIDUAL max|gsym| raises ConsistencyError.  The
    eigenvalues of both come one block at a time from the connected
    components of their joint nonzero pattern, and in each embedding the
    least-negative one below the top is returned (sign flipped).
    """
    mu2, lambda2 = _thermal_envelope(model)
    nbar = lambda2 / (mu2 - lambda2)
    pops = np.diag(thermal_density(space, nbar)).real
    w_roots = np.stack(_metric_roots(pops))
    heis = build_superoperator(model, space).heisenberg
    rows, cols, gsym = _weighted_hermitian_parts(heis, w_roots)
    support = np.arange(space.dim) * (space.dim + 1)
    for w_root, g in zip(w_roots, gsym):
        u = np.zeros(heis.shape[0])
        u[support] = w_root[support] / np.linalg.norm(w_root[support])
        resid = np.linalg.norm(_ordered_sum(rows, g * u[cols], u.size))
        bound = STEADY_RESIDUAL * np.abs(g).max()
        if not resid <= bound:
            raise ConsistencyError(
                f"invariant-direction residual {resid:.3e} exceeds {bound:.3e}: "
                "the weights are not the stationary density"
            )
    evals = _blocked_eigvalsh(rows, cols, gsym, heis.shape[0])
    # the top eigenvalue is u's, zero up to rounding; the gap is the
    # distance from zero of the next
    return tuple(-float(e) for e in evals[:, -2])
