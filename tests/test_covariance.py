"""Exact invariances of both gaps that need no oracle, on seeded random
stable faithful models at d = 1 ... 8.

- Kraus mixing L -> W L, W unitary m x m (u' = W u, v' = conj(W) v), leaves
  the generator unchanged: both gaps, sigma and the exit code of analyze
  stay.
- Rate scaling omega, kappa, zeta -> c omega, c kappa, c zeta and
  u, v -> sqrt(c) u, sqrt(c) v multiplies the generator by c: both gaps
  scale by c, and the invariant state, so sigma, stays.
- The direct sum with a model on other modes: each gap is the smaller of
  the two, and sigma is the union of both.
- A quadratic Hamiltonian H' with [H', rho] = 0 adds the derivation
  i[H', .], antisymmetric in both the GNS and the KMS product, so both gaps,
  the invariant covariance and sigma stay, while the drift moves.  Its
  (omega, kappa) directions are those whose drift change dZ keeps the
  covariance stationary: dZ^T S + S dZ = 0.
- A Gaussian unitary U maps rho to U rho U* and is an isometry of both the
  GNS and the KMS space, so both gaps and sigma stay.  In the modes b of a
  passive map a = R b, R unitary, and of a squeeze a_j = c b_j + s b_j^dag
  of one mode, the model is again a GklsModel; a passive map, squeezes of
  every mode and a second passive map give every symplectic map
  (Bloch-Messiah).

Each evaluation may be off by its conftest.rounding_allowances (one multiple
of them: ROUTE_ROUNDING / 2 rounding units of |Z| cond(T) in each gap, and
ROUTE_ROUNDING rounding units of the drift condition in sigma), so two
evaluations may differ by the sum of theirs.  Measured on these seeds: at
most 3 % of that sum (sigma), 1.4 % in the gaps, 2.1 % in the covariance
(normwise, against the sigma allowance); under the Gaussian unitaries at
most 3.9 % (g_breve, passive map) and 3.7 % (sigma).
"""

import dataclasses

import numpy as np
import pytest

from conftest import (
    direct_sum,
    random_singular_cz,
    random_stable_faithful,
    random_unstable,
    rounding_allowances,
)
from gaussgap import cli
from gaussgap.model import build_drift_diffusion
from gaussgap.realops import realize_blocks
from gaussgap.stationary import solve_stationary

MODELS_PER_D = 3


def haar_unitary(rng, n):
    """A Haar-distributed n x n unitary: the QR factor of a complex Gaussian
    matrix, its columns' phases fixed by R's diagonal."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def kraus_mixed(model, w):
    return dataclasses.replace(model, u_mat=w @ model.u_mat, v_mat=w.conj() @ model.v_mat)


def rate_scaled(model, c):
    return dataclasses.replace(
        model, omega=c * model.omega, kappa=c * model.kappa, u_mat=np.sqrt(c) * model.u_mat,
        v_mat=np.sqrt(c) * model.v_mat, zeta=c * model.zeta,
    )


def passive_mapped(model, r):
    """The model in the modes b of a = R b, R unitary d x d: with
    H = a^dag omega a + (a^dag kappa a^dag + h.c.) / 2 + (zeta a^dag + h.c.) / 2
    and L = conj(v) a + u a^dag, omega' = R* omega R, kappa' = R* kappa conj(R),
    u' = u conj(R), v' = v conj(R) and zeta' = zeta conj(R)."""
    rc = r.conj()
    return dataclasses.replace(
        model, omega=rc.T @ model.omega @ r, kappa=rc.T @ model.kappa @ rc,
        u_mat=model.u_mat @ rc, v_mat=model.v_mat @ rc, zeta=model.zeta @ rc,
    )


def squeezed(model, j, r, phi):
    """The model in the modes b of a_j = c b_j + s b_j^dag, c = cosh r and
    s = e^{i phi} sinh r, the other modes kept: on mode j
    omega' = omega (c^2 + |s|^2) + 2 Re(kappa c conj(s)),
    kappa' = 2 omega c s + kappa c^2 + conj(kappa) s^2, v' = v c + conj(u) s,
    u' = conj(v) s + u c and zeta' = zeta c + conj(zeta) s; for q != j
    omega'_jq = c omega_jq + s conj(kappa_jq) and
    kappa'_jq = c kappa_jq + s omega_qj."""
    c, s = np.cosh(r), np.exp(1j * phi) * np.sinh(r)
    omega, kappa = model.omega.copy(), model.kappa.copy()
    u, v, zeta = model.u_mat.copy(), model.v_mat.copy(), model.zeta.copy()
    q = np.arange(model.d) != j
    omega_jq = c * omega[j, q] + s * kappa[j, q].conj()
    kappa_jq = c * kappa[j, q] + s * omega[q, j]
    omega[j, q], omega[q, j] = omega_jq, omega_jq.conj()
    kappa[j, q] = kappa[q, j] = kappa_jq
    w, k = omega[j, j], kappa[j, j]
    omega[j, j] = w * (c**2 + abs(s) ** 2) + 2.0 * (k * c * s.conj()).real
    kappa[j, j] = 2.0 * w * c * s + k * c**2 + k.conj() * s**2
    u[:, j], v[:, j] = v[:, j].conj() * s + u[:, j] * c, v[:, j] * c + u[:, j].conj() * s
    zeta[j] = zeta[j] * c + zeta[j].conj() * s
    return dataclasses.replace(model, omega=omega, kappa=kappa, u_mat=u, v_mat=v, zeta=zeta)


def bloch_messiah(rng, model):
    """A random passive map, a squeeze of every mode with r in [-1, 1] and a
    second random passive map."""
    model = passive_mapped(model, haar_unitary(rng, model.d))
    for j in range(model.d):
        model = squeezed(model, j, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * np.pi))
    return passive_mapped(model, haar_unitary(rng, model.d))


GAUSSIAN_UNITARIES = {
    "passive": lambda rng, model: passive_mapped(model, haar_unitary(rng, model.d)),
    "squeeze": lambda rng, model: squeezed(
        model, int(rng.integers(model.d)), rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
    ),
    "bloch-messiah": bloch_messiah,
}


def hamiltonian_directions(d):
    """A real basis of the quadratic Hamiltonians, as (omega, kappa) pairs:
    omega Hermitian (d^2 directions), kappa complex symmetric (d (d + 1))."""
    sym, anti = [], []
    for j in range(d):
        for k in range(j, d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = e[k, j] = 1.0
            sym.append(e)
            if j < k:
                a = np.zeros((d, d), dtype=complex)
                a[j, k], a[k, j] = 1j, -1j
                anti.append(a)
    zero = np.zeros((d, d), dtype=complex)
    return [(h, zero) for h in sym + anti] + [(zero, c * e) for e in sym for c in (1.0, 1j)]


def state_preserving_directions(d, s2d):
    """hamiltonian_directions(d) and orthonormal rows of coefficients over
    them that span the null space of dZ^T S + S dZ, dZ the drift change
    realize_blocks(i omega, i kappa)."""
    directions = hamiltonian_directions(d)
    changes = []
    for omega, kappa in directions:
        dz = realize_blocks(1j * omega, 1j * kappa)
        changes.append((dz.T @ s2d + s2d @ dz).ravel())
    _, sv, vh = np.linalg.svd(np.stack(changes, axis=1))
    return directions, vh[np.sum(sv > 1e-10 * sv[0]):]


def evaluate(model):
    """(g, g_breve, sorted sigma, exit code) of the model's analyze report,
    and the rounding allowances of (g, g_breve, sigma)."""
    report = cli.run_report(model)
    dd = build_drift_diffusion(model)
    values = (report["gns"]["g"], report["kms"]["g"], np.sort(report["stationary"]["sigma"]),
              cli._report_exit_code(report))
    return values, rounding_allowances(dd, solve_stationary(dd))


def assert_gaps_and_sigma(got, want, allowances):
    """got and want of (g, g_breve, sigma) within the summed allowances:
    absolute for the gaps, relative for sigma."""
    g_tol, g_breve_tol, sigma_rel = (sum(a) for a in zip(*allowances))
    assert abs(got[0] - want[0]) <= g_tol, (got[0], want[0], g_tol)
    assert abs(got[1] - want[1]) <= g_breve_tol, (got[1], want[1], g_breve_tol)
    assert np.all(abs(got[2] - want[2]) <= sigma_rel * want[2]), (got[2], want[2])


@pytest.mark.parametrize("d", range(1, 9))
def test_kraus_mixing_changes_nothing(d):
    rng = np.random.default_rng(3000 + d)
    for _ in range(MODELS_PER_D):
        model, _, _ = random_stable_faithful(rng, d)
        values, allow = evaluate(model)
        mixed, mixed_allow = evaluate(kraus_mixed(model, haar_unitary(rng, model.m)))
        assert mixed[3] == values[3] == 0
        assert_gaps_and_sigma(mixed, values, [allow, mixed_allow])


@pytest.mark.parametrize("fuzz", [random_unstable, random_singular_cz])
def test_kraus_mixing_keeps_the_no_gap_exit_code(fuzz):
    rng = np.random.default_rng(3100)
    for d in (1, 2, 4):
        model = fuzz(rng, d)[0]
        mixed = kraus_mixed(model, haar_unitary(rng, model.m))
        codes = [cli._report_exit_code(cli.run_report(m)) for m in (model, mixed)]
        assert codes == [2, 2]


@pytest.mark.parametrize("d", range(1, 9))
def test_rate_scaling_scales_both_gaps(d):
    rng = np.random.default_rng(3200 + d)
    for _ in range(MODELS_PER_D):
        model, _, _ = random_stable_faithful(rng, d)
        c = float(rng.uniform(0.1, 10.0))
        (g, g_breve, sigma, code), allow = evaluate(model)
        scaled, scaled_allow = evaluate(rate_scaled(model, c))
        assert scaled[3] == code == 0
        # c times an evaluation may be off by c times its gap allowances
        allow = (c * allow[0], c * allow[1], allow[2])
        assert_gaps_and_sigma(scaled, (c * g, c * g_breve, sigma), [allow, scaled_allow])


@pytest.mark.parametrize("d", range(1, 9))
def test_direct_sum_takes_the_smaller_gap(d):
    rng = np.random.default_rng(3300 + d)
    for _ in range(MODELS_PER_D):
        model, _, _ = random_stable_faithful(rng, d)
        one, _, _ = random_stable_faithful(rng, 1)
        (g, g_breve, sigma, _), allow = evaluate(model)
        (g1, g1_breve, sigma1, _), one_allow = evaluate(one)
        summed, sum_allow = evaluate(direct_sum(model, one))
        assert summed[3] == 0
        want = (min(g, g1), min(g_breve, g1_breve), np.sort(np.concatenate([sigma, sigma1])))
        assert_gaps_and_sigma(summed, want, [allow, one_allow, sum_allow])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_state_preserving_hamiltonian_changes_no_gap(d):
    rng = np.random.default_rng(3400 + d)
    moved = 0
    for _ in range(MODELS_PER_D):
        model, dd, st = random_stable_faithful(rng, d)
        directions, null = state_preserving_directions(d, st.s2d)
        # the Williamson normal modes' number operators give d of them
        assert len(null) >= d
        step = rng.standard_normal(len(null)) @ null
        step *= 3.0 / np.linalg.norm(step)
        stepped = dataclasses.replace(
            model,
            omega=model.omega + sum(c * omega for c, (omega, _) in zip(step, directions)),
            kappa=model.kappa + sum(c * kappa for c, (_, kappa) in zip(step, directions)),
        )
        values, allow = evaluate(model)
        got, got_allow = evaluate(stepped)
        assert got[3] == values[3] == 0
        assert_gaps_and_sigma(got, values, [allow, got_allow])
        stepped_dd = build_drift_diffusion(stepped)
        s2d = solve_stationary(stepped_dd).s2d
        sigma_rel = allow[2] + got_allow[2]
        assert np.linalg.norm(s2d - st.s2d) <= sigma_rel * np.linalg.norm(st.s2d)
        moved += abs(stepped_dd.abscissa - dd.abscissa) > 1e-2 * abs(dd.abscissa)
    # the drift's spectrum moves, so the invariance is not vacuous
    assert moved >= 1


@pytest.mark.parametrize("d", range(1, 5))
@pytest.mark.parametrize("unitary", list(GAUSSIAN_UNITARIES))
def test_gaussian_unitary_changes_nothing(unitary, d):
    rng = np.random.default_rng(3500 + d)
    for _ in range(MODELS_PER_D):
        model, _, _ = random_stable_faithful(rng, d)
        values, allow = evaluate(model)
        got, got_allow = evaluate(GAUSSIAN_UNITARIES[unitary](rng, model))
        assert got[3] == values[3] == 0
        assert_gaps_and_sigma(got, values, [allow, got_allow])


def test_passive_map_conjugates_kappa_by_conj_r():
    # the drift of the mapped model is similar to the old one, so its
    # spectrum stays; kappa' = R^T kappa R, the conjugation of the other
    # picture, moves it (and can turn a stable d = 2 model unstable)
    rng = np.random.default_rng(3600)
    model, dd, _ = random_stable_faithful(rng, 2)
    r = haar_unitary(rng, 2)
    mapped = passive_mapped(model, r)
    wrong = dataclasses.replace(mapped, kappa=r.T @ model.kappa @ r)
    spectrum = np.sort_complex(dd.drift_eigenvalues)

    def moved(m):
        return np.abs(np.sort_complex(build_drift_diffusion(m).drift_eigenvalues) - spectrum).max()

    assert moved(mapped) <= 1e-12 * dd.drift_norm
    assert moved(wrong) > 1e-3 * dd.drift_norm, moved(wrong)
