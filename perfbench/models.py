"""Seeded benchmark inputs and the exact references they are checked against.

Every input is a function of a seed only.  The references come from the
README closed forms of the single-mode family, written out here again so the
benchmark does not trust ``gap.one_dim_closed_forms``, the code it times.

Multi-mode models are d decoupled single-mode family members, rotated by a
Haar passive mode unitary W (omega -> W* omega W, kappa -> W* kappa conj(W),
U -> U conj(W), V -> V conj(W)) with the jump rows then mixed by a Haar
unitary X (U -> X U, V -> conj(X) V).  Both maps leave the semigroup, and so
every gap and symplectic eigenvalue, unchanged; the expected g and g_breve
are the minimum over modes and sigma is the sorted per-mode list.
"""

from __future__ import annotations

import json
import math

import numpy as np


def closed_forms(mu2, lambda2, omega, kappa):
    """(g, g_breve, sigma) of the single-mode family, from the README."""
    gamma = 0.5 * (mu2 - lambda2)
    rot = gamma * gamma + omega * omega
    g = gamma * (
        1.0
        - abs(kappa)
        * (mu2 + lambda2)
        / (2.0 * math.sqrt(mu2 * lambda2 * rot + gamma * gamma * kappa * kappa))
    )
    g_breve = gamma * (1.0 - abs(kappa) / math.sqrt(rot))
    sigma = (mu2 + lambda2) / (2.0 * gamma) * math.sqrt(rot / (rot - kappa * kappa))
    return g, g_breve, sigma


def sweep_admissible(mu2, lambda2, omega, kappa):
    """The admissibility rule the sweep documents: a faithful invariant state
    exists, and the pure vacuum boundary is left out."""
    if not 0 <= lambda2 < mu2:
        return False
    gamma = 0.5 * (mu2 - lambda2)
    if gamma**2 + omega**2 - kappa**2 <= 1e-12:
        return False
    return not (lambda2 == 0.0 and kappa == 0.0)


def haar_unitary(rng, n):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases[None, :]


def mode_params(rng, zero_lambda=False):
    """One single-mode family member (mu2, lambda2, omega, kappa) with
    kappa != 0, so g < g_breve strictly, and a margin from every boundary."""
    mu2 = rng.uniform(2.0, 4.0)
    lambda2 = 0.0 if zero_lambda else rng.uniform(0.2, 1.2)
    omega = rng.uniform(-2.0, 2.0)
    gamma = 0.5 * (mu2 - lambda2)
    kappa = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.7) * math.sqrt(
        gamma * gamma + omega * omega
    )
    return float(mu2), float(lambda2), float(omega), float(kappa)


def mixed_mode_model(rng, d, zero_lambda_modes=0):
    """Model document and references for d rotated decoupled modes; the first
    ``zero_lambda_modes`` modes have lambda = 0, which makes cz singular."""
    params = [mode_params(rng, k < zero_lambda_modes) for k in range(d)]
    omega0 = np.diag([p[2] for p in params]).astype(complex)
    kappa0 = np.diag([p[3] for p in params]).astype(complex)
    u_rows, v_rows = [], []
    for k, (mu2, lambda2, _, _) in enumerate(params):
        row = np.zeros(d, dtype=complex)
        row[k] = math.sqrt(mu2)
        u_rows.append(np.zeros(d, dtype=complex))
        v_rows.append(row)
        if lambda2 > 0:
            row = np.zeros(d, dtype=complex)
            row[k] = math.sqrt(lambda2)
            u_rows.append(row)
            v_rows.append(np.zeros(d, dtype=complex))
    w = haar_unitary(rng, d)
    x = haar_unitary(rng, len(u_rows))
    omega = w.conj().T @ omega0 @ w
    kappa = w.conj().T @ kappa0 @ w.conj()
    u_mat = x @ (np.array(u_rows) @ w.conj())
    v_mat = x.conj() @ (np.array(v_rows) @ w.conj())
    # exact Hermitian / symmetric parts, so validation sees no rounding
    omega = 0.5 * (omega + omega.conj().T)
    kappa = 0.5 * (kappa + kappa.T)
    forms = [closed_forms(*p) for p in params]
    reference = {
        "g": 0.0 if zero_lambda_modes else min(f[0] for f in forms),
        "g_breve": min(f[1] for f in forms),
        "sigma": sorted(f[2] for f in forms),
        "exit": 2 if zero_lambda_modes else 0,
    }
    doc = {
        "version": 1,
        "d": d,
        "m": len(u_rows),
        "omega": _pairs(omega),
        "kappa": _pairs(kappa),
        "U": _pairs(u_mat),
        "V": _pairs(v_mat),
        "zeta": _pairs(np.zeros(d, dtype=complex)),
    }
    return doc, reference


def _pairs(arr):
    arr = np.asarray(arr)
    if arr.ndim == 1:
        return [[float(x.real), float(x.imag)] for x in arr]
    return [_pairs(row) for row in arr]


def preset(mu2, lambda2, omega, kappa):
    return {
        "version": 1,
        "one_dim": {"mu2": mu2, "lambda2": lambda2, "omega": omega, "kappa": kappa},
    }


def sweep_grid(rng):
    """A jittered 11 x 9 x 5 x 5 grid spanning the default sweep grid and
    beyond.  Admissible points keep a small margin from the admissibility
    boundary (gamma >= 0.025 and a determinant share of at least 1e-3), where
    the closed-form agreement to 1e-9 would become a conditioning question."""
    base = {
        "mu2": np.linspace(1.2, 6.2, 11),
        "lambda2": np.linspace(0.0, 2.0, 9),
        "omega": np.linspace(-1.0, 3.0, 5),
        "kappa": np.linspace(0.0, 1.6, 5),
    }
    while True:
        grid = {}
        for name, values in base.items():
            step = values[1] - values[0]
            jitter = rng.uniform(-0.2, 0.2, values.size) * step
            # keep exact zeros: they are the lambda = 0 and kappa = 0 rows
            jittered = np.where(values == 0.0, 0.0, values + jitter)
            grid[name] = [float(round(v, 6)) for v in jittered]
        if _grid_has_margin(grid):
            return grid


def _grid_has_margin(grid):
    for mu2 in grid["mu2"]:
        for lambda2 in grid["lambda2"]:
            if not 0 <= lambda2 < mu2:
                continue
            if mu2 - lambda2 < 0.05:
                return False
            gamma = 0.5 * (mu2 - lambda2)
            for omega in grid["omega"]:
                rot = gamma**2 + omega**2
                for kappa in grid["kappa"]:
                    if 0 < rot - kappa**2 < 1e-3 * rot:
                        return False
    return True


def grid_points(grid):
    """Admissible points in the order the sweep emits them."""
    return [
        (mu2, lambda2, omega, kappa)
        for mu2 in grid["mu2"]
        for lambda2 in grid["lambda2"]
        for omega in grid["omega"]
        for kappa in grid["kappa"]
        if sweep_admissible(mu2, lambda2, omega, kappa)
    ]


def grid_arg(grid):
    return ";".join(
        f"{name}={','.join(repr(v) for v in values)}" for name, values in grid.items()
    )


def dumps(doc):
    return json.dumps(doc, sort_keys=True)
