"""Command line interface: model files, reports, sweeps and oracle checks.

Model files are JSON with complex entries always written as [re, im] pairs:

    {"version": 1, "d": 1, "m": 2,
     "omega": [[[0.0, 0.0]]], "kappa": [[[0.0, 0.0]]],
     "U": [[[0.0, 0.0]], [[1.0, 0.0]]], "V": [[[1.732, 0.0]], [[0.0, 0.0]]],
     "zeta": [[0.0, 0.0]]}

or a preset for the single-mode family:

    {"version": 1, "one_dim": {"mu2": 3.0, "lambda2": 1.0,
                               "omega": 2.0, "kappa": 1.0}}

Reports are deterministic given the input (and seed, where sampling is
involved): keys are sorted and floats serialized with repr.  CSV output is
RFC 4180 with '.' decimals and 17 significant digits so doubles round-trip.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import classical, dynamics, fock, gap
from .errors import (
    GaussGapError,
    NoFaithfulState,
    NotFaithful,
    ParseError,
    ShapeError,
)
from .model import GklsModel, build_drift_diffusion, one_dim_family, validate
from .stationary import require_stable, solve_stationary

__all__ = ["parse_model", "run_report", "main"]

REPORT_SCHEMA = "gaussgap.report/1"


# ---------------------------------------------------------------------------
# model file handling
# ---------------------------------------------------------------------------


def _reject_constants(name):
    raise ParseError(f"non-finite constant {name!r} is not allowed in model files")


def _as_complex_array(node, shape, name):
    try:
        data = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name}: entries must be [re, im] pairs") from exc
    if data.shape != shape + (2,):
        raise ShapeError(
            f"{name}: expected shape {shape + (2,)} of [re, im] pairs, "
            f"got {data.shape}"
        )
    if not np.all(np.isfinite(data)):
        raise ShapeError(f"{name}: non-finite entries rejected")
    return data[..., 0] + 1j * data[..., 1]


def parse_model(source) -> GklsModel:
    """Parse a model document (path, file-like or JSON text)."""
    return _read_model(source)[0]


def _read_model(source):
    """Parse a model document into (model, preset), where preset is the
    (mu2, lambda2, omega, kappa) tuple of a single-mode preset document and
    None for an explicit model.

    A path that does not exist is reported as such, unless the string looks
    like a JSON document.
    """
    if hasattr(source, "read"):
        text = source.read()
    elif isinstance(source, (str, os.PathLike)) and os.path.exists(str(source)):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = str(source)
        if isinstance(source, os.PathLike) or text.lstrip()[:1] not in ("", "{", "["):
            raise ParseError(f"model file not found: {text}")
    if not text.strip():
        raise ParseError("empty model document")
    try:
        doc = json.loads(text, parse_constant=_reject_constants)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError("model document must be a JSON object")
    version = doc.get("version")
    if version != 1:
        raise ParseError(f"unsupported model file version {version!r}")
    if "one_dim" in doc:
        preset = doc["one_dim"]
        try:
            params = (
                float(preset["mu2"]),
                float(preset["lambda2"]),
                float(preset.get("omega", 0.0)),
                float(preset.get("kappa", 0.0)),
            )
            return one_dim_family(*params), params
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad one_dim preset: {exc}") from exc
    for key in ("d", "m", "omega", "kappa", "U", "V", "zeta"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    d, m = int(doc["d"]), int(doc["m"])
    model = GklsModel(
        d=d,
        m=m,
        omega=_as_complex_array(doc["omega"], (d, d), "omega"),
        kappa=_as_complex_array(doc["kappa"], (d, d), "kappa"),
        u_mat=_as_complex_array(doc["U"], (m, d), "U"),
        v_mat=_as_complex_array(doc["V"], (m, d), "V"),
        zeta=_as_complex_array(doc["zeta"], (d,), "zeta"),
    )
    return model, None


# ---------------------------------------------------------------------------
# JSON serialization helpers
# ---------------------------------------------------------------------------


def _pairs(a):
    """A complex scalar or array as (nested lists of) [re, im] pairs."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _unavailable(reason):
    return {"available": False, "reason": reason}


def run_report(model: GklsModel, closed_form=None) -> dict:
    """Full analysis of one model as a JSON-serializable dict.

    closed_form, when given, is the (mu2, lambda2, omega, kappa) tuple of the
    single-mode preset; the report then carries the closed-form comparison.
    """
    report = {"schema": REPORT_SCHEMA}
    report["model"] = {
        "d": model.d,
        "m": model.m,
        "omega": _pairs(model.omega),
        "kappa": _pairs(model.kappa),
        "U": _pairs(model.u_mat),
        "V": _pairs(model.v_mat),
        "zeta": _pairs(model.zeta),
    }
    vrep = validate(model, strict=False)
    report["validation"] = {
        "ok": vrep.ok,
        "hermiticity_residual": vrep.hermiticity_residual,
        "symmetry_residual": vrep.symmetry_residual,
        "kraus_rank": vrep.kraus_rank,
        "errors": [type(e).code for e in vrep.errors],
    }
    if not vrep.ok:
        return report

    dd = build_drift_diffusion(model)
    report["stability"] = {
        "stable": dd.is_stable,
        "abscissa": dd.abscissa,
        "eigenvalues": _pairs(dd.drift_eigenvalues),
    }
    report["cz"] = {
        "spectrum": dd.cz_spectrum.tolist(),
        "min_eig": dd.cz_min_eig,
        "full_rank": dd.kraus_rank_full,
    }
    grep = gap.analyze(dd, model.zeta)
    report["has_gns_gap"] = grep.has_gns_gap
    report["diagnostics"] = [
        {
            "kind": f.kind,
            "message": f.message,
            "case": f.case,
            "eigenvalue": None if f.eigenvalue is None else _pairs(f.eigenvalue),
            "eigenvector": None if f.eigenvector is None else _pairs(f.eigenvector),
            "kernel_vector": None
            if f.kernel_vector is None
            else _pairs(f.kernel_vector),
            "residual": f.residual,
        }
        for f in grep.diagnostics
    ]
    st = grep.stationary
    if st is None:
        report["stationary"] = _unavailable("Unstable")
        report["gns"] = _unavailable("Unstable")
        report["kms"] = _unavailable("Unstable")
    else:
        report["stationary"] = {
            "available": True,
            "mu": _pairs(st.mu),
            "s2d": st.s2d.tolist(),
            "det_s_tilde": st.det_s_tilde,
            "sigma": None if np.isnan(st.sigma).any() else st.sigma.tolist(),
            "faithful": st.faithful,
            "unique": dd.is_stable and dd.kraus_rank_full,
        }
        gns, kms = grep.gns, grep.kms
        if gns is None:
            report["gns"] = _unavailable("NotFaithful")
            report["kms"] = _unavailable("NotFaithful")
        else:
            report["gns"] = {
                "available": True,
                "omega0": gns.omega0,
                "g": gns.g,
                "witness": _pairs(gns.witness),
                "has_gap": grep.has_gns_gap,
            }
            report["kms"] = {
                "available": True,
                "omega0": kms.omega0,
                "g": kms.g,
                "witness": kms.witness.tolist(),
                "kbreve_min_eig": kms.form_min_eig,
                "kernel_condition_ok": kms.kernel_condition_ok,
            }
    try:
        ou = classical.restrict_to_ou(model)
        block = {
            "available": True,
            "Q": ou.q_mat.tolist(),
            "A": ou.a_mat.tolist(),
        }
        if model.d == 1 and float(ou.a_mat[0, 0]) < 0:
            block["gap_1d"] = classical.ou_gap_1d(ou)
        report["classical"] = block
    except GaussGapError as exc:
        report["classical"] = _unavailable(type(exc).code)

    if closed_form is not None:
        mu2, lambda2, omega_h, kappa_h = closed_form
        try:
            cf = gap.one_dim_closed_forms(mu2, lambda2, omega_h, kappa_h)
            report["closed_form"] = {
                "available": True,
                "gamma": cf.gamma,
                "g": cf.g,
                "g_breve": cf.g_breve,
                "sigma": cf.sigma,
            }
        except NoFaithfulState:
            report["closed_form"] = _unavailable("NoFaithfulState")
    return report


def _report_exit_code(report: dict) -> int:
    if not report.get("validation", {}).get("ok", False):
        return 1
    return 0 if report.get("has_gns_gap") else 2


def _dump_json(obj, stream):
    """Write obj followed by a newline, byte for byte as
    json.dump(obj, stream, sort_keys=True, indent=2) would write it, handed
    to the stream in pieces rather than as one string."""
    pieces = []
    _json_pieces(obj, "\n", pieces, stream)
    pieces.append("\n")
    stream.writelines(pieces)


def _json_pieces(obj, newline, pieces, stream):
    """Append the indented JSON text of obj, which starts a line whose break
    and indentation are newline, to pieces; every few thousand pieces go to
    the stream.  A list of floats without NaN or infinities is one piece
    (json writes every float with float.__repr__); a dict whose keys are not
    all strings goes to json itself."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        inner = newline + "  "
        try:
            text = ("," + inner).join(map(float.__repr__, obj))
        except TypeError:  # not a list of floats
            text = None
        # float.__repr__ spells NaN and the infinities nan and inf, which
        # json writes as NaN and Infinity: such lists take the general path
        if text is not None and "n" not in text:
            pieces += ("[", inner, text, newline, "]")
            return
        sep = "[" + inner
        for item in obj:
            pieces.append(sep)
            _json_pieces(item, inner, pieces, stream)
            sep = "," + inner
        pieces.append(newline + "]")
        if len(pieces) > 4096:
            stream.writelines(pieces)
            pieces.clear()
    elif isinstance(obj, dict) and obj and all(type(k) is str for k in obj):
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            pieces += (sep, encode_basestring_ascii(key), ": ")
            _json_pieces(obj[key], inner, pieces, stream)
            sep = "," + inner
        pieces.append(newline + "}")
    elif isinstance(obj, dict):
        pieces.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))
    else:
        pieces.append(json.dumps(obj))


def _fmt(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    model, preset = _read_model(args.model)
    report = run_report(model, closed_form=preset)
    if args.json:
        _dump_json(report, sys.stdout)
    else:
        _print_human(report)
    return _report_exit_code(report)


def _print_human(report: dict):
    out = sys.stdout
    val = report.get("validation", {})
    if not val.get("ok", False):
        out.write(f"model invalid: {', '.join(val.get('errors', []))}\n")
        return
    stab = report["stability"]
    out.write(
        f"stability: {'stable' if stab['stable'] else 'UNSTABLE'} "
        f"(abscissa {stab['abscissa']:.6g})\n"
    )
    out.write(
        f"noise form: min eig {report['cz']['min_eig']:.6g} "
        f"({'full rank' if report['cz']['full_rank'] else 'singular'})\n"
    )
    st = report["stationary"]
    if st.get("available"):
        out.write(
            f"invariant state: sigma = {st['sigma']}, "
            f"faithful = {st['faithful']}, det(S+iJ) = {st['det_s_tilde']:.6g}\n"
        )
    gns = report["gns"]
    if gns.get("available"):
        out.write(f"gap (one-sided embedding):  g = {gns['g']:.12g}\n")
    else:
        out.write(f"gap (one-sided embedding):  unavailable ({gns['reason']})\n")
    kms = report["kms"]
    if kms.get("available"):
        out.write(f"gap (split embedding):      g = {kms['g']:.12g}\n")
    else:
        out.write(f"gap (split embedding):      unavailable ({kms['reason']})\n")
    cf = report.get("closed_form")
    if cf and cf.get("available"):
        out.write(
            f"closed forms: g = {cf['g']:.12g}, g_breve = {cf['g_breve']:.12g}, "
            f"sigma = {cf['sigma']:.12g}\n"
        )
    cl = report.get("classical")
    if cl and cl.get("available") and "gap_1d" in cl:
        out.write(f"classical restriction gap:  {cl['gap_1d']:.12g}\n")
    for diag in report.get("diagnostics", []):
        out.write(f"diagnostic [{diag['kind']}]: {diag['message']}\n")


def _cmd_gap(args) -> int:
    model, preset = _read_model(args.model)
    report = run_report(model, closed_form=preset)
    wanted = {"gns": ["gns"], "kms": ["kms"], "both": ["gns", "kms"]}[args.mode]
    out = {key: report[key] for key in wanted}
    out["has_gns_gap"] = report["has_gns_gap"]
    out["schema"] = REPORT_SCHEMA
    _dump_json(out, sys.stdout)
    return _report_exit_code(report)


def _parse_times(text, option):
    """Comma-separated list of finite, non-negative times; blank entries are
    skipped."""
    try:
        times = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise ParseError(f"bad value in {option}: {exc}") from exc
    if not all(np.isfinite(t) and t >= 0 for t in times):
        raise ParseError(f"{option} times must be finite and non-negative")
    return times


def _read_state(path, d):
    """Initial state file {"mean": [[re, im], ...], "cov2d": [[...], ...]} of
    a d-mode state."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        mean = np.asarray([re + 1j * im for re, im in doc["mean"]])
        cov2d = np.asarray(doc["cov2d"], dtype=float)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"bad --s0 state file {path}: {exc}") from exc
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov2d))):
        raise ParseError(f"bad --s0 state file {path}: non-finite entries rejected")
    state = dynamics.GaussianStateParams(mean=mean, cov2d=cov2d)
    if state.dim_d != d:
        raise ParseError(f"bad --s0 state file {path}: {state.dim_d} modes, the model has {d}")
    return state


def _cmd_evolve(args) -> int:
    model = parse_model(args.model)
    dd = build_drift_diffusion(model)
    times = _parse_times(args.t, "--t")
    try:
        st = solve_stationary(dd, model.zeta)
    except GaussGapError:
        # other starts go on without dist_to_stationary
        if args.s0 == "stationary":
            raise
        st = None
    if args.s0 == "vacuum":
        sp = dynamics.GaussianStateParams.vacuum(model.d)
    elif args.s0 == "stationary":
        sp = dynamics.GaussianStateParams(mean=st.mu, cov2d=st.s2d)
    else:
        sp = _read_state(args.s0, model.d)
    states = dynamics.state_evolve(dd, sp, np.array(times), model.zeta)
    rows = []
    for t, mean, cov in zip(times, states.mean, states.cov2d):
        row = {"t": t, "mean": _pairs(mean), "cov2d": cov.tolist()}
        if st is not None:
            # a 2-D norm per row: a norm over a stack sums in another order
            row["dist_to_stationary"] = float(np.linalg.norm(cov - st.s2d))
        rows.append(row)
    _dump_json({"schema": REPORT_SCHEMA, "states": rows}, sys.stdout)
    return 0


def _cmd_decay(args) -> int:
    if args.samples < 0:
        raise ParseError(f"--samples must be non-negative, got {args.samples}")
    model = parse_model(args.model)
    dd = build_drift_diffusion(model)
    require_stable(dd)
    times = _parse_times(args.t_grid, "--t-grid")
    grep = gap.analyze(dd, model.zeta)
    if grep.gns is None:
        raise NotFaithful("decay curves need a faithful invariant state")
    st = grep.stationary
    # the propagators of t = 0 and the grid, once for every sample
    props = dynamics.propagator(dd, np.array([0.0, *times]))
    rng = np.random.default_rng(args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\r\n")
    writer.writerow(
        [
            "sample",
            "t",
            "gns_norm_sq",
            "gns_bound",
            "kms_norm_sq",
            "kms_bound",
        ]
    )
    for s in range(args.samples):
        n_terms = int(rng.integers(1, 4))
        combo = dynamics.WeylCombo(
            coefficients=rng.standard_normal(n_terms)
            + 1j * rng.standard_normal(n_terms),
            vectors=0.5
            * (
                rng.standard_normal((n_terms, model.d))
                + 1j * rng.standard_normal((n_terms, model.d))
            ),
        )
        gns = dynamics.norm_decay_at(st, combo, props, "gns")
        kms = dynamics.norm_decay_at(st, combo, props, "kms")
        for t, gns_t, kms_t in zip(times, gns[1:], kms[1:]):
            writer.writerow(
                [
                    s,
                    _fmt(t),
                    _fmt(gns_t),
                    _fmt(np.exp(-2.0 * grep.gns.g * t) * gns[0]),
                    _fmt(kms_t),
                    _fmt(np.exp(-2.0 * grep.kms.g * t) * kms[0]),
                ]
            )
    return 0


def _sweep_rows(points):
    """CSV rows of the admissible points among the (mu2, lambda2, omega,
    kappa) tuples, in their order.  A failed check raises for the first
    failing point, with its parameters in the message."""
    try:
        return _stacked_rows(points)
    except GaussGapError as exc:
        if exc.index is None:
            raise
        # the stack reports a failing point, not necessarily the first
        _sweep_rows(points[: exc.index])
        mu2, lambda2, omega_h, kappa_h = points[exc.index]
        raise type(exc)(
            f"at mu2={mu2!r}, lambda2={lambda2!r}, omega={omega_h!r}, "
            f"kappa={kappa_h!r}: {exc}"
        ) from exc


def _stacked_rows(points):
    """Evaluate the points as one model stack per jump count (lambda2 = 0
    drops the lambda jump); errors carry the failing point's position in
    points as ``index``."""
    params = np.array(points, dtype=float).reshape(-1, 4)
    found = []
    for group in (params[:, 1] == 0.0, params[:, 1] > 0.0):
        pos = np.flatnonzero(group)
        if not pos.size:
            continue
        try:
            res = gap.analyze_stack(one_dim_family(*params[pos].T))
        except GaussGapError as exc:
            if exc.index is not None:
                exc.index = int(pos[exc.index])
            raise
        found += zip(pos[res.index].tolist(), res.g, res.g_breve, res.sigma[:, 0])
    rows = []
    for i, g, g_breve, sigma in sorted(found):
        try:
            cf = gap.one_dim_closed_forms(*points[i])
        except GaussGapError as exc:
            exc.index = i
            raise
        rows.append((*points[i], g, cf.g, g_breve, cf.g_breve, sigma))
    return rows


def _parse_grid(grid_arg: str) -> dict:
    grid = {}
    for part in grid_arg.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"bad grid component {part!r}; use name=v1,v2,...")
        name, values = part.split("=", 1)
        name = name.strip()
        if name not in DEFAULT_GRID:
            raise ParseError(
                f"unknown grid axis {name!r}; use {', '.join(DEFAULT_GRID)}"
            )
        try:
            grid[name] = [float(v) for v in values.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad value on grid axis {name!r}: {exc}") from exc
        if not np.all(np.isfinite(grid[name])):
            raise ParseError(f"non-finite value on grid axis {name!r}")
    return grid


DEFAULT_GRID = {
    "mu2": [1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
    "lambda2": [0.0, 0.25, 0.5, 0.75, 1.0],
    "omega": [0.0, 1.0, 2.0],
    "kappa": [0.0, 0.5, 1.0],
}


def _cmd_sweep(args) -> int:
    grid = dict(DEFAULT_GRID)
    if args.grid:
        grid.update(_parse_grid(args.grid))
    points = []
    for mu2 in grid["mu2"]:
        for lambda2 in grid["lambda2"]:
            for omega_h in grid["omega"]:
                for kappa_h in grid["kappa"]:
                    if not 0 <= lambda2 < mu2:
                        continue
                    if lambda2 == 0.0 and kappa_h == 0.0:
                        continue  # pure vacuum boundary
                    points.append((mu2, lambda2, omega_h, kappa_h))
    rows = _sweep_rows(points)
    writer = csv.writer(sys.stdout, lineterminator="\r\n")
    writer.writerow(
        [
            "mu2",
            "lambda2",
            "omega",
            "kappa",
            "g",
            "g_closed",
            "g_breve",
            "g_breve_closed",
            "sigma",
        ]
    )
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    return 0


def _cmd_oracle(args) -> int:
    if args.cutoff is None:
        cutoff = 30 if args.check == "gap" else 40
    elif args.cutoff < 1:
        raise ParseError(f"--cutoff must be at least 1, got {args.cutoff}")
    else:
        cutoff = args.cutoff
    model = parse_model(args.model)
    dd = build_drift_diffusion(model)
    require_stable(dd)
    space = fock.build_space(model.d, cutoff)
    out = {"schema": REPORT_SCHEMA, "cutoff": cutoff, "check": args.check}
    if args.check != "gap":
        st = solve_stationary(dd, model.zeta)
        rho = fock.steady_state(fock.build_superoperator(model, space))
    if args.check == "char":
        sp = dynamics.GaussianStateParams(mean=st.mu, cov2d=st.s2d)
        grid = [complex(x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0)]
        errs = []
        for z in grid:
            zz = np.full(model.d, z)
            closed = dynamics.char_fn(sp, zz)
            oracle = fock.oracle_char_fn(space, rho, zz)
            errs.append(abs(closed - oracle))
        out["max_abs_error"] = float(max(errs))
        out["pass"] = bool(max(errs) < 1e-6)
    elif args.check == "kms-trace":
        errs = []
        for z, w in [(1.0, 1.0), (0.5, -0.5), (0.8j, 0.3)]:
            zz = np.full(model.d, z)
            ww = np.full(model.d, w)
            closed = dynamics.kms_weyl_trace(st, zz, ww)
            oracle = fock.oracle_kms_trace(space, rho, zz, ww).real
            errs.append(abs(closed - oracle) / max(abs(closed), 1e-300))
        out["max_rel_error"] = float(max(errs))
        out["pass"] = bool(max(errs) < 1e-6)
    else:  # gap
        grep = gap.analyze(dd, model.zeta)
        g, g_breve = fock.oracle_gap(model, space)
        out["gns"] = {"oracle": g, "closed_form": grep.g}
        out["kms"] = {"oracle": g_breve, "closed_form": grep.g_breve}
        rel = max(
            abs(out["gns"]["oracle"] - out["gns"]["closed_form"])
            / max(out["gns"]["closed_form"], 1e-300),
            abs(out["kms"]["oracle"] - out["kms"]["closed_form"])
            / max(out["kms"]["closed_form"], 1e-300),
        )
        out["max_rel_error"] = float(rel)
        out["pass"] = bool(rel < 0.05)
    _dump_json(out, sys.stdout)
    return 0 if out.get("pass", True) else 2


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ParseError, exit 1 like every other bad
    input; exit 2 means a valid analysis that found no one-sided gap."""

    def error(self, message):
        raise ParseError(message)


def _build_parser():
    parser = _ArgumentParser(
        prog="gaussgap",
        description=(
            "Spectral gaps, invariant states and closed-form dynamics of "
            "Gaussian quantum Markov semigroups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a model file")
    p.add_argument("model")
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gap", help="spectral gap(s) of a model file")
    p.add_argument("model")
    p.add_argument("--mode", choices=["gns", "kms", "both"], default="both")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("evolve", help="evolve Gaussian state parameters")
    p.add_argument("model")
    p.add_argument("--t", required=True, help="comma-separated times")
    p.add_argument(
        "--s0",
        default="vacuum",
        help="initial state: vacuum, stationary, or a JSON file path",
    )
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("decay", help="decay curves for random Weyl combinations")
    p.add_argument("model")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-grid", default="0.05,0.2,0.5,1,3", dest="t_grid")
    p.set_defaults(func=_cmd_decay)

    p = sub.add_parser("sweep", help="CSV sweep over the single-mode family")
    p.add_argument("--preset", choices=["one-dim"], default="one-dim")
    p.add_argument(
        "--grid",
        default="",
        help="grid spec 'mu2=1.5,2;lambda2=0,1;omega=0;kappa=0,0.5'",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="truncated Fock-space cross checks")
    p.add_argument("model")
    p.add_argument(
        "--cutoff",
        type=int,
        help="occupation cutoff (default 40 for trace checks, 30 for gap)",
    )
    p.add_argument("--check", choices=["char", "kms-trace", "gap"], default="char")
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except GaussGapError as exc:
        sys.stderr.write(f"error [{type(exc).code}]: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
