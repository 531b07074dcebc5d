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
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import classical, dynamics, fock, gap
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    GaussGapError,
    NotFaithful,
    ParseError,
    ShapeError,
)
from .model import (
    GklsModel,
    _lambda_jump_kept,
    build_drift_diffusion,
    one_dim_family,
    validate,
)
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
    like a JSON document.  A model of two or more modes imports scipy.linalg
    here, in every command that reads one.
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
            # json reads a number beyond double range, such as 1e400, as inf
            for key, value in zip(("mu2", "lambda2", "omega", "kappa"), params):
                if not np.isfinite(value):
                    raise ParseError(f"bad one_dim preset: {key!r} is not finite")
            return one_dim_family(*params), params
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad one_dim preset: {exc}") from exc
    for key in ("d", "m", "omega", "kappa", "U", "V", "zeta"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    for key in ("d", "m"):
        if type(doc[key]) is not int:  # bool is an int subclass
            raise ParseError(f"{key!r} must be an integer, got {json.dumps(doc[key])}")
    d, m = doc["d"], doc["m"]
    model = GklsModel(
        d=d,
        m=m,
        omega=_as_complex_array(doc["omega"], (d, d), "omega"),
        kappa=_as_complex_array(doc["kappa"], (d, d), "kappa"),
        u_mat=_as_complex_array(doc["U"], (m, d), "U"),
        v_mat=_as_complex_array(doc["V"], (m, d), "V"),
        zeta=_as_complex_array(doc["zeta"], (d,), "zeta"),
    )
    if d > 1:
        # the Lyapunov solve of d >= 2 modes is Bartels-Stewart; imported
        # as the model is read rather than at the solve, scipy.linalg took
        # less CPU in a fresh process (see main)
        import scipy.linalg  # noqa: F401
    return model, None


# ---------------------------------------------------------------------------
# JSON serialization helpers
# ---------------------------------------------------------------------------


def _pairs(a):
    """A complex scalar or array as a float64 array of [re, im] pairs, of
    shape a.shape + (2,)."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1)


def _unavailable(reason):
    return {"available": False, "reason": reason}


def run_report(model: GklsModel, closed_form=None) -> dict:
    """Full analysis of one model as a dict of JSON values and float64
    arrays (complex data as arrays of [re, im] pairs), which _dump_json
    writes as the arrays' tolist(); json.dumps needs
    default=np.ndarray.tolist to write it.

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
        "spectrum": dd.cz_spectrum,
        "min_eig": dd.cz_min_eig,
        "full_rank": dd.kraus_rank_full,
    }
    grep = gap.analyze(dd)
    report["has_gns_gap"] = grep.has_gns_gap
    report["diagnostics"] = [
        {
            "kind": f.kind,
            "message": f.message,
            "case": f.case,
            "eigenvalue": None if f.eigenvalue is None else _pairs(f.eigenvalue),
            "eigenvector": None if f.eigenvector is None else _pairs(f.eigenvector),
            "kernel_vector": None if f.kernel_vector is None else _pairs(f.kernel_vector),
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
            "s2d": st.s2d,
            "det_s_tilde": st.det_s_tilde,
            "sigma": None if np.isnan(st.sigma).any() else st.sigma,
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
                "witness": kms.witness,
                "kbreve_min_eig": kms.form_min_eig,
                "kernel_condition_ok": kms.kernel_condition_ok,
            }
    try:
        ou = classical.restrict_to_ou(model)
        block = {
            "available": True,
            "Q": ou.q_mat,
            "A": ou.a_mat,
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
        except GaussGapError as exc:
            report["closed_form"] = _unavailable(type(exc).code)
    return report


def _report_exit_code(report: dict) -> int:
    if not report.get("validation", {}).get("ok", False):
        return 1
    return 0 if report.get("has_gns_gap") else 2


#: floats that _dump_json formats in one batch, unless one array holds more:
#: a 400-time evolve at d = 8 (109,600 floats) stays below, so one dedup
#: covers it; a longer table is cut into row blocks of at most this many
_FLUSH_FLOATS = 1 << 17
#: rows of a table whose text is made at once: at d = 8 a chunk of evolve
#: states is about 280 kB of text
_TABLE_CHUNK = 32


class _Table:
    """The rows of a table, held as columns: a dict of arrays, one per field
    of a row.  A row's value of a one-dimensional column is its float, of
    any other column a view of its row.  json writes a table through the
    default hook of :func:`_dump_json`."""

    __slots__ = ("columns",)

    def __init__(self, columns):
        self.columns = columns


def _dump_json(obj, stream):
    """Write obj followed by a newline, byte for byte as
    json.dump(obj, stream, sort_keys=True, indent=2, default=np.ndarray.tolist)
    would write it, a :class:`_Table` as its list of row dicts.

    json writes the report with each finite float64 array, and each table
    whose columns all are such arrays of one length, replaced by the
    placeholder "\\0", a table by one placeholder per row block of at most
    _FLUSH_FLOATS floats; every other array is its tolist(), every other
    table its rows.  The arrays are then written in the placeholders'
    places (see :func:`_write_pieces`), indented as the line each
    placeholder sits on, in batches of at most _FLUSH_FLOATS floats or one
    larger array.  A report whose text holds more placeholders than held
    pieces, as when a string or key equals the placeholder, is refused
    before any byte is written."""
    held = []

    def hold(value):
        if type(value) is _Table:
            columns = value.columns
            if len({len(c) for c in columns.values()}) == 1 and all(
                map(_finite_floats, columns.values())
            ):
                names = sorted(columns)
                rows = len(columns[names[0]])
                step = max(1, _FLUSH_FLOATS * rows // sum(c.size for c in columns.values()))
                blocks = range(0, rows, step)
                held.extend((names, [columns[n][i:i + step] for n in names]) for i in blocks)
                return ["\0"] * len(blocks)
            cells = [c.tolist() if c.ndim == 1 else c for c in columns.values()]
            return [dict(zip(columns, row)) for row in zip(*cells)]
        if isinstance(value, np.ndarray) and _finite_floats(value):
            held.append(value)
            return "\0"
        return np.ndarray.tolist(value)

    texts = json.dumps(obj, sort_keys=True, indent=2, default=hold).split(json.dumps("\0"))
    if len(texts) != len(held) + 1:
        raise ConsistencyError("a string of the report holds the JSON writer's placeholder")
    batch, floats = [], 0
    for text, value in zip(texts, held):
        line = text[text.rfind("\n") + 1:]
        newline = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        if type(value) is tuple:
            names, columns = value
            template, seps = _row_layout(names, [c.shape[1:] for c in columns], newline)
            piece = (template, seps, "," + newline, columns)
        else:
            seps = ("," + newline + "  " * value.ndim,)
            piece = (_nest_template(value.shape, newline), seps, "", (value[None],))
        size = sum(c.size for c in piece[3])
        if floats and floats + size > _FLUSH_FLOATS:
            _write_pieces(batch, stream)
            batch, floats = [], 0
        batch += (text, piece)
        floats += size
    batch.append(texts[-1] + "\n")
    _write_pieces(batch, stream)


def _finite_floats(a):
    """Whether a is a nonempty float64 array of at least one dimension with
    no NaN or infinity: float.__repr__ spells them nan and inf, json NaN and
    Infinity."""
    return a.dtype == np.float64 and a.ndim and a.size and np.isfinite(a).all()


def _write_pieces(pieces, stream):
    """Write pieces, strings and (template, seps, joint, columns) tuples, to
    the stream.  Every float is written with float.__repr__, as json does,
    but each distinct float64 bit pattern among the columns (so -0.0 never
    stands in for 0.0) is formatted once: values repeat across the rows of
    a report, and an evolve from the invariant state prints the same
    covariance at every time.  Each piece's text is made as it is
    written."""
    arrays = [c.ravel() for piece in pieces if type(piece) is tuple for c in piece[3]]
    if not arrays:
        stream.writelines(pieces)
        return
    distinct, inverse = np.unique(np.concatenate(arrays).view(np.int64), return_inverse=True)
    reprs = np.array(list(map(float.__repr__, distinct.view(np.float64).tolist())), dtype=object)
    stream.writelines(_filled(pieces, reprs, inverse))


def _filled(pieces, reprs, inverse):
    """The pieces as strings.  A (template, seps, joint, columns) piece is
    its rows joined by joint, their text made _TABLE_CHUNK rows at a time:
    each row is the template filled with its cells' rows along the last
    axis, column after column, a row's entries joined by the column's sep.
    The entries are reprs[inverse], in the order of the pieces and, within
    a piece, column after column."""
    start = 0
    for piece in pieces:
        if type(piece) is not tuple:
            yield piece
            continue
        template, seps, joint, columns = piece
        rows = len(columns[0])
        for first in range(0, rows, _TABLE_CHUNK):
            count = min(_TABLE_CHUNK, rows - first)
            at, cells = start, []
            for sep, column in zip(seps, columns):
                width = column.size // rows
                entries = reprs[inverse[at + first * width:at + (first + count) * width]]
                last = column.shape[-1] if column.ndim > 1 else 1
                cells.append(list(map(sep.join, entries.reshape(-1, last).tolist())))
                at += column.size
            fields = []
            for row in range(count):
                for joined in cells:
                    size = len(joined) // count
                    fields += joined[row * size:(row + 1) * size]
            if first:
                yield joint
            yield joint.join([template] * count) % tuple(fields)
        start = at


def _nest_template(shape, newline):
    """The indented JSON text of a nonempty array of the shape, each of
    whose rows along the last axis is the %-format field %s, for its entries
    joined by "," and their line break and indentation."""
    inner = newline + "  "
    if len(shape) == 1:
        return "[" + inner + "%s" + newline + "]"
    item = _nest_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + newline + "]"


def _row_layout(names, shapes, newline):
    """The template of a table's row, a dict of the sorted names that starts
    a line whose break and indentation are newline, and the sep of each of
    its cells, of the shapes: a float's field is %s, an array's those of
    :func:`_nest_template`."""
    inner = newline + "  "
    fields = [
        encode_basestring_ascii(name).replace("%", "%%") + ": "
        + (_nest_template(shape, inner) if shape else "%s")
        for name, shape in zip(names, shapes)
    ]
    seps = tuple("," + inner + "  " * len(shape) for shape in shapes)
    return "{" + inner + ("," + inner).join(fields) + newline + "}", seps


#: one CSV row of each table: every float with 17 significant digits, so
#: doubles round-trip, and RFC 4180 line ends; no cell needs quoting
_DECAY_ROW = "%d" + ",%.17g" * 5 + "\r\n"
#: samples that decay evaluates as one stack per term count; at d = 8 the
#: kernel products of a block take about 1 MB
_DECAY_BLOCK = 128
_SWEEP_ROW = "%.17g" + ",%.17g" * 8 + "\r\n"


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
        sigma = st["sigma"]
        out.write(
            f"invariant state: sigma = {sigma if sigma is None else sigma.tolist()}, "
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
    if not report["validation"]["ok"]:
        validate(model)  # raises the first failed check; no gaps to print
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
    if not all(math.isfinite(t) and t >= 0 for t in times):
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
    try:
        state = dynamics.GaussianStateParams(mean=mean, cov2d=cov2d)
    except DimensionMismatch as exc:
        raise ParseError(f"bad --s0 state file {path}: {exc}") from exc
    if state.dim_d != d:
        raise ParseError(f"bad --s0 state file {path}: {state.dim_d} modes, the model has {d}")
    return state


def _cmd_evolve(args) -> int:
    model = parse_model(args.model)
    dd = build_drift_diffusion(model)
    times = np.array(_parse_times(args.t, "--t"))
    try:
        st = solve_stationary(dd)
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
    states = dynamics.state_evolve(dd, sp, times)
    columns = {"t": times, "mean": _pairs(states.mean), "cov2d": states.cov2d}
    if st is not None:
        # np.linalg.norm of each row, sqrt(f . f) of its flattened difference
        # f, as one vector product per row: a norm over the whole stack sums
        # in another order
        diff = (states.cov2d - st.s2d).reshape(len(times), 1, st.s2d.size)
        columns["dist_to_stationary"] = np.sqrt(diff @ diff.swapaxes(-1, -2))[:, 0, 0]
    _dump_json({"schema": REPORT_SCHEMA, "states": _Table(columns)}, sys.stdout)
    return 0


def _cmd_decay(args) -> int:
    if args.samples < 0:
        raise ParseError(f"--samples must be non-negative, got {args.samples}")
    if args.seed < 0:
        raise ParseError(f"--seed must be non-negative, got {args.seed}")
    model = parse_model(args.model)
    dd = build_drift_diffusion(model)
    require_stable(dd)
    times = _parse_times(args.t_grid, "--t-grid")
    grep = gap.analyze(dd)
    if grep.gns is None:
        raise NotFaithful("decay curves need a faithful invariant state")
    st = grep.stationary
    # the propagators of t = 0 and the grid and the bounds' factors
    # exp(-2 g t), once for every sample
    grid = np.array([0.0, *times])
    props = dynamics.propagator(dd, grid)
    gns_rate = np.exp(-2.0 * grep.gns.g * grid[1:])
    kms_rate = np.exp(-2.0 * grep.kms.g * grid[1:])
    rng = np.random.default_rng(args.seed)
    out = sys.stdout
    out.write("sample,t,gns_norm_sq,gns_bound,kms_norm_sq,kms_bound\r\n")
    # fixed blocks keep memory flat in --samples
    for first in range(0, args.samples, _DECAY_BLOCK):
        draws = [
            _draw_combo(rng, model.d)
            for _ in range(min(_DECAY_BLOCK, args.samples - first))
        ]
        _write_decay_rows(out, st, props, (gns_rate, kms_rate), times, first, draws)
    return 0


def _draw_combo(rng, d):
    """The coefficients and vectors of one random Weyl combination of 1 to 3
    terms, in decay's draw order."""
    n_terms = int(rng.integers(1, 4))
    coefficients = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    vectors = 0.5 * (
        rng.standard_normal((n_terms, d)) + 1j * rng.standard_normal((n_terms, d))
    )
    return coefficients, vectors


def _decay_norms(st, props, draws):
    """The (2, len(draws), len(props)) norms of the drawn combinations in
    the one-sided and the split embedding, from one norm_decay call per
    term count and embedding; errors carry the failing draw's position as
    ``index``."""
    norms = np.empty((2, len(draws), len(props)))
    terms = np.array([len(coefficients) for coefficients, _ in draws])
    for n_terms in np.unique(terms):
        pos = np.flatnonzero(terms == n_terms)
        combo = dynamics.WeylCombo(
            coefficients=np.stack([draws[i][0] for i in pos]),
            vectors=np.stack([draws[i][1] for i in pos]),
        )
        for k, mode in enumerate(("gns", "kms")):
            try:
                norms[k, pos] = dynamics.norm_decay(st, combo, props, mode)
            except GaussGapError as exc:
                if exc.index is not None:
                    exc.index = int(pos[exc.index])
                raise
    return norms


def _write_decay_rows(out, st, props, rates, times, first, draws):
    """Write the decay rows of the drawn combinations, numbered from first.
    A failing combination raises the error of a call on it alone, after the
    rows of every combination before it."""
    try:
        gns, kms = _decay_norms(st, props, draws)
    except GaussGapError as exc:
        if exc.index is None:
            raise
        # the stacks report a failing draw, not necessarily the first
        _write_decay_rows(out, st, props, rates, times, first, draws[: exc.index])
        _decay_norms(st, props, draws[exc.index : exc.index + 1])
        raise
    gns_rate, kms_rate = rates
    table = zip(
        np.arange(first, first + len(draws)).repeat(len(times)).tolist(),
        times * len(draws),
        gns[:, 1:].ravel().tolist(),
        (gns_rate * gns[:, :1]).ravel().tolist(),
        kms[:, 1:].ravel().tolist(),
        (kms_rate * kms[:, :1]).ravel().tolist(),
    )
    out.writelines(map(_DECAY_ROW.__mod__, table))


def _sweep_rows(points):
    """The (N, 9) table of the admissible points among the (mu2, lambda2,
    omega, kappa) tuples, in their order.  A failed check raises for the
    first failing point, with its parameters in the message."""
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
    """Evaluate the points as one model stack per jump count (the family
    drops the lambda jump where validation would call it dependent), and
    their closed forms as one more stack; errors carry the failing point's
    position in points as ``index``."""
    params = np.array(points, dtype=float).reshape(-1, 4)
    index, gaps = [np.empty(0, dtype=int)], [np.empty((0, 3))]
    kept = _lambda_jump_kept(params[:, 0], params[:, 1])
    for group in (~kept, kept):
        pos = np.flatnonzero(group)
        if not pos.size:
            continue
        try:
            res = gap.analyze_stack(one_dim_family(*params[pos].T))
        except GaussGapError as exc:
            if exc.index is not None:
                exc.index = int(pos[exc.index])
            raise
        index.append(pos[res.index])
        gaps.append(np.column_stack([res.g, res.g_breve, res.sigma[:, 0]]))
    index, gaps = np.concatenate(index), np.concatenate(gaps)
    order = np.argsort(index)
    index = index[order]
    g, g_breve, sigma = gaps[order].T
    try:
        cf = gap.one_dim_closed_forms(*params[index].T)
    except GaussGapError as exc:
        exc.index = int(index[exc.index])
        raise
    return np.column_stack([params[index], g, cf.g, g_breve, cf.g_breve, sigma])


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
        if name in grid:
            raise ParseError(f"grid axis {name!r} given twice")
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
    out = sys.stdout
    out.write("mu2,lambda2,omega,kappa,g,g_closed,g_breve,g_breve_closed,sigma\r\n")
    out.writelines(map(_SWEEP_ROW.__mod__, map(tuple, rows.tolist())))
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
        st = solve_stationary(dd)
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
        grep = gap.analyze(dd)
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


@functools.cache
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
        if args.func is _cmd_oracle:
            # the Fock oracle imports scipy.linalg on first use on every
            # valid model; the same import made at command start took less
            # CPU in a fresh process than made at first use (same modules
            # and calls, fewer page faults)
            import scipy.linalg  # noqa: F401
        return args.func(args)
    except GaussGapError as exc:
        sys.stderr.write(f"error [{type(exc).code}]: {exc}\n")
        return 1
    except BrokenPipeError:
        # the reader closed stdout; what is still buffered goes to devnull,
        # so that the interpreter's last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write("error [BrokenPipe]: standard output was closed\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
