"""Model file parsing, report content, determinism and CSV output."""

import csv
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_stable_faithful
import gaussgap
from gaussgap import cli, dynamics, fock, gap
from gaussgap.cli import main, parse_model, run_report
from gaussgap.dynamics import WeylCombo, norm_decay, propagator
from gaussgap.errors import (
    ConsistencyError,
    GaussGapError,
    ParseError,
    RangeExceeded,
    ShapeError,
)
from gaussgap.model import build_drift_diffusion, one_dim_family
from gaussgap.stationary import solve_stationary

MODEL_A_JSON = json.dumps(
    {
        "version": 1,
        "d": 1,
        "m": 2,
        "omega": [[[0.0, 0.0]]],
        "kappa": [[[0.0, 0.0]]],
        "U": [[[0.0, 0.0]], [[1.0, 0.0]]],
        "V": [[[np.sqrt(3.0), 0.0]], [[0.0, 0.0]]],
        "zeta": [[0.0, 0.0]],
    }
)


def _model_json(omega, kappa, u_mat, v_mat):
    """Model file text of real coefficient matrices, with no drive."""
    def pairs(mat):
        return [[[x, 0.0] for x in row] for row in mat]

    d = len(omega)
    return json.dumps({
        "version": 1, "d": d, "m": len(u_mat), "omega": pairs(omega),
        "kappa": pairs(kappa), "U": pairs(u_mat), "V": pairs(v_mat),
        "zeta": [[0.0, 0.0]] * d,
    })


#: one model per failed validation check, keyed by its error code
INVALID_MODELS = {
    "NotHermitian": json.dumps({
        "version": 1, "d": 1, "m": 1, "omega": [[[0.0, 1.0]]], "kappa": [[[0.0, 0.0]]],
        "U": [[[0.0, 0.0]]], "V": [[[1.0, 0.0]]], "zeta": [[0.0, 0.0]],
    }),
    "NotSymmetric": _model_json([[0, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0]], [[1, 0]]),
    "DimensionMismatch": _model_json([[0]], [[0]], [[0], [1], [0]], [[1], [0], [1]]),
    "DependentKraus": _model_json([[0]], [[0]], [[0], [0]], [[1], [2]]),
}

MODEL_B_PRESET = json.dumps(
    {"version": 1, "one_dim": {"mu2": 3.0, "lambda2": 1.0, "omega": 2.0, "kappa": 1.0}}
)

MODEL_C_PRESET = json.dumps(
    {"version": 1, "one_dim": {"mu2": 2.0, "lambda2": 0.0, "omega": 2.0, "kappa": 1.0}}
)

#: stable, with a covariance too ill-conditioned for the Williamson
#: decomposition: the report's sigma is None and the state is not faithful
ILL_CONDITIONED_PRESET = json.dumps(
    {"version": 1, "one_dim": {"mu2": 3.0, "lambda2": 1.0, "omega": 1e9, "kappa": 1e9}}
)

PUMP_JSON = json.dumps(
    {
        "version": 1,
        "d": 1,
        "m": 1,
        "omega": [[[0.0, 0.0]]],
        "kappa": [[[0.0, 0.0]]],
        "U": [[[1.0, 0.0]]],
        "V": [[[0.0, 0.0]]],
        "zeta": [[0.0, 0.0]],
    }
)


#: two coupled, squeezed, thermally damped modes with a linear drive
DRIVEN_D2_JSON = json.dumps(
    {
        "version": 1,
        "d": 2,
        "m": 4,
        "omega": [[[1.0, 0.0], [0.3, 0.1]], [[0.3, -0.1], [2.0, 0.0]]],
        "kappa": [[[0.2, 0.0], [0.1, 0.05]], [[0.1, 0.05], [0.0, 0.0]]],
        "U": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
              [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8, 0.0]]],
        "V": [[[np.sqrt(3.0), 0.0], [0.0, 0.0]], [[0.0, 0.0], [np.sqrt(2.5), 0.0]],
              [[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "zeta": [[1.5, 0.5], [-0.25, 1.0]],
    }
)


class TestParse:
    def test_explicit_model(self):
        model = parse_model(MODEL_A_JSON)
        assert model.d == 1 and model.m == 2
        assert model.v_mat[0, 0] == pytest.approx(np.sqrt(3.0))

    def test_preset_expansion(self):
        model = parse_model(MODEL_B_PRESET)
        # jumps mu a and lambda adag, Hamiltonian coefficients carried over
        assert model.m == 2
        assert model.v_mat[0, 0] == pytest.approx(np.sqrt(3.0))
        assert model.u_mat[1, 0] == pytest.approx(1.0)
        assert model.omega[0, 0] == 2.0
        assert model.kappa[0, 0] == 1.0

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_model("")

    def test_bad_json_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_model("{\n  \"version\": 1,,\n}")

    def test_shape_mismatch(self):
        doc = json.loads(MODEL_A_JSON)
        doc["U"] = [[[0.0, 0.0]]]  # one row instead of two
        with pytest.raises(ShapeError):
            parse_model(json.dumps(doc))

    def test_nan_rejected(self):
        text = MODEL_A_JSON.replace("[0.0, 0.0]], [[1.0", "[NaN, 0.0]], [[1.0")
        with pytest.raises((ParseError, ShapeError)):
            parse_model(text)

    @pytest.mark.parametrize(
        "key, text",
        [("mu2", "1e400"), ("lambda2", "-1e400"), ("omega", "1e999"), ("kappa", '"nan"')],
    )
    def test_preset_values_must_be_finite(self, capsys, key, text):
        # json reads 1e400 as inf
        values = {"mu2": "3", "lambda2": "1", "omega": "2", "kappa": "1", key: text}
        cells = ", ".join(f'"{name}": {value}' for name, value in values.items())
        doc = '{"version": 1, "one_dim": {' + cells + "}}"
        assert main(["analyze", doc]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error [ParseError]: bad one_dim preset: {key!r} is not finite\n"

    def test_missing_path_reported(self):
        with pytest.raises(ParseError, match="model file not found: no/such/model.json"):
            parse_model("no/such/model.json")

    def test_version_required(self):
        with pytest.raises(ParseError):
            parse_model(json.dumps({"one_dim": {"mu2": 2, "lambda2": 0}}))

    def test_file_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(MODEL_A_JSON)
        model = parse_model(path)
        assert model.d == 1

    def test_parse_report_round_trip(self):
        # the model echo in a report parses back to the same model
        model = parse_model(MODEL_B_PRESET)
        echo = run_report(model)["model"]
        doc = {
            "version": 1,
            "d": echo["d"],
            "m": echo["m"],
            "omega": echo["omega"],
            "kappa": echo["kappa"],
            "U": echo["U"],
            "V": echo["V"],
            "zeta": echo["zeta"],
        }
        again = parse_model(json.dumps(doc, default=np.ndarray.tolist))
        assert np.array_equal(again.u_mat, model.u_mat)
        assert np.array_equal(again.v_mat, model.v_mat)
        assert np.array_equal(again.omega, model.omega)
        assert np.array_equal(again.kappa, model.kappa)
        assert np.array_equal(again.zeta, model.zeta)


class TestRunReport:
    def test_model_b_report(self):
        report = run_report(parse_model(MODEL_B_PRESET), closed_form=(3, 1, 2, 1))
        assert report["validation"]["ok"]
        assert report["stability"]["stable"]
        assert report["stationary"]["faithful"]
        assert report["gns"]["g"] == pytest.approx(0.5, abs=1e-12)
        assert report["kms"]["g"] == pytest.approx(1 - 1 / np.sqrt(5), abs=1e-12)
        assert report["stationary"]["sigma"][0] == pytest.approx(np.sqrt(5), abs=1e-12)
        assert report["closed_form"]["g"] == pytest.approx(0.5, abs=1e-14)
        assert report["has_gns_gap"]

    def test_model_c_report(self):
        report = run_report(parse_model(MODEL_C_PRESET))
        assert not report["has_gns_gap"]
        assert report["gns"]["g"] == 0.0
        assert report["kms"]["g"] == pytest.approx(1 - 1 / np.sqrt(5), abs=1e-10)
        kinds = [d["kind"] for d in report["diagnostics"]]
        assert "CZKernel" in kinds

    def test_pump_report(self):
        report = run_report(parse_model(PUMP_JSON))
        assert not report["stability"]["stable"]
        assert report["stationary"] == {"available": False, "reason": "Unstable"}
        diag = report["diagnostics"][0]
        assert diag["kind"] == "Unstable"
        assert diag["case"] == 2


class TestMain:
    def test_analyze_json_deterministic(self, capsys):
        code1 = main(["analyze", MODEL_B_PRESET, "--json"])
        out1 = capsys.readouterr().out
        code2 = main(["analyze", MODEL_B_PRESET, "--json"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["schema"] == "gaussgap.report/1"

    @pytest.mark.parametrize(
        "model, code, expected",
        [
            (
                MODEL_B_PRESET,
                0,
                "stability: stable (abscissa -1)\n"
                "noise form: min eig 2 (full rank)\n"
                "invariant state: sigma = [2.2360679774997894], faithful = True, "
                "det(S+iJ) = 4\n"
                "gap (one-sided embedding):  g = 0.5\n"
                "gap (split embedding):      g = 0.5527864045\n"
                "closed forms: g = 0.5, g_breve = 0.5527864045, sigma = 2.2360679775\n",
            ),
            (
                ILL_CONDITIONED_PRESET,
                2,
                "stability: stable (abscissa -1)\n"
                "noise form: min eig 2 (full rank)\n"
                "invariant state: sigma = None, faithful = False, det(S+iJ) = 4e+18\n"
                "gap (one-sided embedding):  unavailable (NotFaithful)\n"
                "gap (split embedding):      unavailable (NotFaithful)\n"
                "diagnostic [NotFaithful]: invariant state is not faithful; "
                "embeddings undefined\n",
            ),
        ],
        ids=["model-b", "ill-conditioned"],
    )
    def test_human_report_bytes(self, capsys, model, code, expected):
        assert main(["analyze", model]) == code
        assert capsys.readouterr().out == expected

    def test_exit_code_two_on_no_gap(self, capsys):
        assert main(["analyze", MODEL_C_PRESET]) == 2
        capsys.readouterr()
        assert main(["analyze", PUMP_JSON]) == 2
        capsys.readouterr()

    def test_exit_code_one_on_error(self, capsys):
        assert main(["analyze", "{"]) == 1
        err = capsys.readouterr().err
        assert "ParseError" in err

    @pytest.mark.parametrize("code", sorted(INVALID_MODELS))
    @pytest.mark.parametrize("mode", ["gns", "kms", "both"])
    def test_gap_on_invalid_model(self, capsys, code, mode):
        # an invalid model's report has no gaps: the command ends in the
        # first failed check, as evolve and decay do
        assert main(["gap", INVALID_MODELS[code], "--mode", mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error [{code}]: ")
        assert captured.err.count("\n") == 1

    def test_missing_model_file(self, capsys, tmp_path):
        path = str(tmp_path / "nonexistent.json")
        assert main(["analyze", path]) == 1
        err = capsys.readouterr().err
        assert err == f"error [ParseError]: model file not found: {path}\n"

    def test_faithfulness_boundary_walk(self, capsys):
        # Toward the pure boundary (lambda = 0, kappa -> 0) sigma - 1 falls to
        # ~1e-13 and S + iJ turns singular; toward the stability boundary
        # (kappa^2 -> gamma^2 + omega^2) the decay rate falls to ~1e-11 and S
        # grows ill-conditioned.  No point may end as an error: a state called
        # faithful gets its gaps, every other point a diagnostic.
        walk = [(3.0, 0.0, 2.0, k) for k in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]]
        walk += [(3.0, 1.0, 0.0, 1.0 - 10.0**-e) for e in range(1, 14)]
        walk += [(3.0, 1.0, 2.0, np.sqrt(5.0) - 10.0**-e) for e in range(1, 14)]
        # stable drifts whose covariances (condition 4e16 to 4e22) have no
        # root at ROOT_MARGIN: no Williamson data, so no faithful state either
        ill_conditioned = [(3.0, 1.0, w, w) for w in (1e8, 1e9, 1e10, 1e11)]
        walk += ill_conditioned
        for params in walk:
            doc = json.dumps(
                {"version": 1, "one_dim": dict(zip(("mu2", "lambda2", "omega", "kappa"), params))}
            )
            code = main(["analyze", doc, "--json"])
            report = json.loads(capsys.readouterr().out)
            assert main(["analyze", doc]) == code, params
            human = capsys.readouterr()
            assert code in (0, 2) and human.err == "", params
            kinds = [d["kind"] for d in report["diagnostics"]]
            if not report["stationary"]["available"]:
                assert "Unstable" in kinds, params
                continue
            faithful = report["stationary"]["faithful"]
            assert faithful == report["gns"]["available"] == report["kms"]["available"], params
            if not faithful:
                assert "NotFaithful" in kinds, params
                assert "diagnostic [NotFaithful]" in human.out, params
            if params in [(3.0, 0.0, 2.0, 1e-2), (3.0, 0.0, 2.0, 1e-6)]:
                # the first keeps its gap; the second is the near-pure preset
                assert faithful == (params[3] == 1e-2), params
            if params in ill_conditioned:
                assert code == 2 and not faithful, params
                assert report["stationary"]["sigma"] is None, params

    def test_tiny_lambda2_preset_gets_a_report(self, capsys):
        # lambda2 below about 1e-20 mu2 drops the jump: the report of the
        # lambda2 = 0 model, with g = 0, as for lambda2 = 1e-19
        for lambda2 in (1e-21, 1e-19):
            preset = json.dumps({"version": 1, "one_dim": {"mu2": 3, "lambda2": lambda2,
                                                           "omega": 2, "kappa": 1}})
            assert main(["analyze", preset]) == 2
            captured = capsys.readouterr()
            assert captured.err == ""
            assert "gap (one-sided embedding):  g = 0\n" in captured.out
            assert "diagnostic [CZKernel]" in captured.out

    def test_decay_on_unstable_model(self, capsys):
        assert main(["decay", PUMP_JSON, "--samples", "1"]) == 1
        assert capsys.readouterr().err.startswith("error [Unstable]: drift has spectral abscissa")

    def test_decay_on_model_without_faithful_state(self, capsys):
        doc = json.dumps(
            {"version": 1, "one_dim": {"mu2": 3, "lambda2": 0, "omega": 2, "kappa": 1e-6}}
        )
        assert main(["decay", doc, "--samples", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error [NotFaithful]: decay curves need a faithful invariant state\n"
        )

    @pytest.mark.parametrize("seed", [4, 11])
    def test_decay_bytes_match_single_time_norms(self, capsys, seed):
        # the command evaluates each block of samples over its whole grid at
        # once; the reference takes one norm_decay call per (sample, t, mode)
        grid = "0.05,0.3,1,2.5"
        assert main(
            ["decay", MODEL_B_PRESET, "--samples", "6", "--seed", str(seed), "--t-grid", grid]
        ) == 0
        out = capsys.readouterr().out
        assert (out, None) == _decay_reference(MODEL_B_PRESET, 6, seed, grid)

    def test_decay_runs_through_norm_decay(self, capsys, monkeypatch):
        # the command's kernel is the public norm_decay, so a tracer that
        # wraps that name sees every decay evaluation
        calls = []
        public = dynamics.norm_decay

        def counting(*args, **kwargs):
            calls.append(None)
            return public(*args, **kwargs)

        monkeypatch.setattr(dynamics, "norm_decay", counting)
        assert main(["decay", MODEL_B_PRESET, "--samples", "5"]) == 0
        assert len(calls) > 0
        out = capsys.readouterr().out
        assert (out, None) == _decay_reference(MODEL_B_PRESET, 5, 0, "0.05,0.2,0.5,1,3")

    def test_decay_failure_partway_keeps_earlier_rows(self, capsys):
        # sample 2 leaves the exp() envelope: the rows of samples 0 and 1
        # come out, then the error of the per-sample reference
        preset = json.dumps(
            {"version": 1, "one_dim": {"mu2": 3, "lambda2": 2.99, "omega": 1, "kappa": 0}}
        )
        argv = ["decay", preset, "--samples", "20", "--seed", "1", "--t-grid", "0.1,1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        expected, error = _decay_reference(preset, 20, 1, "0.1,1")
        assert type(error) is RangeExceeded
        assert captured.out == expected
        assert captured.out.count("\r\n") == 1 + 2 * 2
        assert captured.err == f"error [RangeExceeded]: {error}\n"

    def test_gap_command_modes(self, capsys):
        assert main(["gap", MODEL_B_PRESET, "--mode", "gns"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "gns" in payload and "kms" not in payload

    def test_evolve_command(self, capsys):
        assert main(["evolve", MODEL_B_PRESET, "--t", "0.0,0.5,2.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["states"]) == 3
        d0 = payload["states"][0]["dist_to_stationary"]
        d2 = payload["states"][2]["dist_to_stationary"]
        assert d2 < d0

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("start", ["vacuum", "stationary"])
    def test_evolve_distance_is_the_norm_of_each_row(self, capsys, d, start):
        # the stacked distances equal np.linalg.norm of each row bit for bit;
        # json writes each double so that it reads back exactly
        doc = _mixed_model(d)
        s2d = solve_stationary(build_drift_diffusion(parse_model(doc))).s2d
        times = ",".join(repr(0.01 * k) for k in range(400))
        assert main(["evolve", doc, "--t", times, "--s0", start]) == 0
        states = json.loads(capsys.readouterr().out)["states"]
        assert len(states) == 400
        for state in states:
            norm = float(np.linalg.norm(np.array(state["cov2d"]) - s2d))
            assert state["dist_to_stationary"] == norm

    def test_evolve_without_times_prints_no_states(self, capsys):
        assert main(["evolve", MODEL_B_PRESET, "--t", ","]) == 0
        assert json.loads(capsys.readouterr().out)["states"] == []

    def test_evolve_from_state_file(self, capsys, tmp_path):
        state = {"mean": [[0.1, 0.0]], "cov2d": [[1.5, 0.0], [0.0, 1.2]]}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        assert main(["evolve", MODEL_B_PRESET, "--t", "0.4", "--s0", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["states"]) == 1

    def test_decay_command(self, capsys):
        assert main(
            ["decay", MODEL_B_PRESET, "--samples", "3", "--seed", "7", "--t-grid", "0.1,1"]
        ) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "sample", "t", "gns_norm_sq", "gns_bound", "kms_norm_sq", "kms_bound",
        ]
        assert len(rows) == 1 + 3 * 2
        for row in rows[1:]:
            assert float(row[2]) <= float(row[3]) * (1 + 1e-9)
            assert float(row[4]) <= float(row[5]) * (1 + 1e-9)

    def test_evolve_stays_stationary_at_long_times(self, capsys):
        # drift rates 1.95 and 0.05: the block-exponential gramian was 15 %
        # off at t = 20 and broke the uncertainty bound at t = 25
        doc = json.dumps(
            {"version": 1, "one_dim": {"mu2": 3, "lambda2": 1, "omega": 0, "kappa": 0.95}}
        )
        assert main(["evolve", doc, "--t", "10,20,25,50", "--s0", "stationary"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        states = json.loads(captured.out)["states"]
        assert [s["t"] for s in states] == [10.0, 20.0, 25.0, 50.0]
        for s in states:
            cov = np.array(s["cov2d"])
            assert np.allclose(np.diag(cov), 800.0 / 39.0, rtol=0, atol=1e-9), s["t"]
            assert s["dist_to_stationary"] <= 1e-9

    def test_decay_grid_with_zero_time(self, capsys):
        # the grid's propagators come from one stacked exponential; t = 0
        # gives the initial norms exactly
        assert main(
            ["decay", MODEL_B_PRESET, "--samples", "2", "--seed", "3", "--t-grid", "0,0.4"]
        ) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert len(rows) == 4
        for row in rows[::2]:
            assert row[2] == row[3] and row[4] == row[5]

    def test_parser_built_once(self, capsys):
        argvs = [
            ["analyze", MODEL_B_PRESET],
            ["gap", MODEL_B_PRESET, "--mode", "bogus"],
            ["decay", MODEL_B_PRESET, "--samples", "2", "--t-grid", "0.5"],
            ["evolve", MODEL_B_PRESET, "--t", "0.5,1"],
            ["sweep", "--grid", "mu2=3;lambda2=1;omega=0,2;kappa=0"],
            ["gap", MODEL_B_PRESET, "--mode", "kms"],
        ]
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append((main(argv), capsys.readouterr()))
        cli._build_parser.cache_clear()
        reused = [(main(argv), capsys.readouterr()) for argv in argvs]
        assert cli._build_parser.cache_info().misses == 1
        assert reused == fresh
        assert fresh[1][0] == 1 and "invalid choice" in fresh[1][1].err

    def test_decay_deterministic_given_seed(self, capsys):
        main(["decay", MODEL_B_PRESET, "--samples", "2", "--seed", "3"])
        out1 = capsys.readouterr().out
        main(["decay", MODEL_B_PRESET, "--samples", "2", "--seed", "3"])
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_sweep_closed_form_parity(self, capsys):
        assert main(
            [
                "sweep",
                "--grid",
                "mu2=2.0,3.0;lambda2=0.5,1.0;omega=0.0,2.0;kappa=0.0,1.0",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "\r\n" in out  # RFC 4180 line endings
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows[0], rows[1:]
        assert header[:4] == ["mu2", "lambda2", "omega", "kappa"]
        assert data
        g_idx, gc_idx = header.index("g"), header.index("g_closed")
        gb_idx, gbc_idx = header.index("g_breve"), header.index("g_breve_closed")
        for row in data:
            assert abs(float(row[g_idx]) - float(row[gc_idx])) <= 1e-10
            assert abs(float(row[gb_idx]) - float(row[gbc_idx])) <= 1e-10

    def test_sweep_default_grid_parity(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        header, data = rows[0], rows[1:]
        assert len(data) > 100  # admissible portion of the default grid
        g_idx, gc_idx = header.index("g"), header.index("g_closed")
        worst = max(abs(float(r[g_idx]) - float(r[gc_idx])) for r in data)
        assert worst <= 1e-10

    def test_sweep_skips_points_past_stability_threshold(self, capsys):
        # gamma^2 - kappa^2 = 2e-12 passes an absolute 1e-12 test, but the
        # drift's abscissa -1e-12 is not below its relative threshold -2e-12
        grid = "mu2=3;lambda2=1;omega=0;kappa=0.999999999999,0.5"
        assert main(["sweep", "--grid", grid]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert [row[3] for row in rows[1:]] == ["0.5"]

    def test_sweep_skips_unfaithful_points(self, capsys):
        # kappa = 1e-6 at lambda = 0 is stable, but sigma - 1 ~ 1e-13: the
        # state is not faithful and the point has no gaps
        grid = "mu2=3;lambda2=0;omega=2;kappa=1e-6,0.5"
        assert main(["sweep", "--grid", grid]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert [row[3] for row in rows[1:]] == ["0.5"]

    def test_sweep_walks_lambda_to_zero(self, capsys):
        # lambda -> 0 at kappa != 0: below about 1e-20 mu2 the family drops
        # the lambda jump, which validation would call dependent, so those
        # points are the lambda2 = 0 model
        lambdas = ",".join(f"1e-{e}" for e in range(1, 320, 3))
        assert main(["sweep", "--grid", f"mu2=3;lambda2={lambdas};omega=2;kappa=1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))[1:]
        assert len(rows) == 107
        for row in rows:
            g, g_closed, g_breve, g_breve_closed = map(float, row[4:8])
            assert abs(g - g_closed) <= 1e-9 and abs(g_breve - g_breve_closed) <= 1e-15
        assert main(["sweep", "--grid", "mu2=3;lambda2=0;omega=2;kappa=1"]) == 0
        zero = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1]
        dropped = [row for row in rows if float(row[1]) < 3e-20]
        assert len(dropped) == 100
        for row in dropped:
            # g, g_breve and sigma
            assert row[4::2] == zero[4::2]

    def test_sweep_walks_gamma_to_zero(self, capsys):
        # lambda2 -> mu2: gamma = 1.5e-e; past e = 12 the drift is no longer
        # stable at the relative threshold, and kappa = 1 > gamma needs omega
        lambdas = ",".join(repr(3 * (1 - 10.0**-e)) for e in range(1, 17))
        grid = f"mu2=3;lambda2={lambdas};omega=0,2;kappa=0,1"
        assert main(["sweep", "--grid", grid]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))[1:]
        assert len(rows) == 34
        for row in rows:
            g, g_closed, g_breve, g_breve_closed = map(float, row[4:8])
            assert 0 < g and abs(g - g_closed) <= 1e-14
            assert abs(g_breve - g_breve_closed) <= 1e-14

    def test_sweep_unknown_axis(self, capsys):
        assert main(["sweep", "--grid", "foo=1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [ParseError]: unknown grid axis 'foo'")

    def test_sweep_repeated_axis(self, capsys):
        # a repeated axis is refused, not merged or overwritten
        assert main(["sweep", "--grid", "mu2=3;mu2=4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error [ParseError]: grid axis 'mu2' given twice\n"

    def test_sweep_non_finite_value(self, capsys):
        assert main(["sweep", "--grid", "mu2=3,nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error [ParseError]: non-finite value on grid axis 'mu2'\n"

    def test_csv_round_trips_doubles(self, capsys):
        main(["sweep", "--grid", "mu2=3.0;lambda2=1.0;omega=2.0;kappa=1.0"])
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))
        g = float(rows[1][rows[0].index("g_breve_closed")])
        assert g == 1 - 1 / np.sqrt(5)  # exact round trip through 17 digits

    def test_oracle_char_command(self, capsys):
        assert main(["oracle", MODEL_A_JSON, "--cutoff", "30", "--check", "char"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"]
        assert payload["max_abs_error"] < 1e-6

    def test_oracle_gap_command(self, capsys):
        assert main(["oracle", MODEL_A_JSON, "--cutoff", "25", "--check", "gap"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"]
        assert payload["cutoff"] == 25

    def test_oracle_gap_solves_stationary_once(self, capsys, monkeypatch):
        calls = []

        def counting(dd):
            calls.append(dd)
            return solve_stationary(dd)

        monkeypatch.setattr(cli, "solve_stationary", counting)
        monkeypatch.setattr(gap, "solve_stationary", counting)
        assert main(["oracle", MODEL_A_JSON, "--cutoff", "10", "--check", "gap"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]
        assert len(calls) == 1

    def test_oracle_gap_on_pure_vacuum(self, capsys):
        vacuum = json.dumps(
            {"version": 1, "one_dim": {"mu2": 2, "lambda2": 0, "omega": 0, "kappa": 0}}
        )
        assert main(["oracle", vacuum, "--check", "gap", "--cutoff", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [OutsideEnvelope]: ")

    def test_oracle_gap_on_driven_model(self, capsys):
        # thermal jumps with a drive: the invariant state is displaced, so
        # not number-diagonal, and the gap oracle's weights do not apply
        driven = json.dumps(
            {
                "version": 1, "d": 1, "m": 2,
                "omega": [[[2.0, 0.0]]], "kappa": [[[0.0, 0.0]]],
                "U": [[[0.0, 0.0]], [[np.sqrt(0.6), 0.0]]],
                "V": [[[np.sqrt(3.2), 0.0]], [[0.0, 0.0]]],
                "zeta": [[1.5, 0.5]],
            }
        )
        assert main(["oracle", driven, "--check", "gap", "--cutoff", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [OutsideEnvelope]: gap oracle requires zeta = 0")

    def test_oracle_gap_near_pure_vacuum(self, capsys):
        # the split weight sqrt(p_l p_m) underflows at the top levels; the
        # fourth-root weights keep every entry finite and g exact
        near = json.dumps(
            {"version": 1, "one_dim": {"mu2": 2, "lambda2": 1e-8, "omega": 0, "kappa": 0}}
        )
        assert main(["oracle", near, "--check", "gap", "--cutoff", "25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"]
        for block in ("gns", "kms"):
            assert payload[block]["oracle"] == pytest.approx(1 - 5e-9, rel=1e-13)

    def test_oracle_gap_underflowing_populations(self, capsys):
        # the top thermal populations (q^n, q ~ 5e-15) underflow to zero
        cold = json.dumps(
            {"version": 1, "one_dim": {"mu2": 2, "lambda2": 1e-14, "omega": 0, "kappa": 0}}
        )
        assert main(["oracle", cold, "--check", "gap", "--cutoff", "25"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error [OutsideEnvelope]: gap oracle requires thermal populations"
        )

    def test_oracle_refuses_a_large_space_before_allocating(self, capsys):
        # two modes at cutoff 30 make dimension 961: one mode operator alone
        # would take 14.8 MB; the refusal comes first
        import scipy.linalg  # noqa: F401  (main imports it for every oracle command)

        tracemalloc.start()
        try:
            code = main(["oracle", DRIVEN_D2_JSON, "--check", "char", "--cutoff", "30"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error [DimensionTooLarge]: truncated dimension 961 exceeds the "
            "superoperator cap 64\n"
        )
        assert peak < 2e6

    @pytest.mark.parametrize("check", ["char", "kms-trace"])
    def test_oracle_degenerate_steady_state(self, capsys, monkeypatch, check):
        # a truncated generator whose kernel has dimension two or more (here
        # the closed system of the model's Hamiltonian) has no unique steady
        # state: the square solve is singular
        def closed_system(model, space):
            h = fock.build_hamiltonian(model, space)
            eye = np.eye(space.dim)
            comm = np.kron(eye, h) - np.kron(h.T, eye)
            return fock.Superoperator(space=space, predual=-1j * comm, heisenberg=1j * comm)

        monkeypatch.setattr(fock, "build_superoperator", closed_system)
        assert main(["oracle", MODEL_B_PRESET, "--check", check, "--cutoff", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [OutsideEnvelope]: truncated generator at cutoff 8")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["decay", "--t-grid", "0.1,abc"],
             "bad value in --t-grid: could not convert string to float: 'abc'"),
            (["decay", "--t-grid", "0.1,-1"], "--t-grid times must be finite and non-negative"),
            (["decay", "--t-grid", "0.1,inf"], "--t-grid times must be finite and non-negative"),
            (["evolve", "--t", "0.1,abc"], "bad value in --t: could not convert string to float: 'abc'"),
            (["evolve", "--t", "0.1,nan"], "--t times must be finite and non-negative"),
            (["evolve", "--t", "nan"], "--t times must be finite and non-negative"),
            (["evolve", "--t", "-1"], "--t times must be finite and non-negative"),
            (["evolve", "--t", "x"], "bad value in --t: could not convert string to float: 'x'"),
            (["decay", "--t-grid", "inf"], "--t-grid times must be finite and non-negative"),
        ],
        ids=["t-grid-unparsable", "t-grid-negative", "t-grid-infinite", "t-unparsable", "t-nan",
             "t-only-nan", "t-only-negative", "t-only-unparsable", "t-grid-only-infinite"],
    )
    def test_bad_time_list(self, capsys, argv, message):
        assert main([argv[0], MODEL_B_PRESET, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error [ParseError]: {message}\n"

    @pytest.mark.parametrize(
        "content", [None, "{", '{"mean": [[0.1, 0.0]]}'], ids=["missing", "not-json", "no-cov2d"]
    )
    def test_bad_state_file(self, capsys, tmp_path, content):
        path = tmp_path / "state.json"
        if content is not None:
            path.write_text(content)
        assert main(["evolve", MODEL_B_PRESET, "--t", "0.1", "--s0", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error [ParseError]: bad --s0 state file {path}: ")

    @pytest.mark.parametrize(
        "mean, cov",
        [("[[NaN, 0.0]]", "[[1.0, 0.0], [0.0, 1.0]]"), ("[[0.1, 0.0]]", "[[Infinity, 0.0], [0.0, 1.0]]")],
        ids=["nan-mean", "infinite-cov"],
    )
    def test_non_finite_state_file(self, capsys, tmp_path, mean, cov):
        path = tmp_path / "state.json"
        path.write_text(f'{{"mean": {mean}, "cov2d": {cov}}}')
        assert main(["evolve", MODEL_B_PRESET, "--t", "0.1", "--s0", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error [ParseError]: bad --s0 state file {path}: non-finite entries rejected\n"
        )

    def test_state_file_of_other_dimension(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"mean": [[0.0, 0.0]] * 2, "cov2d": np.eye(4).tolist()}))
        assert main(["evolve", MODEL_B_PRESET, "--t", "0.1", "--s0", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error [ParseError]: bad --s0 state file {path}: 2 modes, the model has 1\n"
        )

    def test_state_file_covariance_of_other_shape(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"mean": [[0.0, 0.0]], "cov2d": np.eye(3).tolist()}))
        assert main(["evolve", MODEL_B_PRESET, "--t", "0.1", "--s0", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error [ParseError]: bad --s0 state file {path}: covariance must be 2x2, got (3, 3)\n"
        )

    @pytest.mark.parametrize("cutoff", ["-1", "0"])
    def test_oracle_cutoff_below_one(self, capsys, cutoff):
        assert main(["oracle", MODEL_A_JSON, "--cutoff", cutoff, "--check", "gap"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error [ParseError]: --cutoff must be at least 1, got {cutoff}\n"

    def test_oracle_default_cutoffs(self, capsys):
        assert main(["oracle", MODEL_A_JSON, "--check", "gap"]) == 0
        assert json.loads(capsys.readouterr().out)["cutoff"] == 30
        assert main(["oracle", MODEL_A_JSON, "--check", "kms-trace"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cutoff"] == 40
        assert payload["pass"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze"], "the following arguments are required: model"),
            (["gap", "MODEL_B", "--mode", "neither"], "argument --mode: invalid choice: 'neither'"),
            (["decay", "MODEL_B", "--samples", "2.5"], "argument --samples: invalid int value: '2.5'"),
            (["sweep", "--preset", "one-dim"], "unrecognized arguments: --preset one-dim"),
        ],
        ids=["missing-model", "bad-mode", "non-integer-samples", "unknown-preset"],
    )
    def test_usage_error_is_parse_error(self, capsys, argv, message):
        # exit 2 is reserved for a valid analysis that found no one-sided gap
        argv = [MODEL_B_PRESET if a == "MODEL_B" else a for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error [ParseError]: {message}")
        assert captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["decay", "--help"])
        assert caught.value.code == 0
        assert "--samples" in capsys.readouterr().out

    def test_negative_decay_samples(self, capsys):
        assert main(["decay", MODEL_B_PRESET, "--samples", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error [ParseError]: --samples must be non-negative, got -1\n"

    def test_negative_decay_seed(self, capsys):
        # numpy's generator would refuse it with a traceback
        assert main(["decay", MODEL_B_PRESET, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error [ParseError]: --seed must be non-negative, got -1\n"

    @pytest.mark.parametrize(
        "key, value",
        [("d", "x"), ("d", None), ("d", [1]), ("d", 1.7), ("d", True), ("m", "1"), ("m", 2.0)],
        ids=["d-string", "d-null", "d-list", "d-fraction", "d-bool", "m-string", "m-float"],
    )
    def test_dimensions_must_be_integers(self, capsys, key, value):
        doc = json.loads(MODEL_A_JSON)
        doc[key] = value
        assert main(["analyze", json.dumps(doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error [ParseError]: {key!r} must be an integer, got {json.dumps(value)}\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # kappa = 2 > gamma: the flow overflows after t = 10
            ["evolve", json.dumps({"version": 1, "one_dim": {"mu2": 1, "lambda2": 0.5,
                                                              "omega": 0, "kappa": 2}}),
             "--t", "10,250,1000"],
        ],
        ids=["evolve-overflow"],
    )
    def test_non_finite_results_are_range_errors(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert caught == []
        assert captured.err.startswith("error [RangeExceeded]: ")
        assert captured.err.count("\n") == 1
        assert not any(word in captured.out.lower() for word in ("nan", "inf"))

    @pytest.mark.parametrize("grid", ["1e20,1e100", "1e308"], ids=["1e20-1e100", "1e308"])
    def test_decay_at_huge_times_prints_zeros(self, capsys, grid):
        # a direct expm of 1e100 Z2d was NaN, and t |Z|_1 overflows at 1e308;
        # the exact norms and bounds are 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["decay", MODEL_B_PRESET, "--samples", "3", "--t-grid", grid]) == 0
        captured = capsys.readouterr()
        assert caught == [] and captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))[1:]
        assert len(rows) == 3 * len(grid.split(","))
        assert all(row[2:] == ["0", "0", "0", "0"] for row in rows)

    def test_evolve_at_the_largest_time_is_stationary(self, capsys):
        # t |Z|_1 overflows double precision; the doubling count comes from
        # the logarithms
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["evolve", MODEL_B_PRESET, "--t", "1e308"]) == 0
        captured = capsys.readouterr()
        assert caught == [] and captured.err == ""
        (state,) = json.loads(captured.out)["states"]
        stationary = solve_stationary(build_drift_diffusion(parse_model(MODEL_B_PRESET))).s2d
        assert state["t"] == 1e308
        assert state["dist_to_stationary"] <= 1e-13 * np.linalg.norm(stationary)
        assert state["mean"] == [[0.0, 0.0]]

    def test_overflowing_model_is_range_error(self, capsys):
        doc = json.loads(MODEL_A_JSON)
        doc["m"], doc["U"], doc["V"] = 1, [[[0.0, 0.0]]], [[[1e160, 0.0]]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", json.dumps(doc)]) == 1
        captured = capsys.readouterr()
        assert caught == [] and captured.out == ""
        assert captured.err == (
            "error [RangeExceeded]: drift or diffusion overflows double precision; "
            "rescale the model\n"
        )

    def test_overflowing_closed_forms_reported_unavailable(self, capsys):
        preset = json.dumps({"version": 1, "one_dim": {"mu2": 3, "lambda2": 1,
                                                       "omega": 1e200, "kappa": 0}})
        assert main(["analyze", preset, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["closed_form"] == {"available": False, "reason": "RangeExceeded"}
        # kappa = 0 is not 2 omega: a norm that overflowed once let it pass
        assert report["classical"] == {"available": False, "reason": "NonCommutingHamiltonian"}

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["analyze", json.dumps({"version": 1, "one_dim": {"mu2": 3, "lambda2": 1,
                                                               "omega": 1e200, "kappa": 0}}),
              "--json"], 2),
            (["sweep", "--grid", "mu2=3;lambda2=1;omega=1e160;kappa=0"], 0),
            # the Lyapunov residual's entries square past double range
            (["analyze", json.dumps({"version": 1, "one_dim": {"mu2": 1e160, "lambda2": 1e159,
                                                               "omega": 0, "kappa": 0}})], 0),
        ],
        ids=["analyze-omega-1e200", "sweep-omega-1e160", "analyze-mu2-1e160"],
    )
    def test_norms_of_huge_entries_stay_finite(self, capsys, argv, code):
        # squares of entries above about 1e154 overflow double precision
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "Infinity" not in captured.out and "inf" not in captured.out

    def test_sweep_overflowing_closed_forms_name_the_point(self, capsys):
        # the stack passes every check; omega^2 then overflows in the closed
        # forms, whose failing entry maps back to its grid point
        grid = "mu2=1e150;lambda2=1e149;omega=1e155;kappa=0"
        assert main(["sweep", "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error [RangeExceeded]: at mu2=1e+150, lambda2=1e+149, omega=1e+155, "
            "kappa=0.0: closed forms overflow double precision\n"
        )

    def test_kms_trace_check_writes_no_warning(self, capsys):
        # kappa != 0: the steady state is not number-diagonal
        squeezed = json.dumps(
            {"version": 1, "one_dim": {"mu2": 3.0, "lambda2": 0.5, "omega": 2.0, "kappa": 0.3}}
        )
        argv = ["oracle", squeezed, "--cutoff", "12", "--check", "kms-trace"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and caught == []
        payload = json.loads(captured.out)
        assert payload["pass"] and payload["max_rel_error"] < 1e-6


def _fmt17(x):
    """A CSV cell: 17 significant digits, so doubles round-trip."""
    return format(float(x), ".17g")


def _decay_reference(preset, samples, seed, grid):
    """decay's stdout from one norm_decay call per (sample, t, mode), with
    the command's draw order, each row through csv.writer and each bound
    from its own exp.  Stops at the first sample a call refuses; returns
    the text and that error (None when every sample passes)."""
    model = parse_model(preset)
    dd = build_drift_diffusion(model)
    rep = gap.analyze(dd)
    st = rep.stationary
    rng = np.random.default_rng(seed)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\r\n")
    writer.writerow(["sample", "t", "gns_norm_sq", "gns_bound", "kms_norm_sq", "kms_bound"])
    for s in range(samples):
        n = int(rng.integers(1, 4))
        combo = WeylCombo(
            coefficients=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            vectors=0.5
            * (rng.standard_normal((n, model.d)) + 1j * rng.standard_normal((n, model.d))),
        )
        try:
            gns0 = norm_decay(st, combo, propagator(dd, 0.0), "gns")
            kms0 = norm_decay(st, combo, propagator(dd, 0.0), "kms")
            rows = [
                [s]
                + [
                    _fmt17(c)
                    for c in (
                        t,
                        norm_decay(st, combo, propagator(dd, t), "gns"),
                        np.exp(-2.0 * rep.g * t) * gns0,
                        norm_decay(st, combo, propagator(dd, t), "kms"),
                        np.exp(-2.0 * rep.g_breve * t) * kms0,
                    )
                ]
                for t in (float(x) for x in grid.split(","))
            ]
        except GaussGapError as exc:
            return expected.getvalue(), exc
        writer.writerows(rows)
    return expected.getvalue(), None


def _sweep_csv_rows(capsys, grid):
    """Data rows of a sweep over the grid spec, as CSV strings."""
    assert main(["sweep", "--grid", grid]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return list(csv.reader(io.StringIO(captured.out)))[1:]


def _grid_spec(axes):
    return ";".join(f"{name}={','.join(repr(float(v)) for v in vals)}" for name, vals in axes.items())


def _per_model_rows(axes):
    """The per-model pipeline over the grid's candidate points: the
    reference the stacked sweep is compared with."""
    rows = []
    for params in itertools.product(*(axes[name] for name in cli.DEFAULT_GRID)):
        params = tuple(float(p) for p in params)
        mu2, lambda2, _, kappa = params
        if not 0 <= lambda2 < mu2 or lambda2 == kappa == 0.0:
            continue
        model = one_dim_family(*params)
        dd = build_drift_diffusion(model)
        if not dd.is_stable:
            continue
        st = solve_stationary(dd)
        if not st.faithful:
            continue
        cf = gap.one_dim_closed_forms(*params)
        g, g_breve = gap.gns_gap(dd, st).g, gap.kms_gap(dd, st).g
        rows.append((params, (g, cf.g, g_breve, cf.g_breve, float(st.sigma[0]))))
    return rows


def _jittered_grid():
    rng = np.random.default_rng(5)

    def jitter(values):
        step = values[1] - values[0]
        return [v if v == 0.0 else v + rng.uniform(-0.2, 0.2) * step for v in values]

    return {
        "mu2": jitter(np.linspace(1.2, 6.2, 7)),
        "lambda2": jitter(np.linspace(0.0, 2.0, 5)),
        "omega": jitter(np.linspace(-1.0, 3.0, 4)),
        "kappa": jitter(np.linspace(0.0, 1.6, 5)),
    }


SWEEP_GRIDS = {
    "default": cli.DEFAULT_GRID,
    "jittered": _jittered_grid(),
    # kappa^2 -> gamma^2 + omega^2: the decay rate falls to ~1e-11
    "stability-walk-omega0": {"mu2": [3.0], "lambda2": [1.0], "omega": [0.0],
                              "kappa": [1.0 - 10.0**-e for e in range(1, 16)]},
    "stability-walk-omega2": {"mu2": [3.0], "lambda2": [1.0], "omega": [2.0],
                              "kappa": [np.sqrt(5.0) - 10.0**-e for e in range(1, 16)]},
    # kappa -> 0 at lambda2 = 0: the state approaches the pure vacuum
    "pure-walk": {"mu2": [3.0], "lambda2": [0.0], "omega": [2.0],
                  "kappa": [10.0**-e for e in range(1, 16)]},
    # omega = kappa = 1e8 .. 1e11: stable, but the covariance has condition
    # 4e16 .. 4e22, beyond ROOT_MARGIN, so those points are skipped as not
    # faithful
    "ill-conditioned-covariance": {"mu2": [3.0], "lambda2": [1.0],
                                   "omega": [2.0, 1e8, 1e9, 1e10, 1e11],
                                   "kappa": [1.0, 1e8, 1e9, 1e10, 1e11]},
}


class TestSweepStack:
    """The sweep evaluates its grid as one stack of models per jump count;
    these pin its contract against the per-model pipeline."""

    def test_rows_in_nested_loop_grid_order(self, capsys):
        axes = {"mu2": [3.0, 2.0], "lambda2": [0.5, 0.0, 1.0], "omega": [1.0, 0.0],
                "kappa": [0.5, 0.0, 1.0]}
        rows = _sweep_csv_rows(capsys, _grid_spec(axes))
        expected = [params for params, *_ in _per_model_rows(axes)]
        assert len(expected) > 20
        assert [tuple(float(x) for x in row[:4]) for row in rows] == expected

    def test_duplicate_axis_values_kept(self, capsys):
        rows = _sweep_csv_rows(capsys, "mu2=3;lambda2=1;omega=2;kappa=0.5,0.5")
        assert len(rows) == 2 and rows[0] == rows[1]

    @pytest.mark.parametrize(
        "grid", ["mu2=1;lambda2=2", "mu2=3;lambda2=1;omega=0;kappa=5"],
        ids=["no-candidate", "all-unstable"],
    )
    def test_no_admissible_point_prints_header_only(self, capsys, grid):
        assert main(["sweep", "--grid", grid]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "mu2,lambda2,omega,kappa,g,g_closed,g_breve,g_breve_closed,sigma\r\n"

    @staticmethod
    def _plant(monkeypatch, plants):
        """Corrupt the built stack at the points named by (mu2, lambda2):
        'cz' adds 1e-7 I to cz, so the one-sided gap routes disagree; 'c2d'
        zeroes the diffusion, so the covariance has no root."""
        build = gap.build_drift_diffusion

        def planted(models):
            dds = build(models)
            mu2 = np.abs(models.v_mat[:, 0, 0]) ** 2
            lambda2 = np.abs(models.u_mat[:, -1, 0]) ** 2
            cz, c2d = dds.cz.copy(), dds.c2d.copy()
            for (mu2_p, lambda2_p), field in plants.items():
                hit = np.isclose(mu2, mu2_p) & np.isclose(lambda2, lambda2_p)
                if field == "cz":
                    cz[hit] += 1e-7 * np.eye(2)
                else:
                    c2d[hit] = 0.0
            return dataclasses.replace(dds, cz=cz, c2d=c2d)

        monkeypatch.setattr(gap, "build_drift_diffusion", planted)

    def test_planted_route_failure_names_point(self, capsys, monkeypatch):
        self._plant(monkeypatch, {(3.0, 1.0): "cz"})
        assert main(["sweep", "--grid", "mu2=2,3;lambda2=0.5,1;omega=2;kappa=0.7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error [ConsistencyError]: at mu2=3.0, lambda2=1.0, omega=2.0, kappa=0.7: "
            "gap routes disagree: similarity "
        )

    @pytest.mark.parametrize(
        "plants, expected",
        [
            ({(3.0, 0.0): "c2d"}, "[NotPositiveDefinite]: at mu2=3.0, lambda2=0.0,"),
            (
                {(3.0, 0.0): "c2d", (2.0, 0.5): "cz"},
                "[ConsistencyError]: at mu2=2.0, lambda2=0.5,",
            ),
        ],
        ids=["one-failure", "earlier-point-fails-later-stage"],
    )
    def test_first_failing_point_in_grid_order(self, capsys, monkeypatch, plants, expected):
        # the lambda2 = 0 stack runs first and fails in its stationary stage;
        # the sweep still reports the earlier point, whose gap routes fail
        self._plant(monkeypatch, plants)
        assert main(["sweep", "--grid", "mu2=2,3;lambda2=0,0.5;omega=1;kappa=0.5"]) == 1
        assert capsys.readouterr().err.startswith("error " + expected)

    @pytest.mark.parametrize("name", list(SWEEP_GRIDS))
    def test_matches_per_model_pipeline(self, capsys, name):
        # the stack solves each point as the per-model pipeline does, so
        # the values are equal, near either boundary too
        axes = SWEEP_GRIDS[name]
        rows = _sweep_csv_rows(capsys, "" if axes is cli.DEFAULT_GRID else _grid_spec(axes))
        reference = _per_model_rows(axes)
        assert [row[:4] for row in rows] == [[_fmt17(p) for p in params]
                                             for params, *_ in reference]
        for row, (params, values) in zip(rows, reference):
            assert [float(x) for x in row[4:]] == list(values), params

    def test_rows_are_analyze_bit_for_bit(self, capsys):
        # a one-mode analyze solves its Lyapunov equation by the same
        # Kronecker system as the stack, so each row carries the very
        # doubles of analyze --json on its point, lambda2 = 0 included
        axes = {"mu2": [2.0, 3.5], "lambda2": [0.0, 0.5, 1.0], "omega": [0.0, 2.0],
                "kappa": [0.0, 0.7, 1.3]}
        rows = _sweep_csv_rows(capsys, _grid_spec(axes))
        assert len(rows) == 27  # three points are unstable
        assert {float(row[1]) for row in rows} == {0.0, 0.5, 1.0}
        for row in rows:
            mu2, lambda2, omega, kappa = (float(x) for x in row[:4])
            preset = {"mu2": mu2, "lambda2": lambda2, "omega": omega, "kappa": kappa}
            code = main(["analyze", json.dumps({"version": 1, "one_dim": preset}), "--json"])
            # lambda2 = 0 has no one-sided gap: exit 2
            assert code == (2 if lambda2 == 0.0 else 0)
            report = json.loads(capsys.readouterr().out)
            want = (report["gns"]["g"], report["kms"]["g"], report["stationary"]["sigma"][0])
            assert [float(row[k]) for k in (4, 6, 8)] == list(want), row[:4]

    @pytest.mark.parametrize("seed", range(4))
    def test_bytes_match_row_by_row_table(self, capsys, seed):
        # the command formats whole rows and takes the closed forms of all
        # points at once; the reference makes one scalar closed-form call
        # and one csv.writer row per point, the gaps from the same stacks
        rng = np.random.default_rng(seed)
        axes = {
            "mu2": rng.uniform(0.5, 6.0, 5).tolist(),
            "lambda2": [0.0, -0.0, 1e-9, *rng.uniform(0.01, 1.5, 3)],
            "omega": [-0.0, *rng.uniform(-3.0, 3.0, 3)],
            "kappa": [-0.0, *rng.uniform(-1.5, 1.5, 4)],
        }
        assert main(["sweep", "--grid", _grid_spec(axes)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        points = [
            p for p in itertools.product(*(axes[name] for name in cli.DEFAULT_GRID))
            if 0 <= p[1] < p[0] and not p[1] == p[3] == 0.0
        ]
        params = np.array(points)
        found = []
        for group in (params[:, 1] == 0.0, params[:, 1] > 0.0):
            pos = np.flatnonzero(group)
            res = gap.analyze_stack(one_dim_family(*params[pos].T))
            found += zip(pos[res.index].tolist(), res.g, res.g_breve, res.sigma[:, 0])
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\r\n")
        writer.writerow(["mu2", "lambda2", "omega", "kappa", "g", "g_closed", "g_breve",
                         "g_breve_closed", "sigma"])
        for i, g, g_breve, sigma in sorted(found):
            cf = gap.one_dim_closed_forms(*points[i])
            writer.writerow([_fmt17(x) for x in (*points[i], g, cf.g, g_breve, cf.g_breve, sigma)])
        assert len(found) > 200
        assert captured.out == expected.getvalue()


def _mixed_model(d):
    """A rotated d-mode model with a linear drive, as a model document."""
    rng = np.random.default_rng(81)
    model, _, _ = random_stable_faithful(rng, d)
    zeta = rng.standard_normal(d) + 1j * rng.standard_normal(d)

    def pairs(a):
        a = np.asarray(a)
        return np.stack([a.real, a.imag], axis=-1).tolist()

    return json.dumps(
        {"version": 1, "d": d, "m": model.m, "omega": pairs(model.omega),
         "kappa": pairs(model.kappa), "U": pairs(model.u_mat),
         "V": pairs(model.v_mat), "zeta": pairs(zeta)}
    )


#: equal to its transpose as floats, not bit for bit: a writer that tests
#: symmetry with np.array_equal prints 0.0 where json prints -0.0
ZERO_MIRROR = np.array([[1.0, -0.0], [0.0, 2.0]])
SYMMETRIC = np.array([[2.0, -0.0, 0.1], [-0.0, 3.0, 1e-300], [0.1, 1e-300, -4.0]])
NEARLY_SYMMETRIC = np.array([[1.0, 0.5, -0.0], [0.5, 2.0, 1e16], [0.0, 1e16, 0.3]])


def _table_rows(value):
    """A cli._Table as its list of row dicts, zipped from its columns; any
    other value as np.ndarray.tolist() has it."""
    if type(value) is not cli._Table:
        return np.ndarray.tolist(value)
    names = list(value.columns)
    return [dict(zip(names, row)) for row in zip(*value.columns.values())]


def _dumps(obj):
    """What json.dump(obj, sort_keys=True, indent=2) writes, arrays as their
    tolist() and tables as their rows."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_table_rows) + "\n"


#: strings with every kind of escape json writes, and a NUL that is not the
#: whole string
FUZZ_STRINGS = ["", "x", 'say "hi"', "back\\slash", "tab\tnew\nline", "é ✓ \u2028",
                "a\x00b", "\x00\x1f", "50%", "%s %d"]


def _random_array(rng):
    """A small float64 array: finite, with NaN or infinities, with signed
    zeros, empty or 0-d; or an array of ints or bools."""
    low = 0 if rng.random() < 0.2 else 1
    shape = tuple(int(n) for n in rng.integers(low, 4, size=rng.integers(4)))
    kind = rng.integers(7)
    if kind == 0:
        return np.asarray(rng.integers(-5, 5, size=shape))
    if kind == 1:
        return np.asarray(rng.random(shape) < 0.5)
    a = np.asarray(rng.choice([0.5, -0.0, 0.0, 1e300, 5e-324, -2.25, 0.1], size=shape))
    if kind == 2 and a.size:
        a.flat[rng.integers(a.size)] = rng.choice([np.nan, np.inf, -np.inf])
    return a + rng.standard_normal(shape) if kind == 3 else a


def _random_table(rng):
    """A cli._Table: finite columns of one length, or with a NaN column,
    columns of two lengths or no rows."""
    rows = int(rng.integers(4))
    columns = {name: rng.standard_normal((rows, *shape)) for name, shape in
               zip(rng.permutation(["t", "mean", "cov2d", "50%"]).tolist(),
                   [(), (2,), (2, 2), (1, 3)])}
    kind = rng.integers(4)
    if kind == 1 and rows:
        list(columns.values())[rng.integers(4)].flat[0] = np.nan
    if kind == 2:
        columns["t"] = np.arange(rows + 1.0)
    return cli._Table(columns)


def _random_json(rng, depth):
    """A random nested report of at most depth levels of dicts (string or
    int keys), lists and tuples, whose first and last items, in the order
    json writes them, are often arrays or tables."""
    kind = rng.integers(10 if depth else 5)
    if kind < 2:
        return _random_array(rng)
    if kind == 2:
        return _random_table(rng)
    if kind == 3:
        return rng.choice([0.5, -0.0, np.nan, np.inf, 1e-320]).item()
    if kind == 4:
        return [None, True, False, 7, -3, FUZZ_STRINGS[rng.integers(len(FUZZ_STRINGS))]][
            rng.integers(6)]
    items = [_random_json(rng, depth - 1) for _ in range(rng.integers(5))]
    if items and rng.random() < 0.5:
        items[0] = _random_array(rng)
    if items and rng.random() < 0.5:
        items[-1] = _random_array(rng)
    if kind < 7:
        return tuple(items) if kind == 5 else items
    if rng.random() < 0.5:
        keys = sorted(rng.choice(1000, size=len(items), replace=False).tolist())
    else:
        keys = sorted(rng.choice(FUZZ_STRINGS, size=len(items), replace=False).tolist())
    return dict(zip(keys, items))


class TestDumpJson:
    """_dump_json writes what json.dump(obj, sort_keys=True, indent=2) would,
    with arrays written as their tolist()."""

    @staticmethod
    def _assert_identical(obj):
        out = io.StringIO()
        cli._dump_json(obj, out)
        assert out.getvalue() == _dumps(obj)

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", MODEL_B_PRESET, "--json"],
            ["analyze", "MIXED_D4", "--json"],
            ["analyze", PUMP_JSON, "--json"],
            ["analyze", MODEL_C_PRESET, "--json"],
            ["analyze", ILL_CONDITIONED_PRESET, "--json"],
            ["gap", MODEL_B_PRESET, "--mode", "both"],
            ["gap", MODEL_B_PRESET, "--mode", "gns"],
            ["evolve", "MIXED_D4", "--t", "0,0.5,3", "--s0", "stationary"],
            ["evolve", MODEL_B_PRESET, "--t", "0.25,1"],
            ["evolve", "MIXED_D4", "--t", ",".join(str(0.1 * k) for k in range(50)),
             "--s0", "stationary"],
            ["evolve", DRIVEN_D2_JSON, "--t", "0,0.3,1.5,7"],
            # a table of one row
            ["evolve", "MIXED_D4", "--t", "0.5", "--s0", "stationary"],
            # no invariant state: the table has no dist_to_stationary column
            ["evolve", PUMP_JSON, "--t", "0,0.5,2", "--s0", "vacuum"],
            # the invariant state at every time: each covariance repeats
            ["evolve", "MIXED_D8", "--t", ",".join(repr(0.01 * k) for k in range(1, 401)),
             "--s0", "stationary"],
            ["oracle", MODEL_B_PRESET, "--cutoff", "8", "--check", "char"],
            ["oracle", MODEL_A_JSON, "--cutoff", "8", "--check", "kms-trace"],
            ["oracle", MODEL_A_JSON, "--cutoff", "8", "--check", "gap"],
        ],
        ids=["analyze-preset", "analyze-d4", "analyze-pump", "analyze-model-c",
             "analyze-not-faithful", "gap-both", "gap-gns", "evolve-d4", "evolve-preset",
             "evolve-d4-50-times", "evolve-driven-vacuum", "evolve-d4-one-time",
             "evolve-no-invariant-state", "evolve-d8-400-times",
             "oracle-char", "oracle-kms-trace", "oracle-gap"],
    )
    def test_every_json_command(self, capsys, monkeypatch, argv):
        argv = [_mixed_model(int(a[7:])) if a.startswith("MIXED_D") else a for a in argv]
        written = []
        dump = cli._dump_json
        monkeypatch.setattr(
            cli, "_dump_json", lambda obj, stream: (written.append(obj), dump(obj, stream))
        )
        main(argv)
        captured = capsys.readouterr()
        assert len(written) == 1 and captured.err == ""
        assert captured.out == _dumps(written[0])

    @pytest.mark.parametrize(
        "obj",
        [
            [1.0, float("nan"), 2.0],
            [float("inf"), -float("inf")],
            {"a": [0.5, float("nan")], "b": [[1.0, -float("inf")]]},
            [-0.0, 5e-324, 1e300, -1e-300, 0.1, 1e16],
            [1, True, None, 2.5, False, 0, "x"],
            [1.0, 2],
            [],
            {},
            {"empty": [], "nested": {"also": {}}},
            {"q": 'say "hi", then, é ✓ \n\t\\'},
            [[1.0, 2.0], [[3.0], []], [[]], [[4.0, [5.0]]]],
            ([1.0, 2.0], (3.0,)),
            3.5,
            float("nan"),
            -0.0,
            7,
            "top",
            None,
            True,
            {"b": 1, "a": {"d": [1.0], "c": None}, "B": "upper"},
            {1: [1.0, 2.0], 2: "non-string keys"},
            {"outer": {3: {"x": [1.0]}}},
            pytest.param(SYMMETRIC, id="array-symmetric"),
            pytest.param(SYMMETRIC.T, id="array-symmetric-transposed-view"),
            pytest.param(np.stack([SYMMETRIC, SYMMETRIC])[:, ::-1, ::-1],
                         id="stack-symmetric-reversed-view"),
            pytest.param(NEARLY_SYMMETRIC, id="array-not-symmetric-bitwise"),
            pytest.param(np.array([[1.0, 2.0], [3.0, -0.0]]), id="array-not-symmetric"),
            pytest.param(np.array([[-0.0]]), id="array-1x1"),
            pytest.param(np.array([0.1]), id="array-1"),
            pytest.param(np.empty(0), id="array-0"),
            pytest.param(np.empty((0, 0)), id="array-0x0"),
            pytest.param(np.empty((2, 0)), id="array-2x0"),
            pytest.param(np.empty((0, 2, 2)), id="array-0x2x2"),
            pytest.param(np.stack([SYMMETRIC, 2.0 * SYMMETRIC]), id="stack-symmetric"),
            pytest.param(np.stack([SYMMETRIC, NEARLY_SYMMETRIC]), id="stack-mixed"),
            pytest.param(np.array([[0.5, -1.5], [-0.0, 0.0], [3.0, 0.5]]), id="pairs-3"),
            pytest.param(ZERO_MIRROR, id="pairs-2-zero-mirror"),
            pytest.param(np.array([[5e-324, 1e300, -0.0], [1e300, -5e-324, 0.0],
                                   [0.0, -0.0, 1.0]]), id="array-extremes"),
            pytest.param(np.array([[1.0, -0.0], [0.0, float("nan")]]), id="array-nan"),
            pytest.param(np.array([[float("inf"), -0.0], [0.0, -float("inf")]]),
                         id="array-inf"),
            pytest.param(np.stack([[[float("inf"), 0.5], [0.5, -float("inf")]], ZERO_MIRROR]),
                         id="stack-inf"),
            pytest.param(np.stack([ZERO_MIRROR, np.full((2, 2), float("nan"))]),
                         id="stack-nan"),
            pytest.param(np.array([1.0, -float("inf"), float("nan")]), id="array-1d-nan"),
            pytest.param({"m": ZERO_MIRROR, "rows": [ZERO_MIRROR.T, {"s": SYMMETRIC}],
                          "list": ZERO_MIRROR.tolist()}, id="arrays-nested"),
            pytest.param([[1.0, 0.5], [0.5, 2.0]], id="list-symmetric"),
            pytest.param(np.arange(12.0).reshape(3, 4).T[::2], id="array-strided"),
            pytest.param([{"s": SYMMETRIC, "t": 0.5}, {"s": SYMMETRIC.copy(), "t": 1.0},
                          {"s": 2.0 * SYMMETRIC, "t": 1.5}], id="rows-repeating"),
            pytest.param({"a": np.array([0.0, 1.0]), "b": np.array([[-0.0, 1.0]]),
                          "c": np.array([1.0, 0.0, -0.0])}, id="zeros-signed-across-arrays"),
            pytest.param({"f": np.array([1.0, 2.0]),
                          "nan": np.array([0x7FF8000000000001, 0x7FF0000000000002,
                                           0xFFF8000000000000, 0x3FF0000000000000],
                                          dtype=np.uint64).view(np.float64)},
                         id="nan-payloads"),
            pytest.param([np.array([0.5, 1.0]), np.array([0.5, float("inf")]),
                          np.array([1.0, 0.5])], id="rows-non-finite-middle"),
            # 2,102 small arrays, each in the place of its own placeholder
            pytest.param({"a": np.array([0.1, 2.0]),
                          "b": [np.array([0.1, float(k)]) for k in range(2100)],
                          "c": np.array([[0.1, -0.0], [2.0, 3.0]])}, id="flush-between-arrays"),
            pytest.param({"i": np.arange(3), "b": np.array([True]),
                          "f32": np.array([0.1], dtype=np.float32), "x": np.array(2.5)},
                         id="arrays-not-float64"),
            pytest.param({"rows": cli._Table({"b": np.array([0.0, -0.0]),
                                              "a": np.array([[-0.0, 0.0], [0.0, -0.0]]),
                                              "m": np.array([[[0.0]], [[-0.0]]])})},
                         id="table-zeros-signed-across-columns"),
            pytest.param(cli._Table({"t": np.array([0.5, 1.0]),
                                     "s": np.array([ZERO_MIRROR, [[1.0, float("nan")],
                                                                  [0.5, 2.0]]])}),
                         id="table-nan-column"),
            pytest.param(cli._Table({"t": np.array([0.5, 1.0, 1.5]), "s": np.stack([SYMMETRIC] * 2)}),
                         id="table-columns-of-two-lengths"),
            pytest.param(cli._Table({"50%": np.array([0.5, 1.0]), "%s": np.eye(2)}),
                         id="table-percent-in-names"),
        ],
    )
    def test_edge_cases(self, obj):
        self._assert_identical(obj)

    @staticmethod
    def _count_array_flushes(monkeypatch):
        """A list that counts the _write_pieces calls that format arrays."""
        flushes = []
        write = cli._write_pieces
        monkeypatch.setattr(cli, "_write_pieces", lambda pieces, stream: (
            flushes.append(any(type(p) is tuple for p in pieces)), write(pieces, stream)))
        return flushes

    def test_arrays_past_the_bound_are_flushed(self, monkeypatch):
        # three arrays of 60,000 floats, the third past 2^17 in all
        rng = np.random.default_rng(7)
        obj = {"rows": [{"a": rng.standard_normal((300, 200)), "t": 0.5 * k} for k in range(3)],
               "z": np.array([0.1, -0.0])}
        flushes = self._count_array_flushes(monkeypatch)
        self._assert_identical(obj)
        assert sum(flushes) == 2

    def test_evolve_of_400_times_at_d8_is_formatted_at_once(self, capsys, monkeypatch):
        # 400 rows of a 16 x 16 covariance and 8 mean pairs: 108,800 floats,
        # under the bound, so every repeated covariance is formatted once
        times = ",".join(repr(0.01 * k) for k in range(1, 401))
        written = []
        dump = cli._dump_json
        monkeypatch.setattr(
            cli, "_dump_json", lambda obj, stream: (written.append(obj), dump(obj, stream))
        )
        flushes = self._count_array_flushes(monkeypatch)
        main(["evolve", _mixed_model(8), "--t", times, "--s0", "stationary"])
        assert capsys.readouterr().out == _dumps(written[0])
        assert sum(flushes) == 1

    def test_evolve_of_1000_times_at_d8_is_flushed_in_row_blocks(self, capsys, monkeypatch):
        # 274 floats a row: the table is cut into blocks of 478 rows
        # (130,972 floats, under 2^17), and the last block holds 44 rows
        times = ",".join(repr(0.004 * k) for k in range(1, 1001))
        written = []
        dump = cli._dump_json
        monkeypatch.setattr(
            cli, "_dump_json", lambda obj, stream: (written.append(obj), dump(obj, stream))
        )
        flushes = self._count_array_flushes(monkeypatch)
        main(["evolve", _mixed_model(8), "--t", times, "--s0", "vacuum"])
        assert capsys.readouterr().out == _dumps(written[0])
        assert sum(flushes) == 3

    def test_evolve_of_2000_times_at_d8_holds_the_memory_of_row_dicts(self, monkeypatch):
        # written as 4,000 arrays in row dicts, this dump's traced peak was
        # 10.12 MB (numpy 2.4, CPython 3.11, x86-64; 10.56 MB as a process's
        # first dump): one flush's 131,000 float reprs make most of it.  The
        # table may exceed that by 5 %, where making the text of a whole
        # flush's rows at once would add about 4 MB
        times = ",".join(repr(0.002 * k) for k in range(1, 2001))
        written = []
        monkeypatch.setattr(cli, "_dump_json", lambda obj, stream: written.append(obj))
        main(["evolve", _mixed_model(8), "--t", times, "--s0", "vacuum"])
        monkeypatch.undo()
        assert type(written[0]["states"]) is cli._Table
        with open(os.devnull, "w", encoding="utf-8") as out:
            tracemalloc.start()
            try:
                cli._dump_json(written[0], out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 1.05 * 10.12e6

    @pytest.mark.parametrize(
        "obj",
        [{"v": "\x00", "a": np.array([0.5])}, {"\x00": np.array([0.5])}, {"\x00": 1},
         ['say "\x00', np.array([0.5])]],
        ids=["value", "key", "key-no-arrays", "quote-before-nul"],
    )
    def test_string_equal_to_the_placeholder_is_refused(self, obj):
        # the text of each of these strings holds "\u0000", with its quotes,
        # the placeholder of an array, so the arrays would not fill their places
        out = io.StringIO()
        with pytest.raises(ConsistencyError):
            cli._dump_json(obj, out)
        assert out.getvalue() == ""

    def test_random_reports_are_what_json_writes(self):
        rng = np.random.default_rng(30)
        for _ in range(500):
            self._assert_identical(_random_json(rng, int(rng.integers(1, 5))))

    def test_evolve_of_no_times_prints_no_states(self, capsys):
        assert main(["evolve", MODEL_B_PRESET, "--t", ""]) == 0
        assert capsys.readouterr().out == '{\n  "schema": "gaussgap.report/1",\n  "states": []\n}\n'

    def test_float_lists_with_non_finite_values_fall_back(self):
        # the one-piece path writes nan/inf as Python spells them, which is
        # not JSON; the fallback must catch every such list
        out = io.StringIO()
        cli._dump_json({"v": [1.0, float("nan"), float("inf"), -float("inf")]}, out)
        assert "NaN" in out.getvalue() and "-Infinity" in out.getvalue()
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", MODEL_B_PRESET, "--t", ",".join(str(0.01 * k) for k in range(2000))],
        ["decay", MODEL_B_PRESET, "--samples", "500"],
        ["sweep", "--grid", "mu2=" + ",".join(str(2 + 0.1 * k) for k in range(40))],
    ],
    ids=["evolve", "decay", "sweep"],
)
def test_closed_stdout_is_one_error_line(argv):
    # a reader such as `head` that leaves after the first line: the rest of
    # the output is dropped, with exit 1 and no traceback
    src = os.path.dirname(os.path.dirname(gaussgap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gaussgap.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err
    assert err == "error [BrokenPipe]: standard output was closed\n"


def test_cli_import_leaves_scipy_sparse_out():
    # scipy.sparse (and its csgraph) would add to every cold CLI start; only
    # the Fock oracle imports it, so neither the import nor analyze, sweep
    # and decay run in one process may load it
    src = os.path.dirname(os.path.dirname(gaussgap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    out = subprocess.run(
        [sys.executable, "-c", "import gaussgap.cli, sys; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out == "False\n"
    script = (
        "import contextlib, io, sys\n"
        "from gaussgap.cli import main\n"
        "model = sys.argv[1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['analyze', model]), main(['sweep']),\n"
        "             main(['decay', model, '--samples', '2', '--seed', '3'])]\n"
        "print(codes, 'scipy.sparse' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, MODEL_B_PRESET],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out == "[0, 0, 0] False\n"


def test_start_up_leaves_scipy_linalg_out():
    # scipy.linalg is about half of a cold start; only the Fock oracle needs
    # it, so the imports, sweep, analyze and gap (Kronecker solves for one
    # mode, Smith doubling for more), evolve and decay (numpy flow), --help
    # and usage errors must not load it, on one mode, two modes and eight,
    # while the oracle does
    src = os.path.dirname(os.path.dirname(gaussgap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    eight = random_stable_faithful(np.random.default_rng(8), 8)[0]
    d8_json = json.dumps({"version": 1, **run_report(eight)["model"]}, default=np.ndarray.tolist)
    script = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return 'scipy.linalg' in sys.modules\n"
        "import gaussgap\n"
        "seen = [loaded()]\n"
        "import gaussgap.cli\n"
        "seen.append(loaded())\n"
        "from gaussgap.cli import main\n"
        "codes = []\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes.append(main(['sweep']))\n"
        "    seen.append(loaded())\n"
        "    try:\n"
        "        main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        codes.append(exc.code)\n"
        "    seen.append(loaded())\n"
        "    codes.append(main(['gap', sys.argv[1], '--mode', 'neither']))\n"
        "    seen.append(loaded())\n"
        "    codes.append(main(['analyze', sys.argv[1]]))\n"
        "    seen.append(loaded())\n"
        "    codes.append(main(['gap', sys.argv[1]]))\n"
        "    seen.append(loaded())\n"
        "    codes.append(main(json.loads(sys.argv[2])))\n"
        "    seen.append(loaded())\n"
        "print(codes, seen)\n"
    )
    # each last command in a fresh process
    for last, code, loads in (
        (["analyze", DRIVEN_D2_JSON], 0, False),
        (["gap", DRIVEN_D2_JSON], 0, False),
        (["evolve", d8_json, "--t", "0.5"], 0, False),
        (["decay", d8_json, "--samples", "2"], 0, False),
        # cutoff 6 truncates model B too far for the check to pass: exit 2
        (["oracle", MODEL_B_PRESET, "--cutoff", "6"], 2, True),
    ):
        out = subprocess.run(
            [sys.executable, "-c", script, MODEL_B_PRESET, json.dumps(last)],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        assert out == (
            f"[0, 0, 1, 0, 0, {code}] "
            f"[False, False, False, False, False, False, False, {loads}]\n"
        ), last[0]
