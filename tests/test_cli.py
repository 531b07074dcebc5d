"""Model file parsing, report content, determinism and CSV output."""

import csv
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import random_stable_faithful, rounding_allowances
import gaussgap
from gaussgap import cli, fock, gap
from gaussgap.cli import main, parse_model, run_report
from gaussgap.dynamics import WeylCombo, norm_decay
from gaussgap.errors import ParseError, ShapeError
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

MODEL_B_PRESET = json.dumps(
    {"version": 1, "one_dim": {"mu2": 3.0, "lambda2": 1.0, "omega": 2.0, "kappa": 1.0}}
)

MODEL_C_PRESET = json.dumps(
    {"version": 1, "one_dim": {"mu2": 2.0, "lambda2": 0.0, "omega": 2.0, "kappa": 1.0}}
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
        again = parse_model(json.dumps(doc))
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

    def test_exit_code_two_on_no_gap(self, capsys):
        assert main(["analyze", MODEL_C_PRESET]) == 2
        capsys.readouterr()
        assert main(["analyze", PUMP_JSON]) == 2
        capsys.readouterr()

    def test_exit_code_one_on_error(self, capsys):
        assert main(["analyze", "{"]) == 1
        err = capsys.readouterr().err
        assert "ParseError" in err

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
        # the command evaluates each combination over its whole grid at once;
        # the reference takes one norm_decay call per (sample, t, mode), with
        # the command's draw order
        grid = "0.05,0.3,1,2.5"
        assert main(
            ["decay", MODEL_B_PRESET, "--samples", "6", "--seed", str(seed), "--t-grid", grid]
        ) == 0
        out = capsys.readouterr().out
        model = parse_model(MODEL_B_PRESET)
        dd = build_drift_diffusion(model)
        rep = gap.analyze(dd)
        st = rep.stationary
        rng = np.random.default_rng(seed)
        lines = ["sample,t,gns_norm_sq,gns_bound,kms_norm_sq,kms_bound"]
        for s in range(6):
            n = int(rng.integers(1, 4))
            combo = WeylCombo(
                coefficients=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                vectors=0.5
                * (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))),
            )
            gns0 = norm_decay(st, dd, combo, 0.0, "gns")
            kms0 = norm_decay(st, dd, combo, 0.0, "kms")
            for t in (float(x) for x in grid.split(",")):
                cells = [
                    t,
                    norm_decay(st, dd, combo, t, "gns"),
                    np.exp(-2.0 * rep.g * t) * gns0,
                    norm_decay(st, dd, combo, t, "kms"),
                    np.exp(-2.0 * rep.g_breve * t) * kms0,
                ]
                lines.append(",".join([str(s)] + [format(float(c), ".17g") for c in cells]))
        assert out == "\r\n".join(lines) + "\r\n"

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
                "--preset",
                "one-dim",
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

    def test_sweep_unknown_axis(self, capsys):
        assert main(["sweep", "--grid", "foo=1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [ParseError]: unknown grid axis 'foo'")

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

        def counting(dd, zeta=None):
            calls.append(dd)
            return solve_stationary(dd, zeta)

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
        "argv",
        [
            ["decay", "--t-grid", "0.1,abc"],
            ["decay", "--t-grid", "0.1,-1"],
            ["decay", "--t-grid", "0.1,inf"],
            ["evolve", "--t", "0.1,abc"],
            ["evolve", "--t", "0.1,nan"],
        ],
        ids=["t-grid-unparsable", "t-grid-negative", "t-grid-infinite", "t-unparsable", "t-nan"],
    )
    def test_bad_time_list(self, capsys, argv):
        assert main([argv[0], MODEL_B_PRESET, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [ParseError]: ")
        assert captured.err.count("\n") == 1

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
            (["sweep", "--preset", "two-dim"], "argument --preset: invalid choice: 'two-dim'"),
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
        st = solve_stationary(dd, model.zeta)
        if not st.faithful:
            continue
        cf = gap.one_dim_closed_forms(*params)
        g, g_breve = gap.gns_gap(dd, st).g, gap.kms_gap(dd, st).g
        rows.append((params, (g, cf.g, g_breve, cf.g_breve, float(st.sigma[0])), dd, st))
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
    "default": (cli.DEFAULT_GRID, False),
    "jittered": (_jittered_grid(), False),
    # kappa^2 -> gamma^2 + omega^2: the decay rate falls to ~1e-11
    "stability-walk-omega0": (
        {"mu2": [3.0], "lambda2": [1.0], "omega": [0.0],
         "kappa": [1.0 - 10.0**-e for e in range(1, 16)]},
        True,
    ),
    "stability-walk-omega2": (
        {"mu2": [3.0], "lambda2": [1.0], "omega": [2.0],
         "kappa": [np.sqrt(5.0) - 10.0**-e for e in range(1, 16)]},
        True,
    ),
    # kappa -> 0 at lambda2 = 0: the state approaches the pure vacuum
    "pure-walk": (
        {"mu2": [3.0], "lambda2": [0.0], "omega": [2.0],
         "kappa": [10.0**-e for e in range(1, 16)]},
        True,
    ),
    # omega = kappa = 1e8 .. 1e11: stable, but the covariance has condition
    # 4e16 .. 4e22, beyond ROOT_MARGIN, so those points are skipped as not
    # faithful
    "ill-conditioned-covariance": (
        {"mu2": [3.0], "lambda2": [1.0], "omega": [2.0, 1e8, 1e9, 1e10, 1e11],
         "kappa": [1.0, 1e8, 1e9, 1e10, 1e11]},
        True,
    ),
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
        axes, ill_conditioned = SWEEP_GRIDS[name]
        rows = _sweep_csv_rows(capsys, "" if axes is cli.DEFAULT_GRID else _grid_spec(axes))
        reference = _per_model_rows(axes)
        assert [row[:4] for row in rows] == [[cli._fmt(p) for p in params]
                                             for params, *_ in reference]
        for row, (params, values, dd, st) in zip(rows, reference):
            g, g_closed, g_breve, g_breve_closed, sigma = values
            assert [row[5], row[7]] == [cli._fmt(g_closed), cli._fmt(g_breve_closed)]
            tol = [1e-12 * abs(g), 1e-12 * abs(g_breve), 1e-12 * sigma]
            if ill_conditioned:
                # near a boundary both paths are only as exact as the
                # conditioning allows
                g_tol, g_breve_tol, sigma_rel = rounding_allowances(dd, st)
                tol = [max(tol[0], g_tol), max(tol[1], g_breve_tol),
                       max(tol[2], sigma_rel * sigma)]
            for got, want, allowed in zip(row[4::2], (g, g_breve, sigma), tol):
                assert abs(float(got) - want) <= allowed, (params, got, want)


def _mixed_d4_model():
    """A rotated d = 4 model with a linear drive, as a model document."""
    rng = np.random.default_rng(81)
    model, _, _ = random_stable_faithful(rng, 4)
    zeta = rng.standard_normal(4) + 1j * rng.standard_normal(4)

    def pairs(a):
        a = np.asarray(a)
        return np.stack([a.real, a.imag], axis=-1).tolist()

    return json.dumps(
        {"version": 1, "d": 4, "m": model.m, "omega": pairs(model.omega),
         "kappa": pairs(model.kappa), "U": pairs(model.u_mat),
         "V": pairs(model.v_mat), "zeta": pairs(zeta)}
    )


class TestDumpJson:
    """_dump_json writes what json.dump(obj, sort_keys=True, indent=2) would."""

    @staticmethod
    def _assert_identical(obj):
        out = io.StringIO()
        cli._dump_json(obj, out)
        assert out.getvalue() == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", MODEL_B_PRESET, "--json"],
            ["analyze", "MIXED_D4", "--json"],
            ["gap", MODEL_B_PRESET, "--mode", "both"],
            ["evolve", "MIXED_D4", "--t", "0,0.5,3", "--s0", "stationary"],
            ["evolve", MODEL_B_PRESET, "--t", "0.25,1"],
            ["oracle", MODEL_B_PRESET, "--cutoff", "8", "--check", "char"],
            ["oracle", MODEL_A_JSON, "--cutoff", "8", "--check", "kms-trace"],
            ["oracle", MODEL_A_JSON, "--cutoff", "8", "--check", "gap"],
        ],
        ids=["analyze-preset", "analyze-d4", "gap-both", "evolve-d4", "evolve-preset",
             "oracle-char", "oracle-kms-trace", "oracle-gap"],
    )
    def test_every_json_command(self, capsys, monkeypatch, argv):
        argv = [_mixed_d4_model() if a == "MIXED_D4" else a for a in argv]
        written = []
        dump = cli._dump_json
        monkeypatch.setattr(
            cli, "_dump_json", lambda obj, stream: (written.append(obj), dump(obj, stream))
        )
        main(argv)
        captured = capsys.readouterr()
        assert len(written) == 1 and captured.err == ""
        assert captured.out == json.dumps(written[0], sort_keys=True, indent=2) + "\n"

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
        ],
    )
    def test_edge_cases(self, obj):
        self._assert_identical(obj)

    def test_float_lists_with_non_finite_values_fall_back(self):
        # the one-piece path writes nan/inf as Python spells them, which is
        # not JSON; the fallback must catch every such list
        out = io.StringIO()
        cli._dump_json({"v": [1.0, float("nan"), float("inf"), -float("inf")]}, out)
        assert "NaN" in out.getvalue() and "-Infinity" in out.getvalue()
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


def test_cli_import_leaves_scipy_sparse_out():
    # scipy.sparse (and its csgraph) would add to every cold CLI start
    src = os.path.dirname(os.path.dirname(gaussgap.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    out = subprocess.run(
        [sys.executable, "-c", "import gaussgap.cli, sys; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out == "False\n"
