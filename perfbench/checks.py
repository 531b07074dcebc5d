"""Output checks for each CLI command the benchmark runs.

Each check takes the command's stdout and the reference the benchmark built
for it and returns a list of problems; an empty list means the output is
correct.  References carry an optional ``g_shift`` so a run can plant a wrong
reference and confirm that the check notices it.
"""

from __future__ import annotations

import csv
import io
import json
import math

from models import closed_forms

REL = 1e-9


def close(got, want, rel=REL, floor=1e-12):
    return abs(got - want) <= rel * max(abs(got), abs(want)) + floor


def _expected(ref, key):
    """Reference value; a planted shift applies to g only."""
    return ref[key] + (ref.get("g_shift", 0.0) if key == "g" else 0.0)


def check_sweep(out, ref):
    rows = list(csv.reader(io.StringIO(out)))
    header = ["mu2", "lambda2", "omega", "kappa", "g", "g_closed", "g_breve",
              "g_breve_closed", "sigma"]
    if not rows or rows[0] != header:
        return ["sweep: unexpected CSV header"]
    body = rows[1:]
    points = ref["points"]
    if len(body) != len(points):
        return [f"sweep: {len(body)} rows, expected {len(points)} admissible points"]
    problems = []
    for row, point in zip(body, points):
        vals = [float(x) for x in row]
        if tuple(vals[:4]) != point:
            problems.append(f"sweep: row {vals[:4]} out of order, expected {point}")
            break
        g, g_breve, sigma = closed_forms(*point)
        g += ref.get("g_shift", 0.0)
        pairs = [(vals[4], vals[5]), (vals[6], vals[7]), (vals[4], g),
                 (vals[6], g_breve), (vals[8], sigma)]
        if not all(close(a, b) for a, b in pairs):
            problems.append(f"sweep: values at {point} disagree with the closed forms")
            break
    return problems


def check_analyze(out, ref):
    rep = json.loads(out)
    problems = []
    if rep.get("has_gns_gap") != (ref["exit"] == 0):
        problems.append("analyze: has_gns_gap disagrees with the reference")
    gns, kms, st = rep.get("gns", {}), rep.get("kms", {}), rep.get("stationary", {})
    if not (gns.get("available") and kms.get("available") and st.get("available")):
        return problems + ["analyze: gap or stationary block unavailable"]
    if not close(gns["g"], _expected(ref, "g")):
        problems.append(f"analyze: g {gns['g']!r} != reference {ref['g']!r}")
    if not close(kms["g"], ref["g_breve"]):
        problems.append(f"analyze: g_breve {kms['g']!r} != reference {ref['g_breve']!r}")
    sigma = st["sigma"]
    if len(sigma) != len(ref["sigma"]) or not all(
        close(a, b) for a, b in zip(sigma, ref["sigma"])
    ):
        problems.append("analyze: symplectic eigenvalues disagree with the reference")
    return problems


def check_decay(out, ref):
    """Every row obeys its decay bound, and the bound columns decay at the
    reference rates: bound(t1) / bound(t2) = exp(-2 g (t1 - t2))."""
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != ["sample", "t", "gns_norm_sq", "gns_bound",
                               "kms_norm_sq", "kms_bound"]:
        return ["decay: unexpected CSV header"]
    body = [[float(x) for x in row] for row in rows[1:]]
    times = ref["times"]
    if len(body) != ref["samples"] * len(times):
        return [f"decay: {len(body)} rows, expected {ref['samples'] * len(times)}"]
    problems = []
    for _, t, gns, gns_b, kms, kms_b in body:
        if gns > gns_b * (1 + 1e-9) + 1e-12 or kms > kms_b * (1 + 1e-9) + 1e-12:
            problems.append(f"decay: norm above its bound at t = {t!r}")
            break
    rates = (("g", 3), ("g_breve", 5))
    for first in range(0, len(body), len(times)):
        a, b = body[first], body[first + len(times) - 1]
        for key, col in rates:
            if a[col] <= 0 or b[col] <= 0:
                continue
            rate = math.log(a[col] / b[col]) / (2.0 * (b[1] - a[1]))
            if not close(rate, _expected(ref, key)):
                problems.append(f"decay: bound decays at {rate!r}, not {key} = {ref[key]!r}")
                return problems
    return problems


def check_evolve(out, ref):
    states = json.loads(out)["states"]
    if [s["t"] for s in states] != ref["times"]:
        return ["evolve: times in the output differ from the request"]
    worst = max(s["dist_to_stationary"] for s in states)
    if worst > 1e-9:
        return [f"evolve: stationary state drifted by {worst:.3e}"]
    return []


def check_oracle(out, ref):
    rep = json.loads(out)
    problems = []
    if rep.get("pass") is not True or rep.get("check") != ref["check"]:
        problems.append(f"oracle {ref['check']}: did not pass")
    if ref["check"] == "gap":
        for block, key in (("gns", "g"), ("kms", "g_breve")):
            got, want = rep[block]["closed_form"], _expected(ref, key)
            if not close(got, want):
                problems.append(f"oracle gap: {block} closed form {got!r} != {want!r}")
    return problems


def check_preset_analyze(out, ref):
    """A one-mode preset report carries the closed forms too."""
    rep = json.loads(out)
    cf = rep.get("closed_form", {})
    problems = check_analyze(out, ref)
    if not cf.get("available") or not close(cf["g"], _expected(ref, "g")):
        problems.append("analyze preset: closed_form block disagrees")
    return problems
