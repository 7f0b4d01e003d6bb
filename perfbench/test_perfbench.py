"""Tests of the benchmark's own machinery (not of bcmac).

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import certify  # noqa: E402
import tracing  # noqa: E402


def _water_filling(gains, budget):
    for k in range(len(gains), 0, -1):
        level = (budget + np.sum(1.0 / gains[:k])) / k
        powers = level - 1.0 / gains[:k]
        if powers.min() > 0:
            return np.concatenate([powers, np.zeros(len(gains) - k)])
    raise AssertionError("no water level")


def test_frank_wolfe_bound_equals_water_filling_single_user():
    rng = np.random.default_rng(7)
    H = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    budget = 2.5
    U, s, _ = np.linalg.svd(H)
    powers = _water_filling(s ** 2, budget)
    capacity = float(np.sum(np.log1p(s ** 2 * powers)))
    # the optimal uplink covariance for Phi = I + H^H Q H is U diag(p) U^H
    Q_opt = (U * powers) @ U.conj().T
    value, gap = certify.frank_wolfe_bound([H], [1.0], (0,), np.eye(4), budget, [1.0], [Q_opt])
    assert value == pytest.approx(capacity, abs=1e-12)
    assert gap == pytest.approx(0.0, abs=1e-12)
    # from any other feasible point the bound still holds, and is looser
    value, gap = certify.frank_wolfe_bound([H], [1.0], (0,), np.eye(4), budget, [1.0],
                                           [np.eye(3) * budget / 3])
    assert value < capacity < value + gap


def test_frank_wolfe_bound_projects_infeasible_points():
    rng = np.random.default_rng(8)
    H = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    inflated = [10.0 * np.eye(2), -0.1 * np.eye(2)]
    value, gap = certify.frank_wolfe_bound(H, [1.0, 1.0], (0, 1), np.eye(2), 1.0,
                                           [1.0, 1.0], inflated)
    feasible = [np.eye(2) / 2.0, np.zeros((2, 2))]
    assert value == pytest.approx(
        certify.frank_wolfe_bound(H, [1.0, 1.0], (0, 1), np.eye(2), 1.0, [1.0, 1.0],
                                  feasible)[0], abs=1e-12)
    assert gap >= 0.0


def test_frank_wolfe_rejects_unsorted_weights():
    H = [np.eye(2), np.eye(2)]
    with pytest.raises(ValueError):
        certify.frank_wolfe_bound(H, [1.0, 1.0], (0, 1), np.eye(2), 1.0, [0.2, 0.8],
                                  [np.eye(2), np.eye(2)])
    assert certify.weight_sorted_order([0.2, 0.8]) == (1, 0)


def test_shortfall_sign_max_objective():
    # a maximised objective is worse when below its reference
    assert certify.shortfall_rel(9.0, 10.0, "max") == pytest.approx(0.1)
    assert certify.shortfall_rel(11.0, 10.0, "max") == pytest.approx(-0.1)


def test_shortfall_sign_min_objective():
    # a minimised objective is worse when above its reference
    assert certify.shortfall_rel(11.0, 10.0, "min") == pytest.approx(0.1)
    assert certify.shortfall_rel(9.0, 10.0, "min") == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        certify.shortfall_rel(1.0, 1.0, "best")


def test_violation_sign_and_scale():
    # positive slack is satisfied; the worst negative slack over its budget counts
    assert certify.violation_rel([0.5, 1.0], [5.0, 5.0]) == 0.0
    assert certify.violation_rel([-1e-4, 0.2], [5.0, 5.0]) == pytest.approx(2e-5)
    assert certify.violation_rel([-1e-4, -3e-3], [5.0, 10.0]) == pytest.approx(3e-4)


def _scalar_csv(alpha, slacks):
    return (f"alpha,lambda_1,lambda_2,slack_1,slack_2,iters\n"
            f"{alpha!r},0.5,0.5,{slacks[0]!r},{slacks[1]!r},7\n").encode()


def test_scalar_items_scale_violation_by_the_budget_in_force():
    import workloads

    ref = {"value": 0.25, "resolution_rel": 1e-14}
    # power balance: slack_l = alpha * P_l - usage_l, so the budget in force is
    # alpha * P_l; an overshoot of 1e-4 against 0.25 * 5 is 8e-5 relative
    files = {"p.csv": _scalar_csv(0.25, [-1e-4, 0.0])}
    [sol] = workloads._scalar_assess("p", ref, "min")(files)
    assert sol.violation == pytest.approx(1e-4 / (0.25 * workloads.BAL_BUDGET))
    assert sol.shortfall == pytest.approx(0.0, abs=1e-15)
    assert sol.floor == workloads.ERROR_FLOOR
    # a minimised ratio above its reference is worse: positive shortfall
    files = {"p.csv": _scalar_csv(0.25 * (1 + 3e-7), [0.0, 1.0])}
    [sol] = workloads._scalar_assess("p", ref, "min")(files)
    assert sol.shortfall == pytest.approx(3e-7) and sol.violation == 0.0
    # SINR balance: slack_l = P_l - usage_l; a maximised ratio below its
    # reference is worse
    ref = {"value": 4.0, "resolution_rel": 2e-11}
    files = {"s.csv": _scalar_csv(4.0 * (1 - 5e-8), [-1e-4, 0.3])}
    [sol] = workloads._scalar_assess("s", ref, "max")(files)
    assert sol.violation == pytest.approx(1e-4 / workloads.BAL_BUDGET)
    assert sol.shortfall == pytest.approx(5e-8) and sol.floor == 2e-11


def test_digits_floor():
    assert certify.digits(1e-5, 1e-9) == pytest.approx(5.0)
    assert certify.digits(-3e-3, 1e-9) == pytest.approx(9.0)
    assert certify.digits(0.0, 1e-9) == pytest.approx(9.0)


def test_mean_digits_is_the_geometric_mean_of_floored_errors():
    # each error is floored at its own floor before averaging
    assert certify.mean_digits([1e-6, 1e-8, -1.0], [1e-12, 1e-12, 1e-10]) == \
        pytest.approx((6.0 + 8.0 + 10.0) / 3)
    # scaling every error by 10 costs exactly one digit
    errs = [3e-7, 2e-5, 8e-9]
    floors = [1e-12] * 3
    assert certify.mean_digits(errs, floors) - certify.mean_digits(
        [10 * e for e in errs], floors) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        certify.mean_digits([], [])


def test_beam_balance_matches_single_user_closed_form():
    # one user, one beam u: SINR = p |H u|^2 / sigma2; per-antenna usage
    # p u_a^2 <= P_a, so the balanced ratio is min_a P_a / u_a^2 * |Hu|^2 /
    # (sigma2 * gamma)
    H = [np.array([[1.0, 0.3], [0.2, 0.9]])]
    A = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    P = [2.0, 3.0]
    theta = 0.7
    u = np.array([math.cos(theta), math.sin(theta)])
    gain = float(np.sum((H[0] @ u) ** 2))
    want = min(P[0] / u[0] ** 2, P[1] / u[1] ** 2) * gain / (0.5 * 1.5)
    got = certify.beam_balance(H, [0.5], (0,), [1.5], A, P, [[theta]])
    assert got[0] == pytest.approx(want, rel=1e-13)
    usage = certify.beam_usage(H, [0.5], (0,), [1.5], A, P, [[theta]], np.ones(1))
    assert usage[0] == pytest.approx(0.5 * 1.5 / gain * max(u[0] ** 2 / P[0],
                                                            u[1] ** 2 / P[1]), rel=1e-13)


def test_golden_max_finds_a_kink():
    x, fx = certify.golden_max(lambda t: -abs(t - 0.3), 0.0, 1.0, 80)
    assert x == pytest.approx(0.3, abs=1e-12) and fx == pytest.approx(0.0, abs=1e-12)


def test_self_times_on_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.leaf", 1.5, 2.0, 1),
        ("a.leaf", 2.5, 3.5, 1),
        ("b", 5.0, 9.0, 0),
        ("b.leaf", 5.0, 9.0, 4),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 0.0, 4.0])


def test_self_times_clip_and_merge_children():
    # overlapping children are covered once; a child past its parent's end is clipped
    spans = [("p", 0.0, 5.0, -1), ("c", 1.0, 3.0, 0), ("c", 2.0, 4.0, 0), ("c", 4.5, 7.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(5.0 - 3.0 - 0.5)


def test_group_times_count_nested_groups_once():
    spans = [
        ("mod.f", 0.0, 10.0, -1),
        ("mod.g", 1.0, 3.0, 0),
        ("other.h", 4.0, 6.0, 0),
        ("mod.k", 4.5, 5.0, 2),
    ]
    inclusive, self_s = tracing.group_times(spans, lambda n: n.split(".")[0])
    assert inclusive == pytest.approx({"mod": 10.0, "other": 2.0})
    assert self_s == pytest.approx({"mod": 6.0 + 2.0 + 0.5, "other": 1.5})


def test_tracer_wraps_by_identity_in_every_namespace():
    import types

    def f(x):
        return x + 1

    home = types.SimpleNamespace(f=f)
    other = types.SimpleNamespace(f=f, alias=f, unrelated=len)
    tracer = tracing.Tracer()
    seen = tracer.install([home, other], {f: ("mod.f", None)})
    assert seen == {"mod.f"}
    assert home.f is not f and other.alias is home.f and other.unrelated is len
    wrapped = tracer.wrap("mod.g", lambda x: home.f(x) * 2)
    assert wrapped(1) == 4
    tracer.uninstall()
    assert home.f is f and other.alias is f
    names = [(s[0], s[3]) for s in tracer.pass_spans(0)]
    assert names == [("mod.g", -1), ("mod.f", 0)]


def test_benchmark_json_matches_run_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    import layers
    import run
    import workloads

    assert {w["name"] for w in bench["workloads"]} == set(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    spans = [("orchestrator.solve_wsr_multi", 0.0, 1.0, -1)]
    names = set(layers.pass_counts(spans, {})) | set(layers.pass_times(spans))
    names.add("trace.overhead_s")
    assert {m["name"] for m in bench["per_layer"]} == names
    for m in bench["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert all(math.isfinite(m["bound"]) and 0 < m["bound"] <= 0.25
               for m in bench["end_to_end"])


def test_results_are_checked_against_their_sidecar(tmp_path):
    import hashlib

    import workloads

    data = b"w1,w2\n0.5,0.5\n"
    (tmp_path / "r.csv").write_bytes(data)
    meta = {"content_sha256": {"r.csv": hashlib.sha256(data).hexdigest()}, "partial": False}
    (tmp_path / "r.meta.json").write_text(json.dumps(meta))
    assert workloads._read_verified(str(tmp_path), "r") == {"r.csv": data}
    (tmp_path / "r.csv").write_bytes(data.replace(b"0.5", b"0.6"))
    with pytest.raises(ValueError, match="sha256"):
        workloads._read_verified(str(tmp_path), "r")
    (tmp_path / "r.csv").write_bytes(data)
    (tmp_path / "r.meta.json").write_text(json.dumps(dict(meta, partial=True)))
    with pytest.raises(ValueError, match="partial"):
        workloads._read_verified(str(tmp_path), "r")


def test_tally_fails_items_whose_output_changes_between_passes():
    import run
    import workloads

    tally = run.Tally()
    sols = [workloads.Solution("a", 1e-7, 0.0)]
    tally.add(0, workloads.Outcome("a", True, "d1", sols))
    tally.add(1, workloads.Outcome("a", True, "d1", sols))
    assert tally.deterministic and not tally.failures
    assert tally.shortfall_digits() == pytest.approx(7.0)
    assert tally.violation_digits() == pytest.approx(12.0)
    tally.add(2, workloads.Outcome("a", True, "d2", sols))
    assert not tally.deterministic
    assert tally.failures == [(2, "a", "output bytes differ from the first pass")]
    tally.add(3, workloads.Outcome("b", False, "", error="CLI exit code 3"))
    assert tally.attempted == 4 and len(tally.failures) == 2


def test_speed_scale_converts_to_reference_seconds():
    import speed

    meter = speed.Meter()
    meter.seconds, meter.calls = 0.03, 3  # the kernel ran at 10 ms a call
    other = speed.Meter()
    other.seconds, other.calls = 0.01, 1
    meter.add(other)
    assert meter.calls == 4
    assert meter.scale() == pytest.approx(speed.REF_KERNEL_S / 0.01)


def test_speed_kernel_is_invisible_to_the_linalg_wrappers():
    import layers
    import speed

    tracer = tracing.Tracer()
    spec = {getattr(np.linalg, n): (f"linalg.{n}", None) for n in layers.LAPACK}
    tracer.install([np.linalg], spec)
    try:
        np.linalg.eigh(np.eye(2))
        speed.Meter().sample(1)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.pass_spans(0)] == ["linalg.eigh"]
