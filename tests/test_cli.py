"""Command-line round trips: config errors, determinism and sidecar hashes."""

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from bcmac import cli, model, orchestrator, scenario

H1_CAP = [[1.0, 0.0], [0.2, 0.6]]
H2_CAP = [[0.5, 0.0], [0.2, 1.0]]
H3 = [[0.3, 0.1], [0.0, 0.8]]
PER_ANTENNA = [{"type": "per_antenna", "antenna": a, "budget": 5.0} for a in (1, 2)]
BALL = {"form": "quadratic_ball", "budget": 10.0,
        "a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]}


def _region_doc(**extra):
    doc = {"objective": "wsr_region", "channels": {"h": [H1_CAP, H2_CAP]},
           "constraints": PER_ANTENNA, "sweep": {"resolution": 2}, "seed": 3}
    doc.update(extra)
    return doc


def _balance_doc(**extra):
    return dict({"objective": "sinr_balance", "channels": {"h": [H1_CAP, H2_CAP]},
                 "constraints": PER_ANTENNA, "targets": [1.0, 2.0], "seed": 3}, **extra)


def _nonlinear_doc(**extra):
    return dict({"objective": "nonlinear_wsr", "channels": {"h": [H1_CAP, H2_CAP]},
                 "weights": [0.5, 0.5], "nonlinear": BALL, "seed": 3}, **extra)


def _write(tmp_path, doc):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def _args(command, config, out):
    return [command, "--config", config] + ([] if command == "validate" else ["--out", out])


@pytest.mark.parametrize("command", ["validate", "region"])
@pytest.mark.parametrize("doc, message", [
    (_region_doc(channels={"h": [H1_CAP, H2_CAP, H3]}), "one or two users"),
    (_region_doc(heuristic=True), "not positive definite"),
    # normalizing into the remaining constraints needs at least one
    (_region_doc(heuristic=True, constraints=[{"type": "sum_power", "budget": 8.0}]),
     "heuristic: normalization needs at least two constraints"),
    (_nonlinear_doc(nonlinear=dict(BALL, a=[[[1.0]]])), "need one or more 2x2 matrices"),
    (_region_doc(constraints=PER_ANTENNA[:1]), "not positive definite"),
    (_region_doc(seed="abc"), "seed: "),
    (_region_doc(sweep={"resolution": "many"}), "sweep.resolution: "),
    (_region_doc(constraints=[dict(PER_ANTENNA[0], antenna="first"), PER_ANTENNA[1]]),
     "constraints[0].antenna: "),
    (_region_doc(channels={"h": [H1_CAP, H2_CAP], "sigma2": ["low", 1.0]}), "channels.sigma2: "),
    (_region_doc(channels={"h": [H1_CAP, H2_CAP], "encoding_order": ["b", "a"]}),
     "channels.encoding_order: "),
    (_balance_doc(targets=["high", 1.0]), "targets: "),
    (_nonlinear_doc(weights=[0.5, "half"]), "weights: "),
    (_region_doc(heuristic="maybe"), "heuristic: expected true or false"),
    # integers are checked, not truncated, and numbers must be finite
    (_region_doc(constraints=[dict(PER_ANTENNA[0], antenna=1.9), PER_ANTENNA[1]]),
     "constraints[0].antenna: "),
    (_region_doc(sweep={"resolution": 2.7}), "sweep.resolution: "),
    (_nonlinear_doc(weights=[math.nan, 0.5]), "weights: "),
    (_region_doc(constraints=[dict(PER_ANTENNA[0], budget=math.inf), PER_ANTENNA[1]]),
     "constraints[0]: constraint budget must be positive and finite"),
    (_region_doc(solver={"tol": math.inf}), "solver: tol must be positive and finite"),
    # the ball's matrices must be PSD, as a linear constraint's must
    (_nonlinear_doc(channels={"h": [[[0.1, 2.0], [0.0, 0.1]], [[0.0, 1.5], [0.1, 0.0]]]},
                    weights=[2.0, 1.0],
                    nonlinear=dict(BALL, budget=100.0, a=[[[1.0, 0.0], [0.0, 0.0]],
                                                          [[-0.5, 0.0], [0.0, 1.0]]])),
     "nonlinear: constraint matrix must be PSD"),
], ids=["three_users", "heuristic_singular_first", "heuristic_one_constraint",
        "nonlinear_matrix_size", "single_per_antenna", "seed_not_a_number",
        "resolution_not_a_number",
        "antenna_not_a_number", "sigma2_not_numbers", "encoding_order_not_numbers",
        "targets_not_numbers", "weights_not_numbers", "heuristic_not_a_boolean",
        "antenna_not_an_integer", "resolution_not_an_integer", "weights_not_finite",
        "budget_not_finite", "tol_not_finite", "nonlinear_matrix_indefinite"])
def test_config_errors_exit_2(tmp_path, capsys, command, doc, message):
    out = tmp_path / "out"
    assert cli.main(_args(command, _write(tmp_path, doc), str(out))) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "region"])
def test_malformed_yaml_exits_2(tmp_path, capsys, command):
    """A document the YAML parser rejects is a config error, whichever
    loader parses it."""
    path, out = tmp_path / "config.yaml", tmp_path / "out"
    path.write_text("objective: wsr_region\nchannels: {h: [[[1.0, 0.0]\n", encoding="utf-8")
    assert cli.main(_args(command, str(path), str(out))) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, key", [
    # a budget nonlinear_wsr would ignore: its covariance has total power 4.47
    (_nonlinear_doc(constraints=[{"type": "sum_power", "budget": 0.01}]), "constraints"),
    (_region_doc(targets=[1.0, 2.0]), "targets"),
    (_balance_doc(weights=[0.5, 0.5]), "weights"),
    (_balance_doc(objective="power_balance", sweep={"resolution": 3}), "sweep"),
    (_balance_doc(heuristic=False), "heuristic"),
], ids=["nonlinear_wsr_constraints", "wsr_region_targets", "sinr_balance_weights",
        "power_balance_sweep", "sinr_balance_heuristic"])
@pytest.mark.parametrize("run", [False, True], ids=["validate", "run"])
def test_keys_the_objective_does_not_read_exit_2(tmp_path, capsys, doc, key, run):
    """A key the configured objective does not read is a config error naming
    the key and the objective, from ``validate`` and from the subcommand
    that runs the objective."""
    out = tmp_path / "out"
    command = scenario.OBJECTIVES[doc["objective"]].subcommand if run else "validate"
    assert cli.main(_args(command, _write(tmp_path, doc), str(out))) == 2
    err = capsys.readouterr().err
    assert f"config: unknown {doc['objective']} key '{key}'" in err
    assert not out.exists()


def test_subcommands_are_the_objective_table_and_validate():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    table = {row.subcommand for row in scenario.OBJECTIVES.values()}
    assert set(sub.choices) == table | {"validate"}
    assert len(table) == len(scenario.OBJECTIVES)


def test_subcommand_of_another_objective_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(_args("region", _write(tmp_path, _nonlinear_doc()), str(out))) == 2
    assert "objective 'nonlinear_wsr' runs under subcommand 'nonlinear', not 'region'" \
        in capsys.readouterr().err
    assert not out.exists()


def test_heuristic_with_definite_first_constraint_validates(tmp_path):
    cons = [{"type": "sum_power", "budget": 8.0}] + PER_ANTENNA
    doc = _region_doc(heuristic=True, constraints=cons)
    assert cli.main(_args("validate", _write(tmp_path, doc), "")) == 0


def test_region_deterministic_and_hashed(tmp_path):
    config = _write(tmp_path, _region_doc())
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(_args("region", config, str(out))) == 0
        meta = json.loads((out / "wsr_region.meta.json").read_text(encoding="utf-8"))
        assert not meta["partial"]
        assert sorted(meta["content_sha256"]) == ["wsr_region.csv"]
        files = {}
        for fname, digest in meta["content_sha256"].items():
            files[fname] = (out / fname).read_bytes()
            assert hashlib.sha256(files[fname]).hexdigest() == digest
        runs.append(files)
    assert runs[0] == runs[1]
    lines = runs[0]["wsr_region.csv"].decode("utf-8").splitlines()
    assert len(lines) == 1 + 3  # header and weights 0, 1/2, 1


@pytest.mark.parametrize("run", [scenario.run_region, scenario.run_heuristic_normalization],
                         ids=["run_region", "run_heuristic_normalization"])
def test_sweep_solves_each_weight_once(tmp_path, monkeypatch, run):
    """One solve per swept weight: an endpoint solves the weighted user alone,
    an interior weight both users in the weight-sorted encoding order (ties
    in the configured one).  Every row meets constraints 2..L, which the
    heuristic rows are rescaled for."""
    cons = [{"type": "sum_power", "budget": 8.0}] + PER_ANTENNA
    doc = _region_doc(heuristic=True, constraints=cons, sweep={"resolution": 4})
    cfg = scenario.load_config(_write(tmp_path, doc))
    solve, users = orchestrator.solve_wsr_multi, []

    def counted(ch, *args, **kwargs):
        users.append(ch.K)
        return solve(ch, *args, **kwargs)

    monkeypatch.setattr(orchestrator, "solve_wsr_multi", counted)
    rows = run(cfg)
    assert len(rows) == 5
    assert sorted(users) == [1, 1, 2, 2, 2]
    table = scenario.region_csv(rows, 2, 3).splitlines()
    header = table[0].split(",")
    for line in table[1:]:
        cells = dict(zip(header, line.split(",")))
        if 0.0 < float(cells["w1"]) < 1.0:
            assert cells["order"] == ("21" if float(cells["w1"]) < 0.5 else "12")
        for l in (2, 3):
            assert float(cells[f"slack_{l}"]) >= -1e-12 * 5.0


def test_region_rows_are_feasible_with_a_certified_gap(tmp_path):
    """The Section VI sweep: every row meets both per-antenna constraints,
    and its g_gap (least evaluated bound minus the row's weighted sum rate)
    is a nonnegative certified gap."""
    out = tmp_path / "out"
    doc = _region_doc(sweep={"resolution": 5})
    assert cli.main(_args("region", _write(tmp_path, doc), str(out))) == 0
    lines = (out / "wsr_region.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert len(lines) == 1 + 6
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        assert float(cells["slack_1"]) >= -1e-12 * 5.0
        assert float(cells["slack_2"]) >= -1e-12 * 5.0
        assert 0.0 <= float(cells["g_gap"]) <= 1e-5


@pytest.mark.parametrize("command, objective, solver", [
    ("balance", "sinr_balance", "solve_sinr_balance_multi"),
    ("powermin", "power_balance", "solve_power_balance_multi"),
])
def test_balancing_rows_end_with_the_search_gap(tmp_path, monkeypatch, command, objective,
                                                solver):
    """A balancing row ends with ``gap``, the multiplier search's signed
    relative gap from its best bound to the emitted alpha."""
    solve, traces = getattr(orchestrator, solver), []

    def kept(*args, **kwargs):
        result = solve(*args, **kwargs)
        traces.append(result[3])
        return result

    monkeypatch.setattr(orchestrator, solver, kept)
    doc = _balance_doc(objective=objective)
    out = tmp_path / "out"
    assert cli.main(_args(command, _write(tmp_path, doc), str(out))) == 0
    header, row = (out / f"{objective}.csv").read_text(encoding="utf-8").splitlines()
    assert header.split(",")[-1] == "gap"
    gap = float(row.split(",")[-1])
    assert gap == traces[0].gap
    assert -1e-12 <= gap <= 1e-6


def test_two_constraint_region_does_not_import_scipy(tmp_path):
    """Only searches over three or more multipliers load scipy; a
    two-constraint region run in a fresh interpreter never does."""
    out = tmp_path / "out"
    code = ("import sys\n"
            "from bcmac import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "sys.exit(f'scipy loaded: {loaded[:3]}' if loaded else 0)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, "region", "--config",
                           _write(tmp_path, _region_doc()), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_three_constraint_region_does_not_import_scipy(tmp_path):
    """The search over three or more multipliers is numpy alone: a region
    run under three constraints in a fresh interpreter loads no scipy."""
    out = tmp_path / "out"
    doc = _region_doc(constraints=PER_ANTENNA + [{"type": "sum_power", "budget": 8.0}])
    code = ("import sys\n"
            "from bcmac import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "sys.exit(f'scipy loaded: {loaded[:3]}' if loaded else 0)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code, "region", "--config",
                           _write(tmp_path, doc), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len((out / "wsr_region.csv").read_text(encoding="utf-8").splitlines()) == 1 + 3


@pytest.mark.parametrize("doc, message", [
    (_region_doc(solver={"tolerance": 1e-12}), "unknown setting 'tolerance'"),
    (_region_doc(outer={"restarts": 3}), "unknown setting 'restarts'"),
    (_region_doc(solver={"restarts": 2}), "unknown setting 'restarts'"),
    (_region_doc(solver={"seed": 7}), "unknown setting 'seed'"),
    (_region_doc(solver={"armijo_beta": 0.5}), "unknown setting 'armijo_beta'"),
    (_region_doc(solver={"pd_floor": 1e-8}), "unknown setting 'pd_floor'"),
], ids=["unknown_solver_key", "outer_key_the_loop_ignores", "solver_restarts", "solver_seed",
        "solver_armijo_beta", "solver_pd_floor"])
def test_inert_settings_are_config_errors(tmp_path, capsys, doc, message):
    assert cli.main(_args("validate", _write(tmp_path, doc), "")) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


@pytest.mark.parametrize("flag", [["--tol", "1e-3"], ["--max-iters", "5"], ["--seed", "3"]],
                         ids=["tol", "max_iters", "seed"])
def test_settings_are_not_command_line_flags(tmp_path, capsys, flag):
    """Settings come from the config only: a setting flag is a usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.main(_args("region", _write(tmp_path, _region_doc()), str(tmp_path / "out")) + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc, message", [
    (_region_doc(sweep={"resolutoin": 3}), "sweep: unknown key 'resolutoin'"),
    (_nonlinear_doc(nonlinear=dict(BALL, eps=0.01)), "nonlinear: unknown key 'eps'"),
    (_region_doc(output={"basenme": "x"}), "output: unknown key 'basenme'"),
    (_region_doc(resolution=3), "config: unknown wsr_region key 'resolution'"),
], ids=["sweep_typo", "nonlinear_eps", "output_typo", "top_level"])
def test_unknown_keys_are_config_errors(tmp_path, capsys, doc, message):
    assert cli.main(_args("validate", _write(tmp_path, doc), "")) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_workers_is_accepted_and_ignored(tmp_path):
    assert cli.main(_args("validate", _write(tmp_path, _region_doc(workers=4)), "")) == 0


def test_nonlinear_encodes_in_weight_order(tmp_path, monkeypatch):
    """The default order and the weight-sorted order [2, 1] solve the same
    problem and write the same one-row result, whose rate lies between the
    rate scaled into the ball (achievable) and the least merged-constraint
    bound."""
    w = np.array([0.3, 0.7])
    solve, solved = orchestrator.solve_wsr_nonlinear, []

    def kept(ch, f, *args, **kwargs):
        solved.append((ch, f) + solve(ch, f, *args, **kwargs))
        return solved[-1][2:]

    monkeypatch.setattr(orchestrator, "solve_wsr_nonlinear", kept)
    rows = []
    for channels in ({"h": [H1_CAP, H2_CAP]},
                     {"h": [H1_CAP, H2_CAP], "encoding_order": [2, 1]}):
        doc = _nonlinear_doc(channels=channels, weights=w.tolist())
        out = tmp_path / str(len(rows))
        assert cli.main(_args("nonlinear", _write(tmp_path, doc), str(out))) == 0
        lines = (out / "nonlinear_wsr.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        rows.append(dict(zip(lines[0].split(","), map(float, lines[1].split(",")))))
    assert rows[0] == rows[1]
    emitted = rows[0]["wsr_bits"]
    assert emitted == pytest.approx(1.7911232911, rel=1e-8)
    assert rows[0]["f_value"] <= 1e-9 * 10.0
    ch, f, cov, result = solved[0]
    factor = min(1.0, np.sqrt(10.0) / np.linalg.norm(f.traces(cov)))
    scaled = model.CovarianceSet("bc", [factor * Q for Q in cov.Q])
    achievable = float(w @ model.bc_rates_dpc(ch, scaled)) / math.log(2.0)
    bound = min(result.trace.value) / math.log(2.0)
    assert achievable - 1e-12 <= emitted <= bound + 1e-12
