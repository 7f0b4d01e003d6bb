"""Scenario configs, batch region sweeps, and machine-readable results.

Configs are single YAML documents (key/value with nested lists; complex
matrix entries written as [re, im] pairs).  Results are CSV files with a
header row plus a JSON metadata sidecar carrying the echoed settings and a
sha256 content hash of the CSV, so identical config + seed give byte-identical
outputs.  Rates are bits/channel use in files, nats internally.  A config key
the program does not read is an error; ``workers`` is still accepted and does
nothing, and ``seed`` is only echoed to the sidecar (the solvers are
deterministic).

A region row's ``g_gap`` is its certified gap in nats: the least bound the
multiplier search evaluated (inner objective plus Frank-Wolfe gap) minus the
row's weighted sum rate, which is achievable because the emitted covariance
meets every constraint.

A ``nonlinear_wsr`` run writes one row: the weighted sum rate and phi of the
emitted covariance, the normal of the merged constraint with the best bound
(whose support function value is its budget), the number of evaluations and
``gap``, the search's signed relative gap from the best bound to the emitted
value; a balancing row holds alpha, the best bound's multipliers, the
slacks, ``iters`` and ``gap`` (uncertified for SINR balancing).

Both weighted-sum-rate objectives encode users in descending weight, the
optimal order on the dual uplink, so a swept weight is solved once; there a
config's ``encoding_order`` only orders equal weights (it binds for balancing).
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np
import yaml

from . import linalg, model, orchestrator
from .errors import InvalidInput, SingularConstraintMatrix
from .macsolver import SolverSettings
from .model import ChannelSet, LinearConstraint, SinrTargets

OBJECTIVES = ("wsr_region", "sinr_balance", "power_balance", "nonlinear_wsr")

LN2 = math.log(2.0)


class ConfigError(InvalidInput):
    """Scenario config failed validation."""


@dataclass
class ScenarioConfig:
    objective: str
    channels: ChannelSet
    constraints: list
    nonlinear: object = None
    weights: np.ndarray = None
    targets: SinrTargets = None
    resolution: int = 20
    solver: SolverSettings = field(default_factory=SolverSettings)
    outer: SolverSettings = field(default_factory=lambda: SolverSettings(max_iters=80))
    seed: int = 0
    basename: str = "result"
    heuristic: bool = False
    raw: dict = None


@dataclass
class RegionPoint:
    weights: tuple
    order: str
    rates_bits: np.ndarray
    lam: np.ndarray
    slacks: np.ndarray
    iterations: int
    g_gap: float


def _entry_to_complex(x, where):
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2 \
            and all(isinstance(v, (int, float)) for v in x):
        return complex(x[0], x[1])
    raise ConfigError(f"{where}: matrix entries must be numbers or [re, im] pairs")


def _parse_matrix(rows, where):
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ConfigError(f"{where}: expected a list of rows")
    mat = [[_entry_to_complex(x, where) for x in row] for row in rows]
    widths = {len(r) for r in mat}
    if len(widths) != 1:
        raise ConfigError(f"{where}: ragged matrix")
    return np.array(mat, dtype=np.complex128)


TOP_KEYS = ("objective", "channels", "constraints", "nonlinear", "weights", "targets",
            "sweep", "output", "solver", "outer", "seed", "heuristic",
            "workers")  # workers: accepted, does nothing


def _check_keys(mapping, allowed, where, what="key"):
    for name in mapping:
        if name not in allowed:
            raise ConfigError(f"{where}: unknown {what} '{name}' (accepted: {', '.join(allowed)})")


def _section(doc, key, allowed, what="key"):
    """The mapping under ``key`` (empty when absent), every key in ``allowed``."""
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: expected a mapping")
    _check_keys(section, allowed, key, what)
    return section


def _parse_channels(doc):
    section = doc.get("channels")
    if not isinstance(section, dict) or "h" not in section:
        raise ConfigError("channels.h is required")
    H = [_parse_matrix(rows, f"channels.h[{i}]") for i, rows in enumerate(section["h"])]
    sigma2 = section.get("sigma2")
    order = section.get("encoding_order")
    if order is not None:
        order = [int(i) - 1 for i in order]  # users are 1-based in files
    try:
        return ChannelSet(H, sigma2, order)
    except InvalidInput as exc:
        raise ConfigError(f"channels: {exc}") from exc


def _parse_constraints(doc, nt):
    out = []
    for i, spec in enumerate(doc.get("constraints") or []):
        where = f"constraints[{i}]"
        if not isinstance(spec, dict) or "type" not in spec:
            raise ConfigError(f"{where}: expected a mapping with a 'type'")
        kind = spec["type"]
        try:
            budget = float(spec["budget"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{where}: numeric 'budget' is required")
        try:
            if kind == "sum_power":
                out.append(LinearConstraint.sum_power(nt, budget))
            elif kind == "per_antenna":
                ant = int(spec.get("antenna", 0)) - 1
                if not (0 <= ant < nt):
                    raise ConfigError(f"{where}: antenna must be in 1..{nt}")
                out.append(LinearConstraint.per_antenna(nt, ant, budget))
            elif kind == "matrix":
                A = _parse_matrix(spec.get("a"), f"{where}.a")
                out.append(LinearConstraint(A, budget))
            else:
                raise ConfigError(f"{where}: unknown type '{kind}'")
        except InvalidInput as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return out


def _parse_nonlinear(doc, nt):
    if doc.get("nonlinear") is None:
        return None
    section = _section(doc, "nonlinear", ("form", "a", "budget"))
    form = section.get("form")
    if form != "quadratic_ball":
        raise ConfigError(f"nonlinear.form '{form}' is not supported")
    mats = [_parse_matrix(m, f"nonlinear.a[{i}]") for i, m in enumerate(section.get("a") or [])]
    if not mats or any(m.shape != (nt, nt) for m in mats):
        raise ConfigError(f"nonlinear.a: need one or more {nt}x{nt} matrices")
    try:
        budget = float(section["budget"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("nonlinear.budget is required")
    try:
        return orchestrator.QuadraticBall(mats, budget)
    except InvalidInput as exc:
        raise ConfigError(f"nonlinear: {exc}") from exc


# seed and restarts are SolverSettings fields that nothing reads
SETTING_TYPES = {f.name: f.type for f in fields(SolverSettings)
                 if f.name not in ("seed", "restarts")}
OUTER_KEYS = ("tol", "max_iters")  # all the multiplier search reads


def _parse_settings(doc, key, default, names=tuple(SETTING_TYPES)):
    section = _section(doc, key, names, "setting")
    try:
        return replace(default, **{name: SETTING_TYPES[name](value)
                                   for name, value in section.items()})
    except (InvalidInput, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def load_config(path):
    """Parse and validate a scenario config document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    _check_keys(doc, TOP_KEYS, "config")
    objective = doc.get("objective")
    if objective not in OBJECTIVES:
        raise ConfigError(f"objective must be one of {OBJECTIVES}")
    ch = _parse_channels(doc)
    constraints = _parse_constraints(doc, ch.nt)
    nonlinear = _parse_nonlinear(doc, ch.nt)
    if objective == "nonlinear_wsr":
        if nonlinear is None:
            raise ConfigError("nonlinear_wsr requires a 'nonlinear' section")
    elif not constraints:
        raise ConfigError(f"objective {objective} requires a nonempty constraint list")
    if objective == "wsr_region" and ch.K > 2:
        raise ConfigError(f"wsr_region sweeps one or two users, config has {ch.K}")
    weights = doc.get("weights")
    if weights is not None:
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if weights.shape != (ch.K,) or np.any(weights <= 0):
            raise ConfigError(f"weights must be {ch.K} positive numbers")
    targets = doc.get("targets")
    if targets is not None:
        try:
            targets = SinrTargets(targets)
        except InvalidInput as exc:
            raise ConfigError(f"targets: {exc}") from exc
        if targets.gamma.shape != (ch.K,):
            raise ConfigError(f"targets must list {ch.K} values")
    if objective in ("sinr_balance", "power_balance") and targets is None:
        raise ConfigError(f"objective {objective} requires 'targets'")
    if objective == "nonlinear_wsr" and weights is None:
        raise ConfigError("nonlinear_wsr requires 'weights'")
    resolution = int(_section(doc, "sweep", ("resolution",)).get("resolution", 20))
    if resolution < 1:
        raise ConfigError("sweep.resolution must be >= 1")
    basename = str(_section(doc, "output", ("basename",)).get("basename", objective))
    solver = _parse_settings(doc, "solver", SolverSettings())
    heuristic = bool(doc.get("heuristic", False))
    # a constraint set bounds the transmit power only if its matrices sum to
    # a positive definite one; the heuristic solves under constraints[0] alone
    if heuristic and objective == "wsr_region":
        bounded, name = constraints[0].A, "heuristic: constraints[0] matrix"
    elif objective == "nonlinear_wsr":
        bounded, name = sum(nonlinear.mats), "sum of the nonlinear.a matrices"
    else:
        bounded, name = sum(c.A for c in constraints), "sum of the constraint matrices"
    try:
        linalg.assert_pd(bounded, floor=solver.pd_floor, name=name)
    except SingularConstraintMatrix as exc:
        raise ConfigError(str(exc)) from exc
    return ScenarioConfig(
        objective=objective,
        channels=ch,
        constraints=constraints,
        nonlinear=nonlinear,
        weights=weights,
        targets=targets,
        resolution=resolution,
        solver=solver,
        outer=_parse_settings(doc, "outer", SolverSettings(max_iters=80), OUTER_KEYS),
        seed=int(doc.get("seed", 0)),
        basename=basename,
        heuristic=heuristic,
        raw=doc,
    )


def _fmt(x):
    return repr(float(x))


def _order_label(ch):
    return "".join(str(i + 1) for i in ch.encoding_order)


def _weight_sorted(ch, w):
    """``ch`` encoded in descending weight ``w``, ties in the configured order."""
    return ch.with_order(sorted(ch.encoding_order, key=lambda i: -w[i]))


def _user_rates(ch, users, solved, cov):
    """Rates of every user of ``ch`` (zero outside ``users``) for a downlink
    covariance solved on ``solved``, the channel set of ``users``."""
    rates = np.zeros(ch.K)
    rates[users] = model.bc_rates_dpc(solved, cov)
    return rates


def _region_point(cfg, t):
    """One swept weight, solved once: the row, and the channel set, its users
    and the downlink covariance it was solved on.  A two-user endpoint is the
    weighted user's capacity alone (the other rate zero); other weights are
    solved in the weight-sorted order, equal weights in the configured one."""
    ch = cfg.channels
    w = np.array([t, 1.0 - t]) if ch.K == 2 else np.array([1.0])
    if ch.K == 2 and t in (0.0, 1.0):
        users = [0 if t == 1.0 else 1]
        solved = ChannelSet([ch.H[users[0]]], [ch.sigma2[users[0]]])
    else:
        users = list(range(ch.K))
        solved = _weight_sorted(ch, w)
    cov, lam, tr = orchestrator.solve_wsr_multi(solved, cfg.constraints, w[users],
                                                cfg.outer, cfg.solver)
    rates = _user_rates(ch, users, solved, cov)
    row = RegionPoint(tuple(w), _order_label(solved if len(users) == ch.K else ch),
                      rates / LN2, lam.values, model.constraint_slacks(cov, cfg.constraints),
                      tr.iterations, min(tr.value) - float(w @ rates))
    return row, solved, users, cov


def sweep_weights(resolution):
    return [i / resolution for i in range(resolution + 1)]


def run_region(cfg):
    """Weighted-sum-rate region sweep; returns RegionPoint rows ordered by
    weight index."""
    return [_region_point(cfg, t)[0] for t in sweep_weights(cfg.resolution)]


def run_heuristic_normalization(cfg):
    """Achievable (suboptimal) region: solve under the first constraint only,
    then shrink the covariance so every remaining constraint holds."""
    if len(cfg.constraints) < 2:
        raise ConfigError("heuristic normalization needs at least two constraints")
    others = cfg.constraints[1:]
    sub_cfg = replace(cfg, constraints=cfg.constraints[:1])
    rows = []
    for t in sweep_weights(cfg.resolution):
        point, solved, users, cov = _region_point(sub_cfg, t)
        scaled = model.CovarianceSet.built(model.BC, model.feasible_scale(cov, others) * cov.Q)
        rates = _user_rates(cfg.channels, users, solved, scaled)
        rows.append(RegionPoint(point.weights, point.order, rates / LN2,
                                np.full(len(cfg.constraints), np.nan),
                                model.constraint_slacks(scaled, cfg.constraints), 0, np.nan))
    return rows


def region_csv(rows, n_users, n_constraints):
    header = ["w1", "w2", "order"] + [f"r{i+1}_bits" for i in range(n_users)] \
        + [f"lambda_{l+1}" for l in range(n_constraints)] \
        + [f"slack_{l+1}" for l in range(n_constraints)] + ["iters", "g_gap"]
    lines = [",".join(header)]
    for p in rows:
        w2 = p.weights[1] if len(p.weights) > 1 else 0.0
        cells = [_fmt(p.weights[0]), _fmt(w2), p.order]
        cells += [_fmt(r) for r in p.rates_bits]
        cells += [_fmt(x) for x in p.lam]
        cells += [_fmt(x) for x in p.slacks]
        cells += [str(int(p.iterations)), _fmt(p.g_gap)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def trace_csv(trace, alpha_label="value"):
    header = ["iter", alpha_label] + \
        [f"lambda_{l+1}" for l in range(len(trace.lam[0]))] + \
        [f"subgrad_{l+1}" for l in range(len(trace.lam[0]))]
    lines = [",".join(header)]
    for i in range(trace.iterations):
        cells = [str(i)] + [_fmt(trace.value[i])]
        cells += [_fmt(x) for x in trace.lam[i]]
        cells += [_fmt(x) for x in trace.subgrad[i]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_balance(cfg):
    alpha, bf, lam, trace = orchestrator.solve_sinr_balance_multi(
        cfg.channels, cfg.constraints, cfg.targets, cfg.outer, cfg.solver)
    slacks = model.constraint_slacks(bf.bc_covariances(), cfg.constraints)
    return alpha, lam.values, slacks, trace


def run_power_balance(cfg):
    alpha, bf, lam, trace = orchestrator.solve_power_balance_multi(
        cfg.channels, cfg.constraints, cfg.targets, cfg.outer, cfg.solver)
    cov = bf.bc_covariances()
    slacks = np.array([alpha * c.P - model.constraint_value(cov, c)
                       for c in cfg.constraints])
    return alpha, lam.values, slacks, trace


def run_nonlinear(cfg):
    """Weighted sum rate (nats) and phi of the emitted covariance, the
    normal of the best bound and the multiplier-search trace."""
    ch = _weight_sorted(cfg.channels, cfg.weights)
    cov, result = orchestrator.solve_wsr_nonlinear(ch, cfg.nonlinear, cfg.weights, cfg.outer,
                                                   cfg.solver)
    wsr = float(cfg.weights @ model.bc_rates_dpc(ch, cov))
    return wsr, cfg.nonlinear.value(cov), result.lam.values, result.trace


def scalar_result_csv(lead, lam, slacks, trace):
    """One row: the ``lead`` columns (name: value), lambda_l, slack_l, the
    search's evaluation count ``iters`` and its signed gap ``gap``."""
    header = list(lead) + [f"lambda_{l+1}" for l in range(lam.size)] \
        + [f"slack_{l+1}" for l in range(slacks.size)] + ["iters", "gap"]
    cells = [_fmt(x) for x in lead.values()] + [_fmt(x) for x in lam] \
        + [_fmt(x) for x in slacks] + [str(int(trace.iterations)), _fmt(trace.gap)]
    return ",".join(header) + "\n" + ",".join(cells) + "\n"


def write_outputs(out_dir, basename, files, cfg, partial=False):
    """Write result files plus the metadata sidecar; returns written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    hashes = {}
    for suffix, content in files.items():
        name = f"{basename}{suffix}"
        path = os.path.join(out_dir, name)
        data = content.encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data)
        paths[name] = path
        hashes[name] = hashlib.sha256(data).hexdigest()
    meta = {
        "config": cfg.raw,
        "content_sha256": hashes,
        "partial": partial,
        "seed": cfg.seed,
        "version": 1,
    }
    meta_path = os.path.join(out_dir, f"{basename}.meta.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, sort_keys=True, indent=2)
        fh.write("\n")
    paths[f"{basename}.meta.json"] = meta_path
    return paths


def run_scenario(cfg, out_dir):
    """Dispatch on the configured objective; writes result files and returns
    their paths."""
    files = {}
    if cfg.objective == "wsr_region":
        rows = run_region(cfg)
        files[".csv"] = region_csv(rows, cfg.channels.K, len(cfg.constraints))
        if cfg.heuristic:
            hrows = run_heuristic_normalization(cfg)
            files["_heuristic.csv"] = region_csv(hrows, cfg.channels.K,
                                                 len(cfg.constraints))
    elif cfg.objective == "sinr_balance":
        alpha, lam, slacks, trace = run_balance(cfg)
        files[".csv"] = scalar_result_csv({"alpha": alpha}, lam, slacks, trace)
        files["_trace.csv"] = trace_csv(trace, "alpha")
    elif cfg.objective == "power_balance":
        alpha, lam, slacks, trace = run_power_balance(cfg)
        files[".csv"] = scalar_result_csv({"alpha": alpha}, lam, slacks, trace)
        files["_trace.csv"] = trace_csv(trace, "bound")
    elif cfg.objective == "nonlinear_wsr":
        wsr, f_value, lam, trace = run_nonlinear(cfg)
        files[".csv"] = scalar_result_csv({"wsr_bits": wsr / LN2, "f_value": f_value}, lam,
                                          np.zeros(0), trace)
    else:  # pragma: no cover - load_config guards this
        raise ConfigError(f"unknown objective {cfg.objective}")
    return write_outputs(out_dir, cfg.basename, files, cfg)
