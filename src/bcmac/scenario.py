"""Scenario configs, batch region sweeps, and machine-readable results.

Configs are single YAML documents (key/value with nested lists; complex
matrix entries written as [re, im] pairs).  Results are CSV files with a
header row plus a JSON metadata sidecar carrying the echoed settings and a
sha256 content hash of the CSV, so identical config + seed give byte-identical
outputs.  Rates are bits/channel use in files, nats internally.

A swept weight is solved once per encoding order: the region point returns
its row with the channel set and downlink covariance it came from, and the
heuristic normalization rescales that covariance.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

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
    section = doc.get("nonlinear")
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigError("nonlinear: expected a mapping")
    form = section.get("form")
    if form != "quadratic_ball":
        raise ConfigError(f"nonlinear.form '{form}' is not supported")
    mats = [_parse_matrix(m, f"nonlinear.a[{i}]") for i, m in enumerate(section.get("a") or [])]
    if not mats:
        raise ConfigError("nonlinear.a: need at least one matrix")
    try:
        budget = float(section["budget"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("nonlinear.budget is required")
    eps = float(section.get("eps", 1e-3 * budget))
    try:
        ball = orchestrator.QuadraticBall(mats, budget)
    except InvalidInput as exc:
        raise ConfigError(f"nonlinear: {exc}") from exc
    return ball, eps


def _parse_settings(doc, key, default):
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: expected a mapping")
    kwargs = {}
    for name in ("tol", "max_iters", "armijo_beta", "armijo_c", "pd_floor",
                 "restarts", "seed"):
        if name in section:
            cast = int if name in ("max_iters", "restarts", "seed") else float
            kwargs[name] = cast(section[name])
    try:
        return replace(default, **kwargs)
    except InvalidInput as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def load_config(path):
    """Parse and validate a scenario config document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
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
    sweep = doc.get("sweep") or {}
    resolution = int(sweep.get("resolution", 20))
    if resolution < 1:
        raise ConfigError("sweep.resolution must be >= 1")
    output = doc.get("output") or {}
    basename = str(output.get("basename", objective))
    solver = _parse_settings(doc, "solver", SolverSettings())
    heuristic = bool(doc.get("heuristic", False))
    if heuristic and objective == "wsr_region":
        # the heuristic solves under constraints[0] alone, which is unbounded
        # unless its matrix is positive definite
        try:
            linalg.assert_pd(constraints[0].A, floor=solver.pd_floor,
                             name="heuristic: constraints[0] matrix")
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
        outer=_parse_settings(doc, "outer", SolverSettings(max_iters=80)),
        seed=int(doc.get("seed", 0)),
        basename=basename,
        heuristic=heuristic,
        raw=doc,
    )


def _fmt(x):
    return repr(float(x))


def _order_label(ch):
    return "".join(str(i + 1) for i in ch.encoding_order)


def _point_seed(base, idx):
    return (int(base) * 100003 + 7919 * int(idx)) % (2 ** 31 - 1)


def _user_rates(ch, users, variant, cov):
    """Rates of every user of ``ch`` (zero outside ``users``) for a downlink
    covariance solved on ``variant``, the channel set of ``users``."""
    rates = np.zeros(ch.K)
    rates[users] = model.bc_rates_dpc(variant, cov)
    return rates


def _region_point(cfg, t, idx):
    """One swept weight: the row, and the channel set, its users and the
    downlink covariance it was solved on.  A two-user endpoint is the
    weighted user's capacity alone (the other rate zero); other weights keep
    the better encoding order."""
    ch = cfg.channels
    inner = replace(cfg.solver, seed=_point_seed(cfg.seed, idx))
    w = np.array([t, 1.0 - t]) if ch.K == 2 else np.array([1.0])
    if ch.K == 2 and t in (0.0, 1.0):
        users = [0 if t == 1.0 else 1]
        variants = [ChannelSet([ch.H[users[0]]], [ch.sigma2[users[0]]])]
    else:
        users = list(range(ch.K))
        variants = [ch] if ch.K == 1 else [ch, ch.reversed_order()]
    best = None
    for variant in variants:
        cov, lam, tr = orchestrator.solve_wsr_multi(variant, cfg.constraints, w[users],
                                                    cfg.outer, inner)
        rates = _user_rates(ch, users, variant, cov)
        wsr = float(w @ rates)
        if best is None or wsr > best[0]:
            label = _order_label(variant if len(users) == ch.K else ch)
            row = RegionPoint(tuple(w), label, rates / LN2, lam.values,
                              model.constraint_slacks(cov, cfg.constraints),
                              tr.iterations, max(0.0, min(tr.value) - wsr))
            best = (wsr, row, variant, users, cov)
    return best[1:]


def sweep_weights(resolution):
    return [i / resolution for i in range(resolution + 1)]


def run_region(cfg):
    """Weighted-sum-rate region sweep; returns RegionPoint rows ordered by
    weight index."""
    return [_region_point(cfg, t, i)[0] for i, t in enumerate(sweep_weights(cfg.resolution))]


def run_heuristic_normalization(cfg):
    """Achievable (suboptimal) region: solve under the first constraint only,
    then shrink the covariance so every remaining constraint holds."""
    if len(cfg.constraints) < 2:
        raise ConfigError("heuristic normalization needs at least two constraints")
    others = cfg.constraints[1:]
    sub_cfg = replace(cfg, constraints=cfg.constraints[:1])
    rows = []
    for idx, t in enumerate(sweep_weights(cfg.resolution)):
        point, variant, users, cov = _region_point(sub_cfg, t, idx)
        factor = min([1.0] + [c.P / max(model.constraint_value(cov, c), 1e-300)
                              for c in others])
        scaled = model.CovarianceSet(model.BC, [factor * Q for Q in cov.Q])
        rates = _user_rates(cfg.channels, users, variant, scaled)
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
        cfg.channels, cfg.constraints, cfg.targets, cfg.outer,
        replace(cfg.solver, seed=cfg.seed))
    slacks = model.constraint_slacks(bf.bc_covariances(), cfg.constraints)
    return alpha, lam.values, slacks, trace


def run_power_balance(cfg):
    alpha, bf, lam, trace = orchestrator.solve_power_balance_multi(
        cfg.channels, cfg.constraints, cfg.targets, cfg.outer,
        replace(cfg.solver, seed=cfg.seed))
    cov = bf.bc_covariances()
    slacks = np.array([alpha * c.P - model.constraint_value(cov, c)
                       for c in cfg.constraints])
    return alpha, lam.values, slacks, trace


def run_nonlinear(cfg):
    ball, eps = cfg.nonlinear
    cov, state = orchestrator.solve_wsr_nonlinear(
        cfg.channels, ball, cfg.weights, eps, cfg.outer,
        replace(cfg.solver, seed=cfg.seed))
    return cov, state


def scalar_result_csv(alpha, lam, slacks, iterations, label="alpha"):
    header = [label] + [f"lambda_{l+1}" for l in range(lam.size)] \
        + [f"slack_{l+1}" for l in range(slacks.size)] + ["iters"]
    cells = [_fmt(alpha)] + [_fmt(x) for x in lam] + [_fmt(x) for x in slacks] \
        + [str(int(iterations))]
    return ",".join(header) + "\n" + ",".join(cells) + "\n"


def cuts_csv(state):
    header = ["cut", "f_value", "wsr_bits"]
    lines = [",".join(header)]
    for i, (f, r) in enumerate(zip(state.f_values, state.rates)):
        lines.append(",".join([str(i + 1), _fmt(f), _fmt(r / LN2)]))
    return "\n".join(lines) + "\n"


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
        files[".csv"] = scalar_result_csv(alpha, lam, slacks, trace.iterations)
        files["_trace.csv"] = trace_csv(trace, "alpha")
    elif cfg.objective == "power_balance":
        alpha, lam, slacks, trace = run_power_balance(cfg)
        files[".csv"] = scalar_result_csv(alpha, lam, slacks, trace.iterations)
        files["_trace.csv"] = trace_csv(trace, "bound")
    elif cfg.objective == "nonlinear_wsr":
        cov, state = run_nonlinear(cfg)
        files[".csv"] = cuts_csv(state)
    else:  # pragma: no cover - load_config guards this
        raise ConfigError(f"unknown objective {cfg.objective}")
    return write_outputs(out_dir, cfg.basename, files, cfg)
