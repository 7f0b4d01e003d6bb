"""Scenario configs, batch region sweeps, and machine-readable results.

Configs are single YAML documents (key/value with nested lists; complex
matrix entries written as [re, im] pairs).  ``OBJECTIVES`` holds one row per
objective: the CLI subcommand that runs it, the keys it requires, the keys
it may take besides ``COMMON_KEYS``, and the function that solves it and
returns its result files.  Any other key is an error naming the key and the
objective.  Of the common keys, ``workers`` does nothing and ``seed`` is
only echoed to the sidecar: the solvers are deterministic, so identical
configs give byte-identical outputs.  Results are CSV files with a header
row plus a JSON metadata sidecar carrying the echoed config and a sha256
content hash of each CSV.  Rates are bits/channel use in files, nats
internally.  The ``solver:`` (inner solves) and ``outer:`` (multiplier
search, default ``orchestrator.OUTER``) sections each take ``tol`` and
``max_iters``, the only settings a run has.

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
A one-user ``wsr_region`` sweep has one point, w1 = 1: it is solved once and
written as one row, whatever ``sweep.resolution``.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from . import model, orchestrator
from .errors import BcMacError, InvalidInput, SingularConstraintMatrix
from .macsolver import SolverSettings
from .model import ChannelSet, LinearConstraint, SinrTargets

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
    outer: SolverSettings = orchestrator.OUTER
    seed: int = 0
    basename: str = "result"
    heuristic: bool = False
    raw: dict = None


@dataclass(frozen=True)
class Objective:
    """One row of ``OBJECTIVES``: ``files(cfg)`` solves the objective and
    returns its result files, ``{suffix: text}``."""

    subcommand: str
    requires: tuple
    takes: tuple
    files: object


def _converted(where, convert, value):
    """``convert(value)``, the one path by which config values become
    numbers and library objects: a value it rejects (TypeError, ValueError
    or InvalidInput), or a missing one, is a ConfigError naming the field
    ``where``."""
    if value is None:
        raise ConfigError(f"{where}: a value is required")
    try:
        return convert(value)
    except (InvalidInput, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _integer(x):
    if not float(x).is_integer():  # rejected, not truncated
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _floats(x):
    out = np.asarray(x, dtype=float).reshape(-1)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"expected finite numbers, got {x!r}")
    return out


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


COMMON_KEYS = ("objective", "channels", "output", "solver", "outer", "seed", "workers")


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
    sigma2, order = section.get("sigma2"), section.get("encoding_order")
    if sigma2 is not None:
        sigma2 = _converted("channels.sigma2", _floats, sigma2)
    if order is not None:  # users are 1-based in files
        order = _converted("channels.encoding_order",
                           lambda o: [_integer(i) - 1 for i in o], order)
    return _converted("channels", lambda H: ChannelSet(H, sigma2, order), H)


def _parse_constraints(doc, nt):
    out = []
    for i, spec in enumerate(doc.get("constraints") or []):
        where = f"constraints[{i}]"
        if not isinstance(spec, dict) or "type" not in spec:
            raise ConfigError(f"{where}: expected a mapping with a 'type'")
        kind = spec["type"]
        budget = _converted(f"{where}.budget", float, spec.get("budget"))
        if kind == "sum_power":
            A = np.eye(nt)
        elif kind == "per_antenna":
            ant = _converted(f"{where}.antenna", _integer, spec.get("antenna", 0))
            if not 1 <= ant <= nt:
                raise ConfigError(f"{where}: antenna must be in 1..{nt}")
            A = np.diag(np.eye(nt)[ant - 1])
        elif kind == "matrix":
            A = _parse_matrix(spec.get("a"), f"{where}.a")
        else:
            raise ConfigError(f"{where}: unknown type '{kind}'")
        out.append(_converted(where, lambda A: LinearConstraint(A, budget), A))
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
    budget = _converted("nonlinear.budget", float, section.get("budget"))
    return _converted("nonlinear", lambda m: orchestrator.QuadraticBall(m, budget), mats)


# all that the solvers and the multiplier search read of SolverSettings
SETTING_TYPES = {"max_iters": _integer, "tol": float}


def _parse_settings(doc, key, default):
    section = _section(doc, key, tuple(SETTING_TYPES), "setting")
    return _converted(key, lambda s: replace(default, **{
        name: SETTING_TYPES[name](value) for name, value in s.items()}), section)


def load_config(path):
    """Parse and validate a scenario config document."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    objective = doc.get("objective")
    if objective not in OBJECTIVES:
        raise ConfigError(f"objective must be one of {tuple(OBJECTIVES)}")
    row = OBJECTIVES[objective]
    _check_keys(doc, COMMON_KEYS + row.requires + row.takes, "config", f"{objective} key")
    for key in row.requires:
        if not doc.get(key):
            raise ConfigError(f"objective {objective} requires '{key}'")
    ch = _parse_channels(doc)
    constraints = _parse_constraints(doc, ch.nt)
    nonlinear = _parse_nonlinear(doc, ch.nt)
    if objective == "wsr_region" and ch.K > 2:
        raise ConfigError(f"wsr_region sweeps one or two users, config has {ch.K}")
    weights = doc.get("weights")
    if weights is not None:
        weights = _converted("weights", _floats, weights)
        if weights.shape != (ch.K,) or np.any(weights <= 0):
            raise ConfigError(f"weights must be {ch.K} positive numbers")
    targets = doc.get("targets")
    if targets is not None:
        targets = _converted("targets", SinrTargets, targets)
        if targets.gamma.shape != (ch.K,):
            raise ConfigError(f"targets must list {ch.K} values")
    resolution = _converted("sweep.resolution", _integer,
                            _section(doc, "sweep", ("resolution",)).get("resolution", 20))
    if resolution < 1:
        raise ConfigError("sweep.resolution must be >= 1")
    basename = str(_section(doc, "output", ("basename",)).get("basename", objective))
    solver = _parse_settings(doc, "solver", SolverSettings())
    heuristic = doc.get("heuristic", False)
    if not isinstance(heuristic, bool):
        raise ConfigError(f"heuristic: expected true or false, got {heuristic!r}")
    if heuristic and len(constraints) < 2:
        raise ConfigError("heuristic: normalization needs at least two constraints")
    # the search merges every constraint (or the ball's matrices); the
    # heuristic sweep also solves under constraints[0] alone, checked first
    checks = [([constraints[0].A], "heuristic: constraints[0] matrix")] if heuristic else []
    checks.append((nonlinear.mats, "merged nonlinear.a matrix") if nonlinear is not None
                  else ([c.A for c in constraints], "merged constraint matrix"))
    try:
        for mats, name in checks:
            orchestrator.check_merges(mats, name)
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
        outer=_parse_settings(doc, "outer", orchestrator.OUTER),
        seed=_converted("seed", _integer, doc.get("seed", 0)),
        basename=basename,
        heuristic=heuristic,
        raw=doc,
    )


def _cell(x):
    return str(x) if isinstance(x, (str, int)) else repr(float(x))


def _csv(header, rows):
    """CSV text: the header, then one line per row; strings and ints are
    written as they are, every other cell as the repr of a float."""
    return "".join(",".join(map(_cell, r)) + "\n" for r in [header, *rows])


def _numbered(template, n):
    return [template.format(l + 1) for l in range(n)]


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


def _region_point(cfg, t, start=None):
    """One swept weight, solved once from the multipliers ``start``: the row,
    the channel set, its users and the downlink covariance it was solved on,
    and the multipliers of its best bound.  A two-user endpoint is the
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
                                                cfg.outer, cfg.solver, start)
    rates = _user_rates(ch, users, solved, cov)
    row = [w[0], w[1] if ch.K == 2 else 0.0,
           _order_label(solved if len(users) == ch.K else ch), *rates / LN2, *lam.values,
           *model.constraint_slacks(cov, cfg.constraints), tr.iterations,
           min(tr.value) - float(w @ rates)]
    return row, solved, users, cov, lam


def sweep_weights(cfg):
    """The swept w1: 0 to 1 in ``resolution`` steps, or for one user its
    one point w1 = 1."""
    if cfg.channels.K == 1:
        return [1.0]
    return [i / cfg.resolution for i in range(cfg.resolution + 1)]


def run_region(cfg, rows=None):
    """Weighted-sum-rate region sweep: appends the rows of ``region_csv`` to
    ``rows`` in weight order as they finish, and returns them.  Each point's
    search starts at the best multipliers of the point before it, so a row
    depends on the rows before it (those of a failed sweep are a full one's)."""
    rows, lam = [] if rows is None else rows, None
    for t in sweep_weights(cfg):
        row, *_, lam = _region_point(cfg, t, lam)
        rows.append(row)
    return rows


def run_heuristic_normalization(cfg):
    """Achievable (suboptimal) region: solve under the first constraint only,
    then shrink the covariance so every remaining constraint holds."""
    others = cfg.constraints[1:]
    sub_cfg = replace(cfg, constraints=cfg.constraints[:1])
    rows = []
    for t in sweep_weights(cfg):
        point, solved, users, cov, _ = _region_point(sub_cfg, t)
        scaled = model.CovarianceSet.built(model.BC, model.feasible_scale(cov, others) * cov.Q)
        rates = _user_rates(cfg.channels, users, solved, scaled)
        rows.append([*point[:3], *rates / LN2, *np.full(len(cfg.constraints), np.nan),
                     *model.constraint_slacks(scaled, cfg.constraints), 0, np.nan])
    return rows


def region_csv(rows, n_users, n_constraints):
    return _csv(["w1", "w2", "order"] + _numbered("r{}_bits", n_users)
                + _numbered("lambda_{}", n_constraints) + _numbered("slack_{}", n_constraints)
                + ["iters", "g_gap"], rows)


def _region_files(cfg):
    """A solver failure re-raises carrying the files finished before it in
    ``files``."""
    K, L = cfg.channels.K, len(cfg.constraints)
    files, rows = {}, []
    try:
        files[".csv"] = region_csv(run_region(cfg, rows), K, L)
        if cfg.heuristic:
            files["_heuristic.csv"] = region_csv(run_heuristic_normalization(cfg), K, L)
    except BcMacError as exc:
        exc.files = files or {".csv": region_csv(rows, K, L)}
        raise
    return files


def _scalar_files(lead, lam, slacks, trace, trace_label=None):
    """``.csv``, one row: the ``lead`` columns (name: value), lambda_l,
    slack_l, the search's evaluation count ``iters`` and its signed gap
    ``gap``; with ``trace_label``, also ``_trace.csv``, one row per
    evaluation: its bound (under that label), multipliers and subgradient."""
    files = {".csv": _csv(
        list(lead) + _numbered("lambda_{}", len(lam)) + _numbered("slack_{}", len(slacks))
        + ["iters", "gap"], [[*lead.values(), *lam, *slacks, trace.iterations, trace.gap]])}
    if trace_label:
        n = len(trace.lam[0])
        files["_trace.csv"] = _csv(
            ["iter", trace_label] + _numbered("lambda_{}", n) + _numbered("subgrad_{}", n),
            [[i, trace.value[i], *trace.lam[i], *trace.subgrad[i]]
             for i in range(trace.iterations)])
    return files


def _sinr_balance_files(cfg):
    alpha, bf, lam, trace = orchestrator.solve_sinr_balance_multi(
        cfg.channels, cfg.constraints, cfg.targets, cfg.outer, cfg.solver)
    slacks = model.constraint_slacks(bf.bc_covariances(), cfg.constraints)
    return _scalar_files({"alpha": alpha}, lam.values, slacks, trace, "alpha")


def _power_balance_files(cfg):
    alpha, bf, lam, trace = orchestrator.solve_power_balance_multi(
        cfg.channels, cfg.constraints, cfg.targets, cfg.outer, cfg.solver)
    cov = bf.bc_covariances()
    slacks = [alpha * c.P - model.constraint_value(cov, c) for c in cfg.constraints]
    return _scalar_files({"alpha": alpha}, lam.values, slacks, trace, "bound")


def _nonlinear_files(cfg):
    """The weighted sum rate and phi of the emitted covariance and the
    normal of the best bound."""
    ch = _weight_sorted(cfg.channels, cfg.weights)
    cov, result = orchestrator.solve_wsr_nonlinear(ch, cfg.nonlinear, cfg.weights, cfg.outer,
                                                   cfg.solver)
    wsr = float(cfg.weights @ model.bc_rates_dpc(ch, cov))
    return _scalar_files({"wsr_bits": wsr / LN2, "f_value": cfg.nonlinear.value(cov)},
                         result.lam.values, [], result.trace)


OBJECTIVES = {
    "wsr_region": Objective("region", ("constraints",), ("sweep", "heuristic"), _region_files),
    "sinr_balance": Objective("balance", ("constraints", "targets"), (), _sinr_balance_files),
    "power_balance": Objective("powermin", ("constraints", "targets"), (),
                               _power_balance_files),
    "nonlinear_wsr": Objective("nonlinear", ("nonlinear", "weights"), (), _nonlinear_files),
}


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
    """Solve the configured objective; writes its result files and returns
    their paths."""
    return write_outputs(out_dir, cfg.basename, OBJECTIVES[cfg.objective].files(cfg), cfg)
