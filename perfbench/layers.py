"""The program's layers as the traced run sees them, and the per-layer
metrics derived from one traced pass.

A layer is a ``bcmac`` module; ``linalg`` also takes in the numpy LAPACK
calls made from every module.  Span names are ``<layer>.<function>``.
"""

import os
import sys
from collections import Counter

import numpy as np

import tracing

LAPACK = ("eigh", "eigvalsh", "solve", "slogdet", "inv", "svd")
LAYERS = ("scenario", "orchestrator", "macsolver", "transforms", "model", "linalg")

# Functions each workload must reach in a traced pass; a zero call count
# fails the run, so a refactor cannot silently bypass a counter.
EXPECTED = {
    "capacity": ("cli.main", "scenario.load_config", "scenario.run_region",
                 "scenario.write_outputs", "orchestrator.solve_wsr_multi",
                 "orchestrator.solve_wsr_nonlinear", "macsolver.solve_wsr_mac",
                 "macsolver.budget_multiplier_wsr", "transforms.mac_to_bc_capacity",
                 "model.bc_rates_dpc", "linalg.inv_sqrt", "linalg.eigh",
                 "linalg.eigvalsh", "linalg.slogdet", "linalg.inv"),
    "beamform": ("cli.main", "scenario.load_config", "scenario.write_outputs",
                 "orchestrator.solve_sinr_balance_multi",
                 "orchestrator.solve_power_balance_multi",
                 "macsolver.solve_sinr_balance_mac", "macsolver.solve_power_min_mac",
                 "transforms.mac_to_bc_sinr", "model.bc_mmse_receivers",
                 "linalg.solve", "linalg.eigh", "linalg.svd"),
    "ladder": ("scenario.write_outputs", "orchestrator.solve_wsr_multi",
               "macsolver.solve_wsr_mac", "macsolver.budget_multiplier_wsr",
               "transforms.mac_to_bc_capacity", "model.bc_rates_dpc",
               "linalg.inv_sqrt", "linalg.eigh", "linalg.slogdet", "linalg.inv"),
}

CALLS = (
    "cli.main", "scenario.load_config", "scenario.write_outputs",
    "orchestrator.solve_wsr_multi", "orchestrator.solve_wsr_nonlinear",
    "orchestrator.solve_sinr_balance_multi", "orchestrator.solve_power_balance_multi",
    "macsolver.solve_wsr_mac", "macsolver.budget_multiplier_wsr",
    "macsolver.solve_sinr_balance_mac", "macsolver.solve_power_min_mac",
    "transforms.mac_to_bc_capacity", "transforms.mac_to_bc_sinr",
    "model.bc_rates_dpc", "linalg.inv_sqrt",
) + tuple(f"linalg.{f}" for f in LAPACK)

# hook-made counts reported as they are
COUNTS = (
    "orchestrator.solve_wsr_multi.evals", "orchestrator.solve_wsr_nonlinear.cuts",
    "orchestrator.solve_sinr_balance_multi.evals",
    "orchestrator.solve_power_balance_multi.evals",
    "macsolver.solve_wsr_mac.iters", "macsolver.solve_wsr_mac.unconverged",
    "scenario.write_outputs.bytes",
) + tuple(f"linalg.{f}.matrices" for f in LAPACK)


def _wsr_multi(tr, args, kwargs, result, seconds):
    values = np.asarray(result[2].value, dtype=float)
    best = np.minimum.accumulate(values)
    tr.count("orchestrator.solve_wsr_multi.evals", values.size)
    # the first evaluation sets the bound; later ones count when they lower it
    tr.count("orchestrator.solve_wsr_multi.useful", 1 + int(np.sum(best[1:] < best[:-1])))


def _evals(key):
    def hook(tr, args, kwargs, result, seconds):
        tr.count(key, result[3].iterations)
    return hook


def _nonlinear(tr, args, kwargs, result, seconds):
    tr.count("orchestrator.solve_wsr_nonlinear.cuts", len(result[1].cuts))


def _wsr_mac(tr, args, kwargs, result, seconds):
    tr.count("macsolver.solve_wsr_mac.iters", result.iterations)
    tr.count("macsolver.solve_wsr_mac.unconverged", int(not result.converged))
    tr.add_time(f"macsolver.solve_wsr_mac.s.K{args[0].K}", seconds)


def _run_region(tr, args, kwargs, result, seconds):
    tr.count("scenario.region_rows", len(result))


def _write_outputs(tr, args, kwargs, result, seconds):
    tr.count("scenario.write_outputs.bytes", sum(os.path.getsize(p) for p in result.values()))


def _lapack(name):
    key = f"linalg.{name}.matrices"

    def hook(tr, args, kwargs, result, seconds):
        shape = np.shape(args[0])
        tr.count(key, int(np.prod(shape[:-2])) if len(shape) > 2 else 1)
    return hook


def targets():
    """Map each traced function to (span name, hook)."""
    from bcmac import cli, linalg, macsolver, model, orchestrator, scenario, transforms

    spec = {
        cli.main: ("cli.main", None),
        scenario.load_config: ("scenario.load_config", None),
        scenario.run_scenario: ("scenario.run_scenario", None),
        scenario.run_region: ("scenario.run_region", _run_region),
        scenario.write_outputs: ("scenario.write_outputs", _write_outputs),
        orchestrator.solve_wsr_multi: ("orchestrator.solve_wsr_multi", _wsr_multi),
        orchestrator.solve_wsr_nonlinear: ("orchestrator.solve_wsr_nonlinear", _nonlinear),
        orchestrator.solve_sinr_balance_multi: (
            "orchestrator.solve_sinr_balance_multi",
            _evals("orchestrator.solve_sinr_balance_multi.evals")),
        orchestrator.solve_power_balance_multi: (
            "orchestrator.solve_power_balance_multi",
            _evals("orchestrator.solve_power_balance_multi.evals")),
        macsolver.solve_wsr_mac: ("macsolver.solve_wsr_mac", _wsr_mac),
        macsolver.budget_multiplier_wsr: ("macsolver.budget_multiplier_wsr", None),
        macsolver.solve_sinr_balance_mac: ("macsolver.solve_sinr_balance_mac", None),
        macsolver.solve_power_min_mac: ("macsolver.solve_power_min_mac", None),
        transforms.mac_to_bc_capacity: ("transforms.mac_to_bc_capacity", None),
        transforms.mac_to_bc_sinr: ("transforms.mac_to_bc_sinr", None),
        model.bc_rates_dpc: ("model.bc_rates_dpc", None),
        model.bc_mmse_receivers: ("model.bc_mmse_receivers", None),
        linalg.inv_sqrt: ("linalg.inv_sqrt", None),
    }
    for name in LAPACK:
        spec[getattr(np.linalg, name)] = (f"linalg.{name}", _lapack(name))
    return spec


def namespaces():
    """Every loaded bcmac module plus numpy.linalg, where the solver modules
    look LAPACK calls up at call time."""
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "bcmac" or n.startswith("bcmac."))]
    return mods + [np.linalg]


def _solves_per_point(spans, counts):
    rows = counts.get("scenario.region_rows", 0)
    if not rows:
        return 0.0
    region = {i for i, s in enumerate(spans) if s[0] == "scenario.run_region"}
    solves = 0
    for s in spans:
        if s[0] != "orchestrator.solve_wsr_multi":
            continue
        p = s[3]
        while p >= 0 and p not in region:
            p = spans[p][3]
        solves += p >= 0
    return solves / rows


def pass_counts(spans, counts):
    """Work counts of one traced pass; they repeat exactly for one seed."""
    calls = Counter(s[0] for s in spans)
    out = {f"{name}.calls": calls[name] for name in CALLS}
    out.update({key: counts.get(key, 0) for key in COUNTS})
    evals = counts.get("orchestrator.solve_wsr_multi.evals", 0)
    useful = counts.get("orchestrator.solve_wsr_multi.useful", 0)
    out["orchestrator.solve_wsr_multi.useful_ratio"] = useful / evals if evals else 0.0
    out["scenario.solves_per_point"] = _solves_per_point(spans, counts)
    return out


def pass_times(spans):
    """Inclusive and self seconds per layer for one traced pass."""
    inclusive, self_s = tracing.group_times(spans, lambda name: name.split(".", 1)[0])
    out = {}
    for layer in LAYERS:
        out[f"{layer}.s"] = inclusive.get(layer, 0.0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    return out
