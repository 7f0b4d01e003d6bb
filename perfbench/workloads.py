"""Workload inputs, the items a pass runs, and the checks on their outputs.

Each workload is a list of items.  ``item.run()`` is the timed work: a CLI
invocation or a direct library call, exactly as a user would make it.
``item.check()`` runs after the pass, outside the timing, and returns an
:class:`Outcome` with the item's output digest and its accuracy against the
committed or live reference.

Why these workloads:
- capacity: the paper's Section VI region sweep under two per-antenna
  constraints plus a quadratic-ball run; the outer multiplier loop (L=2) and
  the tangent-cut loop (L growing to about 5) do most of the work.
- beamform: SINR and power balancing; the outer loop in both senses over the
  fixed-point MMSE solvers and the SINR transform, no projected gradient.
- ladder: one sum-power solve per instance at growing (K, nr, nt); the inner
  solver and the capacity transform at scale, one outer evaluation per call.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import yaml

import certify

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS_PATH = os.path.join(HERE, "refs.json")

# capacity: the paper's Section VI channels and constraints
H1_CAP = [[1.0, 0.0], [0.2, 0.6]]
H2_CAP = [[0.5, 0.0], [0.2, 1.0]]
CAP_BUDGET = 5.0
REGION_RESOLUTION = 5
NL_WEIGHTS = [0.8, 0.2]
NL_BUDGET = 10.0  # (tr Q A_1)^2 + (tr Q A_2)^2 <= NL_BUDGET, A_l per-antenna
# beamform: two-antenna users under two per-antenna constraints
H1_BAL = [[1.0, 0.0], [0.5, 0.6]]
H2_BAL = [[0.4, 0.0], [0.5, 1.5]]
BAL_BUDGET = 5.0
BAL_TARGETS = {"t1": [1.0, 1.0], "t2": [1.0, 2.0]}
# ladder: (K, nr, nt) sizes, draws per size, sum-power budget
LADDER_SIZES = [(2, 2, 2), (8, 2, 8), (16, 4, 16), (32, 2, 32)]
LADDER_DRAWS = 8
LADDER_BUDGET = 10.0

# An item fails when one of its solutions is further than this from its
# reference, or violates a constraint by more than this (relative).  The
# nonlinear run stops once f <= 1e-3 * budget by default, so its violation may
# reach 1e-3.
TOL_SHORTFALL = 1e-4
TOL_VIOLATION = 2e-3
# Relative errors below this are float64 roundoff in the references' sums and
# in the emitted slacks; the accuracy metrics read them as this.  A reference
# that is itself resolved only to a coarser relative accuracy floors the
# errors of its own solution at that accuracy.
ERROR_FLOOR = 1e-12


@dataclass
class Solution:
    """Accuracy of one emitted solution (a region point, a final value, a
    beamformer, a ladder draw): the relative error against its reference,
    signed so that worse is positive, its largest relative constraint
    violation, and the relative accuracy to which its reference is known."""
    name: str
    shortfall: float
    violation: float
    floor: float = ERROR_FLOOR


@dataclass
class Outcome:
    name: str
    ok: bool
    digest: str
    solutions: list = field(default_factory=list)
    error: str = ""


class MissingProgram(RuntimeError):
    """The checkout has no bcmac source tree beside the benchmark."""


def import_program():
    """Import bcmac from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "bcmac", "__init__.py")):
        raise MissingProgram(f"no program source at {os.path.join(SRC, 'bcmac')}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import bcmac

    if not os.path.abspath(bcmac.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"bcmac imported from {bcmac.__file__}, not from {SRC}")
    return bcmac


def load_refs():
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _read_verified(out_dir, basename):
    """Bytes of every result file of a run, checked against the sidecar's
    content_sha256; raises ValueError on a mismatch or a partial run."""
    with open(os.path.join(out_dir, f"{basename}.meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    if meta.get("partial"):
        raise ValueError("sidecar marks the result partial")
    files = {}
    for name, want in sorted(meta["content_sha256"].items()):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if _sha256(data) != want:
            raise ValueError(f"{name}: content does not match sidecar sha256")
        files[name] = data
    if not files:
        raise ValueError("sidecar lists no result files")
    return files


def _digest(files):
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def _csv_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _outcome(name, digest, solutions):
    bad = [s for s in solutions
           if not (s.shortfall <= TOL_SHORTFALL and s.violation <= TOL_VIOLATION)]
    err = "; ".join(f"{s.name}: shortfall_rel {s.shortfall:.3g} or violation_rel "
                    f"{s.violation:.3g} above tolerance" for s in bad)
    return Outcome(name, not bad, digest, solutions, err)


class CliItem:
    """One ``bcmac <sub> --config <yaml> --out <dir>`` invocation."""

    def __init__(self, name, sub, config, out_dir, basename, assess):
        self.name = name
        self.sub = sub
        self.config = config
        self.out_dir = out_dir
        self.basename = basename
        self.assess = assess  # (files) -> [Solution]
        self.rc = None

    def run(self):
        from bcmac import cli

        self.rc = None
        with contextlib.redirect_stdout(io.StringIO()):
            self.rc = cli.main([self.sub, "--config", self.config, "--out", self.out_dir])

    def check(self):
        if self.rc != 0:
            return Outcome(self.name, False, "", error=f"CLI exit code {self.rc}")
        files = _read_verified(self.out_dir, self.basename)
        return _outcome(self.name, _digest(files), self.assess(files))


class LadderItem:
    """One direct ``orchestrator.solve_wsr_multi`` call under a sum-power
    constraint with equal weights, its rates, and its written result."""

    def __init__(self, name, ch, seed, out_dir):
        from bcmac import model, scenario
        from bcmac.macsolver import SolverSettings

        self.name = name
        self.ch = ch
        self.out_dir = out_dir
        self.constraint = model.LinearConstraint.sum_power(ch.nt, LADDER_BUDGET)
        self.inner = SolverSettings(seed=seed)
        self.cfg = scenario.ScenarioConfig(
            objective="wsr_region", channels=ch, constraints=[self.constraint],
            weights=np.ones(ch.K), seed=seed,
            raw={"ladder": name, "budget": LADDER_BUDGET, "seed": seed})
        self.cov = None
        self.rates = None

    def run(self):
        from bcmac import model, orchestrator, scenario

        self.cov = self.rates = None
        cov, _, _ = orchestrator.solve_wsr_multi(
            self.ch, [self.constraint], np.ones(self.ch.K), None, self.inner)
        rates = model.bc_rates_dpc(self.ch, cov)
        lines = ["user,rate_bits,power"]
        for i in range(self.ch.K):
            power = float(np.trace(cov.Q[i]).real)
            lines.append(f"{i + 1},{float(rates[i]) / certify.LN2!r},{power!r}")
        scenario.write_outputs(self.out_dir, self.name, {".csv": "\n".join(lines) + "\n"},
                               self.cfg)
        self.cov, self.rates = cov, rates

    def check(self):
        from bcmac import transforms

        files = _read_verified(self.out_dir, self.name)
        ch = self.ch
        own = certify.bc_rates(ch.H, ch.sigma2, ch.encoding_order, self.cov.Q)
        if np.max(np.abs(own - self.rates)) > 1e-9 * max(1.0, float(np.sum(own))):
            return Outcome(self.name, False, _digest(files),
                           error="reported rates disagree with the covariances")
        # any rate-preserving uplink point, projected to feasibility, gives a
        # valid Frank-Wolfe bound on the sum capacity
        eye = np.eye(ch.nt)
        mac = transforms.bc_to_mac_capacity(ch, self.cov, eye)
        value, gap = certify.frank_wolfe_bound(ch.H, ch.sigma2, ch.encoding_order,
                                               eye, LADDER_BUDGET, np.ones(ch.K), mac.Q)
        emitted = float(np.sum(own))
        shortfall = certify.shortfall_rel(emitted, value + gap, "max")
        used = sum(float(np.trace(Q).real) for Q in self.cov.Q)
        violation = certify.violation_rel([LADDER_BUDGET - used], [LADDER_BUDGET])
        return _outcome(self.name, _digest(files), [Solution(self.name, shortfall, violation)])


def _per_antenna(budget):
    return [{"type": "per_antenna", "antenna": a, "budget": budget} for a in (1, 2)]


def _write_yaml(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    return path


def _region_assess(ref):
    """Every region point against its own certified upper bound: the
    distance to an upper bound overstates the point's error, never hides it."""
    points = ref["points"]

    def assess(files):
        rows = _csv_rows(files["region.csv"])
        if len(rows) != len(points):
            raise ValueError(f"expected {len(points)} region rows, got {len(rows)}")
        out = []
        for row, pt in zip(rows, points):
            w = (float(row["w1"]), float(row["w2"]))
            if w != tuple(pt["weights"]):
                raise ValueError(f"row weights {w} do not match reference {pt['weights']}")
            wsr = w[0] * float(row["r1_bits"]) + w[1] * float(row["r2_bits"])
            slacks = [float(row["slack_1"]), float(row["slack_2"])]
            out.append(Solution(f"region_w{w[0]:.2f}",
                                certify.shortfall_rel(wsr, pt["upper_bits"], "max"),
                                certify.violation_rel(slacks, [CAP_BUDGET, CAP_BUDGET])))
        return out

    return assess


def _nonlinear_assess(ref):
    """The cut loop's final value bounds the optimum from above, so it is
    compared with an achievable value below the optimum: worse is higher."""
    def assess(files):
        last = _csv_rows(files["nonlinear.csv"])[-1]
        short = certify.shortfall_rel(float(last["wsr_bits"]), ref["lower_bits"], "min")
        return [Solution("nonlinear", short, max(0.0, float(last["f_value"])) / NL_BUDGET)]

    return assess


def _scalar_assess(basename, ref, sense):
    """sinr_balance emits slack_l = P_l - usage_l; power_balance emits
    slack_l = alpha * P_l - usage_l, the budget scaled by its own ratio."""
    def assess(files):
        row = _csv_rows(files[f"{basename}.csv"])[0]
        alpha = float(row["alpha"])
        scale = alpha if sense == "min" else 1.0
        slacks = [float(row["slack_1"]), float(row["slack_2"])]
        return [Solution(basename, certify.shortfall_rel(alpha, ref["value"], sense),
                         certify.violation_rel(slacks, [scale * BAL_BUDGET] * 2),
                         max(ERROR_FLOOR, ref["resolution_rel"]))]

    return assess


def _capacity(seed, work, out, refs):
    cap = {"channels": {"h": [H1_CAP, H2_CAP]}, "seed": seed, "workers": 1}
    region = dict(cap, objective="wsr_region", constraints=_per_antenna(CAP_BUDGET),
                  sweep={"resolution": REGION_RESOLUTION}, output={"basename": "region"})
    nonlinear = dict(cap, objective="nonlinear_wsr", weights=NL_WEIGHTS,
                     nonlinear={"form": "quadratic_ball",
                                "a": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
                                "budget": NL_BUDGET},
                     output={"basename": "nonlinear"})
    return [
        CliItem("region", "region", _write_yaml(os.path.join(work, "region.yaml"), region),
                out, "region", _region_assess(refs["capacity"]["region"])),
        CliItem("nonlinear", "nonlinear",
                _write_yaml(os.path.join(work, "nonlinear.yaml"), nonlinear),
                out, "nonlinear", _nonlinear_assess(refs["capacity"]["nonlinear"])),
    ]


def _beamform(seed, work, out, refs):
    items = []
    for objective, sub, sense in (("sinr_balance", "balance", "max"),
                                  ("power_balance", "powermin", "min")):
        for tag, targets in BAL_TARGETS.items():
            name = f"{objective}_{tag}"
            doc = {"objective": objective, "channels": {"h": [H1_BAL, H2_BAL]},
                   "constraints": _per_antenna(BAL_BUDGET), "targets": targets,
                   "seed": seed, "workers": 1, "output": {"basename": name}}
            ref = refs["beamform"][name]
            items.append(CliItem(name, sub, _write_yaml(os.path.join(work, f"{name}.yaml"), doc),
                                 out, name, _scalar_assess(name, ref, sense)))
    return items


def ladder_channels(seed, K, nr, nt, draw):
    """Complex Gaussian channels CN(0, 1) for one ladder instance."""
    rng = np.random.default_rng([seed, K, nr, nt, draw])
    return [(rng.normal(size=(nr, nt)) + 1j * rng.normal(size=(nr, nt))) / math.sqrt(2.0)
            for _ in range(K)]


def _ladder(seed, work, out, refs):
    from bcmac import model

    items = []
    for K, nr, nt in LADDER_SIZES:
        for d in range(LADDER_DRAWS):
            ch = model.ChannelSet(ladder_channels(seed, K, nr, nt, d))
            items.append(LadderItem(f"ladder_K{K}_nr{nr}_nt{nt}_d{d}", ch, seed, out))
    return items


BUILDERS = {"capacity": _capacity, "beamform": _beamform, "ladder": _ladder}


def build(name, seed, work):
    """Generate the workload's inputs under ``work/inputs`` from ``seed``,
    load its references, and parse every generated config once, as the CLI
    does before its first solve.  Items write their results to
    ``work/out``."""
    from bcmac import scenario

    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs, exist_ok=True)
    items = BUILDERS[name](seed, inputs, os.path.join(work, "out"), load_refs())
    for item in items:
        if isinstance(item, CliItem):
            scenario.load_config(item.config)
    return items
