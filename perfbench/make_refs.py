"""Generate perfbench/refs.json, the committed references of the capacity and
beamform workloads.  Run from the repository root:

    python3 perfbench/make_refs.py

capacity, region: for each swept weight w, an upper bound on the weighted sum
  rate under both per-antenna constraints.  Every multiplier lam on the
  simplex gives the merged single-constraint problem, whose optimum bounds
  the two-constraint one.  Each lam is evaluated by an inner solve and
  certified by its own Frank-Wolfe gap in the weight-sorted encoding order
  (its dual-channel problem is concave and bounds every other order), so the
  bound holds even when the solve is inexact.  The reference is the least
  bound over a zoomed multiplier grid.  An achievable value (the transformed
  point scaled into every constraint) is recorded beside it.
capacity, nonlinear: no cutting planes.  The quadratic ball
  p_1^2 + p_2^2 <= B on the per-antenna powers p equals the intersection of
  the halfspaces c.p <= sqrt(B) over unit c >= 0, so every direction gives a
  single-constraint upper bound, certified as above and minimised over a
  zoomed grid of directions.
beamform: the balanced SINR ratio and the power-balance ratio over one real
  beam per user with MMSE receivers, the model of oracles.brute_sinr_balance
  and oracles.brute_power_min, evaluated by the benchmark's own numpy
  (certify.beam_balance, certify.beam_usage).  The best local maxima of a
  full angle grid (up to four) are each polished by nested golden-section
  searches, re-centred until they settle; a value is written only when two
  grid resolutions polish to values that agree within 1e-12 relative and
  match or beat the oracle's own value at resolution 64.  Their relative
  spread is recorded as the value's resolution.  Every value is achievable,
  and the polish resolves the optimum far below the solver's error, so the
  solver's distance to it is the solver's own error.  (The oracle's zoomed
  grid alone disagrees with itself by up to 1e-6 between resolutions, above
  the solver's error.)
ladder references are computed live for each seed by the benchmark itself.
"""

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from bcmac import model, transforms  # noqa: E402
from bcmac.macsolver import SolverSettings, solve_wsr_mac  # noqa: E402
from bcmac.oracles import GridSpec, brute_power_min, brute_sinr_balance  # noqa: E402

import certify  # noqa: E402
import workloads as wl  # noqa: E402

INNER = SolverSettings(tol=1e-12, max_iters=20000, restarts=1)
GRID_POINTS = 21
GRID_ROUNDS = 12
BEAM_GRIDS = (150, 210)  # angle grid points per dimension, per polish
BEAM_GOLDEN = 60  # golden-section steps per dimension, final search
BEAM_COARSE = 25  # golden-section steps per dimension, re-centring searches
BEAM_CANDIDATES = 4  # grid local maxima polished per grid
BEAM_RECENTRE = 40
BEAM_AGREE = 1e-12
ORACLE_RESOLUTION = 64


def zoomed_min(evaluate, lo, hi):
    """Least value of ``evaluate`` over nested grids on [lo, hi], zooming to
    two steps either side of the incumbent each round.  Every evaluated value
    is itself a valid bound, so the result is too."""
    best_u, best_x = math.inf, None
    a, b = lo, hi
    for _ in range(GRID_ROUNDS):
        xs = np.linspace(a, b, GRID_POINTS)
        for x in xs:
            u = evaluate(float(x))
            if u < best_u:
                best_u, best_x = u, float(x)
        step = (b - a) / (GRID_POINTS - 1)
        a, b = max(lo, best_x - 2 * step), min(hi, best_x + 2 * step)
    return best_u, best_x


class Certifier:
    """Certified single-constraint bounds for one channel and weight vector,
    tracking the best achievable value seen among the evaluated points."""

    def __init__(self, H, weights, feasible_scale):
        self.weights = np.asarray(weights, dtype=float)
        order = certify.weight_sorted_order(self.weights)
        self.ch = model.ChannelSet(H, encoding_order=order)
        self.feasible_scale = feasible_scale  # (total BC covariance) -> scale <= 1
        self.lower = -math.inf

    def bound(self, A, budget):
        ch = self.ch
        sol = solve_wsr_mac(ch, A, budget, self.weights, INNER)
        value, gap = certify.frank_wolfe_bound(ch.H, ch.sigma2, ch.encoding_order,
                                               A, budget, self.weights, sol.cov.Q)
        Q = certify.project_feasible(sol.cov.Q, ch.sigma2, budget)
        bc = transforms.mac_to_bc_capacity(ch, model.CovarianceSet(model.MAC, Q), A)
        scale = self.feasible_scale(sum(bc.Q))
        rates = certify.bc_rates(ch.H, ch.sigma2, ch.encoding_order,
                                 [scale * q for q in bc.Q])
        self.lower = max(self.lower, float(self.weights @ rates))
        return value + gap


def per_antenna_scale(total):
    p = np.real(np.diag(total))
    return min(1.0, *(wl.CAP_BUDGET / max(x, 1e-300) for x in p))


def ball_scale(total):
    p = np.real(np.diag(total))
    return min(1.0, math.sqrt(wl.NL_BUDGET) / max(float(np.linalg.norm(p)), 1e-300))


def region_point(t):
    """Upper bound (bits) at weights (t, 1 - t), as scenario sweeps them."""
    if t in (0.0, 1.0):
        H, weights = ([wl.H1_CAP] if t == 1.0 else [wl.H2_CAP]), [1.0]
    else:
        H, weights = [wl.H1_CAP, wl.H2_CAP], [t, 1.0 - t]
    cert = Certifier(H, weights, per_antenna_scale)
    upper, lam = zoomed_min(
        lambda x: cert.bound(np.diag([x, 1.0 - x]), wl.CAP_BUDGET), 1e-4, 1.0 - 1e-4)
    return {"weights": [t, 1.0 - t], "upper_bits": upper / certify.LN2,
            "lower_bits": cert.lower / certify.LN2, "lambda_1": lam,
            "resolution_rel": (upper - cert.lower) / upper}


def nonlinear_point():
    cert = Certifier([wl.H1_CAP, wl.H2_CAP], wl.NL_WEIGHTS, ball_scale)
    radius = math.sqrt(wl.NL_BUDGET)
    upper, theta = zoomed_min(
        lambda th: cert.bound(np.diag([math.cos(th), math.sin(th)]), radius),
        1e-4, 0.5 * math.pi - 1e-4)
    return {"weights": wl.NL_WEIGHTS, "upper_bits": upper / certify.LN2,
            "lower_bits": cert.lower / certify.LN2, "theta": theta,
            "resolution_rel": (upper - cert.lower) / upper}


def polish(value, x, h):
    """Nested golden-section maximum of ``value`` on the square of half-width
    h around x.  Coarse searches re-centre the square on their result until
    it lies inside, then a fine search resolves the maximum there.  Every
    evaluated value is achievable, so the result is one too, settled or not."""
    def at(a, b):
        return float(value(np.array([[a, b]]))[0])

    def search(x, steps):
        def inner(a):
            return certify.golden_max(lambda b: at(a, b), x[1] - h, x[1] + h, steps)

        a, best = certify.golden_max(lambda a: inner(a)[1], x[0] - h, x[0] + h, steps)
        return np.array([a, inner(a)[0]]), best

    for _ in range(BEAM_RECENTRE):
        moved, _ = search(x, BEAM_COARSE)
        inside = np.all(np.abs(moved - x) < 0.9 * h)
        x = moved
        if inside:
            break
    return search(x, BEAM_GOLDEN)[1]


def beam_search(value, n):
    """Largest ``value`` (vectorised over (N, 2) angle pairs, pi-periodic in
    each angle): every local maximum of an n x n grid over [0, pi)^2, best
    first up to BEAM_CANDIDATES of them, is polished, and the best polished
    value is returned."""
    t = np.linspace(0.0, math.pi, n, endpoint=False)
    grid = np.stack([a.ravel() for a in np.meshgrid(t, t, indexing="ij")], axis=1)
    v = value(grid).reshape(n, n)
    peak = np.ones((n, n), dtype=bool)
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            if da or db:
                peak &= v >= np.roll(np.roll(v, da, axis=0), db, axis=1)
    idx = np.flatnonzero(peak)
    idx = idx[np.argsort(-v.ravel()[idx])][:BEAM_CANDIDATES]
    return max(polish(value, grid[i], 2.0 * math.pi / n) for i in idx)


def beam_value(kind, targets):
    """Polished beamforming optimum, written only when two grid resolutions
    agree within BEAM_AGREE and the value matches or beats the oracle's."""
    ch = model.ChannelSet([wl.H1_BAL, wl.H2_BAL])
    cons = [model.LinearConstraint.per_antenna(2, a, wl.BAL_BUDGET) for a in range(2)]
    args = ([np.real(H) for H in ch.H], ch.sigma2, ch.encoding_order,
            np.asarray(targets, dtype=float), [c.A for c in cons], [c.P for c in cons])
    if kind == "sinr_balance":
        sign, oracle = 1.0, brute_sinr_balance

        def value(th):
            return certify.beam_balance(*args, th)
    else:
        sign, oracle = -1.0, brute_power_min

        def value(th):
            return -certify.beam_usage(*args, th, np.ones(len(th)))
    vals = [sign * beam_search(value, n) for n in BEAM_GRIDS]
    spread = abs(vals[1] - vals[0]) / abs(vals[1])
    grid_value = oracle(ch, cons, model.SinrTargets(targets),
                        GridSpec(resolution=ORACLE_RESOLUTION))
    best = sign * max(sign * v for v in vals)
    print(f"{kind} {targets}: polished {vals}, oracle {grid_value!r}", file=sys.stderr)
    if spread > BEAM_AGREE or sign * (best - grid_value) < -BEAM_AGREE * abs(best):
        raise SystemExit(f"{kind} {targets}: polished values {vals} (spread {spread:.3g}) "
                         f"and oracle value {grid_value!r} do not qualify; refusing to "
                         "write a reference")
    return {"value": best, "resolution_rel": spread,
            "polished": {str(n): v for n, v in zip(BEAM_GRIDS, vals)},
            "oracle_value": grid_value, "oracle_resolution": ORACLE_RESOLUTION}


def main():
    t0 = time.perf_counter()
    ts = [i / wl.REGION_RESOLUTION for i in range(wl.REGION_RESOLUTION + 1)]
    refs = {
        "method": __doc__.split("\n\n", 2)[2].strip(),
        "settings": {"inner_tol": INNER.tol, "grid_points": GRID_POINTS,
                     "grid_rounds": GRID_ROUNDS,
                     "beam_grids": list(BEAM_GRIDS), "beam_golden_steps": BEAM_GOLDEN,
                     "beam_agree_rel": BEAM_AGREE,
                     "oracle_resolution": ORACLE_RESOLUTION},
        "capacity": {"region": {"points": [region_point(t) for t in ts]},
                     "nonlinear": nonlinear_point()},
        "beamform": {f"{kind}_{tag}": beam_value(kind, targets)
                     for kind in ("sinr_balance", "power_balance")
                     for tag, targets in wl.BAL_TARGETS.items()},
    }
    with open(wl.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.REFS_PATH} in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
