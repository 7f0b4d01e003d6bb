"""Outer loops reducing multi-constraint and nonlinear-constraint downlink
problems to sequences of single-constraint dual-uplink solves.

Multiple linear constraints tr(Q A_l) <= P_l are merged into the single
constraint sum_l lam_l tr(Q A_l) <= sum_l lam_l P_l.  For any nonnegative
multipliers the merged problem bounds the original (its feasible set is
larger), the bound is convex and scale-invariant in the multipliers, and it
is tight at the optimal multipliers, so the outer loop is a projected
subgradient descent (or ascent, for power balancing) over the unit simplex
followed by a pairwise golden-section polish along simplex sections.

Weighted sum rate, SINR balancing and power balancing share one routine for
that loop (``_multiplier_loop``): it merges the constraints, records the
trace, evaluates once when there is a single constraint, and keeps the
evaluation of least key among the feasible ones, else among all.  Each solve
supplies only its inner dual-uplink solve, transform, key and subgradient.

A convex nonlinear constraint on the trace values tr(Q A_l) is handled by
accumulating supporting hyperplanes (tangent cuts) of its feasible region.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg, model, transforms
from .errors import InvalidInput, MaxCutsExceeded
from .macsolver import (
    SolverSettings,
    budget_multiplier_wsr,
    solve_power_min_mac,
    solve_sinr_balance_mac,
    solve_wsr_mac,
)

LAMBDA_FLOOR = 1e-7
NOISE_JITTER = 1e-9
FEAS_TOL_FACTOR = 1e-5
STALL_WINDOW = 25
FIRST_STEP_CAP = 0.2
GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


@dataclass(frozen=True)
class DualWeights:
    """Nonnegative multipliers over constraints, normalized to the unit
    simplex with a small floor keeping every entry strictly positive."""

    values: np.ndarray

    def __init__(self, values, floor=LAMBDA_FLOOR):
        lam = np.asarray(values, dtype=float).reshape(-1)
        if lam.size == 0 or np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise InvalidInput("multipliers must be nonnegative and finite")
        if lam.sum() <= 0:
            raise InvalidInput("multipliers must not all be zero")
        lam = lam / lam.sum()
        # floor slightly inflated so entries stay >= floor after renormalizing
        eff = floor / max(1.0 - lam.size * floor, 0.5)
        lam = np.maximum(lam, eff)
        lam = lam / lam.sum()
        object.__setattr__(self, "values", lam)


@dataclass
class OuterTrace:
    """Per-evaluation records of the outer loop (subgradient phase and
    polish evaluations alike)."""

    lam: list = field(default_factory=list)
    value: list = field(default_factory=list)
    subgrad: list = field(default_factory=list)
    converged: bool = False
    best_index: int = -1

    def record(self, lam, value, subgrad):
        self.lam.append(np.array(lam))
        self.value.append(float(value))
        self.subgrad.append(np.array(subgrad))

    def running_best(self, sense="min"):
        agg = np.minimum if sense == "min" else np.maximum
        return agg.accumulate(np.asarray(self.value, dtype=float))

    @property
    def iterations(self):
        return len(self.value)


@dataclass
class CuttingPlaneState:
    """Accumulated tangent cuts, their tangency points in trace-value space,
    and the per-cut objective/constraint traces."""

    cuts: list = field(default_factory=list)
    points: list = field(default_factory=list)
    f_values: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    cov: object = None


def combined_constraint(constraints, lam):
    """Merged single constraint: noise matrix sum_l lam_l A_l (jittered PD)
    and budget sum_l lam_l P_l."""
    lam = lam if isinstance(lam, DualWeights) else DualWeights(lam)
    if len(constraints) != lam.values.size:
        raise InvalidInput("multiplier count must match constraint count")
    A = sum(l * c.A for l, c in zip(lam.values, constraints))
    w = np.linalg.eigvalsh(A)
    if w[0] <= NOISE_JITTER:
        A = A + NOISE_JITTER * np.eye(A.shape[0])
    budget = float(sum(l * c.P for l, c in zip(lam.values, constraints)))
    return linalg.hermitian_part(A), budget


def eval_wsr_relaxation(ch, constraints, lam, weights, inner=None, init=None,
                        merged=None):
    """Value and downlink covariance of the merged-constraint weighted sum
    rate bound at multipliers ``lam``; an upper bound on the multi-constraint
    optimum for every ``lam``.  ``merged`` is the already computed
    ``combined_constraint(constraints, lam)``."""
    inner = inner or SolverSettings()
    A, budget = merged or combined_constraint(constraints, lam)
    sol = solve_wsr_mac(ch, A, budget, weights, inner, init=init)
    cov_bc = transforms.mac_to_bc_capacity(ch, sol.cov, A)
    return sol.objective, cov_bc, sol


def wsr_bound_subgradient(ch, constraints, lam, weights, cov_bc, sol, merged=None):
    """Subgradient of the merged-constraint bound at ``lam``.

    The bound's sensitivity to multiplier l is mu * (P_l - tr(Q A_l)) where
    mu is the merged budget constraint's own multiplier (the value's
    sensitivity to the budget); without the mu factor the direction is the
    same but the subgradient inequality fails.
    """
    A, budget = merged or combined_constraint(constraints, lam)
    mu = budget_multiplier_wsr(ch, A, budget, weights, sol.cov)
    return mu * model.constraint_slacks(cov_bc, constraints)


def _project_simplex(x):
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    srt = np.sort(x)[::-1]
    csum = np.cumsum(srt) - 1.0
    ks = np.arange(1, x.size + 1)
    cond = srt - csum / ks > 0
    rho = np.nonzero(cond)[0][-1]
    theta = csum[rho] / (rho + 1.0)
    return np.maximum(x - theta, 0.0)


def _pair_sections(L):
    return [(d1, d2) for d1 in range(L) for d2 in range(d1 + 1, L)]


def _polish_simplex(evaluate, lam0, sense, passes=2, iters=24):
    """Golden-section refinement along pairwise simplex sections.

    ``evaluate(lam) -> value`` must record its own bookkeeping; ``sense`` is
    "min" or "max".  Returns the best multipliers seen.
    """
    better = (lambda a, b: a < b) if sense == "min" else (lambda a, b: a > b)
    lam = np.array(lam0, dtype=float)
    best_val = evaluate(lam)
    best_lam = lam.copy()
    L = lam.size
    for _ in range(passes):
        for (d1, d2) in _pair_sections(L):
            tot = best_lam[d1] + best_lam[d2]
            if tot <= 4 * LAMBDA_FLOOR:
                continue

            def at(x):
                cand = best_lam.copy()
                cand[d1] = x * tot
                cand[d2] = (1.0 - x) * tot
                return cand

            a, b = 0.0, 1.0
            c1 = b - GOLDEN * (b - a)
            c2 = a + GOLDEN * (b - a)
            f1 = evaluate(at(c1))
            f2 = evaluate(at(c2))
            for _ in range(iters):
                if better(f1, f2):
                    b, c2, f2 = c2, c1, f1
                    c1 = b - GOLDEN * (b - a)
                    f1 = evaluate(at(c1))
                else:
                    a, c1, f1 = c1, c2, f2
                    c2 = a + GOLDEN * (b - a)
                    f2 = evaluate(at(c2))
                cur, curx = (f1, c1) if better(f1, f2) else (f2, c2)
                if better(cur, best_val):
                    best_val = cur
                    best_lam = at(curx)
    return best_lam


def _outer_loop(evaluate, L, outer, sense):
    """Projected subgradient with diminishing steps a/sqrt(t) on the simplex
    of L >= 2 multipliers, followed by the pairwise polish.
    ``evaluate(lam) -> (value, subgrad)`` does its own best-candidate
    tracking; returns nothing."""
    lam = np.full(L, 1.0 / L)
    sign = -1.0 if sense == "min" else 1.0
    step_scale = None
    best_hist = []
    for t in range(1, max(2, outer.max_iters) + 1):
        val, sub = evaluate(lam)
        best_hist.append(val)
        if step_scale is None:
            norm = float(np.max(np.abs(sub)))
            step_scale = FIRST_STEP_CAP / norm if norm > 0 else 0.0
        if step_scale == 0.0:
            break
        best_so_far = min(best_hist) if sense == "min" else max(best_hist)
        if len(best_hist) > STALL_WINDOW:
            prev = best_hist[:-STALL_WINDOW]
            prev_best = min(prev) if sense == "min" else max(prev)
            if abs(prev_best - best_so_far) < outer.tol * max(1.0, abs(best_so_far)):
                break
        step = step_scale / np.sqrt(t)
        lam = _project_simplex(lam + sign * step * sub)
        lam = DualWeights(lam).values
    _polish_simplex(lambda lam_arr: evaluate(lam_arr)[0], lam, sense)


def _feasible(slacks, constraints):
    return np.min(slacks) >= -FEAS_TOL_FACTOR * max(c.P for c in constraints)


def _multiplier_loop(constraints, outer, sense, evaluate):
    """Outer loop over ``constraints``: ``evaluate(lam, A, budget)`` solves the
    merged constraint (A, budget) at ``lam`` and returns (value, subgradient,
    key, feasible, result).  Returns (key, result, multipliers, trace) of the
    kept evaluation; ``trace.converged`` says whether it is feasible."""
    outer = outer or SolverSettings(max_iters=120)
    if not constraints:
        raise InvalidInput("need at least one constraint")
    trace = OuterTrace()
    best = {}  # "feasible" and "any": (key, result, lam, trace index)

    def run(lam_arr):
        lam = DualWeights(lam_arr)
        A, budget = combined_constraint(constraints, lam)
        value, sub, key, feasible, result = evaluate(lam, A, budget)
        trace.record(lam.values, value, sub)
        entry = (key, result, lam, len(trace.value) - 1)
        for slot in ("feasible", "any") if feasible else ("any",):
            if slot not in best or key < best[slot][0]:
                best[slot] = entry
        return value, sub

    if len(constraints) == 1:
        run(np.ones(1))
    else:
        _outer_loop(run, len(constraints), outer, sense)
    chosen = best.get("feasible", best["any"])
    trace.converged = "feasible" in best
    trace.best_index = chosen[3]
    return chosen[0], chosen[1], chosen[2], trace


def solve_wsr_multi(ch, constraints, weights, outer=None, inner=None):
    """Weighted sum rate maximization under multiple linear constraints.

    Minimizes the merged-constraint upper bound over simplex multipliers by
    projected subgradient (subgradient entry l is P_l - tr(Q A_l) at the
    inner solution) plus a golden-section polish.  Returns the best downlink
    covariance that is feasible for every constraint, the multipliers, and
    the outer trace.
    """
    inner = inner or SolverSettings()
    constraints = list(constraints)
    warm = [None]  # uplink covariances of the previous evaluation

    def evaluate(lam, A, budget):
        inner_here = inner if warm[0] is None else replace(inner, restarts=1)
        g, cov_bc, sol = eval_wsr_relaxation(ch, constraints, lam, weights, inner_here,
                                             warm[0], (A, budget))
        warm[0] = sol.cov
        sub = wsr_bound_subgradient(ch, constraints, lam, weights, cov_bc, sol, (A, budget))
        feasible = _feasible(model.constraint_slacks(cov_bc, constraints), constraints)
        return g, sub, g, feasible, cov_bc

    _, cov_bc, lam, trace = _multiplier_loop(constraints, outer, "min", evaluate)
    return cov_bc, lam, trace


def solve_sinr_balance_multi(ch, constraints, targets, outer=None, inner=None):
    """SINR balancing under multiple linear constraints: minimize the merged
    upper bound on the balanced ratio over simplex multipliers.  Returns
    (alpha, downlink beamforming solution, multipliers, trace)."""
    inner = inner or SolverSettings()
    constraints = list(constraints)

    def evaluate(lam, A, budget):
        alpha, bf_mac = solve_sinr_balance_mac(ch, A, budget, targets, inner)
        bf = transforms.mac_to_bc_sinr(ch, bf_mac, A)
        slacks = model.constraint_slacks(bf.bc_covariances(), constraints)
        return alpha, slacks, alpha, _feasible(slacks, constraints), bf

    return _multiplier_loop(constraints, outer, "min", evaluate)


def solve_power_balance_multi(ch, constraints, targets, outer=None, inner=None):
    """Power balancing: minimize max_l tr(Q A_l) / P_l subject to per-user
    SINR targets, by maximizing the merged lower bound over multipliers.

    Every inner solution meets the SINR targets exactly (the transformation
    preserves SINRs), so the reported alpha is the achieved constraint ratio
    max_l tr(Q A_l) / P_l of the best iterate, an achievable value; the
    maximized bound approaches it from below.  Returns
    (alpha, beamforming solution, multipliers, trace).
    """
    inner = inner or SolverSettings()
    constraints = list(constraints)

    def evaluate(lam, A, budget):
        total, bf_mac = solve_power_min_mac(ch, A, targets, inner)
        bound = total / budget
        bf = transforms.mac_to_bc_sinr(ch, bf_mac, A)
        cov_bc = bf.bc_covariances()
        used = np.array([model.constraint_value(cov_bc, c) for c in constraints])
        achieved = float(np.max(used / [c.P for c in constraints]))
        # supergradient of the bound: (tr(Q A_l) - bound * P_l) / (lam . P)
        sub = np.array([u - bound * c.P for u, c in zip(used, constraints)]) / budget
        return bound, sub, achieved, True, bf

    return _multiplier_loop(constraints, outer, "max", evaluate)


class TraceSpaceConstraint:
    """Convex constraint f(Q) = phi(tr(Q A_1), ..., tr(Q A_L)) <= 0 with
    componentwise-nondecreasing phi on the nonnegative orthant, so tangent
    hyperplanes have PSD combined matrices.  The origin must be strictly
    feasible (phi(0) < 0)."""

    def __init__(self, mats):
        self.mats = [linalg.check_hermitian(A, name="constraint matrix") for A in mats]

    def phi(self, p):
        raise NotImplementedError

    def grad(self, p):
        raise NotImplementedError

    def traces(self, cov_bc):
        tot = cov_bc.total()
        return np.array([float(np.real(np.trace(tot @ A))) for A in self.mats])

    def value(self, cov_bc):
        return float(self.phi(self.traces(cov_bc)))


class QuadraticBall(TraceSpaceConstraint):
    """(tr(Q A_1))^2 + ... + (tr(Q A_L))^2 <= radius_sq."""

    def __init__(self, mats, radius_sq):
        super().__init__(mats)
        if not (radius_sq > 0):
            raise InvalidInput("radius_sq must be positive")
        self.radius_sq = float(radius_sq)

    def phi(self, p):
        return float(np.sum(np.asarray(p) ** 2) - self.radius_sq)

    def grad(self, p):
        return 2.0 * np.asarray(p, dtype=float)


class AffineHalfspace(TraceSpaceConstraint):
    """c . (tr(Q A_1), ...) <= offset, the already-linear degenerate case."""

    def __init__(self, mats, coeffs, offset):
        super().__init__(mats)
        self.coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        if np.any(self.coeffs < 0) or not (offset > 0):
            raise InvalidInput("need nonnegative coefficients and positive offset")
        self.offset = float(offset)

    def phi(self, p):
        return float(self.coeffs @ np.asarray(p) - self.offset)

    def grad(self, p):
        return self.coeffs.copy()


def _boundary_point(f, target, anchor=None):
    """Closest-direction boundary point of {phi <= 0}: bisection along the
    ray from a strictly feasible anchor (default origin) toward ``target``
    in trace-value space.  Raises InvalidInput when the ray never leaves
    the region."""
    L = len(f.mats)
    anchor = np.zeros(L) if anchor is None else np.asarray(anchor, dtype=float)
    if f.phi(anchor) >= 0:
        raise InvalidInput("anchor must be strictly inside the feasible region")
    d = np.asarray(target, dtype=float) - anchor
    s = linalg.bisect_edge(lambda x: f.phi(anchor + x * d), 0.0, 1.0, 0.0, InvalidInput(
        f"the ray toward {d} never leaves the constraint region"))
    return anchor + s * d


def _tangent_cut(f, point):
    """Supporting hyperplane of {phi <= 0} at a boundary point, normalized."""
    c = np.asarray(f.grad(point), dtype=float)
    c = np.maximum(c, 0.0)
    norm = np.linalg.norm(c)
    if norm <= 0:
        raise InvalidInput("vanishing constraint gradient at the boundary")
    c = c / norm
    A = sum(cl * Al for cl, Al in zip(c, f.mats))
    budget = float(c @ point)
    return model.LinearConstraint(A, budget), c


def _dedup_cuts(cuts, normals, new_cut, new_normal, angle_tol=1e-4):
    """Replace an existing cut whose normal is within angle_tol radians."""
    for idx, nrm in enumerate(normals):
        cosang = float(np.clip(nrm @ new_normal, -1.0, 1.0))
        if np.arccos(cosang) < angle_tol:
            cuts[idx] = new_cut
            normals[idx] = new_normal
            return
    cuts.append(new_cut)
    normals.append(new_normal)


def solve_wsr_nonlinear(ch, f, weights, eps, outer=None, inner=None, max_cuts=40):
    """Weighted sum rate maximization under a convex nonlinear constraint
    f(Q) <= 0 on the trace values, by accumulating tangent cuts.

    Each round solves the multi-cut linear problem (an outer relaxation, so
    the rate sequence is nonincreasing and bounds the optimum from above),
    stops once f(Q) <= eps, and otherwise adds the tangent hyperplane at the
    closest boundary point along the ray toward the iterate.
    """
    outer = outer or SolverSettings(max_iters=120)
    inner = inner or SolverSettings()
    if not isinstance(f, TraceSpaceConstraint):
        raise InvalidInput("constraint must expose trace-space structure")
    L = len(f.mats)
    state = CuttingPlaneState()
    normals = []
    start = _boundary_point(f, np.ones(L))
    cut, nrm = _tangent_cut(f, start)
    _dedup_cuts(state.cuts, normals, cut, nrm)
    state.points.append(start)
    w = np.asarray(weights, dtype=float).reshape(-1)
    for _ in range(max_cuts):
        cov_bc, lam, tr = solve_wsr_multi(ch, state.cuts, weights, outer, inner)
        p = f.traces(cov_bc)
        fval = f.phi(p)
        state.cov = cov_bc
        state.f_values.append(float(fval))
        state.rates.append(float(w @ model.bc_rates_dpc(ch, cov_bc)))
        if fval <= eps:
            return cov_bc, state
        boundary = _boundary_point(f, p)
        cut, nrm = _tangent_cut(f, boundary)
        _dedup_cuts(state.cuts, normals, cut, nrm)
        state.points.append(boundary)
    raise MaxCutsExceeded(f"no convergence within {max_cuts} cuts")
