"""Outer loops reducing multi-constraint and nonlinear-constraint downlink
problems to sequences of single-constraint dual-uplink solves.

Multiple linear constraints tr(Q A_l) <= P_l are merged into the single
constraint sum_l lam_l tr(Q A_l) <= sum_l lam_l P_l.  For any nonnegative
multipliers the merged problem bounds the original (its feasible set is
larger), the bound is convex and scale-invariant in the multipliers, and it
is tight at the optimal multipliers, so the outer loop is a projected
subgradient descent (or ascent, for power balancing) over the unit simplex
followed by a pairwise golden-section polish along simplex sections.

A convex constraint phi(p) <= 0 on the trace values p_l = tr(Q A_l) merges
the same way: at a normal c >= 0 the single constraint
tr(Q sum_l c_l A_l) <= h(c), with h the support function of {phi <= 0},
contains the feasible set, so its weighted sum rate bounds the optimum for
every c and meets it at the optimal normal.  Linear constraints are the case
h(c) = c . P.

Weighted sum rate (under linear or trace-space constraints), SINR balancing
and power balancing share one routine for that loop (``_multiplier_loop``):
it takes the merge step, records the trace, evaluates once when there is a
single multiplier, and keeps the evaluation of least key among the feasible
ones, else among all.  Each solve supplies only its inner dual-uplink solve,
transform, key and subgradient.
"""

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import linalg, model, transforms
from .errors import InvalidInput
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
class NonlinearResult:
    """Certificate of a trace-space constraint solve: ``cuts`` holds the one
    merged linear constraint at the kept normal ``lam``, which contains the
    feasible set; ``trace`` is the multiplier loop's."""

    cuts: list
    lam: DualWeights
    trace: OuterTrace


def _merged_matrix(lam, mats):
    """sum_l lam_l A_l, jittered positive definite."""
    A = sum(l * M for l, M in zip(lam, mats))
    w = np.linalg.eigvalsh(A)
    if w[0] <= NOISE_JITTER:
        A = A + NOISE_JITTER * np.eye(A.shape[0])
    return linalg.hermitian_part(A)


def combined_constraint(constraints, lam):
    """Merged single constraint: noise matrix sum_l lam_l A_l (jittered PD)
    and budget sum_l lam_l P_l."""
    lam = lam if isinstance(lam, DualWeights) else DualWeights(lam)
    if len(constraints) != lam.values.size:
        raise InvalidInput("multiplier count must match constraint count")
    budget = float(sum(l * c.P for l, c in zip(lam.values, constraints)))
    return _merged_matrix(lam.values, [c.A for c in constraints]), budget


def eval_wsr_relaxation(ch, constraints, lam, weights, inner=None, init=None,
                        merged=None):
    """Value and downlink covariance of the merged-constraint weighted sum
    rate bound at multipliers ``lam``; an upper bound on the multi-constraint
    optimum for every ``lam``.  ``merged`` is the merged constraint
    (A, budget) when already computed; ``constraints`` is then not read."""
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


def _multiplier_loop(merge, L, outer, sense, evaluate):
    """Outer loop over L multipliers: ``merge(lam) -> (A, budget)`` is the
    merged single constraint at ``lam``, and ``evaluate(lam, A, budget)``
    solves it and returns (value, subgradient, key, feasible, result).
    Returns (key, result, multipliers, trace) of the kept evaluation;
    ``trace.converged`` says whether it is feasible."""
    outer = outer or SolverSettings(max_iters=120)
    if L < 1:
        raise InvalidInput("need at least one constraint")
    trace = OuterTrace()
    best = {}  # "feasible" and "any": (key, result, lam, trace index)

    def run(lam_arr):
        lam = DualWeights(lam_arr)
        A, budget = merge(lam)
        value, sub, key, feasible, result = evaluate(lam, A, budget)
        trace.record(lam.values, value, sub)
        entry = (key, result, lam, len(trace.value) - 1)
        for slot in ("feasible", "any") if feasible else ("any",):
            if slot not in best or key < best[slot][0]:
                best[slot] = entry
        return value, sub

    if L == 1:
        run(np.ones(1))
    else:
        _outer_loop(run, L, outer, sense)
    chosen = best.get("feasible", best["any"])
    trace.converged = "feasible" in best
    trace.best_index = chosen[3]
    return chosen[0], chosen[1], chosen[2], trace


def _wsr_evaluate(ch, weights, inner, check):
    """``evaluate`` of a weighted-sum-rate multiplier loop: the merged
    constraint's bound, warm-started from the previous evaluation, whose
    subgradient and feasibility come from ``check(lam, merged, cov_bc, sol)``."""
    inner = inner or SolverSettings()
    warm = [None]  # uplink covariances of the previous evaluation

    def evaluate(lam, A, budget):
        inner_here = inner if warm[0] is None else replace(inner, restarts=1)
        g, cov_bc, sol = eval_wsr_relaxation(ch, None, lam, weights, inner_here,
                                             warm[0], (A, budget))
        warm[0] = sol.cov
        sub, feasible = check(lam, (A, budget), cov_bc, sol)
        return g, sub, g, feasible, cov_bc

    return evaluate


def solve_wsr_multi(ch, constraints, weights, outer=None, inner=None):
    """Weighted sum rate maximization under multiple linear constraints.

    Minimizes the merged-constraint upper bound over simplex multipliers by
    projected subgradient (subgradient entry l is P_l - tr(Q A_l) at the
    inner solution) plus a golden-section polish.  Returns the best downlink
    covariance that is feasible for every constraint, the multipliers, and
    the outer trace.
    """
    constraints = list(constraints)

    def check(lam, merged, cov_bc, sol):
        sub = wsr_bound_subgradient(ch, constraints, lam, weights, cov_bc, sol, merged)
        return sub, _feasible(model.constraint_slacks(cov_bc, constraints), constraints)

    _, cov_bc, lam, trace = _multiplier_loop(
        partial(combined_constraint, constraints), len(constraints), outer, "min",
        _wsr_evaluate(ch, weights, inner, check))
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

    return _multiplier_loop(partial(combined_constraint, constraints), len(constraints),
                            outer, "min", evaluate)


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

    return _multiplier_loop(partial(combined_constraint, constraints), len(constraints),
                            outer, "max", evaluate)


class TraceSpaceConstraint:
    """Convex constraint f(Q) = phi(p) <= 0 on the trace values
    p_l = tr(Q A_l) (A_l PSD, so p >= 0), with phi nondecreasing on the
    nonnegative orthant and the origin strictly feasible (phi(0) < 0).

    At a normal c >= 0 its support function h(c) = sup{c . p : phi(p) <= 0,
    p >= 0} is attained at ``support_point(c)``, and ``merged(c)`` is the
    single linear constraint tr(Q sum_l c_l A_l) <= h(c), which every
    feasible Q meets."""

    def __init__(self, mats):
        self.mats = [linalg.check_hermitian(A, name="constraint matrix") for A in mats]

    def phi(self, p):
        raise NotImplementedError

    def support_point(self, c):
        raise NotImplementedError

    def merged(self, lam):
        """Noise matrix sum_l c_l A_l (jittered PD, as in
        ``combined_constraint``) and budget h(c) at the normal ``lam``, a
        ``DualWeights``."""
        c = lam.values
        return _merged_matrix(c, self.mats), float(c @ self.support_point(c))

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

    def support_point(self, c):
        c = np.asarray(c, dtype=float)
        return np.sqrt(self.radius_sq) * c / np.linalg.norm(c)


class AffineHalfspace(TraceSpaceConstraint):
    """a . (tr(Q A_1), ...) <= offset, the already-linear degenerate case."""

    def __init__(self, mats, coeffs, offset):
        super().__init__(mats)
        self.coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        if np.any(self.coeffs < 0) or not (offset > 0):
            raise InvalidInput("need nonnegative coefficients and positive offset")
        self.offset = float(offset)

    def phi(self, p):
        return float(self.coeffs @ np.asarray(p) - self.offset)

    def support_point(self, c):
        """The vertex (offset / a_k) e_k at k = argmax_l c_l / a_l."""
        c = np.asarray(c, dtype=float)
        if np.any((c > 0) & (self.coeffs == 0)):
            raise InvalidInput("a trace value with zero coefficient is unbounded on the halfspace")
        k = int(np.argmax(np.divide(c, self.coeffs, out=np.zeros_like(c),
                                    where=self.coeffs > 0)))
        return self.offset / self.coeffs[k] * np.eye(c.size)[k]


def solve_wsr_nonlinear(ch, f, weights, outer=None, inner=None):
    """Weighted sum rate maximization under a convex trace-space constraint
    f(Q) <= 0.

    The multiplier loop minimizes, over normals c on the simplex, the bound
    of the merged constraint ``f.merged(c)``; its subgradient is
    mu * (support_point(c) - p(Q)) at the inner solution.  An evaluation is
    feasible when phi(p) <= FEAS_TOL_FACTOR * (-phi(0)).  Returns the
    downlink covariance of the kept evaluation and a ``NonlinearResult``.
    """
    if not isinstance(f, TraceSpaceConstraint):
        raise InvalidInput("constraint must expose trace-space structure")
    L = len(f.mats)
    tol = -FEAS_TOL_FACTOR * f.phi(np.zeros(L))

    def check(lam, merged, cov_bc, sol):
        p = f.traces(cov_bc)
        mu = budget_multiplier_wsr(ch, *merged, weights, sol.cov)
        return mu * (f.support_point(lam.values) - p), f.phi(p) <= tol

    _, cov_bc, lam, trace = _multiplier_loop(f.merged, L, outer, "min",
                                             _wsr_evaluate(ch, weights, inner, check))
    return cov_bc, NonlinearResult([model.LinearConstraint(*f.merged(lam))], lam, trace)
