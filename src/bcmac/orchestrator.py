"""Certified multiplier search reducing multi-constraint and
nonlinear-constraint downlink problems to single-constraint dual-uplink
solves.

Multiple linear constraints tr(Q A_l) <= P_l are merged into the single
constraint sum_l lam_l tr(Q A_l) <= sum_l lam_l P_l.  For any nonnegative
multipliers the merged problem bounds the original (its feasible set is
larger), the bound is convex and scale-invariant in the multipliers, and it
is tight at the optimal multipliers, so the search minimizes it over the
unit simplex (power balancing maximizes a lower bound instead).

A convex constraint phi(p) <= 0 on the trace values p_l = tr(Q A_l) merges
the same way: at a normal c >= 0 the single constraint
tr(Q sum_l c_l A_l) <= h(c), with h the support function of {phi <= 0},
contains the feasible set, so its weighted sum rate bounds the optimum for
every c and meets it at the optimal normal.  Linear constraints are the case
h(c) = c . P.

Weighted sum rate (under linear or trace-space constraints), SINR balancing
and power balancing share one search (``_multiplier_loop``).  Each
evaluation solves the merged problem and returns a bound on the optimum (for
a weighted sum rate the inner objective plus its Frank-Wolfe gap, so the
bound holds however inexact the solve) and a subgradient, whose direction
cuts the simplex through the evaluated multipliers: the optimum lies on the
side the bound decreases (increases, for power balancing).  Over two
multipliers lam = (x, 1 - x) the search bisects on the sign of the slope
sub_1 - sub_2 along x; over three or more it takes the centre of the largest
ball the cuts leave room for, with its centre on the simplex (Elzinga and
Moore's central cutting planes, 1975, one LP on scipy's HiGHS, imported on
that branch only); between two cuts on a line that centre is the bisection's
midpoint.  The cuts use only directions, so they hold for the quasi-convex
bounds of balancing too.

Either way the search names the evaluations that locate the optimum, with
weights under which their subgradients cancel along the simplex: the last
evaluation on each side of the bisection bracket, or the LP's dual weights
on its cuts.  Each caller builds its point from them and repairs it last.
A weighted sum rate time-shares their covariances and scales the result
into every constraint (min(1, P_l / tr(Q A_l)), or the ball's radius over
|p|); balancing, whose beamformers cannot be time-shared, emits the best of
those evaluations, SINR balancing after scaling its powers into every
constraint, power balancing as it is (achievable).  The certified gap is the
relative distance from the best bound to the value of that repaired point,
and ``trace.converged`` says whether it is at most ``outer.tol``.  The
central search stops there; bisection goes on until its bracket collapses to
rounding.  Both stop when their next multipliers repeat evaluated ones or
after ``outer.max_iters`` evaluations.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import linalg, model, transforms
from .errors import InvalidInput
from .macsolver import (
    SolverSettings,
    solve_power_min_mac,
    solve_sinr_balance_mac,
    solve_wsr_mac,
)

LAMBDA_FLOOR = 1e-7


@dataclass(frozen=True, eq=False)
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
    """Per-evaluation records of the multiplier search: multipliers, bound
    on the optimum and subgradient; the index of the best bound, the
    certified relative gap from it to the emitted point's value, and whether
    that gap is within tolerance."""

    lam: list = field(default_factory=list)
    value: list = field(default_factory=list)
    subgrad: list = field(default_factory=list)
    converged: bool = False
    best_index: int = -1
    gap: float = np.inf

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
    merged linear constraint at the normal ``lam`` of the best bound, which
    contains the feasible set; ``trace`` is the multiplier search's."""

    cuts: list
    lam: DualWeights
    trace: OuterTrace


def _merged_matrix(lam, mats):
    """sum_l lam_l A_l: at least the multiplier floor times sum_l A_l, so
    positive definite whenever that sum is, as configs must make it."""
    return linalg.hermitian_part(sum(l * M for l, M in zip(lam, mats)))


def combined_constraint(constraints, lam):
    """Merged single constraint: noise matrix sum_l lam_l A_l and budget
    sum_l lam_l P_l."""
    lam = lam if isinstance(lam, DualWeights) else DualWeights(lam)
    if len(constraints) != lam.values.size:
        raise InvalidInput("multiplier count must match constraint count")
    budget = float(sum(l * c.P for l, c in zip(lam.values, constraints)))
    return _merged_matrix(lam.values, [c.A for c in constraints]), budget


def eval_wsr_relaxation(ch, constraints, lam, weights, inner=None, init=None,
                        merged=None):
    """Value and downlink covariance of the merged-constraint weighted sum
    rate at multipliers ``lam``, and the inner solution, whose objective plus
    gap bounds the multi-constraint optimum for every ``lam``.  ``merged`` is
    the merged constraint (A, budget) when already computed; ``constraints``
    is then not read.  A is whitened once, by the solve, for the transform
    too."""
    A, budget = merged or combined_constraint(constraints, lam)
    sol = solve_wsr_mac(ch, A, budget, weights, inner, init=init)
    cov_bc = transforms.mac_to_bc_capacity(ch, sol.cov, A, sol.whitened)
    return sol.objective, cov_bc, sol


def _bisect(trace, sign):
    """Two multipliers lam = (x, 1 - x): the slope sign * (sub_1 - sub_2)
    of the searched bound along x says on which side of each evaluation the
    optimum lies.  Returns the midpoint of the bracket and the bracket's two
    ends (the last evaluation on each side) weighted so that their slopes
    cancel, or the one end there is."""
    x = np.array([lam[0] for lam in trace.lam])
    slope = sign * np.array([s[0] - s[1] for s in trace.subgrad])
    left, right = np.nonzero(slope <= 0)[0], np.nonzero(slope > 0)[0]
    lo = left[np.argmax(x[left])] if left.size else None
    hi = right[np.argmin(x[right])] if right.size else None
    x_lo = 0.0 if lo is None else x[lo]
    x_hi = 1.0 if hi is None else x[hi]
    nxt = np.array([0.5 * (x_lo + x_hi), 1.0 - 0.5 * (x_lo + x_hi)])
    if lo is None or hi is None:
        return nxt, {hi if lo is None else lo: 1.0}
    theta = slope[hi] / (slope[hi] - slope[lo])
    return nxt, {lo: theta, hi: 1.0 - theta}


def _center(trace, sign):
    """Three or more multipliers: the point of the simplex deepest inside
    every evaluation's cut sign * sub_k . (lam - lam_k) <= 0, the centre of
    the largest ball the cuts leave room for (Elzinga and Moore's central
    cutting planes, 1975), one LP.  The cuts use only the subgradients'
    directions, so they stay valid for the quasi-convex bounds of
    balancing; between two cuts on a line the centre is their midpoint,
    the bisection's step.  Returns the centre and the LP's dual weights on
    the cuts, scaled so that the weighted subgradients cancel along the
    simplex."""
    from scipy.optimize import linprog  # scipy only loads for L >= 3

    lam = np.array(trace.lam)
    g = sign * np.array(trace.subgrad)
    g -= g.mean(axis=1, keepdims=True)  # within the simplex's plane
    norm = np.linalg.norm(g, axis=1)
    keep = norm > 0
    u = g[keep] / norm[keep, None]
    n, L = lam.shape
    # variables (lam, r), maximize r: every cut at distance at least r from
    # lam, which stays on the simplex; unit rows and tight tolerances, since
    # the balancing outputs move with lam at first order
    res = linprog(np.append(np.zeros(L), -1.0), A_ub=np.hstack([u, np.ones((len(u), 1))]),
                  b_ub=np.sum(u * lam[keep], axis=1),
                  A_eq=np.append(np.ones(L), 0.0)[None], b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * L + [(None, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        return None, {n - 1: 1.0}
    theta = np.zeros(n)
    theta[keep] = np.maximum(-res.ineqlin.marginals, 0.0) / norm[keep]
    if theta.sum() <= 0:
        return res.x[:L], {n - 1: 1.0}
    return res.x[:L], {k: t / theta.sum() for k, t in enumerate(theta) if t > 0}


def _multiplier_loop(merge, L, outer, sense, evaluate, recover):
    """Certified search over L >= 1 multipliers on the unit simplex.

    ``merge(lam) -> (A, budget)`` is the merged single constraint at ``lam``
    (a ``DualWeights``), and ``evaluate(lam, A, budget)`` solves it and
    returns (bound, subgradient, result): a bound on the optimum, from above
    for sense "min" and from below for "max", and a subgradient of the
    merged bound at ``lam`` (a supergradient for "max").
    ``recover(results, theta) -> (value, result)`` builds and repairs the
    emitted point from the evaluations' results and the search's weights
    ``theta`` (evaluation index: weight).  Returns (value, result,
    multipliers of the best bound, trace)."""
    outer = outer or SolverSettings(max_iters=120)
    if L < 1:
        raise InvalidInput("need at least one constraint")
    sign = 1.0 if sense == "min" else -1.0
    trace, points, results = OuterTrace(), [], []
    nxt = DualWeights(np.full(L, 1.0 / L))
    while True:
        points.append(nxt)
        bound, sub, result = evaluate(nxt, *merge(nxt))
        trace.record(nxt.values, bound, sub)
        results.append(result)
        lam, theta = (None, {0: 1.0}) if L == 1 else (_bisect if L == 2 else _center)(trace, sign)
        value, out = recover(results, theta)
        best = trace.best_index = int(np.argmin(sign * np.array(trace.value)))
        trace.gap = sign * (trace.value[best] - value) / max(abs(trace.value[best]), 1e-300)
        trace.converged = bool(trace.gap <= outer.tol)
        # a bisection step costs one warm-started evaluation and halves the
        # bracket, so it does not stop at the tolerance: the bracket ends,
        # which balancing emits, meet at the optimal multipliers to
        # rounding, and the inner solves' Frank-Wolfe gaps keep closing
        nxt = None if lam is None else DualWeights(lam)
        if nxt is None or trace.iterations >= outer.max_iters or (L > 2 and trace.converged) \
                or any(np.array_equal(nxt.values, p.values) for p in points):
            return value, out, points[best], trace


def _wsr_evaluate(ch, weights, inner, slacks):
    """``evaluate`` of a weighted-sum-rate search: the merged constraint's
    solve, warm-started from the previous evaluation; its bound is the
    objective plus the Frank-Wolfe gap, and its subgradient is
    mu * ``slacks(lam, cov_bc)`` with mu the merged budget's own multiplier
    (without the mu factor the direction is the same but the subgradient
    inequality fails)."""
    warm = [None]  # uplink covariances of the previous evaluation

    def evaluate(lam, A, budget):
        g, cov_bc, sol = eval_wsr_relaxation(ch, None, lam, weights, inner, warm[0],
                                             (A, budget))
        warm[0] = sol.cov
        return g + sol.gap, sol.multiplier * slacks(lam, cov_bc), cov_bc

    return evaluate


def _wsr_recover(ch, weights, scale):
    """``recover`` of a weighted-sum-rate search: the covariances
    time-shared by ``theta``, scaled by ``scale(cov)`` (at most 1) into the
    constraints, and their weighted sum rate."""
    def recover(results, theta):
        cov = model.CovarianceSet.built(model.BC, sum(t * results[k].Q for k, t in theta.items()))
        cov = model.CovarianceSet.built(model.BC, scale(cov) * cov.Q)
        return float(np.dot(weights, model.bc_rates_dpc(ch, cov))), cov

    return recover


def solve_wsr_multi(ch, constraints, weights, outer=None, inner=None):
    """Weighted sum rate maximization under multiple linear constraints.

    Minimizes the merged-constraint upper bound over simplex multipliers
    (subgradient entry l is mu * (P_l - tr(Q A_l)) at the inner solution)
    and emits the time-shared covariances scaled into every constraint.
    Returns that downlink covariance, the multipliers of the best bound and
    the search trace (``trace.gap``: the certified relative gap).
    """
    constraints = list(constraints)
    _, cov_bc, lam, trace = _multiplier_loop(
        partial(combined_constraint, constraints), len(constraints), outer, "min",
        _wsr_evaluate(ch, weights, inner,
                      lambda lam, cov: model.constraint_slacks(cov, constraints)),
        _wsr_recover(ch, weights, lambda cov: model.feasible_scale(cov, constraints)))
    return cov_bc, lam, trace


def solve_sinr_balance_multi(ch, constraints, targets, outer=None, inner=None):
    """SINR balancing under multiple linear constraints: minimize the merged
    upper bound on the balanced ratio over simplex multipliers.  The
    downlink powers of the evaluations the search weights are scaled into
    every constraint, and the one with the largest least SINR_i / gamma_i,
    the emitted alpha, is kept.  Returns (alpha, downlink beamforming
    solution, multipliers, trace)."""
    constraints = list(constraints)
    warm = [None]  # uplink solution of the previous evaluation

    def evaluate(lam, A, budget):
        alpha, warm[0] = solve_sinr_balance_mac(ch, A, budget, targets, inner, warm[0])
        bf = transforms.mac_to_bc_sinr(ch, warm[0], A)
        return alpha, model.constraint_slacks(bf.bc_covariances(), constraints), bf

    def repaired(bf):
        factor = model.feasible_scale(bf.bc_covariances(), constraints)
        bf = model.BeamformingSolution.built(bf.u, bf.v, [factor * p for p in bf.p], bf.q)
        return min(float(s[0]) / g for s, g in zip(model.bc_sinr(ch, bf), targets.gamma)), bf

    def recover(results, theta):
        return max((repaired(results[k]) for k in theta), key=lambda out: out[0])

    return _multiplier_loop(partial(combined_constraint, constraints), len(constraints),
                            outer, "min", evaluate, recover)


def solve_power_balance_multi(ch, constraints, targets, outer=None, inner=None):
    """Power balancing: minimize max_l tr(Q A_l) / P_l subject to per-user
    SINR targets, by maximizing the merged lower bound over multipliers.

    Every inner solution meets the SINR targets exactly (the transformation
    preserves SINRs), so the reported alpha, the least achieved constraint
    ratio max_l tr(Q A_l) / P_l among the evaluations the search weights, is
    achievable; the maximized bound approaches it from below.  Returns
    (alpha, beamforming solution, multipliers, trace).
    """
    constraints = list(constraints)
    warm = [None]  # uplink solution of the previous evaluation

    def evaluate(lam, A, budget):
        total, warm[0] = solve_power_min_mac(ch, A, targets, inner, warm[0])
        bound = total / budget
        bf = transforms.mac_to_bc_sinr(ch, warm[0], A)
        cov_bc = bf.bc_covariances()
        used = np.array([model.constraint_value(cov_bc, c) for c in constraints])
        achieved = float(np.max(used / [c.P for c in constraints]))
        # supergradient of the bound: (tr(Q A_l) - bound * P_l) / (lam . P)
        sub = np.array([u - bound * c.P for u, c in zip(used, constraints)]) / budget
        return bound, sub, (achieved, bf)

    return _multiplier_loop(partial(combined_constraint, constraints), len(constraints),
                            outer, "max", evaluate,
                            lambda results, theta: min((results[k] for k in theta),
                                                       key=lambda out: out[0]))


class TraceSpaceConstraint:
    """Convex constraint f(Q) = phi(p) <= 0 on the trace values
    p_l = tr(Q A_l) (A_l PSD, so p >= 0), with phi nondecreasing on the
    nonnegative orthant and the origin strictly feasible (phi(0) < 0).

    At a normal c >= 0 its support function h(c) = sup{c . p : phi(p) <= 0,
    p >= 0} is attained at ``support_point(c)``, and ``merged(c)`` is the
    single linear constraint tr(Q sum_l c_l A_l) <= h(c), which every
    feasible Q meets.  ``room(p)`` is the largest t with phi(t p) <= 0."""

    def __init__(self, mats):
        self.mats = [linalg.check_hermitian(A, name="constraint matrix") for A in mats]

    def phi(self, p):
        raise NotImplementedError

    def support_point(self, c):
        raise NotImplementedError

    def room(self, p):
        raise NotImplementedError

    def merged(self, lam):
        """Noise matrix sum_l c_l A_l (as in ``combined_constraint``) and
        budget h(c) at the normal ``lam``, a ``DualWeights``."""
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

    def room(self, p):
        return float(np.sqrt(self.radius_sq) / max(np.linalg.norm(p), 1e-300))


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

    def room(self, p):
        return self.offset / max(float(self.coeffs @ np.asarray(p)), 1e-300)


def solve_wsr_nonlinear(ch, f, weights, outer=None, inner=None):
    """Weighted sum rate maximization under a convex trace-space constraint
    f(Q) <= 0.

    The multiplier search minimizes, over normals c on the simplex, the
    bound of the merged constraint ``f.merged(c)``; its subgradient is
    mu * (support_point(c) - p(Q)) at the inner solution.  The emitted
    covariance is the time-shared one scaled by min(1, ``f.room(p)``) into
    the constraint.  Returns it and a ``NonlinearResult``.
    """
    if not isinstance(f, TraceSpaceConstraint):
        raise InvalidInput("constraint must expose trace-space structure")
    _, cov_bc, lam, trace = _multiplier_loop(
        f.merged, len(f.mats), outer, "min",
        _wsr_evaluate(ch, weights, inner,
                      lambda lam, cov: f.support_point(lam.values) - f.traces(cov)),
        _wsr_recover(ch, weights, lambda cov: min(1.0, f.room(f.traces(cov)))))
    return cov_bc, NonlinearResult([model.LinearConstraint(*f.merged(lam))], lam, trace)
