"""Certified multiplier search reducing multi-constraint and
nonlinear-constraint downlink problems to single-constraint dual-uplink
solves.

Multiple linear constraints tr(Q A_l) <= P_l are merged into the single
constraint sum_l lam_l tr(Q A_l) <= sum_l lam_l P_l.  For any nonnegative
multipliers the merged problem bounds the original (its feasible set is
larger), the bound is convex and scale-invariant in the multipliers, and it
is tight at the optimal multipliers, so the search minimizes it over the
unit simplex (power balancing maximizes a lower bound instead).

A quadratic ball |p| <= r on the trace values p_l = tr(Q A_l)
(``QuadraticBall``) merges the same way: at a normal c >= 0 the single
constraint tr(Q sum_l c_l A_l) <= h(c) = r |c|, with h the ball's support
function, contains the feasible set, so its weighted sum rate bounds the
optimum for every c and meets it at the optimal normal.  Linear constraints
are the case h(c) = c . P, and an affine one a . p <= offset is the linear
constraint with matrix sum_l a_l A_l.

Weighted sum rate (under linear constraints or a ball), SINR balancing
and power balancing share one search (``_multiplier_loop``).  Each
evaluation solves the merged problem and returns a bound on the optimum (for
a weighted sum rate the inner objective plus its Frank-Wolfe gap, so the
bound holds however inexact the solve) and a subgradient, whose direction
cuts the simplex through the evaluated multipliers: the optimum lies on the
side the bound decreases (increases, for power balancing).  Over two
multipliers lam = (x, 1 - x) the sign of the slope sub_1 - sub_2 along x
brackets the optimum, and the search steps by Illinois regula falsi on that
slope kept inside ITP's bound, so it takes at most ``ITP_N0`` evaluations
more than bisection (``_bracket_step``); over three or more it takes the
analytic centre of the simplex the cuts leave, in numpy (``_center``).  The
cuts use only directions, so they hold for the quasi-convex bounds of
balancing too.  A search starts at the simplex centre or at ``start`` (a
region sweep's previous point's best multipliers, near its own).  An open
bracket's n-th step goes from its closed end toward the open edge by
d0 * 16^(n-1), at most to the floored vertex: d0 = 1/4 from the centre
(x = 1/2, 3/4, then the vertex), ``PROBE`` from a start.

Either way the search names the evaluations that locate the optimum, with
weights under which their subgradients cancel along the simplex: the last
evaluation on each side of the bracket (or the one whose slope is exactly
zero), or every cut by its inverse slack at the centre.  Each caller builds
its point from them and repairs it last.  A weighted sum rate time-shares
their covariances and scales the result into every constraint (min(1, P_l /
tr(Q A_l)), or the ball's radius over |p|, stepped down to the rounding);
balancing, whose beamformers cannot be time-shared, emits the best of
those evaluations, SINR balancing after scaling its powers into every
constraint, power balancing as it is (achievable).  The certified gap is the
relative distance from the best bound to the value of that repaired point,
and ``trace.converged`` says whether it is at most ``outer.tol``.  The
central search stops there.  A search over two multipliers stops there too
once the gap is at most ``SETTLE_RTOL`` (rounding) or, for a weighted sum
rate, once its time-shared value has settled, moving by at most
``SETTLE_RTOL`` relative since the previous evaluation, long before the
bracket collapses.  Balancing emits a bracket end, optimal only where the
bracket collapses, so it needs the gap at rounding, or else an exact zero
slope or a bracket collapsed to rounding.  Power balancing's bound is
certified; SINR balancing's is the inner fixed point's ratio, not a
certified bound, so its gap compares the emitted alpha with the best ratio
met, not with the optimum.  Every search stops when its next multipliers
repeat evaluated ones or after ``outer.max_iters`` evaluations.
"""

from dataclasses import dataclass, field, replace
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
ITP_EPS = 2.0 ** -53  # bracket width the two-multiplier search resolves
ITP_N0 = 4  # evaluations it may take beyond bisection's count
SETTLE_RTOL = 1e-12  # rounding: a gap, or a settling value's relative move, ends a search
PROBE = 1e-3  # first one-sided step of a two-multiplier search given a start
OUTER = SolverSettings(max_iters=80)  # the search's settings when none are given


@dataclass(frozen=True, eq=False)
class DualWeights:
    """Nonnegative multipliers over constraints, normalized to the unit
    simplex with a floor, LAMBDA_FLOOR, keeping every entry positive."""

    values: np.ndarray

    def __init__(self, values):
        lam = np.asarray(values, dtype=float).reshape(-1)
        if lam.size == 0 or np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise InvalidInput("multipliers must be nonnegative and finite")
        if lam.sum() <= 0:
            raise InvalidInput("multipliers must not all be zero")
        lam = lam / lam.sum()
        # floor slightly inflated so entries stay >= floor after renormalizing
        eff = LAMBDA_FLOOR / max(1.0 - lam.size * LAMBDA_FLOOR, 0.5)
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

    @property
    def iterations(self):
        return len(self.value)


@dataclass
class NonlinearResult:
    """Certificate of a quadratic-ball solve: ``cuts`` holds the one
    merged linear constraint at the normal ``lam`` of the best bound, which
    contains the feasible set; ``trace`` is the multiplier search's."""

    cuts: list
    lam: DualWeights
    trace: OuterTrace


def _merged_matrix(lam, mats):
    """sum_l lam_l A_l (see :func:`check_merges`)."""
    return linalg.hermitian_part(sum(l * M for l, M in zip(lam, mats)))


def check_merges(mats, name):
    """Raise SingularConstraintMatrix unless sum_l lam_l A_l passes
    ``linalg.pd_roots``'s rule at every ``DualWeights`` lam.  The rule's
    margin is concave in lam and each ``DualWeights`` lies in the hull of the
    floored simplex vertices, so a check at those vertices suffices."""
    for k, vertex in enumerate(np.eye(len(mats))):
        linalg.pd_roots(_merged_matrix(DualWeights(vertex).values, mats),
                        f"{name} at multiplier vertex {k + 1} of {len(mats)}")


def combined_constraint(constraints, lam):
    """Merged single constraint at the multipliers ``lam``, a
    ``DualWeights``: noise matrix sum_l lam_l A_l and budget sum_l lam_l P_l."""
    if len(constraints) != lam.values.size:
        raise InvalidInput("multiplier count must match constraint count")
    budget = float(sum(l * c.P for l, c in zip(lam.values, constraints)))
    return _merged_matrix(lam.values, [c.A for c in constraints]), budget


def eval_wsr_relaxation(ch, A, budget, weights, inner=None, init=None):
    """Value and downlink covariance of the weighted sum rate under the
    merged constraint tr(Q A) <= budget (``combined_constraint`` or
    ``QuadraticBall.merged`` at some multipliers), and the inner solution,
    whose objective plus gap bounds the multi-constraint optimum for every
    multiplier.  A is whitened once, by the solve, for the transform too."""
    sol = solve_wsr_mac(ch, A, budget, weights, inner, init=init)
    cov_bc = transforms.mac_to_bc_capacity(ch, sol.cov, A, sol.whitened)
    return sol.objective, cov_bc, sol


def _bracket_step(trace, sign, probe):
    """Two multipliers lam = (x, 1 - x): the slope sign * (sub_1 - sub_2)
    of the searched bound along x says on which side of each evaluation the
    optimum lies.  Returns the next multipliers and the bracket's two ends
    (the last evaluation on each side) weighted so that their slopes cancel,
    or the one end there is; after an exact zero slope, no next multipliers
    and that evaluation alone.

    A one-sided bracket after n evaluations steps from its closed end toward
    its open edge by ``probe`` * 16^(n-1), at most to that edge, the simplex
    vertex ``DualWeights`` floors, which either closes the bracket or repeats
    as the optimum (a constraint inactive at the optimum leaves every slope
    one sign).  A ``probe`` of 1/4 from the centre bisects once, then takes
    the edge; a start's small ``PROBE`` brackets a nearby optimum tightly.
    A two-sided one
    takes the regula-falsi point of the ends' slopes, an end's slope weighted
    by 2^-k when the last k + 1 evaluations fell on the other side (Illinois;
    Dowell and Jarratt, 1971), projected into ITP's ball around the midpoint
    (Oliveira and Takahashi, 2020), whose radius shrinks so that the search
    takes at most ITP_N0 evaluations more than bisection would."""
    x = np.array([lam[0] for lam in trace.lam])
    slope = sign * np.array([s[0] - s[1] for s in trace.subgrad])
    n = len(x)
    if slope[-1] == 0:
        return None, {n - 1: 1.0}
    left, right = np.nonzero(slope < 0)[0], np.nonzero(slope > 0)[0]
    lo = left[np.argmax(x[left])] if left.size else None
    hi = right[np.argmin(x[right])] if right.size else None
    x_lo = 0.0 if lo is None else x[lo]
    x_hi = 1.0 if hi is None else x[hi]
    mid = 0.5 * (x_lo + x_hi)
    if lo is None or hi is None:  # step toward the open edge, at most to it
        step = probe * 16.0 ** (n - 1)
        nxt = max(x_hi - step, 0.0) if lo is None else min(x_lo + step, 1.0)
        return np.array([nxt, 1.0 - nxt]), {hi if lo is None else lo: 1.0}
    f_lo, f_hi = (slope[k] * 0.5 ** max(n - 2 - k, 0) for k in (lo, hi))
    first = max(left[0], right[0])  # the evaluation that closed the bracket
    j = n - 1 - first  # steps taken from a two-sided bracket
    width0 = np.min(x[right[right <= first]]) - np.max(x[left[left <= first]])
    n_max = np.ceil(np.log2(width0 / (2 * ITP_EPS))) + ITP_N0
    r = max(ITP_EPS * 2.0 ** (n_max - j) - 0.5 * (x_hi - x_lo), 0.0)
    nxt = np.clip(x_lo + (x_hi - x_lo) * f_lo / (f_lo - f_hi), mid - r, mid + r)
    nxt = nxt if x_lo < nxt < x_hi else mid
    theta = slope[hi] / (slope[hi] - slope[lo])
    return np.array([nxt, 1.0 - nxt]), {lo: theta, hi: 1.0 - theta}


def _center(trace, sign):
    """Three or more multipliers: the analytic centre of the simplex cut by
    every evaluation's sign * sub_k . (lam - lam_k) <= 0, the maximiser of
    sum_k log s_k + sum_l log lam_l, s_k the distance inside unit cut k
    (Goffin and Vial, 2002), by damped Newton on the simplex plane from a
    short step inside the newest cut.  The centre only nears the face where
    a constraint inactive at the optimum puts it, so vertices come first.
    Returns the next multipliers (none if no start is found) and cut weights
    1 / (s_k |g_k|), under which the subgradients cancel along the simplex
    but for the barrier on its faces."""
    lam = np.array(trace.lam)
    g = sign * np.array(trace.subgrad)
    g -= g.mean(axis=1, keepdims=True)  # within the simplex's plane
    norm = np.linalg.norm(g, axis=1)
    keep = np.nonzero(norm > 0)[0]
    u = g[keep] / norm[keep, None]
    b = np.sum(u * lam[keep], axis=1)  # cut k: u_k . x <= b_k
    n, L = lam.shape
    d = u[-1] if keep.size and keep[-1] == n - 1 else np.zeros(L)
    for t in 0.1 * 0.5 ** np.arange(60):  # a start strictly inside every cut
        x = lam[-1] - t * d
        if keep.size and np.min(b - u @ x) > 0 and np.min(x) > 0:
            break
    else:
        return None, {n - 1: 1.0}
    for _ in range(100):
        w = 1.0 / (b - u @ x)
        M = (u.T * w ** 2) @ u + np.diag(x ** -2.0)
        a, c = np.linalg.solve(M, np.column_stack([1.0 / x - u.T @ w, np.ones(L)])).T
        dx = a - c * a.sum() / c.sum()
        delta = np.sqrt(max(dx @ M @ dx, 0.0))  # Newton decrement
        x = x + dx / (1.0 + delta)
        if delta <= 1e-9:
            break
    theta = 1.0 / ((b - u @ x) * norm[keep])
    # the deepest vertex strictly inside every cut that no evaluation has
    # reached (a multiplier above 1 - 1e-6), or the one the centre reaches
    depth = np.where(np.all(lam <= 1.0 - 1e-6, axis=0), np.min(b - u.T, axis=1), 0.0)
    if depth.max() > 0 or x.max() > 1.0 - 1e-6:
        x = np.eye(L)[np.argmax(depth if depth.max() > 0 else x)]
    return x, {int(k): t / theta.sum() for k, t in zip(keep, theta)}


def _multiplier_loop(merge, L, outer, sense, evaluate, recover, settles=False, start=None):
    """Certified search over L >= 1 multipliers on the unit simplex.

    ``merge(lam) -> (A, budget)`` is the merged single constraint at ``lam``
    (a ``DualWeights``), and ``evaluate(lam, A, budget)`` solves it and
    returns (bound, subgradient, result): a bound on the optimum, from above
    for sense "min" and from below for "max", and a subgradient of the
    merged bound at ``lam`` (a supergradient for "max").
    ``recover(results, theta) -> (value, result)`` builds and repairs the
    emitted point from the evaluations' results and the search's weights
    ``theta`` (evaluation index: weight).  Over two multipliers it stops
    once certified with its gap at rounding or, with ``settles``, its value
    settled (see the module docstring).  It starts at ``start`` (a
    ``DualWeights``) or the simplex centre, which sets ``_bracket_step``'s
    ``probe``.  Returns (value, result, multipliers of the best bound, trace)."""
    outer = outer or OUTER
    if L < 1:
        raise InvalidInput("need at least one constraint")
    sign = 1.0 if sense == "min" else -1.0
    trace, points, results, last = OuterTrace(), [], [], None
    nxt = start or DualWeights(np.full(L, 1.0 / L))
    step = _center if L > 2 else partial(_bracket_step, probe=0.25 if start is None else PROBE)
    while True:
        points.append(nxt)
        bound, sub, result = evaluate(nxt, *merge(nxt))
        trace.record(nxt.values, bound, sub)
        results.append(result)
        lam, theta = (None, {0: 1.0}) if L == 1 else step(trace, sign)
        value, out = recover(results, theta)
        best = trace.best_index = int(np.argmin(sign * np.array(trace.value)))
        trace.gap = sign * (trace.value[best] - value) / max(abs(trace.value[best]), 1e-300)
        trace.converged = bool(trace.gap <= outer.tol)
        # a weighted sum rate time-shares the bracket ends, and that value
        # settles once certified; balancing emits an end, optimal only where
        # the bracket collapses, so it stops at a gap at rounding instead,
        # which the superlinear steps reach in a few warm-started evaluations
        settled = settles and last is not None and abs(value - last) <= SETTLE_RTOL * abs(value)
        last = value
        nxt = None if lam is None else DualWeights(lam)
        if nxt is None or trace.iterations >= outer.max_iters \
                or (trace.converged and (L > 2 or settled or trace.gap <= SETTLE_RTOL)) \
                or any(np.array_equal(nxt.values, p.values) for p in points):
            return value, out, points[best], trace


def _wsr_evaluate(ch, weights, inner, slacks, L, outer):
    """``evaluate`` of a weighted-sum-rate search: the merged constraint's
    solve, warm-started from the previous evaluation; its bound is the
    objective plus the Frank-Wolfe gap, and its subgradient is
    mu * ``slacks(lam, cov_bc)`` with mu the merged budget's own multiplier
    (without the mu factor the direction is the same but the subgradient
    inequality fails).  Over L >= 2 multipliers the solves stop on a gap of
    min(inner.tol, outer.tol / 10) relative: the search makes few evaluations,
    so each bound must be tight on its own."""
    inner = inner or SolverSettings()
    if L >= 2:
        inner = replace(inner, tol=min(inner.tol, (outer or OUTER).tol / 10))
    warm = [None]  # uplink covariances of the previous evaluation

    def evaluate(lam, A, budget):
        g, cov_bc, sol = eval_wsr_relaxation(ch, A, budget, weights, inner, warm[0])
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


def solve_wsr_multi(ch, constraints, weights, outer=None, inner=None, start=None):
    """Weighted sum rate maximization under multiple linear constraints.

    Minimizes the merged-constraint upper bound over simplex multipliers
    (subgradient entry l is mu * (P_l - tr(Q A_l)) at the inner solution)
    and emits the time-shared covariances scaled into every constraint,
    searching from ``start`` (a ``DualWeights``, say a neighbouring weight's
    best multipliers) or the simplex centre.  Returns that downlink
    covariance, the multipliers of the best bound and the search trace
    (``trace.gap``: the certified relative gap).
    """
    constraints = list(constraints)
    _, cov_bc, lam, trace = _multiplier_loop(
        partial(combined_constraint, constraints), len(constraints), outer, "min",
        _wsr_evaluate(ch, weights, inner,
                      lambda lam, cov: model.constraint_slacks(cov, constraints),
                      len(constraints), outer),
        _wsr_recover(ch, weights, lambda cov: model.feasible_scale(cov, constraints)),
        settles=True, start=start)
    return cov_bc, lam, trace


def solve_sinr_balance_multi(ch, constraints, targets, outer=None, inner=None):
    """SINR balancing under multiple linear constraints: minimize the merged
    upper bound on the balanced ratio over simplex multipliers.  The
    downlink powers of every evaluation are scaled into every constraint
    once, and of those the search weights, the one with the largest least
    SINR_i / gamma_i, the emitted alpha, is kept.  Returns (alpha, downlink
    beamforming solution, multipliers, trace)."""
    constraints = list(constraints)
    warm = [None]  # uplink solution of the previous evaluation

    def evaluate(lam, A, budget):
        alpha, warm[0] = solve_sinr_balance_mac(ch, A, budget, targets, inner, warm[0])
        bf = transforms.mac_to_bc_sinr(ch, warm[0], A)
        return alpha, model.constraint_slacks(bf.bc_covariances(), constraints), repaired(bf)

    def repaired(bf):
        scaled = lambda s: model.BeamformingSolution.built(bf.u, bf.v, s * bf.p, bf.q)
        bf = scaled(model.feasible_scale(bf.bc_covariances(), constraints,
                                         lambda s: scaled(s).bc_covariances()))
        return float(np.min(model.bc_sinr(ch, bf) / targets.gamma)), bf

    def recover(results, theta):
        return max((results[k] for k in theta), key=lambda out: out[0])

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


class QuadraticBall:
    """Convex constraint (tr(Q A_1))^2 + ... + (tr(Q A_L))^2 <= radius_sq on
    the trace values p_l = tr(Q A_l) (A_l PSD, so p >= 0).

    At a normal c >= 0 its support function h(c) = sup{c . p : |p|^2 <=
    radius_sq} is attained at ``support_point(c)``, and ``merged(c)`` is the
    single linear constraint tr(Q sum_l c_l A_l) <= h(c), which every
    feasible Q meets.  ``room(cov)`` is the largest factor s <= 1 with s cov
    in the ball once rounded.  An affine constraint a . p <= offset needs no
    class of its own: it is ``LinearConstraint(sum_l a_l A_l, offset)``."""

    def __init__(self, mats, radius_sq):
        self.mats = [model.LinearConstraint(A, 1.0).A for A in mats]  # Hermitian PSD
        if not (0 < radius_sq < np.inf):
            raise InvalidInput("radius_sq must be positive and finite")
        self.radius_sq = float(radius_sq)

    def support_point(self, c):
        c = np.asarray(c, dtype=float)
        return np.sqrt(self.radius_sq) * c / np.linalg.norm(c)

    def room(self, cov_bc):
        s = min(1.0, np.sqrt(self.radius_sq) / max(np.linalg.norm(self.traces(cov_bc)), 1e-300))
        return model.step_down(s, lambda s: self.value(
            model.CovarianceSet.built(model.BC, s * cov_bc.Q)) <= 0)

    def merged(self, lam):
        """Noise matrix sum_l c_l A_l (as in ``combined_constraint``) and
        budget h(c) at the normal ``lam``, a ``DualWeights``."""
        c = lam.values
        return _merged_matrix(c, self.mats), float(c @ self.support_point(c))

    def traces(self, cov_bc):
        tot = cov_bc.total()
        return np.array([float(np.real(np.trace(tot @ A))) for A in self.mats])

    def value(self, cov_bc):
        """phi(p) = |p|^2 - radius_sq at the trace values of ``cov_bc``."""
        return float(np.sum(self.traces(cov_bc) ** 2) - self.radius_sq)


def solve_wsr_nonlinear(ch, f, weights, outer=None, inner=None):
    """Weighted sum rate maximization under a ``QuadraticBall`` ``f`` on the
    trace values p_l = tr(Q A_l); other constraint types raise InvalidInput
    (an affine one is a ``LinearConstraint`` for :func:`solve_wsr_multi`).

    The multiplier search minimizes, over normals c on the simplex, the
    bound of the merged constraint ``f.merged(c)``; its subgradient is
    mu * (support_point(c) - p(Q)) at the inner solution.  The emitted
    covariance is the time-shared one scaled by ``f.room`` into the ball.
    Returns it and a ``NonlinearResult``.
    """
    if not isinstance(f, QuadraticBall):
        raise InvalidInput("constraint must be a QuadraticBall")
    _, cov_bc, lam, trace = _multiplier_loop(
        f.merged, len(f.mats), outer, "min",
        _wsr_evaluate(ch, weights, inner,
                      lambda lam, cov: f.support_point(lam.values) - f.traces(cov),
                      len(f.mats), outer),
        _wsr_recover(ch, weights, f.room), settles=True)
    return cov_bc, NonlinearResult([model.LinearConstraint(*f.merged(lam))], lam, trace)
