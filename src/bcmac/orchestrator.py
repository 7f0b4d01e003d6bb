"""Certified multiplier search reducing multi-constraint and
nonlinear-constraint downlink problems to single-constraint dual-uplink
solves.

Both kinds of constraint are sets of the trace values p_l = tr(Q A_l)
(``TraceSet``): linear constraints p <= P (``LinearSet``) and a quadratic
ball |p| <= r (``QuadraticBall``); an affine constraint a . p <= offset is
the linear constraint with matrix sum_l a_l A_l.  At multipliers c >= 0
either merges into the single constraint tr(Q sum_l c_l A_l) <= h(c), with h
the set's support function (c . P, or r |c| for the ball), which contains
the feasible set.  So for any c the merged problem bounds the original, the
bound is convex and scale-invariant in c, and it is tight at the optimal
multipliers: the search minimizes it over the unit simplex (power balancing
maximizes a lower bound instead).

Weighted sum rate (under either set, through ``_wsr_search``), SINR
balancing and power balancing share one search (``_multiplier_loop``).  Each
evaluation solves the merged problem and returns a bound on the optimum (for
a weighted sum rate the inner objective plus its Frank-Wolfe gap, so the
bound holds however inexact the solve) and a subgradient, whose direction
cuts the simplex through the evaluated multipliers: the optimum lies on the
side the bound decreases (increases, for power balancing).  Over two
multipliers lam = (x, 1 - x) the sign of the slope sub_1 - sub_2 along x
brackets the optimum, and the search steps by inverse quadratic
interpolation of the last three slopes (Brent, 1973) where that lands inside
the bracket, else by Illinois regula falsi, either kept inside ITP's bound,
so it takes at most ``ITP_N0`` evaluations more than bisection
(``_bracket_step``); over three or more it takes the analytic centre of the
simplex the cuts leave, in numpy (``_center``).  The cuts use only
directions, so they hold for the quasi-convex bounds of balancing too.  A
search starts at the simplex centre or at ``start`` (a region sweep's
previous point's best multipliers, near its own).  An open bracket's n-th
step goes from its closed end toward the open edge by d0 * 16^(n-1), at most
to the floored vertex: d0 = 1/4 from the centre (x = 1/2, 3/4, then the
vertex), ``PROBE`` from a start.

Either way the search names the evaluations that locate the optimum, with
weights under which their subgradients cancel along the simplex: the last
evaluation on each side of the bracket (or the one whose slope is exactly
zero), or every cut by its inverse slack at the centre.  Each caller builds
its point from them and repairs it last.  A weighted sum rate time-shares
their covariances and scales the result into the set by its ``room`` (min(1,
P_l / tr(Q A_l)), or the ball's radius over |p|, stepped down to the
rounding); balancing, whose beamformers cannot be time-shared, emits the
best of those evaluations, SINR balancing after scaling its powers into
every constraint, power balancing as it is (achievable).  The certified gap
is the relative distance from the best bound to the value of that repaired
point, and ``trace.converged`` says whether it is at most ``outer.tol`` and
the best bound's evaluation settled: a balancing evaluation whose fixed
point ran out of sweeps steers the search, but its value is no bound (a
ratio below its fixed point, a total above its minimum); a weighted-sum-rate
bound holds however its ascent stopped.  The central search stops there.  A
search over two multipliers stops there too once the gap is at most
``SETTLE_RTOL`` (rounding) or, for a weighted sum rate, once its time-shared
value has settled, moving by at most ``SETTLE_RTOL`` relative since the
previous evaluation, long before the bracket collapses.  Balancing emits a
bracket end, optimal only where the bracket collapses, so it needs the gap
at rounding, or else an exact zero slope or a bracket collapsed to rounding.
A settled power-balancing bound is certified; SINR balancing's is the inner
fixed point's ratio, not a certified bound, so its gap compares the emitted
alpha with the best ratio met, not with the optimum.  Every search stops
when its next multipliers repeat evaluated ones or after ``outer.max_iters``
evaluations.
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
    on the optimum, subgradient and whether the inner solve settled; the
    index of the best bound, the relative gap from it to the emitted
    point's value, and whether that gap is certified within tolerance."""

    lam: list = field(default_factory=list)
    value: list = field(default_factory=list)
    subgrad: list = field(default_factory=list)
    settled: list = field(default_factory=list)
    converged: bool = False
    best_index: int = -1
    gap: float = np.inf

    def record(self, lam, value, subgrad, settled=True):
        self.lam.append(np.array(lam))
        self.value.append(float(value))
        self.subgrad.append(np.array(subgrad))
        self.settled.append(bool(settled))

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


class TraceSet:
    """A convex set of the trace values p_l = tr(Q A_l) of a downlink
    covariance (A_l Hermitian PSD, so p >= 0), given by its ``support_point``
    c -> argmax{c . p : p in the set}, its ``gauge`` p -> the largest s with
    s p in the set, and ``fits`` p -> whether p lies in it."""

    def __init__(self, mats):
        self.mats = list(mats)

    def traces(self, cov_bc):
        """p_l = tr((sum_i Q_i) A_l), summing the blocks once."""
        tot = cov_bc.total()
        return np.array([float(np.real(np.trace(tot @ A))) for A in self.mats])

    def merged(self, lam):
        """Noise matrix sum_l c_l A_l and budget h(c) = c . support_point(c),
        the single constraint every point of the set meets, at the normal
        ``lam``, a ``DualWeights``."""
        c = lam.values
        A = linalg.hermitian_part(sum(l * M for l, M in zip(c, self.mats)))
        return A, float(c @ self.support_point(c))

    def check_merges(self, name):
        """Raise SingularConstraintMatrix unless the merged matrix passes
        ``linalg.pd_roots``'s rule at every ``DualWeights`` lam.  The rule's
        margin is concave in lam and each ``DualWeights`` lies in the hull of
        the floored simplex vertices, so a check at those vertices suffices."""
        L = len(self.mats)
        for k, vertex in enumerate(np.eye(L)):
            linalg.pd_roots(self.merged(DualWeights(vertex))[0],
                            f"{name} at multiplier vertex {k + 1} of {L}")

    def room(self, cov, emitted=None):
        """The factor min(1, gauge(p)) at the traces p of ``cov``, stepped
        down an ulp at a time, at most 16 times, until the covariance
        ``emitted(s)`` emits at s (default s * cov) fits once rounded."""
        emitted = emitted or (lambda s: model.CovarianceSet.built(cov.side, s * cov.Q))
        s = min(1.0, self.gauge(self.traces(cov)))
        for _ in range(16):
            if self.fits(self.traces(emitted(s))):
                break
            s = float(np.nextafter(s, 0.0))
        return s


class LinearSet(TraceSet):
    """Linear constraints tr(Q A_l) <= P_l, from ``LinearConstraint``s."""

    def __init__(self, constraints):
        constraints = list(constraints)
        super().__init__(c.A for c in constraints)
        self.P = np.array([c.P for c in constraints])

    def support_point(self, c):
        return self.P

    def gauge(self, p):
        return float(np.min(self.P / np.maximum(p, 1e-300)))

    def fits(self, p):
        return bool(np.all(self.P - p >= 0))

    def slacks(self, cov_bc):
        """P_l - tr(Q A_l) for every constraint."""
        return self.P - self.traces(cov_bc)


class QuadraticBall(TraceSet):
    """Convex constraint (tr(Q A_1))^2 + ... + (tr(Q A_L))^2 <= radius_sq on
    the trace values p_l = tr(Q A_l), with support function h(c) = r |c|
    (r = sqrt(radius_sq)) and gauge r / |p|."""

    def __init__(self, mats, radius_sq):
        super().__init__(model.LinearConstraint(A, 1.0).A for A in mats)  # Hermitian PSD
        if not (0 < radius_sq < np.inf):
            raise InvalidInput("radius_sq must be positive and finite")
        self.radius_sq = float(radius_sq)

    def support_point(self, c):
        c = np.asarray(c, dtype=float)
        return np.sqrt(self.radius_sq) * c / np.linalg.norm(c)

    def gauge(self, p):
        return np.sqrt(self.radius_sq) / max(np.linalg.norm(p), 1e-300)

    def fits(self, p):
        return float(np.sum(p ** 2)) <= self.radius_sq

    def value(self, cov_bc):
        """phi(p) = |p|^2 - radius_sq at the trace values of ``cov_bc``."""
        return float(np.sum(self.traces(cov_bc) ** 2) - self.radius_sq)


def eval_wsr_relaxation(ch, A, budget, weights, inner=None, init=None):
    """Value and downlink covariance of the weighted sum rate under the
    merged constraint tr(Q A) <= budget (``TraceSet.merged`` at some
    multipliers), and the inner solution, whose objective plus gap bounds the
    multi-constraint optimum for every multiplier.  A is whitened once, by the solve, for the transform too."""
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

    A two-sided one takes the zero of the quadratic x(s) through the last
    three (slope, x) pairs, x = sum_k x_k prod_{j != k} s_j / (s_j - s_k)
    (inverse quadratic interpolation; Brent, 1973), when those slopes are
    distinct, not all of one sign, and the point lies strictly inside the
    bracket; else the regula-falsi point of the ends' slopes, an end's slope
    weighted by 2^-k when the last k + 1 evaluations fell on the other side
    (Illinois; Dowell and Jarratt, 1971), which alone creeps beside one end
    when the other's slope is far steeper, as a floored vertex's is.  Either
    point is projected into ITP's ball around the midpoint (Oliveira and
    Takahashi, 2020), whose radius shrinks so that the search takes at most
    ITP_N0 evaluations more than bisection would."""
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
    nxt = x_lo + (x_hi - x_lo) * f_lo / (f_lo - f_hi)
    xs, s = x[-3:], slope[-3:]
    if n >= 3 and len(set(s)) == 3 and s.min() < 0 < s.max():
        iqi = sum(xs[k] * np.prod([s[j] / (s[j] - s[k]) for j in range(3) if j != k])
                  for k in range(3))
        nxt = iqi if x_lo < iqi < x_hi else nxt
    first = max(left[0], right[0])  # the evaluation that closed the bracket
    j = n - 1 - first  # steps taken from a two-sided bracket
    width0 = np.min(x[right[right <= first]]) - np.max(x[left[left <= first]])
    n_max = np.ceil(np.log2(width0 / (2 * ITP_EPS))) + ITP_N0
    r = max(ITP_EPS * 2.0 ** (n_max - j) - 0.5 * (x_hi - x_lo), 0.0)
    nxt = np.clip(nxt, mid - r, mid + r)
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


def _multiplier_loop(cset, outer, sense, evaluate, recover, settles=False, start=None):
    """Certified search over the L >= 1 multipliers of the ``TraceSet``
    ``cset`` on the unit simplex.

    ``cset.merged(lam) -> (A, budget)`` is the merged single constraint at
    ``lam`` (a ``DualWeights``), and ``evaluate(lam, A, budget)`` solves it and
    returns (bound, subgradient, result, settled): a bound on the optimum,
    from above for sense "min" and from below for "max", a subgradient of
    the merged bound at ``lam`` (a supergradient for "max"), and whether
    the inner solve settled, without which the bound does not certify.
    ``recover(results, theta) -> (value, result)`` builds and repairs the
    emitted point from the evaluations' results and the search's weights
    ``theta`` (evaluation index: weight).  Over two multipliers it stops
    once certified with its gap at rounding or, with ``settles``, its value
    settled (see the module docstring).  It starts at ``start`` (a
    ``DualWeights``) or the simplex centre, which sets ``_bracket_step``'s
    ``probe``.  Returns (value, result, multipliers of the best bound, trace)."""
    outer, L = outer or OUTER, len(cset.mats)
    if L < 1:
        raise InvalidInput("need at least one constraint")
    sign = 1.0 if sense == "min" else -1.0
    trace, points, results, last = OuterTrace(), [], [], None
    nxt = start or DualWeights(np.full(L, 1.0 / L))
    step = _center if L > 2 else partial(_bracket_step, probe=0.25 if start is None else PROBE)
    while True:
        points.append(nxt)
        bound, sub, result, settled = evaluate(nxt, *cset.merged(nxt))
        trace.record(nxt.values, bound, sub, settled)
        results.append(result)
        lam, theta = (None, {0: 1.0}) if L == 1 else step(trace, sign)
        value, out = recover(results, theta)
        best = trace.best_index = int(np.argmin(sign * np.array(trace.value)))
        trace.gap = sign * (trace.value[best] - value) / max(abs(trace.value[best]), 1e-300)
        trace.converged = bool(trace.gap <= outer.tol and trace.settled[best])
        # a weighted sum rate time-shares the bracket ends, and that value
        # settles once certified; balancing emits an end, optimal only where
        # the bracket collapses, so it stops at a gap at rounding instead,
        # which the superlinear steps reach in a few warm-started evaluations
        steady = settles and last is not None and abs(value - last) <= SETTLE_RTOL * abs(value)
        last = value
        nxt = None if lam is None else DualWeights(lam)
        if nxt is None or trace.iterations >= outer.max_iters \
                or (trace.converged and (L > 2 or steady or trace.gap <= SETTLE_RTOL)) \
                or any(np.array_equal(nxt.values, p.values) for p in points):
            return value, out, points[best], trace


def _wsr_search(ch, weights, cset, outer, inner, start=None):
    """The weighted-sum-rate search over the multipliers of the merged
    constraint ``cset.merged(lam)``.  Each evaluation solves it warm-started
    from the previous one; its bound is the objective plus the Frank-Wolfe
    gap, and its subgradient is mu * (support_point(lam) - p(Q)) with mu the
    merged budget's own multiplier (without the mu factor the direction is
    the same but the subgradient inequality fails).  Over L >= 2 multipliers
    the solves stop on a gap of min(inner.tol, outer.tol / 10) relative: the
    search makes few evaluations, so each bound must be tight on its own.
    The emitted point is the covariances time-shared by the search's
    weights, scaled by ``cset.room`` into the set.  Returns (downlink
    covariance, multipliers of the best bound, trace)."""
    inner = inner or SolverSettings()
    if len(cset.mats) >= 2:
        inner = replace(inner, tol=min(inner.tol, (outer or OUTER).tol / 10))
    warm = [None]  # uplink covariances of the previous evaluation

    def evaluate(lam, A, budget):
        g, cov_bc, sol = eval_wsr_relaxation(ch, A, budget, weights, inner, warm[0])
        warm[0] = sol.cov
        sub = sol.multiplier * (cset.support_point(lam.values) - cset.traces(cov_bc))
        return g + sol.gap, sub, cov_bc, True

    def recover(results, theta):
        cov = model.CovarianceSet.built(model.BC, sum(t * results[k].Q for k, t in theta.items()))
        cov = model.CovarianceSet.built(model.BC, cset.room(cov) * cov.Q)
        return float(np.dot(weights, model.bc_rates_dpc(ch, cov))), cov

    _, cov, lam, trace = _multiplier_loop(cset, outer, "min", evaluate, recover,
                                          settles=True, start=start)
    return cov, lam, trace


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
    return _wsr_search(ch, weights, LinearSet(constraints), outer, inner, start)


def solve_sinr_balance_multi(ch, constraints, targets, outer=None, inner=None):
    """SINR balancing under multiple linear constraints: minimize the merged
    upper bound on the balanced ratio over simplex multipliers.  The
    downlink powers of every evaluation are scaled into every constraint
    once, and of those the search weights, the one with the largest least
    SINR_i / gamma_i, the emitted alpha, is kept.  Returns (alpha, downlink
    beamforming solution, multipliers, trace)."""
    cset, warm = LinearSet(constraints), [None]  # warm: the previous uplink solution

    def evaluate(lam, A, budget):
        alpha, warm[0], settled = solve_sinr_balance_mac(ch, A, budget, targets, inner, warm[0])
        bf = transforms.mac_to_bc_sinr(ch, warm[0], A)
        return alpha, cset.slacks(bf.bc_covariances()), repaired(bf), settled

    def repaired(bf):
        scaled = lambda s: model.BeamformingSolution.built(bf.u, bf.v, s * bf.p, bf.q)
        bf = scaled(cset.room(bf.bc_covariances(), lambda s: scaled(s).bc_covariances()))
        return float(np.min(model.bc_sinr(ch, bf) / targets.gamma)), bf

    def recover(results, theta):
        return max((results[k] for k in theta), key=lambda out: out[0])

    return _multiplier_loop(cset, outer, "min", evaluate, recover)


def solve_power_balance_multi(ch, constraints, targets, outer=None, inner=None):
    """Power balancing: minimize max_l tr(Q A_l) / P_l subject to per-user
    SINR targets, by maximizing the merged lower bound over multipliers.

    Every inner solution meets the SINR targets exactly (the transformation
    preserves SINRs), so the reported alpha, the least achieved constraint
    ratio max_l tr(Q A_l) / P_l among the evaluations the search weights, is
    achievable; the maximized bound approaches it from below.  Returns
    (alpha, beamforming solution, multipliers, trace).
    """
    cset, warm = LinearSet(constraints), [None]  # warm: the previous uplink solution

    def evaluate(lam, A, budget):
        total, warm[0], settled = solve_power_min_mac(ch, A, targets, inner, warm[0])
        bound = total / budget
        bf = transforms.mac_to_bc_sinr(ch, warm[0], A)
        used = cset.traces(bf.bc_covariances())
        # supergradient of the bound: (tr(Q A_l) - bound * P_l) / (lam . P)
        sub = (used - bound * cset.P) / budget
        return bound, sub, (float(np.max(used / cset.P)), bf), settled

    return _multiplier_loop(cset, outer, "max", evaluate,
                            lambda results, theta: min((results[k] for k in theta),
                                                       key=lambda out: out[0]))


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
    cov_bc, lam, trace = _wsr_search(ch, weights, f, outer, inner)
    return cov_bc, NonlinearResult([model.LinearConstraint(*f.merged(lam))], lam, trace)
