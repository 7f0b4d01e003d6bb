"""Independent brute-force verifiers.

These ground the solver modules on small real-valued instances: rates and
SINRs are evaluated with locally hand-rolled determinant and quadratic-form
code (no shared path with the solvers), and optima are located by zoomed
exhaustive grids.  Beam and covariance-rotation angles live on the pi-periodic
circle (the angle theta + pi gives the beam -u(theta), the same beam, and the
same rotated covariance), so their zoom windows and polish moves are not
clipped and may leave [0, pi]; only power and eigenvalue coordinates are
clipped to their box.  Grid maxima are always achievable points, so oracle
values lower-bound the true optimum up to the final grid resolution.

Restricted to real channels with at most two transmit antennas and two users;
complex instances are validated elsewhere through invariants (duality gaps,
stationarity residuals).
"""

from dataclasses import dataclass

import numpy as np

from .errors import GridBudgetExceeded, InvalidInput

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class GridSpec:
    """Zoomed exhaustive search plan: ``resolution`` points per dimension per
    round, ranges shrinking by ``shrink`` around the incumbent each round.

    The first round spans [0, pi] on every angle coordinate; later windows
    are centred on the incumbent and may extend past 0 or pi, since angles
    are pi-periodic, while power coordinates stay clipped to their box."""

    resolution: int = 12
    rounds: int = 6
    shrink: float = 0.3
    budget: float = 1e7

    def check(self, dims):
        if float(self.resolution) ** dims > self.budget:
            raise GridBudgetExceeded(
                f"{self.resolution}^{dims} grid points exceed budget {self.budget:g}"
            )


def _require_real(ch, constraints):
    if any(np.max(np.abs(np.imag(Hi))) > 0 for Hi in ch.H):
        raise InvalidInput("oracles support real-valued channels only")
    for c in constraints:
        if np.max(np.abs(np.imag(c.A))) > 0:
            raise InvalidInput("oracles support real constraint matrices only")
    if ch.nt > 2 or ch.K > 2:
        raise InvalidInput("oracles cover at most 2 antennas and 2 users")


def _scale_bound(constraints):
    """Upper bound on any feasible covariance trace: the combined constraint
    matrix must be positive definite for the feasible set to be bounded."""
    comb = sum(c.A for c in constraints)
    w = np.linalg.eigvalsh(comb)
    if w[0] <= 0:
        raise InvalidInput("combined constraint matrix must be positive definite")
    return sum(c.P for c in constraints) / float(w[0])


def _cov_entries(theta, a, b):
    """Entries (q11, q12, q22) of R(theta) diag(a, b) R(theta)^T."""
    c, s = np.cos(theta), np.sin(theta)
    return (a * c * c + b * s * s, (a - b) * s * c, a * s * s + b * c * c)


def _wsr_of_entries(ch, weights, ent):
    """Weighted sum rate from flat covariance-entry arrays.

    ent[i] = (q11, q12, q22) for nt == 2, or (q11,) for nt == 1; rates use
    explicit 1x1/2x2 determinants only (independent of the library path).
    """
    order = ch.encoding_order
    K = ch.K
    ncomp = len(ent[0])
    # suffix sums over encoding positions
    suffixes = [None] * (K + 1)
    suffixes[K] = tuple(np.zeros_like(ent[0][0]) for _ in range(ncomp))
    for m in range(K - 1, -1, -1):
        cur = ent[order[m]]
        suffixes[m] = tuple(suffixes[m + 1][t] + cur[t] for t in range(ncomp))
    total = 0.0
    with np.errstate(invalid="ignore"):
        for m in range(K):
            i = order[m]
            Hi = np.real(ch.H[i])
            s2 = ch.sigma2[i]
            r = 0.0
            for S, sign in ((suffixes[m], 1.0), (suffixes[m + 1], -1.0)):
                if ch.nt == 1:
                    (S11,) = S
                    G = Hi @ Hi.T  # (nr, nr)
                    if ch.nr == 1:
                        ld = np.log(s2 + G[0, 0] * S11)
                    else:
                        # H S H^T = S11 * h h^T with h the single column
                        d = (s2 + G[0, 0] * S11) * (s2 + G[1, 1] * S11) \
                            - (G[0, 1] * S11) ** 2
                        ld = np.log(d)
                else:
                    S11, S12, S22 = S
                    if ch.nr == 1:
                        h1, h2 = Hi[0, 0], Hi[0, 1]
                        m11 = h1 * h1 * S11 + 2 * h1 * h2 * S12 + h2 * h2 * S22
                        ld = np.log(s2 + m11)
                    else:
                        # M = H S H^T, 2x2
                        a11, a12, a21, a22 = Hi[0, 0], Hi[0, 1], Hi[1, 0], Hi[1, 1]
                        t11 = a11 * S11 + a12 * S12
                        t12 = a11 * S12 + a12 * S22
                        t21 = a21 * S11 + a22 * S12
                        t22 = a21 * S12 + a22 * S22
                        m11 = t11 * a11 + t12 * a12
                        m12 = t11 * a21 + t12 * a22
                        m21 = t21 * a11 + t22 * a12
                        m22 = t21 * a21 + t22 * a22
                        ld = np.log((s2 + m11) * (s2 + m22) - m12 * m21)
                r = r + sign * ld
            total = total + weights[i] * r
    return total


_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


def _coordinate_polish(fun, x, spans, lows, highs, passes=4, iters=40):
    """Cyclic per-coordinate golden-section refinement of a grid incumbent."""
    x = np.array(x, dtype=float)
    best = fun(x)
    for _ in range(passes):
        for d in range(x.size):
            lo = max(lows[d], x[d] - spans[d])
            hi = min(highs[d], x[d] + spans[d])
            a, b = lo, hi
            c1 = b - _GOLDEN * (b - a)
            c2 = a + _GOLDEN * (b - a)
            xc = x.copy()
            xc[d] = c1
            f1 = fun(xc)
            xc[d] = c2
            f2 = fun(xc)
            for _ in range(iters):
                if f1 >= f2:
                    b, c2, f2 = c2, c1, f1
                    c1 = b - _GOLDEN * (b - a)
                    xc[d] = c1
                    f1 = fun(xc)
                else:
                    a, c1, f1 = c1, c2, f2
                    c2 = a + _GOLDEN * (b - a)
                    xc[d] = c2
                    f2 = fun(xc)
            cand = 0.5 * (a + b)
            xc[d] = cand
            fc = fun(xc)
            if fc > best:
                best, x = fc, xc.copy()
        spans = spans * 0.5
    return best, x


def _brute_wsr_sum_power(ch, budget, weights, grid):
    """Grid maximum of the weighted sum rate under a plain sum power budget,
    with the budget deliberately held tight (optimal for positive weights):
    per-user rotation angles plus covariance eigenvalues on the simplex
    a_1 + b_1 + ... = budget.  Coordinate polish moves stay feasible because
    the last eigenvalue absorbs the slack; rotation angles are searched on the
    pi-periodic circle and only the eigenvalues are clipped."""
    nt, K = ch.nt, ch.K
    weights = np.asarray(weights, dtype=float).reshape(-1)
    n_pow = 2 * K - 1 if nt == 2 else K - 1
    n_ang = K if nt == 2 else 0
    dims = max(n_pow + n_ang, 1)
    grid.check(dims)

    def build_entries(flat):
        powers = flat[:n_pow]
        rest = budget - sum(powers) if n_pow else np.full_like(flat[0], budget)
        ent = []
        idx = 0
        for i in range(K):
            if nt == 2:
                a = powers[idx] if idx < n_pow else rest
                idx += 1
                b = powers[idx] if idx < n_pow else rest
                idx += 1
                th = flat[n_pow + i]
                ent.append(_cov_entries(th, a, b))
            else:
                a = powers[idx] if idx < n_pow else rest
                idx += 1
                ent.append((a,))
        return ent, rest

    lo = np.zeros(dims)
    hi = np.concatenate([np.full(n_pow, budget), np.full(n_ang, np.pi)]) \
        if dims == n_pow + n_ang and dims > 0 else np.array([budget])
    best_val, best_x = -np.inf, None
    n = grid.resolution
    for rnd in range(grid.rounds):
        axes = [np.linspace(lo[d], hi[d], n) for d in range(dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = [m.reshape(-1) for m in mesh]
        if best_x is not None:
            flat = [np.concatenate([f, [best_x[d]]]) for d, f in enumerate(flat)]
        ent, rest = build_entries(flat)
        vals = _wsr_of_entries(ch, weights, ent)
        vals = np.where(rest >= -1e-12, vals, -np.inf)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_x = np.array([f[k] for f in flat])
        span = (hi - lo) * grid.shrink
        lo = best_x - 0.5 * span
        hi = best_x + 0.5 * span
        lo[:n_pow] = np.maximum(lo[:n_pow], 0.0)
        hi[:n_pow] = np.minimum(hi[:n_pow], budget)

    def point_value(x):
        flat = [np.asarray([x[d]]) for d in range(dims)]
        ent, rest = build_entries(flat)
        if rest[0] < -1e-12 or any(x[d] < -1e-12 for d in range(n_pow)):
            return -np.inf
        return float(_wsr_of_entries(ch, weights, ent)[0])

    n_free = dims - n_pow  # angles, or the unused placeholder coordinate
    lows = np.concatenate([np.zeros(n_pow), np.full(n_free, -np.inf)])
    highs = np.concatenate([np.full(n_pow, budget), np.full(n_free, np.inf)])
    spans = np.concatenate([np.full(n_pow, 0.25 * budget), np.full(n_free, 0.4)])
    best_val2, _ = _coordinate_polish(point_value, best_x, spans, lows, highs,
                                      passes=5)
    return max(best_val, best_val2)


def brute_wsr(ch, constraints, weights, grid=None):
    """Grid maximum of the downlink weighted sum rate under linear constraints
    tr(Q A_l) <= P_l, over per-user eigenvalue/rotation parameterizations.

    A single positive definite constraint is whitened away (channels
    H_i A^{-1/2}, plain sum power) and searched on the budget-tight simplex;
    multiple constraints fall back to a zoomed product grid with a local
    golden-section polish.  Rotation angles are searched on the pi-periodic
    circle; only eigenvalues are clipped, to [0, inf) in the zoom and to
    [0, amax] in the polish (amax bounds any feasible trace)."""
    grid = grid or GridSpec()
    _require_real(ch, constraints)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    amax = _scale_bound(constraints)
    if len(constraints) == 1:
        w, V = np.linalg.eigh(np.real(constraints[0].A))
        if not w[0] > 1e-12 * max(1.0, w[-1]):
            raise InvalidInput("constraint matrix must be positive definite")
        W = (V / np.sqrt(w)) @ V.T
        from .model import ChannelSet

        ch_wh = ChannelSet([np.real(Hi) @ W for Hi in ch.H], ch.sigma2,
                           ch.encoding_order)
        return _brute_wsr_sum_power(ch_wh, constraints[0].P, weights, grid)
    nt, K = ch.nt, ch.K
    per_user = 3 if nt == 2 else 1
    dims = per_user * K
    grid.check(dims)
    lo = np.array(([0.0, 0.0, 0.0] if nt == 2 else [0.0]) * K)
    hi = np.array(([np.pi, amax, amax] if nt == 2 else [amax]) * K)
    ang = np.array(([True, False, False] if nt == 2 else [False]) * K)
    best_val, best_x = -np.inf, 0.5 * (lo + hi)
    n = grid.resolution
    for rnd in range(grid.rounds):
        axes = [np.linspace(lo[d], hi[d], n) for d in range(dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = [m.reshape(-1) for m in mesh]
        # keep the incumbent in the candidate set so refinement is monotone
        if np.isfinite(best_val):
            flat = [np.concatenate([f, [best_x[d]]]) for d, f in enumerate(flat)]
        ent = []
        for i in range(K):
            base = per_user * i
            if nt == 2:
                ent.append(_cov_entries(flat[base], flat[base + 1], flat[base + 2]))
            else:
                ent.append((flat[base],))
        feas = np.ones(flat[0].shape, dtype=bool)
        for c in constraints:
            A = np.real(c.A)
            if nt == 1:
                tot = sum(e[0] for e in ent) * A[0, 0]
            else:
                s11 = sum(e[0] for e in ent)
                s12 = sum(e[1] for e in ent)
                s22 = sum(e[2] for e in ent)
                tot = s11 * A[0, 0] + 2.0 * s12 * A[0, 1] + s22 * A[1, 1]
            feas &= tot <= c.P + 1e-12
        vals = _wsr_of_entries(ch, weights, ent)
        vals = np.where(feas, vals, -np.inf)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_x = np.array([f[k] for f in flat])
        span = (hi - lo) * grid.shrink
        lo = best_x - 0.5 * span
        hi = best_x + 0.5 * span
        lo[~ang] = np.maximum(lo[~ang], 0.0)

    lows = np.where(ang, -np.inf, 0.0)
    highs = np.where(ang, np.inf, amax)

    def point_value(x):
        arrs = [np.asarray([x[d]]) for d in range(dims)]
        ent = []
        for i in range(K):
            base = per_user * i
            if nt == 2:
                ent.append(_cov_entries(arrs[base], arrs[base + 1], arrs[base + 2]))
            else:
                ent.append((arrs[base],))
        for c in constraints:
            A = np.real(c.A)
            if nt == 1:
                tot = sum(e[0] for e in ent) * A[0, 0]
            else:
                tot = (sum(e[0] for e in ent) * A[0, 0]
                       + 2.0 * sum(e[1] for e in ent) * A[0, 1]
                       + sum(e[2] for e in ent) * A[1, 1])
            if tot[0] > c.P + 1e-12:
                return -np.inf
        return float(_wsr_of_entries(ch, weights, ent)[0])

    spans = np.maximum(hi - lo, 1e-9)
    best_val, _ = _coordinate_polish(point_value, best_x, spans, lows, highs)
    return best_val


def _beam_matrices(ch, thetas):
    """g[m][mm]: effective receive-side vectors H_i u_k for the user at
    encoding position m against the beam of position mm; thetas is a list of
    per-position angle arrays."""
    order = ch.encoding_order
    K = ch.K
    u = []
    for m in range(K):
        if ch.nt == 1:
            u.append(np.ones(thetas[m].shape + (1,)))
        else:
            u.append(np.stack([np.cos(thetas[m]), np.sin(thetas[m])], axis=-1))
    g = [[None] * K for _ in range(K)]
    for m in range(K):
        Hi = np.real(ch.H[order[m]])
        for mm in range(K):
            g[m][mm] = np.einsum("ab,...b->...a", Hi, u[mm])
    return u, g


def _mmse_sinr(gsig, C):
    """max_v SINR = g^H C^{-1} g for stacked vectors/matrices (nr <= 2)."""
    if gsig.shape[-1] == 1:
        return gsig[..., 0] ** 2 / C[..., 0, 0]
    det = C[..., 0, 0] * C[..., 1, 1] - C[..., 0, 1] * C[..., 1, 0]
    # inverse quadratic form via adjugate
    q = (gsig[..., 0] ** 2 * C[..., 1, 1]
         - 2.0 * gsig[..., 0] * gsig[..., 1] * C[..., 0, 1]
         + gsig[..., 1] ** 2 * C[..., 0, 0])
    return q / det


def _balanced_powers(ch, targets, g, alpha):
    """Downlink powers with SINR_i = alpha*gamma_i exactly, filled from the
    last encoding position backwards (later powers are known interference),
    with MMSE receive vectors folded in closed form."""
    order = ch.encoding_order
    K = ch.K
    shape = np.broadcast_shapes(*(g[0][mm].shape[:-1] for mm in range(K)))
    nr = ch.nr
    p = [None] * K
    C = [np.zeros(shape + (nr, nr)) for _ in range(K)]
    for m in range(K):
        C[m][..., range(nr), range(nr)] = ch.sigma2[order[m]]
    for m in range(K - 1, -1, -1):
        i = order[m]
        sinr_unit = _mmse_sinr(g[m][m], C[m])
        p[m] = alpha * targets.gamma[i] / sinr_unit
        for mm in range(m):
            gv = g[mm][m]
            C[mm] += p[m][..., None, None] * gv[..., :, None] * gv[..., None, :]
    return p


def brute_sinr_balance(ch, constraints, targets, grid=None):
    """Grid maximum of min_i SINR_i / gamma_i with one beam per user under
    linear constraints, using exact equal-ratio powers per angle tuple (found
    by vectorized bisection) and closed-form MMSE receivers.  Beam angles are
    searched on the pi-periodic circle, unclipped; every grid point is an
    achievable beamformer, so the value lower-bounds the optimum."""
    grid = grid or GridSpec(resolution=24, rounds=6)
    _require_real(ch, constraints)
    _scale_bound(constraints)
    K = ch.K
    dims = K if ch.nt == 2 else 0
    grid.check(max(dims, 1))
    lo = np.zeros(max(dims, 1))
    hi = np.full(max(dims, 1), np.pi)
    best = (-np.inf, 0.5 * (lo + hi))

    def eval_alpha(th_flat):
        thetas = [th_flat[m] if dims else np.zeros(th_flat[0].shape)
                  for m in range(K)]
        u, g = _beam_matrices(ch, thetas)

        def violation(alpha_arr):
            p = _balanced_powers(ch, targets, g, alpha_arr)
            worst = None
            for c in constraints:
                A = np.real(c.A)
                t = sum(p[m] * np.einsum("...a,ab,...b->...", u[m], A, u[m])
                        for m in range(K))
                ratio = t / c.P
                worst = ratio if worst is None else np.maximum(worst, ratio)
            return worst

        with np.errstate(divide="ignore", invalid="ignore"):
            alo = np.zeros(thetas[0].shape)
            ahi = np.ones(thetas[0].shape)
            for _ in range(80):
                bad = violation(ahi) < 1.0
                if not np.any(bad):
                    break
                ahi[bad] *= 2.0
            for _ in range(90):
                mid = 0.5 * (alo + ahi)
                ok = violation(mid) <= 1.0
                alo = np.where(ok, mid, alo)
                ahi = np.where(ok, ahi, mid)
        return alo

    n = grid.resolution
    for rnd in range(grid.rounds):
        axes = [np.linspace(lo[d], hi[d], n) for d in range(max(dims, 1))]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = [m.reshape(-1) for m in mesh]
        flat = [np.concatenate([f, [best[1][d]]]) for d, f in enumerate(flat)]
        alpha = eval_alpha(flat)
        k = int(np.argmax(alpha))
        if alpha[k] > best[0]:
            best = (float(alpha[k]), np.array([f[k] for f in flat]))
        span = (hi - lo) * grid.shrink
        lo = best[1] - 0.5 * span
        hi = best[1] + 0.5 * span
        if dims == 0:
            break
    return best[0]


def brute_power_min(ch, constraints, targets, grid=None):
    """Grid minimum of max_l tr(Q A_l) / P_l over one-beam-per-user downlink
    solutions meeting SINR_i = gamma_i exactly (closed-form powers).  Beam
    angles are searched on the pi-periodic circle, unclipped; every grid point
    is an achievable beamformer, so the value upper-bounds the optimum."""
    grid = grid or GridSpec(resolution=24, rounds=6)
    _require_real(ch, constraints)
    K = ch.K
    dims = K if ch.nt == 2 else 0
    grid.check(max(dims, 1))
    lo = np.zeros(max(dims, 1))
    hi = np.full(max(dims, 1), np.pi)
    best = (np.inf, 0.5 * (lo + hi))
    n = grid.resolution
    for rnd in range(grid.rounds):
        axes = [np.linspace(lo[d], hi[d], n) for d in range(max(dims, 1))]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = [m.reshape(-1) for m in mesh]
        flat = [np.concatenate([f, [best[1][d]]]) for d, f in enumerate(flat)]
        thetas = [flat[m] if dims else np.zeros(flat[0].shape) for m in range(K)]
        u, g = _beam_matrices(ch, thetas)
        p = _balanced_powers(ch, targets, g, np.ones(flat[0].shape))
        worst = None
        for c in constraints:
            A = np.real(c.A)
            t = sum(p[m] * np.einsum("...a,ab,...b->...", u[m], A, u[m])
                    for m in range(K))
            ratio = t / c.P
            worst = ratio if worst is None else np.maximum(worst, ratio)
        k = int(np.argmin(worst))
        if worst[k] < best[0]:
            best = (float(worst[k]), np.array([f[k] for f in flat]))
        span = (hi - lo) * grid.shrink
        lo = best[1] - 0.5 * span
        hi = best[1] + 0.5 * span
        if dims == 0:
            break
    return best[0]


def finite_diff_gradient(functional, point, h=1e-6):
    """Central-difference gradient of a real functional of a Hermitian matrix,
    on the orthonormal Hermitian basis, returned as the matrix G with
    directional derivative <G, D> = Re tr(G D) along Hermitian D."""
    if not (1e-7 <= h <= 1e-4):
        raise InvalidInput("step must lie in [1e-7, 1e-4]")
    Q = np.asarray(point, dtype=np.complex128)
    n = Q.shape[0]
    G = np.zeros((n, n), dtype=np.complex128)

    def diff(D):
        return (functional(Q + h * D) - functional(Q - h * D)) / (2.0 * h)

    for a in range(n):
        D = np.zeros((n, n), dtype=np.complex128)
        D[a, a] = 1.0
        G += diff(D) * D
        for b in range(a + 1, n):
            D1 = np.zeros((n, n), dtype=np.complex128)
            D1[a, b] = D1[b, a] = 1.0 / np.sqrt(2.0)
            G += diff(D1) * D1
            D2 = np.zeros((n, n), dtype=np.complex128)
            D2[a, b] = 1j / np.sqrt(2.0)
            D2[b, a] = -1j / np.sqrt(2.0)
            G += diff(D2) * D2
    return G
