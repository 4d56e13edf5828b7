"""Scalar special-function kernel.

Everything the reliability formulas need beyond the standard library:
one Kummer kernel, :func:`kummer_pair`, the only evaluation of the ratio
1F1(s; s+1; -x) and of its cancellation-free companion
1F1(s; s+1; -x) - e^(-x) (:func:`hyp1f1_ratio` is its first value),
the binomial range probability (whose upper
tail is the regularized incomplete beta function with integer shape
parameters) and the inverse of that tail, the principal branch of the
Lambert W function, log-binomial coefficients, and the safeguarded root
finder behind the inverse tail and the radius design.

All functions are pure, operate on Python floats, raise ValueError on
out-of-domain input and :class:`SolverError` when a series or a root
does not converge.

Inside :func:`kernel_scope`, :func:`kummer_pair` and
:func:`binom_range_prob` evaluate each distinct argument once and return
the stored value on every repeat: the variants of one figure share their
grid, c_L and most breakpoints.  The values are the ones the kernels
compute, so a scope changes no result.  Each kernel keeps at most the
4096 most recent arguments, and nothing outlives the scope; outside a
scope nothing is stored.
"""

from __future__ import annotations

import math
import sys
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache
from itertools import accumulate

_MAX_ITER = 500
_BRANCH_POINT = -math.exp(-1.0)  # -1/e, lower edge of the W0 domain
# arguments each kernel keeps per scope: above the ~1 100 distinct Kummer
# arguments of the largest preset command (fig4), and about 1 MB at most
_SCOPE_SIZE = 4096
# the open scope's (kummer_pair, binom_range_prob) memos, or None outside every scope
_SCOPE: ContextVar[tuple | None] = ContextVar("semcell_kernel_scope", default=None)


class SolverError(ArithmeticError):
    """A bracketing or iteration failure in one of the numeric solvers."""


@contextmanager
def kernel_scope():
    """Share :func:`kummer_pair` and :func:`binom_range_prob` values within a block.

    Opens one memo per kernel, each an ``lru_cache`` of the kernel's own
    evaluation holding the 4096 most recent arguments, and drops both on
    exit, however the block ends.  A scope opened inside another one
    shares the outer scope's memos.  An argument that raises is not
    stored, so it raises again on every call.
    """
    if _SCOPE.get() is not None:
        yield
        return
    token = _SCOPE.set((lru_cache(maxsize=_SCOPE_SIZE, typed=True)(_kummer_pair),
                        lru_cache(maxsize=_SCOPE_SIZE, typed=True)(_binom_range_prob)))
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _upper_gamma_cf(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) by modified Lentz continued fraction,
    for s + 1 <= x <= 40 (s+1), where :func:`kummer_pair` uses it."""
    prefactor = math.exp(-x + s * math.log(x))
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if -tiny < d < tiny:
            d = tiny
        c = b + an / c
        if -tiny < c < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -1e-16 < delta - 1.0 < 1e-16:
            return prefactor * h
    raise SolverError(f"incomplete gamma continued fraction did not converge for s={s}, x={x}")


def _kummer_pair(s: float, x: float) -> tuple[float, float]:
    """The evaluation behind :func:`kummer_pair`."""
    if not (math.isfinite(s) and math.isfinite(x)) or s <= 0.0 or x < 0.0:
        raise ValueError(f"kummer_pair requires finite s > 0 and x >= 0, got s={s}, x={x}")
    if x == 0.0:
        return 1.0, 0.0
    if x < s + 1.0:
        term = total = 1.0 / s
        tail = 0.0
        for n in range(1, _MAX_ITER + 1):
            term *= x / (s + n)
            total += term
            tail += term
            if term < tail * 1e-17:
                scale = s * math.exp(-x)
                # guard against <=1 ulp of drift above 1
                return min(1.0, scale * total), scale * tail
        raise SolverError(f"Kummer series did not converge for s={s}, x={x}")
    gamma = math.gamma(s)
    if x <= 40.0 * (s + 1.0):
        gamma -= _upper_gamma_cf(s, x)
    phi = s * math.exp(-s * math.log(x)) * gamma
    return phi, phi - math.exp(-x)


def kummer_pair(s: float, x: float) -> tuple[float, float]:
    """(phi, h) with phi = 1F1(s; s+1; -x) and h = phi - e^(-x), for s > 0, x >= 0.

    The only evaluation of the Kummer ratio phi = s x^(-s) gamma(s, x),
    which falls strictly from 1 at x = 0 towards 0.  Below the x = s + 1
    crossover gamma(s, x) comes from its series under Kummer's
    transformation (DLMF 8.7, 13.2): phi = s e^(-x) sum_{n>=0} t_n with
    t_0 = 1/s, t_n = t_{n-1} x / (s+n), and h is the same sum without t_0,
    a sum of positive terms that keeps full relative precision as x -> 0
    (h ~ x / (s+1)), where phi - e^(-x) would cancel.  Above it
    phi = s x^(-s) (Gamma(s) - Gamma(s, x)), with Gamma(s, x) from the
    continued fraction up to x = 40 (s+1) and dropped beyond, where it is
    below half an ulp of Gamma(s) (the power law Gamma(s+1) x^(-s)); phi
    exceeds 2 e^(-x) there, so the plain difference h loses at most one
    bit.  h' = e^(-x) - s h / x.
    """
    scope = _SCOPE.get()
    return _kummer_pair(s, x) if scope is None else scope[0](s, x)


def hyp1f1_ratio(s: float, x: float) -> float:
    """Confluent hypergeometric value 1F1(s; s+1; -x) for s > 0, x >= 0:
    the phi of :func:`kummer_pair`."""
    return kummer_pair(s, x)[0]


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) via log-gamma.  Exact to ~1e-14 relative."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


@lru_cache(maxsize=128)
def _binom_log_table(num_users: int, count_lo: int, count_hi: int) -> tuple[float, memoryview]:
    """(ln C(n, lo), [ln((n - m) / (m + 1)) for m = lo .. hi - 1]): the log
    binomial coefficient at the lower end and the log ratios of consecutive
    coefficients up to the upper end.  It depends on the integers alone, so
    a sweep (fixed n and count range) or an inversion builds it once.  The
    ratios are one read-only buffer of doubles: a cached table holds no
    float objects, which would otherwise scatter across the allocator's
    pools as tables are evicted and grow the process's memory."""
    log = math.log
    ratios = array("d", [log((num_users - m) / (m + 1.0)) for m in range(count_lo, count_hi)])
    return log_binomial(num_users, count_lo), memoryview(ratios).toreadonly()


def _binom_range_prob(p: float, num_users: int, count_lo: int, count_hi: int) -> float:
    """The evaluation behind :func:`binom_range_prob`."""
    if not (0 <= count_lo <= count_hi <= num_users):
        raise ValueError(
            f"need 0 <= count_lo <= count_hi <= num_users, got ({count_lo}, {count_hi}, {num_users})")
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return 1.0 if count_lo == 0 else 0.0
    if p == 1.0:
        return 1.0 if count_hi == num_users else 0.0
    log, exp = math.log, math.exp
    log_p = log(p)
    log_q = math.log1p(-p)
    step = log_p - log_q
    log_coef, ratios = _binom_log_table(num_users, count_lo, count_hi)
    log_term = log_coef + count_lo * log_p + (num_users - count_lo) * log_q
    terms = list(accumulate(map(step.__add__, ratios), initial=log_term))
    top = max(terms)
    return min(1.0, exp(top) * sum(exp(t - top) for t in terms))


def binom_range_prob(p: float, num_users: int, count_lo: int, count_hi: int) -> float:
    """P[count_lo <= Binomial(num_users, p) <= count_hi], in log space.

    With count_hi = num_users this equals the regularized incomplete beta
    I_p(count_lo, num_users - count_lo + 1).  The log terms are
    ln C(n, lo) + lo ln p + (n - lo) ln(1 - p), then each previous one plus
    the next log coefficient ratio and ln(p / (1 - p)); the coefficients
    and ratios come from a table keyed on (n, lo, hi) alone, held for the
    128 most recent ranges, so a call costs O(hi - lo) whatever n is.
    """
    scope = _SCOPE.get()
    if scope is None:
        return _binom_range_prob(p, num_users, count_lo, count_hi)
    return scope[1](p, num_users, count_lo, count_hi)


def inv_reg_inc_beta_int(q: float, k: int, m: int) -> float:
    """The p with I_p(k, m) = q, the regularized incomplete beta with integer
    shapes k, m >= 1, i.e. P[Binomial(n, p) >= k] = q with n = k + m - 1.

    I_p is strictly increasing in p, and the union bounds
    1 - C(n, m) (1 - p)^m <= I_p(k, m) <= C(n, k) p^k, n = k + m - 1,
    bracket the root in closed form (with a factor-two margin on each
    side).  :func:`bracketed_root` solves ln I_p - ln q in ln p, whose
    derivative is p times the Beta(k, m) density over I_p, starting at
    the upper bound's root (q / C(n, k))^(1/k), which lies at or below the
    root: there I_p ~ C(n, k) p^k, so the equation is nearly linear and
    Newton lands close to the root even for tiny q, without evaluating
    either bracket end.  The lower end is clamped at the smallest normal
    double, so every root that is a normal double is bracketed; a q whose
    root is subnormal raises SolverError ("no sign change on [...]"),
    which the CLI reports as a solver failure (exit 3).
    """
    if k < 1 or m < 1:
        raise ValueError(f"inv_reg_inc_beta_int requires integer k, m >= 1, got k={k}, m={m}")
    if not (0.0 < q < 1.0):
        raise ValueError(f"inv_reg_inc_beta_int requires 0 < q < 1 (the boundary solutions are degenerate), got q={q}")
    n = k + m - 1
    log_norm = math.lgamma(k + m) - math.lgamma(k) - math.lgamma(m)
    log_q = math.log(q)

    def fdf(p: float) -> tuple[float, float]:
        value = binom_range_prob(p, n, k, n)
        # I_p underflows only at a lower end clamped to the smallest normal double
        log_value = math.log(value) if value > 0.0 else -math.inf
        log_slope = log_norm + k * math.log(p)
        if m > 1:
            log_slope += (m - 1) * math.log1p(-p) if p < 1.0 else -math.inf
        return log_value - log_q, math.exp(log_slope - log_value)

    start = math.exp((log_q - log_binomial(n, k)) / k)
    lo = max(0.5 * start, sys.float_info.min)
    hi = 1.0 - 0.5 * math.exp((math.log1p(-q) - log_binomial(n, m)) / m)
    return bracketed_root(fdf, lo, hi, start=start, rising=True)[0]


def lambert_w0(x: float) -> float:
    """Principal branch W0(x): the w >= -1 with w e^w = x, for x >= -1/e.

    Halley iteration from a branch-point series guess near -1/e and a
    log-based guess for large arguments.  Inputs within 1e-15 below the
    branch point are clamped onto it (w = -1).
    """
    if not math.isfinite(x):
        raise ValueError(f"lambert_w0 requires finite x, got x={x}")
    if x < _BRANCH_POINT:
        if _BRANCH_POINT - x <= 1e-15:
            return -1.0
        raise ValueError(f"lambert_w0 requires x >= -1/e = {_BRANCH_POINT}, got x={x}")
    if x == 0.0:
        return 0.0
    if x == _BRANCH_POINT:
        return -1.0
    if x < -0.31:
        # series in p = sqrt(2 (e x + 1)) around the branch point
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif x > math.e:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    else:
        w = 0.0  # first Halley step lands on x / (1 + x)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        dw = f / denom
        w -= dw
        if abs(dw) <= 2e-16 * (1.0 + abs(w)):
            break
    return w


_ROOT_RTOL = 1e-14  # Newton step in ln x below which a root counts as converged
_NOISE_STEP = 1e-6  # a Newton step this small that stops halving is rounding noise


def bracketed_root(fdf, lo: float, hi: float, start: float, rising: bool) -> tuple[float, int, float]:
    """Root of f on the bracket [lo, hi], 0 < lo < hi, by safeguarded Newton in ln x.

    ``fdf(x)`` returns ``(f(x), x f'(x))``: the residual and its
    derivative in ln x.  f need not be monotone, but it must change sign
    exactly once on [lo, hi]: from negative to positive when ``rising``,
    from positive to negative otherwise.  The iteration starts at
    ``start`` (moved into [lo, hi]), and the sign of each point says
    which side of the root it lies on.  The next point is the Newton step
    in ln x when it lands inside the bracket and is at most half the
    previous step, else the geometric midpoint (Numerical Recipes'
    rtsafe, on a log scale).  Iteration stops once the Newton step or the
    bracket is below 1e-14 relative, or once a Newton step below 1e-6
    that follows another one stops halving: this deep in Newton's
    quadratic basin the residual is then at its rounding floor
    (ill-conditioned roots, such as a level just below the peak it must
    cross).  An end is evaluated only when the bracket has collapsed onto
    it with every point on one side: a zero there is returned, a sign
    opposite to those points means the root lies within 1e-14 relative
    and the last point is returned, and otherwise the ends hold no sign
    change.

    Returns ``(root, iterations, residual)``: the last point evaluated,
    the number of evaluations of f, and f there.  Raises SolverError
    when the ends do not bracket a sign change ("no sign change on
    [lo, hi]: f = f(lo), f(hi)") or the iteration does not converge.
    """
    if not (0.0 < lo < hi):
        raise ValueError(f"bracketed_root requires 0 < lo < hi, got lo={lo}, hi={hi}")
    ends = lo, hi
    log_lo, log_hi = math.log(lo), math.log(hi)
    last_step, newton = math.inf, False
    lo_seen = hi_seen = False
    x = min(max(start, lo), hi)
    evaluations = 0
    while evaluations < _MAX_ITER:
        f, df = fdf(x)
        evaluations += 1
        if f == 0.0:
            return x, evaluations, f
        log_x = math.log(x)
        if (f > 0.0) == rising:
            hi, log_hi, hi_seen = x, log_x, True
        else:
            lo, log_lo, lo_seen = x, log_x, True
        step = f / df if df != 0.0 else math.inf
        if abs(step) <= _ROOT_RTOL:
            return x, evaluations, f
        if hi <= lo * (1.0 + _ROOT_RTOL):
            if lo_seen and hi_seen:
                return x, evaluations, f
            # every point lies on one side: settle the end the bracket collapsed onto
            end = hi if lo_seen else lo
            if end == x:
                f_end = f
            else:
                f_end = fdf(end)[0]
                evaluations += 1
            if f_end == 0.0:
                return end, evaluations, f_end
            if (f_end > 0.0) == (rising == lo_seen):
                return x, evaluations, f
            f_lo, f_hi = fdf(ends[0])[0], fdf(ends[1])[0]
            raise SolverError(f"no sign change on [{ends[0]}, {ends[1]}]: f = {f_lo}, {f_hi}")
        target = log_x - step
        inside = log_lo < target < log_hi
        if inside and abs(step) <= 0.5 * last_step:
            x, last_step, newton = math.exp(target), abs(step), True
        elif inside and newton and abs(step) <= _NOISE_STEP:
            return x, evaluations, f
        else:
            mid = math.sqrt(lo) * math.sqrt(hi)
            last_step, newton = abs(math.log(mid / x)), False
            x = mid
    raise SolverError(f"bracketed_root did not converge in {_MAX_ITER} iterations on [{lo}, {hi}]")
