import json
import math

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from semcell import (binom_range_prob, hyp1f1_ratio, inv_reg_inc_beta_int, lambert_w0,
                     log_binomial)
from semcell import specfun
from semcell.cli import evaluate_sweep, main, parse_scenario_config
from semcell.presets import table1_config
from semcell.specfun import (SolverError, _binom_log_table, bracketed_root, kernel_scope,
                             kummer_pair)


def kummer_series(s, x: float) -> float:
    """Direct term-by-term sum of 1F1(s; s+1; -x), the series oracle.

    Exact rational arithmetic: the alternating terms reach ~e^x before
    cancelling, which float64 cannot survive once x is large.  Accepts a
    Fraction (or int) for s so every partial sum is exact.
    """
    from fractions import Fraction

    s = Fraction(s)
    xf = Fraction(x)
    total = Fraction(0)
    term = Fraction(1)
    n = 0
    while True:
        total += (s / (s + n)) * term
        n += 1
        term *= -xf / n
        if n > 5 and abs(term) < Fraction(1, 10**30):
            return float(total)


def kummer_gap_series(s, x: float) -> float:
    """Exact rational sum of 1F1(s; s+1; -x) - e^(-x) = sum_{n>=1} -n/(s+n) (-x)^n / n!."""
    from fractions import Fraction

    s = Fraction(s)
    xf = Fraction(x)
    total = Fraction(0)
    term = Fraction(1)
    n = 0
    while True:
        n += 1
        term *= -xf / n
        total -= n / (s + n) * term
        if n > 5 and abs(term) < abs(total) * Fraction(1, 10**30):
            return float(total)


def gamma_series_phi(s: float, x: float) -> float:
    """1F1(s; s+1; -x) from the lower incomplete gamma in two branches, the
    reference that the kernel must match bit for bit.

    Below x = s + 1: s e^(-x) sum_{n>=0} x^n / (s (s+1) ... (s+n)), summed
    until a term falls below 1e-17 of the sum.  Above it:
    s x^(-s) (Gamma(s) - Gamma(s, x)), with Gamma(s, x) from the modified
    Lentz continued fraction at every x, taken as 0 once its prefactor
    x^s e^(-x) underflows.  Clamped to [0, 1].
    """
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        term = total = 1.0 / s
        n = 0
        while term >= total * 1e-17:
            n += 1
            term *= x / (s + n)
            total += term
        return min(1.0, max(0.0, s * math.exp(-x) * total))
    upper = prefactor = math.exp(-x + s * math.log(x))
    if prefactor != 0.0:
        tiny = 1e-300
        b = x + 1.0 - s
        c = 1.0 / tiny
        d = h = 1.0 / b
        for i in range(1, 500):
            an = -i * (i - s)
            b += 2.0
            d = an * d + b
            d = tiny if abs(d) < tiny else d
            c = b + an / c
            c = tiny if abs(c) < tiny else c
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < 1e-16:
                break
        else:
            raise ArithmeticError(f"reference continued fraction did not converge at s={s}, x={x}")
        upper = prefactor * h
    value = s * math.exp(-s * math.log(x)) * (math.gamma(s) - upper)
    return min(1.0, max(0.0, value))


def loop_binom_range_prob(p: float, num_users: int, count_lo: int, count_hi: int) -> float:
    """The binomial range probability as it was before its log ratios were tabled:
    one log per term in a loop.  The reference that binom_range_prob must equal."""
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
    log_term = log_binomial(num_users, count_lo) + count_lo * log_p + (num_users - count_lo) * log_q
    terms = [log_term]
    for m in range(count_lo, count_hi):
        log_term += log((num_users - m) / (m + 1.0)) + step
        terms.append(log_term)
    top = max(terms)
    return min(1.0, exp(top) * sum(exp(t - top) for t in terms))


def reg_inc_beta_int(p: float, k: int, m: int) -> float:
    """I_p(k, m) as the upper binomial tail P[Binomial(k+m-1, p) >= k]."""
    return binom_range_prob(p, k + m - 1, k, k + m - 1)


def binom_tail(p: float, k: int, m: int) -> float:
    """Exhaustive pmf enumeration of P[Binomial(k+m-1, p) >= k]."""
    n = k + m - 1
    return sum(math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


class TestHyp1f1Ratio:
    def test_at_zero(self):
        for s in (0.3, 1.0, 1.9):
            assert hyp1f1_ratio(s, 0.0) == 1.0

    def test_s_equal_one(self):
        # a = 2 case reduces to (1 - e^-x) / x
        assert hyp1f1_ratio(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        for x in (0.25, 3.0, 12.0):
            assert hyp1f1_ratio(1.0, x) == pytest.approx(-math.expm1(-x) / x, rel=1e-13)

    def test_against_direct_series_oracle(self):
        # frozen from the term-by-term Kummer sum
        from fractions import Fraction

        assert hyp1f1_ratio(2.0 / 3.0, 2.0) == pytest.approx(0.5285279660736333, abs=1e-12)
        for s_frac in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            for x in np.geomspace(0.01, 30.0, 12):
                assert hyp1f1_ratio(float(s_frac), float(x)) == pytest.approx(
                    kummer_series(s_frac, float(x)), rel=1e-10)

    def test_gamma_identity(self):
        # s x^-s gamma(s, x) is the same quantity computed the long way
        for s in (1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0):
            for x in np.geomspace(0.01, 30.0, 15):
                via_gamma = s * float(x) ** (-s) * sp.gamma(s) * sp.gammainc(s, float(x))
                assert hyp1f1_ratio(s, float(x)) == pytest.approx(via_gamma, rel=1e-10)

    def test_far_tail_does_not_raise(self):
        # beyond x ~ 7e16 the continued fraction never met its stopping
        # test; there x^s e^-x underflows and the value is s Gamma(s) x^-s
        rng = np.random.default_rng(19)
        for _ in range(4000):
            s = float(rng.uniform(0.44, 2.0))
            x = float(10.0 ** rng.uniform(0.0, 20.0))
            oracle = s * x ** (-s) * sp.gamma(s) * sp.gammainc(s, x)
            assert hyp1f1_ratio(s, x) == pytest.approx(oracle, rel=1e-10)

    def test_decreasing_range_and_tail(self):
        for s in (0.4, 1.0, 1.8):
            grid = np.geomspace(1e-4, 1e8, 80)
            values = [hyp1f1_ratio(s, float(x)) for x in grid]
            assert all(0.0 < v <= 1.0 for v in values)
            assert all(b < a for a, b in zip(values, values[1:]))
            # power-law tail ~ s Gamma(s) x^-s
            assert values[-1] < 1.1 * s * math.gamma(s) * 1e8 ** (-s)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hyp1f1_ratio(1.0, -0.5)
        with pytest.raises(ValueError):
            hyp1f1_ratio(-1.0, 0.5)


class TestKummerPair:
    def test_phi_bit_identical_to_gamma_series_reference(self):
        # the emitted CSVs keep their bytes only while phi does: every point
        # on both sides of the s + 1 and 40 (s+1) branch edges, up to x = 1e20
        rng = np.random.default_rng(23)
        s_grid = [2.0 / a for a in np.linspace(1.0, 4.5, 15)] + list(rng.uniform(2 / 4.5, 2 / 1.5, 6))
        for s in map(float, s_grid):
            edges = np.array([s + 1.0, 40.0 * (s + 1.0)])
            grid = np.concatenate([
                np.geomspace(1e-18, 1e20, 400),
                np.outer(edges, 1.0 + np.linspace(-0.05, 0.05, 101)).ravel(),
                np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf),
                rng.uniform(0.0, 3.0 * (s + 1.0), 200)])
            for x in map(float, grid):
                assert hyp1f1_ratio(s, x) == gamma_series_phi(s, x), (s, x)

    def test_gap_against_rational_series(self):
        # h = phi - e^-x keeps full relative precision down to x -> 0,
        # where the plain difference of hyp1f1_ratio and exp cancels
        from fractions import Fraction

        for s_frac in (Fraction(4, 9), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(4, 3)):
            s = float(s_frac)
            for x in (1e-300, 1e-16, 1e-9, 1e-4, 0.3, 1.0, s + 0.999, s + 1.0, 3.0, 12.0, 30.0):
                _, h = kummer_pair(s, x)
                assert h == pytest.approx(kummer_gap_series(s_frac, x), rel=1e-13)

    def test_power_law_tail_is_continuous(self):
        # beyond x = 40 (s+1) phi is its power-law limit Gamma(s+1) x^-s
        for s in (0.4, 1.0, 1.8):
            edge = 40.0 * (s + 1.0)
            below = kummer_pair(s, edge * (1.0 - 1e-12))[0]
            above = kummer_pair(s, edge * (1.0 + 1e-12))[0]
            assert above == pytest.approx(below, rel=1e-11)
            assert kummer_pair(s, 1e15)[0] == pytest.approx(math.gamma(s + 1.0) * 1e15 ** -s, rel=1e-14)

    def test_endpoints_and_domain(self):
        assert kummer_pair(0.7, 0.0) == (1.0, 0.0)
        with pytest.raises(ValueError):
            kummer_pair(1.0, -0.5)
        with pytest.raises(ValueError):
            kummer_pair(0.0, 1.0)


class TestBracketedRoot:
    def test_rising_and_falling(self):
        root, iterations, residual = bracketed_root(lambda x: (x**3 - 2.0, 3.0 * x**3), 1e-3, 1e3,
                                                    start=1.0, rising=True)
        assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
        assert 1 <= iterations <= 20
        assert abs(residual) <= 1e-14
        root, _, _ = bracketed_root(lambda x: (math.exp(-x) - 0.5, -x * math.exp(-x)), 1e-6, 50.0,
                                    start=0.1, rising=False)
        assert root == pytest.approx(math.log(2.0), rel=1e-14)

    def test_residual_is_f_at_the_root(self):
        f = lambda x: math.log(x) - 1.0
        root, _, residual = bracketed_root(lambda x: (f(x), 1.0), 1.0, 10.0, start=5.0, rising=True)
        assert residual == f(root)
        assert root == pytest.approx(math.e, rel=1e-14)

    def test_errors(self):
        with pytest.raises(SolverError):
            bracketed_root(lambda x: (x + 1.0, x), 1.0, 2.0, start=1.5, rising=True)
        with pytest.raises(ValueError):
            bracketed_root(lambda x: (x - 1.5, x), 2.0, 1.0, start=1.5, rising=True)
        with pytest.raises(ValueError):
            bracketed_root(lambda x: (x - 1.5, x), 0.0, 2.0, start=1.5, rising=True)
        with pytest.raises(TypeError):
            bracketed_root(lambda x: (x - 1.5, x), 1.0, 2.0, start=1.2)

    def test_start_evaluates_neither_end(self):
        for fdf, lo, hi, start, rising, expected in (
                (lambda x: (x**3 - 2.0, 3.0 * x**3), 1e-3, 1e3, 1.0, True, 2.0 ** (1.0 / 3.0)),
                (lambda x: (math.exp(-x) - 0.5, -x * math.exp(-x)), 1e-6, 50.0, 0.1, False, math.log(2.0))):
            points = []

            def counted(x, fdf=fdf):
                points.append(x)
                return fdf(x)

            root, iterations, residual = bracketed_root(counted, lo, hi, start=start, rising=rising)
            assert root == pytest.approx(expected, rel=1e-14)
            assert abs(residual) <= 1e-14
            assert iterations == len(points) <= 10
            assert lo not in points and hi not in points

    def test_start_with_the_root_outside_raises_the_same_error(self):
        # every point lies on one side, so the bracket collapses onto an end;
        # its sign shows no crossing, and the message names both ends' values
        for fdf, rising in (((lambda x: (x - 0.5, x)), True), ((lambda x: (0.5 - x, -x)), False)):
            for lo, hi, start in ((1.0, 10.0, 3.0), (1.0, 10.0, 0.1), (0.01, 0.1, 0.03), (0.01, 0.1, 7.0)):
                with pytest.raises(SolverError) as raised:
                    bracketed_root(fdf, lo, hi, start=start, rising=rising)
                assert str(raised.value) == f"no sign change on [{lo}, {hi}]: f = {fdf(lo)[0]}, {fdf(hi)[0]}"

    def test_start_zero_at_an_end(self):
        # a zero derivative allows no Newton step: bisection walks onto the end
        for end in (2.0, 5.0):
            root, iterations, residual = bracketed_root(lambda x: (x - end, 0.0), 2.0, 5.0,
                                                        start=3.0, rising=True)
            assert (root, residual) == (end, 0.0)
            assert iterations <= 60

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
    def test_bisection_collapses_between_points_on_both_sides(self, sign):
        # a derivative of 1e-300 sends every Newton step out of the bracket:
        # bisection narrows it around the root to 1e-14 relative, ends unevaluated
        points = []

        def fdf(x):
            points.append(x)
            return sign * (x - 3.0), sign * 1e-300

        root, iterations, residual = bracketed_root(fdf, 1.0, 4.0, start=2.0, rising=sign > 0.0)
        assert root == pytest.approx(3.0, rel=1e-14)
        assert residual == sign * (root - 3.0) != 0.0
        assert iterations == len(points) <= 60
        assert 1.0 not in points and 4.0 not in points

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["rising", "falling"])
    def test_bisection_collapses_onto_an_end_past_the_root(self, sign):
        # the root lies within 1e-14 relative of the upper end, and every point
        # below it: the end, evaluated last, has the opposite sign and confirms it
        root_at = 4.0 * (1.0 - 1e-15)
        points = []

        def fdf(x):
            points.append(x)
            return sign * (x - root_at), sign * 1e-300

        root, iterations, residual = bracketed_root(fdf, 1.0, 4.0, start=2.0, rising=sign > 0.0)
        assert points[-1] == 4.0 and 1.0 not in points
        assert root == points[-2] < root_at
        assert root == pytest.approx(root_at, rel=1e-14)
        assert residual == sign * (root - root_at)
        assert iterations == len(points) <= 60

    def test_start_falls_back_to_bisection(self):
        for fdf, rising in (((lambda x: (x - 3.0, -1.0)), True), ((lambda x: (3.0 - x, 1.0)), False)):
            root, iterations, _ = bracketed_root(fdf, 1.0, 10.0, start=8.0, rising=rising)
            assert root == pytest.approx(3.0, rel=1e-12)
            assert iterations <= 60


class TestRegIncBetaInt:
    def test_identity_case(self):
        assert reg_inc_beta_int(0.5, 1, 1) == pytest.approx(0.5, abs=1e-15)

    def test_k_equal_one_closed_form(self):
        for p in (0.01, 0.3, 0.9):
            for m in (1, 4, 17):
                assert reg_inc_beta_int(p, 1, m) == pytest.approx(
                    1.0 - (1.0 - p) ** m, rel=1e-13)

    def test_exhaustive_enumeration_oracle(self):
        # frozen from summing the Binomial(7, 0.3) pmf over j >= 3
        assert reg_inc_beta_int(0.3, 3, 5) == pytest.approx(0.3529305, abs=1e-13)
        rng = np.random.default_rng(7)
        for _ in range(60):
            k = int(rng.integers(1, 12))
            m = int(rng.integers(1, 12))
            p = float(rng.uniform(0.005, 0.995))
            assert reg_inc_beta_int(p, k, m) == pytest.approx(
                binom_tail(p, k, m), rel=1e-12, abs=1e-300)

    def test_extreme_tail_stays_accurate(self):
        # log-space terms keep 1e-6-scale probabilities exact
        value = reg_inc_beta_int(1e-6, 3, 48)
        oracle = binom_tail(1e-6, 3, 48)
        assert value == pytest.approx(oracle, rel=1e-11)

    def test_reflection_property(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            k = int(rng.integers(1, 15))
            m = int(rng.integers(1, 15))
            p = float(rng.uniform(0.01, 0.99))
            total = reg_inc_beta_int(p, k, m) + reg_inc_beta_int(1.0 - p, m, k)
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_edges_and_domain(self):
        assert reg_inc_beta_int(0.0, 2, 3) == 0.0
        assert reg_inc_beta_int(1.0, 2, 3) == 1.0
        with pytest.raises(ValueError):
            reg_inc_beta_int(-0.1, 2, 3)
        with pytest.raises(ValueError):
            reg_inc_beta_int(1.1, 2, 3)


class TestBinomLogTable:
    def test_bit_identical_to_loop_reference_on_random_ranges(self):
        # a third of the draws in each tail: p down to 1e-300 and up to 1 - 1e-16
        rng = np.random.default_rng(29)
        for _ in range(12_000):
            n = int(rng.integers(1, 61))
            lo = int(rng.integers(0, n + 1))
            hi = int(rng.integers(lo, n + 1))
            kind = rng.integers(3)
            if kind == 0:
                p = float(rng.uniform(0.0, 1.0))
            elif kind == 1:
                p = float(10.0 ** rng.uniform(-300.0, 0.0))
            else:
                p = 1.0 - float(10.0 ** rng.uniform(-16.0, 0.0))
            assert binom_range_prob(p, n, lo, hi) == loop_binom_range_prob(p, n, lo, hi), (p, n, lo, hi)

    def test_bit_identical_to_loop_reference_on_acceptance_grid(self):
        for p in map(float, np.linspace(0.01, 0.99, 99)):
            for n in range(1, 61):
                for lo in range(1, n + 1):
                    assert binom_range_prob(p, n, lo, n) == loop_binom_range_prob(p, n, lo, n)

    def test_extreme_probabilities_match_the_reference(self):
        for p in (0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0):
            for n, lo, hi in ((1, 0, 1), (7, 0, 0), (7, 7, 7), (60, 3, 40), (60, 0, 60)):
                assert binom_range_prob(p, n, lo, hi) == loop_binom_range_prob(p, n, lo, hi)

    def test_table_length_is_the_count_range(self):
        # the work is O(hi - lo): a one-count range of a million users tables no ratio
        p = 1e-6
        assert binom_range_prob(p, 10**6, 3, 3) == loop_binom_range_prob(p, 10**6, 3, 3)
        log_coef, ratios = _binom_log_table(10**6, 3, 3)
        assert len(ratios) == 0 and log_coef == log_binomial(10**6, 3)
        assert ratios.readonly  # one table serves every caller
        assert len(_binom_log_table(10**6, 999_990, 10**6)[1]) == 10

    def test_one_table_per_inversion(self):
        # every Newton step of the inverse reads the same (n, k, n) table
        _binom_log_table.cache_clear()
        inv_reg_inc_beta_int(0.01, 3, 28)
        info = _binom_log_table.cache_info()
        assert info.misses == 1 and info.hits > 1


class TestInvRegIncBetaInt:
    def test_identity_case(self):
        assert inv_reg_inc_beta_int(0.5, 1, 1) == pytest.approx(0.5, abs=1e-13)

    def test_bisection_oracle_value(self):
        # frozen from bisecting the exact binomial sum
        assert inv_reg_inc_beta_int(0.01, 3, 28) == pytest.approx(
            0.014930079416516088, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 20))
            m = int(rng.integers(1, 20))
            p = float(rng.uniform(0.02, 0.98))
            q = reg_inc_beta_int(p, k, m)
            # the inverse is ill-conditioned in the far tails (flat CDF)
            if not (1e-4 < q < 1.0 - 1e-4):
                continue
            assert inv_reg_inc_beta_int(q, k, m) == pytest.approx(p, abs=1e-10)

    def test_residual_tolerance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k = int(rng.integers(1, 25))
            m = int(rng.integers(1, 25))
            q = float(rng.uniform(1e-4, 1.0 - 1e-4))
            p = inv_reg_inc_beta_int(q, k, m)
            assert abs(reg_inc_beta_int(p, k, m) - q) <= 1e-12

    def test_boundary_error(self):
        with pytest.raises(ValueError):
            inv_reg_inc_beta_int(0.0, 2, 3)
        with pytest.raises(ValueError):
            inv_reg_inc_beta_int(1.0, 2, 3)
        for k, m in ((0, 3), (2, 0)):
            with pytest.raises(ValueError, match="k, m >= 1"):
                inv_reg_inc_beta_int(0.5, k, m)

    def test_subnormal_root_has_no_bracket(self):
        # the root of q = 1e-310 at k = 1, n = 30 is about 3.3e-312, below
        # the smallest normal double the bracket is clamped at
        with pytest.raises(SolverError, match="no sign change"):
            inv_reg_inc_beta_int(1e-310, 1, 30)


def test_one_solver_error():
    # every solver failure is one class, an ArithmeticError, under every name it is exported by
    import semcell
    from semcell import ratemodel

    assert semcell.SolverError is ratemodel.SolverError is SolverError
    assert issubclass(SolverError, ArithmeticError)


class TestLambertW0:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_known_value_with_round_trip(self):
        # -2 e^-2 = -0.270670566...; frozen root checked by w e^w round trip
        w = lambert_w0(-2.0 * math.exp(-2.0))
        assert w == pytest.approx(-0.40637573995996, abs=1e-12)
        assert abs(w * math.exp(w) - (-2.0 * math.exp(-2.0))) <= 1e-12

    def test_round_trip_over_log_grid(self):
        branch = -math.exp(-1.0)
        xs = np.concatenate([
            branch + np.geomspace(1e-12, -branch, 40, endpoint=False),
            np.geomspace(1e-9, 1e6, 60)])
        for x in xs:
            w = lambert_w0(float(x))
            assert w >= -1.0
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_against_scipy(self):
        for x in np.geomspace(1e-6, 1e6, 30):
            assert lambert_w0(float(x)) == pytest.approx(
                float(sp.lambertw(float(x)).real), rel=1e-12)

    def test_branch_point_clamp(self):
        branch = -math.exp(-1.0)
        assert lambert_w0(branch) == -1.0
        assert lambert_w0(branch - 1e-16) == -1.0
        with pytest.raises(ValueError):
            lambert_w0(branch - 1e-6)
        with pytest.raises(ValueError, match="finite"):
            lambert_w0(math.nan)


class TestLogBinomial:
    def test_trivial(self):
        assert log_binomial(10, 0) == 0.0
        assert log_binomial(0, 0) == 0.0

    def test_exact_integer_products(self):
        # frozen from exact integer binomials C(29,4) = 23751, C(29,10) = 20030010
        assert log_binomial(29, 4) == pytest.approx(math.log(23751), rel=1e-13)
        assert log_binomial(29, 10) == pytest.approx(math.log(20030010), rel=1e-13)

    def test_exhaustive_small_table(self):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert log_binomial(n, k) == pytest.approx(
                    math.log(math.comb(n, k)), rel=1e-13, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_binomial(5, 6)
        with pytest.raises(ValueError):
            log_binomial(5, -1)


class TestKernelScope:
    """Within a kernel scope each distinct argument is evaluated once; outside nothing is kept."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Calls of each kernel's own evaluation, counted while the test runs."""
        counts = {"kummer": 0, "binom": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(specfun, "_kummer_pair", counted(specfun._kummer_pair, "kummer"))
        monkeypatch.setattr(specfun, "_binom_range_prob",
                            counted(specfun._binom_range_prob, "binom"))
        return counts

    def test_repeated_argument_is_evaluated_once(self, evaluations):
        with kernel_scope():
            first = kummer_pair(0.5, 2.0)
            assert kummer_pair(0.5, 2.0) is first
            tail = binom_range_prob(0.3, 30, 5, 10)
            assert binom_range_prob(0.3, 30, 5, 10) == tail
            assert hyp1f1_ratio(0.5, 2.0) == first[0]
        assert evaluations == {"kummer": 1, "binom": 1}
        assert first == specfun._kummer_pair(0.5, 2.0)

    def test_nothing_is_stored_outside_a_scope(self, evaluations):
        with kernel_scope():
            kummer_pair(0.5, 2.0)
        kummer_pair(0.5, 2.0)
        kummer_pair(0.5, 2.0)
        binom_range_prob(0.3, 30, 5, 10)
        binom_range_prob(0.3, 30, 5, 10)
        assert evaluations == {"kummer": 3, "binom": 2}

    @pytest.mark.parametrize("argv, code", [
        (["run", "--config", "EDGE", "--out", "OUT"], 2),
        (["design", "radius", "--config", "TABLE1", "--pth", "1e-310", "--ll", "1"], 3),
        (["run", "--config", "TABLE1", "--out", "OUT"], 0),
    ], ids=["config-error", "solver-failure", "ok"])
    def test_no_scope_outlives_a_command(self, evaluations, tmp_path, capsys, argv, code):
        doc = table1_config()
        (tmp_path / "TABLE1").write_text(json.dumps(doc))
        doc["sweep"] = {"axis": "edge_snr_db", "grid": [0.0, 4000.0]}
        (tmp_path / "EDGE").write_text(json.dumps(doc))
        assert main([str(tmp_path / arg) if arg.isupper() else arg for arg in argv]) == code
        assert specfun._SCOPE.get() is None
        before = dict(evaluations)
        kummer_pair(0.5, 2.0)
        kummer_pair(0.5, 2.0)
        assert evaluations["kummer"] == before["kummer"] + 2

    @pytest.mark.parametrize("via", ["library", "cli"])
    def test_a_sweep_evaluates_each_distinct_argument_once(self, via, monkeypatch, tmp_path,
                                                           capsys):
        # evaluate_sweep opens its own scope, so a library caller shares values
        # without opening one; semcell run shares them across a preset's variants
        seen = {"_kummer_pair": [], "_binom_range_prob": []}
        for name, args_seen in seen.items():
            def recorded(*args, _kernel=getattr(specfun, name), _seen=args_seen):
                _seen.append(args)
                return _kernel(*args)
            monkeypatch.setattr(specfun, name, recorded)
        if via == "library":
            doc = table1_config()
            doc["sweep"] = {"axis": "r_out", "start": 0.005, "stop": 0.3, "points": 40}
            evaluate_sweep(parse_scenario_config(doc))
        else:
            config = tmp_path / "table1.json"
            config.write_text(json.dumps(table1_config()))
            assert main(["run", "--config", str(config), "--preset", "fig3",
                         "--out", str(tmp_path)]) == 0
        assert specfun._SCOPE.get() is None
        for args_seen in seen.values():
            assert args_seen and len(args_seen) == len(set(args_seen))

    def test_a_raising_argument_raises_every_time(self, evaluations):
        with kernel_scope():
            for _ in range(3):
                with pytest.raises(ValueError):
                    kummer_pair(0.5, -1.0)
                with pytest.raises(ValueError):
                    binom_range_prob(1.5, 30, 5, 10)
        assert evaluations == {"kummer": 3, "binom": 3}

    def test_nested_scope_shares_the_outer_one(self, evaluations):
        with kernel_scope():
            kummer_pair(0.5, 2.0)
            with kernel_scope():
                kummer_pair(0.5, 2.0)
                kummer_pair(0.5, 3.0)
            assert specfun._SCOPE.get() is not None
            kummer_pair(0.5, 3.0)
        assert specfun._SCOPE.get() is None
        assert evaluations["kummer"] == 2

    def test_each_kernel_keeps_the_4096_most_recent_arguments(self, evaluations):
        xs = [1e-3 * (i + 1) for i in range(4097)]
        with kernel_scope():
            for x in xs:
                kummer_pair(0.5, x)
            kummer_pair(0.5, xs[-1])
            assert evaluations["kummer"] == 4097
            kummer_pair(0.5, xs[0])  # the oldest was dropped for the 4097th
            assert evaluations["kummer"] == 4098

    def test_consecutive_commands_evaluate_the_same(self, evaluations, tmp_path, capsys):
        config = tmp_path / "table1.json"
        config.write_text(json.dumps(table1_config()))
        argv = ["run", "--config", str(config), "--preset", "fig3", "--out", str(tmp_path)]
        counts = []
        for _ in range(2):
            evaluations.update(kummer=0, binom=0)
            assert main(argv) == 0
            counts.append(dict(evaluations))
        assert counts[0] == counts[1]
        assert counts[0]["kummer"] > 0 and counts[0]["binom"] > 0
