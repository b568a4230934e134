"""Radial witness module: frozen quadrature values, an independent
trapezoid oracle, closed-form identities, and the divergence report."""

import math

import numpy as np
import pytest

from varlab.counterexample import (
    MAX_DIMENSION,
    MAX_LEVEL,
    MAX_QUAD_POINTS,
    SHELL_COLUMNS,
    DivergenceReport,
    QuadratureError,
    RadialProfile,
    _converged_shells,
    _integrands,
    divergence_report,
    log_h1_limit,
    log_h1_seminorm,
)

#: the radial quadrature's starting points, as the config default
QUAD_POINTS = 512


def ball_integral(p: RadialProfile, name: str, quad_points: int) -> float:
    """One level of the witness by its own quadrature, the reference route
    the table is tested against: ω·(plateau + ∫_{r_n}^1) of ∫|∇v_n|
    ("w11"), ∫|∇v_n|²/(1+v_n)² ("damped"), ∫v_n² ("mass") or ∫(1+v_n)²
    ("amplitude"); only the masses have a plateau."""
    plateau = dict(zip(("mass", "amplitude"), p.plateau_masses)).get(name, 0.0)
    damped, shell_columns = _integrands(p)
    columns, what = ((damped, ("damped",)) if name == "damped"
                     else (shell_columns, SHELL_COLUMNS))
    shell = _converged_shells(columns, [p.r_n], [1.0], quad_points, what)
    return p.sphere_measure * (plateau + float(shell[what.index(name), 0]))


# ------------------------------------------------------------- validation


def test_profile_rejects_rho_outside_open_interval():
    with pytest.raises(ValueError):
        RadialProfile(dimension=3, rho=0.6, n=1.0)   # needs rho < 0.5
    with pytest.raises(ValueError):
        RadialProfile(dimension=3, rho=0.5, n=1.0)   # endpoint excluded
    with pytest.raises(ValueError):
        RadialProfile(dimension=3, rho=0.0, n=1.0)
    with pytest.raises(ValueError):
        RadialProfile(dimension=3, rho=-0.1, n=1.0)


def test_profile_accepts_wider_rho_in_higher_dimension():
    p = RadialProfile(dimension=4, rho=0.9, n=8.0)   # (N-2)/2 = 1 here
    assert p.r_n == pytest.approx(9.0 ** (-1.0 / 0.9))


def test_profile_rejects_low_or_fractional_dimension():
    with pytest.raises(ValueError):
        RadialProfile(dimension=2, rho=0.25, n=1.0)
    with pytest.raises(ValueError):
        RadialProfile(dimension=3.5, rho=0.25, n=1.0)


def test_profile_rejects_a_dimension_whose_sphere_measure_overflows():
    # Γ(N/2) overflows double range from N = 344
    assert RadialProfile(MAX_DIMENSION, 0.25, 1.0).sphere_measure > 0.0
    with pytest.raises(ValueError, match=r"3\.\.343"):
        RadialProfile(dimension=MAX_DIMENSION + 1, rho=0.25, n=1.0)


def test_profile_rejects_negative_or_overflowing_level():
    with pytest.raises(ValueError):
        RadialProfile(dimension=3, rho=0.25, n=-1.0)
    with pytest.raises(ValueError):
        RadialProfile(dimension=3, rho=0.25, n=MAX_LEVEL + 1)


def test_sphere_measure_closed_forms():
    assert RadialProfile(3, 0.25, 1.0).sphere_measure == pytest.approx(
        4.0 * math.pi, rel=1e-15)
    assert RadialProfile(4, 0.9, 1.0).sphere_measure == pytest.approx(
        2.0 * math.pi ** 2, rel=1e-15)


# ---------------------------------------------------------- profile values


def test_zero_level_profile_is_trivial():
    p = RadialProfile(3, 0.25, 0.0)
    assert p.r_n == 1.0
    assert ball_integral(p, "w11", QUAD_POINTS) == 0.0
    assert log_h1_seminorm(p) == 0.0
    assert ball_integral(p, "damped", QUAD_POINTS) == 0.0
    assert ball_integral(p, "mass", QUAD_POINTS) == 0.0
    # amplitude of the zero field is the ball volume
    assert ball_integral(p, "amplitude", QUAD_POINTS) == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-15)


# ------------------------------------------------- frozen quadrature values


def test_w11_seminorm_frozen_values():
    assert ball_integral(RadialProfile(3, 0.25, 1.0), "w11", QUAD_POINTS) == \
        pytest.approx(2.1167401126946923, rel=1e-10)
    assert ball_integral(RadialProfile(3, 0.25, 12.0), "w11", QUAD_POINTS) == \
        pytest.approx(2.1844945553976665, rel=1e-10)


def test_w11_seminorm_requires_enough_points():
    p = RadialProfile(3, 0.25, 1.0)
    with pytest.raises(ValueError):
        ball_integral(p, "w11", 99)
    # the config's cap: past it the first pass has too many panels to settle
    with pytest.raises(ValueError):
        ball_integral(p, "w11", MAX_QUAD_POINTS + 1)
    # more points changes nothing once the doubling loop settles
    assert ball_integral(p, "w11", 2048) == pytest.approx(
        ball_integral(p, "w11", QUAD_POINTS), rel=1e-10)


@pytest.mark.parametrize("n", [1.0, 2.0, 3.0])
def test_w11_against_independent_trapezoid_oracle(n):
    """Dense log-spaced trapezoid rule as a second, unrelated route."""
    p = RadialProfile(3, 0.25, n)
    r = np.logspace(math.log10(p.r_n), 0.0, 400001)
    integrand = (p.rho * r ** (-p.rho - 1.0)
                 * np.exp(r ** (-p.rho) - 1.0) * r ** 2)
    oracle = p.sphere_measure * np.trapezoid(integrand, r)
    assert ball_integral(p, "w11", QUAD_POINTS) == pytest.approx(oracle, rel=1e-8)


def test_square_mass_against_trapezoid_oracle():
    p = RadialProfile(3, 0.25, 1.0)
    r = np.logspace(math.log10(p.r_n), 0.0, 400001)
    shell = np.trapezoid(np.expm1(r ** (-0.25) - 1.0) ** 2 * r ** 2, r)
    plateau = (math.e - 1.0) ** 2 * p.r_n ** 3 / 3.0
    oracle = p.sphere_measure * (plateau + shell)
    assert ball_integral(p, "mass", QUAD_POINTS) == pytest.approx(
        oracle, rel=1e-7)


# ------------------------------------------------------ closed-form limits


def test_log_h1_limit_is_half_pi_at_reference_parameters():
    assert log_h1_limit(3, 0.25) == pytest.approx(math.pi / 2.0, rel=1e-15)


def test_log_h1_gap_follows_closed_form():
    # relative gap to the limit is (1+n)^(-(N-2-2 rho)/rho)
    for n in (1.0, 12.0, 100.0):
        p = RadialProfile(3, 0.25, n)
        gap = 1.0 - log_h1_seminorm(p) / log_h1_limit(3, 0.25)
        assert gap == pytest.approx((1.0 + n) ** (-2.0), rel=1e-12)


@pytest.mark.parametrize("dim,rho,n", [
    (3, 0.25, 5.0), (3, 0.4, 3.0), (4, 0.9, 8.0),
    (5, 1.2, 2.0), (4, 0.5, 0.5),
])
def test_damped_route_matches_log_substitution_closed_form(dim, rho, n):
    p = RadialProfile(dim, rho, n)
    damped = ball_integral(p, "damped", QUAD_POINTS)
    assert damped == pytest.approx(log_h1_seminorm(p), rel=1e-8)


@pytest.mark.parametrize("dim,rho,n", [
    (3, 0.25, 4.0), (4, 0.9, 6.0), (5, 1.2, 3.0),
])
def test_coercivity_chain_pointwise(dim, rho, n):
    p = RadialProfile(dim, rho, n)
    w11 = ball_integral(p, "w11", QUAD_POINTS)
    damped = ball_integral(p, "damped", QUAD_POINTS)
    amp = ball_integral(p, "amplitude", QUAD_POINTS)
    assert w11 <= 0.5 * damped + 0.5 * amp


# ------------------------------------------------------------------ report


def test_divergence_report_reference_parameters():
    rep = divergence_report(3, 0.25, 12, QUAD_POINTS)
    assert isinstance(rep, DivergenceReport)
    assert rep.level == tuple(range(13))
    assert len(rep.w11_seminorm) == 13
    assert rep.passed
    assert rep.assertions == {
        "log_h1_bounded_by_limit": True,
        "w11_strictly_increasing": True,
        "coercivity_chain_holds": True,
        "identity_two_routes_agree": True,
    }
    assert rep.log_h1_limit == pytest.approx(math.pi / 2.0, rel=1e-15)
    # radii decrease, both seminorm columns increase monotonically
    assert all(b < a for a, b in zip(rep.radius, rep.radius[1:]))
    assert all(b > a for a, b in zip(rep.log_h1_seminorm,
                                     rep.log_h1_seminorm[1:]))
    assert all(b > a for a, b in zip(rep.w11_seminorm, rep.w11_seminorm[1:]))
    assert rep.w11_seminorm[0] == 0.0
    assert max(rep.identity_rel_error) <= 1e-8


def test_divergence_report_growth_ratio_at_reference_window():
    # within levels 0..12 the growth of the integrable-gradient seminorm
    # is still tiny; the blow-up only shows at much larger levels
    rep = divergence_report(3, 0.25, 12, QUAD_POINTS)
    ratio = rep.w11_seminorm[12] / rep.w11_seminorm[1]
    assert ratio == pytest.approx(1.0320088622578802, rel=1e-9)


def test_w11_divergence_reaches_two_orders_of_magnitude_by_level_30():
    base = ball_integral(RadialProfile(3, 0.25, 1.0), "w11", QUAD_POINTS)
    high = ball_integral(RadialProfile(3, 0.25, 30.0), "w11", QUAD_POINTS)
    assert high / base == pytest.approx(103.06750962434293, rel=1e-8)
    assert high / base >= 100.0


def test_divergence_report_higher_dimension():
    rep = divergence_report(4, 0.9, 6, QUAD_POINTS)
    assert rep.passed
    assert len(rep.level) == 7


TABLES = [(3, 0.25, 30), (4, 0.9, 6)]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("dim,rho,n_max", TABLES)
def test_damped_column_is_bitwise_the_per_level_route(dim, rho, n_max):
    """The batched whole-interval route keeps the bits of one call per level."""
    rep = divergence_report(dim, rho, n_max, QUAD_POINTS)
    damped, rels = [], []
    for n in range(n_max + 1):
        p = RadialProfile(dim, rho, float(n))
        d = ball_integral(p, "damped", QUAD_POINTS)
        h = log_h1_seminorm(p)
        damped.append(d)
        rels.append(abs(d - h) / max(h, 1e-300) if h > 0 else 0.0)
    assert _bits(rep.damped_gradient) == _bits(damped)
    assert _bits(rep.identity_rel_error) == _bits(rels)


@pytest.mark.parametrize("dim,rho,n_max", TABLES)
def test_cumulative_columns_match_single_level_values(dim, rho, n_max):
    """Summed shells agree with one whole-interval integral per level."""
    rep = divergence_report(dim, rho, n_max, QUAD_POINTS)
    for n in rep.level:
        p = RadialProfile(dim, rho, float(n))
        assert rep.w11_seminorm[n] == pytest.approx(
            ball_integral(p, "w11", QUAD_POINTS), rel=1e-12, abs=0.0)
        assert rep.square_mass[n] == pytest.approx(
            ball_integral(p, "mass", QUAD_POINTS), rel=1e-12, abs=0.0)
        assert rep.amplitude_mass[n] == pytest.approx(
            ball_integral(p, "amplitude", QUAD_POINTS), rel=1e-12, abs=0.0)


def _one_column(fn):
    """`fn` as the one column of a _converged_shells integrand."""
    return lambda r: (fn(r),)


def _reference_columns(p):
    """The shell integrands, one formula each, as the report once had them."""
    N, rho = p.dimension, p.rho
    return {"w11": lambda r: (rho * r ** (-rho - 1.0) * np.exp(r ** (-rho) - 1.0)
                              * r ** (N - 1)),
            "mass": lambda r: np.expm1(r ** (-rho) - 1.0) ** 2 * r ** (N - 1),
            "amplitude": lambda r: np.exp(r ** (-rho) - 1.0) ** 2 * r ** (N - 1)}


@pytest.mark.parametrize("dim,rho,n_max", TABLES + [(8, 1.0, 335)])
def test_fused_shell_columns_are_bitwise_the_one_column_route(dim, rho, n_max):
    """One pass over the shared powers keeps the bits of one pass per column."""
    rep = divergence_report(dim, rho, n_max, QUAD_POINTS)
    profiles = [RadialProfile(dim, rho, float(n)) for n in rep.level]
    r = np.array([p.r_n for p in profiles])
    mass, amplitude = np.array([p.plateau_masses for p in profiles]).T
    omega = profiles[0].sphere_measure
    for name, field, plateau in (("w11", rep.w11_seminorm, 0.0),
                                 ("mass", rep.square_mass, mass),
                                 ("amplitude", rep.amplitude_mass, amplitude)):
        fn = _reference_columns(profiles[0])[name]
        (shells,) = _converged_shells(_one_column(fn), r,
                                      np.concatenate(([r[0]], r[:-1])),
                                      QUAD_POINTS, (name,))
        assert _bits(field) == _bits(omega * (plateau + np.cumsum(shells)))


def test_non_finite_shell_raises_after_one_evaluation():
    calls = []

    def overflowing(r):
        calls.append(r.shape)
        return np.full(r.shape, np.inf)

    with pytest.raises(RuntimeError, match="did not settle"):
        _converged_shells(_one_column(overflowing), [0.25, 0.5], [0.5, 1.0],
                          QUAD_POINTS, ("shell",))
    assert len(calls) == 1

    # finite on the first pass, infinite on the refinement: |inf - x| is
    # within any relative tolerance of inf, yet the shell must not settle
    refined_calls = []

    def overflowing_when_refined(r):
        refined_calls.append(r.shape)
        return np.full(r.shape, 1.0 if len(refined_calls) == 1 else np.inf)

    with pytest.raises(RuntimeError, match="did not settle"):
        _converged_shells(_one_column(overflowing_when_refined), [0.5], [1.0],
                          QUAD_POINTS, ("shell",))
    assert len(refined_calls) == 2


def test_a_column_failing_on_the_first_pass_forms_no_later_column():
    formed = []

    def columns(r):
        formed.append("first")
        yield np.full(r.shape, np.inf)
        formed.append("second")
        yield np.ones(r.shape)

    with pytest.raises(QuadratureError, match="at 'first' 0$"):
        _converged_shells(columns, [0.25, 0.5], [0.5, 1.0], QUAD_POINTS,
                          ("'first'", "'second'"))
    assert formed == ["first"]


def test_a_later_column_fails_only_after_the_earlier_one_settles():
    formed = []

    def columns(r):
        panels = r.shape[1]
        formed.append(("first", panels))
        # moves between the first two passes, settles on the third
        yield np.full(r.shape, 1.0 if panels == 64 else 2.0)
        formed.append(("second", panels))
        yield np.full(r.shape, np.inf)

    with pytest.raises(QuadratureError, match="at 'second' 0$"):
        _converged_shells(columns, [0.5], [1.0], QUAD_POINTS,
                          ("'first'", "'second'"))
    assert formed == [("first", 64), ("second", 64), ("first", 128),
                      ("first", 256)]

    # an earlier column that fails later still names the error
    def earlier_fails_later(r):
        yield np.full(r.shape, 1.0 if r.shape[1] == 64 else np.inf)
        yield np.full(r.shape, np.inf)

    with pytest.raises(QuadratureError, match="at 'first' 0$"):
        _converged_shells(earlier_fails_later, [0.5], [1.0], QUAD_POINTS,
                          ("'first'", "'second'"))


def test_divergence_report_validation():
    with pytest.raises(ValueError):
        divergence_report(3, 0.25, 0, QUAD_POINTS)
    with pytest.raises(ValueError):
        divergence_report(3, 0.6, 12, QUAD_POINTS)
