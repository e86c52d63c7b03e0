import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from satedge import constructions
from satedge.constructions import check_construction_edge_identity, h1, turan_defect, turan_number
from satedge.formulas import (
    attachment_fraction_bound,
    best_clique_edge_bound,
    bound_set,
    check_density_quadratic_identity,
    defect_factor,
    density_quadratic,
    density_quadratic_floor,
    density_quadratic_minimizer,
    density_threshold_high,
    density_threshold_low,
    exact_minimum_divisible,
    formula_table,
    h1_saturating_count,
    h1_saturating_count_binomial,
    inside_saturating_bound,
    leading_coefficient,
    linear_bracket,
    positivity_poly_f,
    positivity_poly_f_expanded,
    positivity_poly_g,
    positivity_poly_g_expanded,
    positivity_sweep,
    touching_saturating_bound,
)

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


@pytest.mark.parametrize(
    "p,expected",
    [
        (3, Fraction(2, 33)),
        (4, Fraction(1, 14)),
        (5, Fraction(18, 265)),
        (6, Fraction(8, 129)),
    ],
)
def test_leading_coefficient(p, expected):
    assert leading_coefficient(p) == expected


def test_quadratic_minimum_formula_small_cases():
    # closed form at the divisible sizes, cross-checked by brute force elsewhere
    assert exact_minimum_divisible(66, 3) == 246
    assert exact_minimum_divisible(132, 3) == 1020
    assert exact_minimum_divisible(336, 4) == 7944
    assert exact_minimum_divisible(1060, 5) == 75900


def test_quadratic_minimum_equals_explicit_expression():
    assert exact_minimum_divisible(66, 3) == Fraction(2, 33) * 66**2 - Fraction(3, 11) * 66


def test_exact_minimum_requires_divisibility():
    with pytest.raises(ValueError):
        exact_minimum_divisible(67, 3)


@pytest.mark.parametrize(
    "p,x,y,expected",
    [
        (3, 1, 0, 246),
        (3, 1, 1, 255),
        (3, 1, 2, 268),
        (3, 2, 0, 1020),
        (4, 1, 0, 7944),
    ],
)
def test_h1_closed_form_values(p, x, y, expected):
    assert h1_saturating_count(p, x, y) == expected


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=8),
)
def test_h1_closed_form_matches_binomial_form(p, x, y):
    assert h1_saturating_count(p, x, y) == h1_saturating_count_binomial(p, x, y)


@pytest.mark.parametrize("p,x,y", [(3, 1, 30), (3, 1, 31), (3, 0, 0), (3, 1, -1), (2, 1, 0)])
def test_h1_closed_and_binomial_forms_refuse_what_h1_refuses(p, x, y):
    with pytest.raises(ValueError) as refused:
        h1(p, x, y)
    for form in (h1_saturating_count, h1_saturating_count_binomial):
        with pytest.raises(ValueError, match="^" + re.escape(str(refused.value)) + "$"):
            form(p, x, y)


def test_linear_bracket_cofficients_at_p3():
    lower, upper = linear_bracket(10**6, 3)
    assert lower == Fraction(-3, 11) * 10**6
    assert upper == Fraction(-7, 33) * 10**6
    assert lower < upper


def test_linear_bracket_ordered_for_all_p():
    n = 10**6
    for p in range(3, 120):
        lower, upper = linear_bracket(n, p)
        assert lower < upper < 0


def test_density_thresholds():
    assert density_threshold_high(3) == Fraction(2, 11)
    assert density_threshold_low(3) == Fraction(1, 360)
    for p in range(3, 200):
        assert 0 < density_threshold_low(p) < density_threshold_high(p) < Fraction(1, p)


def test_positivity_margins():
    assert positivity_poly_f(3) == Fraction(7, 10)
    assert positivity_poly_g(3) == 4
    fmin, gmin = positivity_sweep(100)
    assert fmin == Fraction(7, 10)
    assert gmin == 4


@settings(max_examples=150, deadline=None)
@given(rationals)
def test_positivity_polynomials_expand_correctly(p):
    assert positivity_poly_f(p) == positivity_poly_f_expanded(p)
    assert positivity_poly_g(p) == positivity_poly_g_expanded(p)


def test_positivity_polynomials_relation():
    # g = 120*p*f - (p-1)^3 (4p^2 + p - 8), as polynomials
    for p in range(-30, 31):
        assert positivity_poly_g(p) == 120 * p * positivity_poly_f(p) - (p - 1) ** 3 * (
            4 * p * p + p - 8
        )


def test_density_quadratic_identity_sweep():
    for p in range(3, 51):
        for n in (1, 2, 66, 10**6):
            holds, value, floor = check_density_quadratic_identity(p, n)
            assert holds
            assert value == floor


def test_density_quadratic_minimizer_is_the_vertex():
    for p in (3, 4, 7):
        for n in (10, 66, 1000):
            r_star = density_quadratic_minimizer(n, p)
            eps = Fraction(1, 997)
            at = density_quadratic(n, p, r_star)
            assert at == density_quadratic_floor(n, p)
            assert density_quadratic(n, p, r_star + eps) > at
            assert density_quadratic(n, p, r_star - eps) > at


def test_bound_chain_at_the_construction_point():
    # p=3, n=66, r=2/33, delta=0: every bound is tight against known values
    n, p = 66, 3
    r = Fraction(2, 33)
    delta = turan_defect(n, p)
    assert delta == 0
    assert best_clique_edge_bound(n, p, r, delta) == 78
    assert attachment_fraction_bound(n, p, r, delta) == Fraction(4, 11)
    assert touching_saturating_bound(n, p, r, delta) == 114
    assert inside_saturating_bound(n, p, r, delta) <= 132


def test_defect_factor_floor():
    for p in (3, 4, 5):
        for n in (50, 66, 1000):
            delta = turan_defect(n, p)
            for r in (Fraction(1, n), Fraction(1, 20), Fraction(1, p)):
                f = defect_factor(n, p, r, delta)
                assert f >= -Fraction(p - 2, (p - 1) ** 2) / r


def test_defect_factor_floor_is_checked_under_optimize():
    # a huge negative delta pushes F below its floor; `python -O` strips asserts
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "from fractions import Fraction\n"
        "from satedge.formulas import CheckFailedError, defect_factor\n"
        "try:\n"
        "    print(defect_factor(10, 3, Fraction(1, 10), Fraction(-10**6)))\n"
        "except CheckFailedError:\n"
        "    print('CheckFailedError')\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "CheckFailedError"


def test_bound_set_fields(h1_310):
    n = h1_310.graph.n
    bs = bound_set(n, 3, Fraction(2, 33), turan_defect(n, 3))
    assert bs.n == n and bs.p == 3
    assert bs.touching_saturating == 114
    assert bs.best_clique_edges == 78
    assert bs.attachment_fraction == Fraction(4, 11)
    assert bs.threshold_high == Fraction(2, 11)


def test_formula_table_rows():
    rows = formula_table(3, 6)
    assert [row["p"] for row in rows] == [3, 4, 5, 6]
    assert rows[0]["leading_coefficient"] == Fraction(2, 33)
    assert rows[0]["poly_f"] == Fraction(7, 10)
    assert rows[0]["poly_g"] == 4


def test_turan_defect_small_periodic():
    # delta vanishes exactly at multiples of p-1
    for p in range(3, 9):
        for k in range(1, 5):
            assert turan_defect(k * (p - 1), p) == 0
        assert turan_defect(k * (p - 1) + 1, p) > 0
        assert turan_number(12, p) == Fraction(p - 2, 2 * (p - 1)) * 144 - turan_defect(12, p)


# The Fraction expressions that the integer kernels replaced, kept as the
# reference: two equally wrong rewrites would still agree with each other.
def fraction_poly_f(p):
    p = Fraction(p)
    return p * (4 * p * p - 16 * p + Fraction(159, 10)) * (4 * p * p - 11 * p + 8) - 16 * (p - 1) ** 3 * (p - 2) ** 2


def fraction_poly_f_expanded(p):
    p = Fraction(p)
    return 4 * p**4 - Fraction(162, 5) * p**3 + Fraction(971, 10) * p * p - Fraction(644, 5) * p + 64


def fraction_poly_g(p):
    p = Fraction(p)
    return 120 * p * fraction_poly_f(p) - (p - 1) ** 3 * (4 * p * p + p - 8)


def fraction_poly_g_expanded(p):
    p = Fraction(p)
    return 476 * p**5 - 3877 * p**4 + 11651 * p**3 - 15479 * p * p + 7705 * p - 8


def fraction_density_quadratic(n, p, r):
    q = 4 * p * p - 11 * p + 8
    return (
        p * p * q * q * n * n * r * r
        - (4 * p * (p - 2) ** 2 * q * n * n + 2 * p * p * (p - 1) ** 2 * q * n) * r
        + 4 * p * (p - 2) ** 2 * q * n * n
        - 4 * p * (p - 1) ** 2 * (p - 2) * q * n
    )


def fraction_edge_identity(n, p):
    return Fraction(turan_number(n, p)) == Fraction((p - 2) * n * n, 2 * (p - 1)) - turan_defect(n, p)


def seeded_rationals(count, seed):
    """Signed rationals with denominators up to 10^12, some near zero."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        den = rng.choice([rng.randrange(1, 50), rng.randrange(1, 10**12)])
        out.append(Fraction(rng.randrange(-(10**14), 10**14), den))
    return out


POLYNOMIALS = [
    (positivity_poly_f, fraction_poly_f),
    (positivity_poly_f_expanded, fraction_poly_f_expanded),
    (positivity_poly_g, fraction_poly_g),
    (positivity_poly_g_expanded, fraction_poly_g_expanded),
]


@pytest.mark.parametrize("kernel,reference", POLYNOMIALS, ids=lambda f: getattr(f, "__name__", ""))
def test_polynomials_match_fraction_reference(kernel, reference):
    points = list(range(-100, 101)) + seeded_rationals(500, seed=21)
    for p in points:
        value = kernel(p)
        assert type(value) is Fraction
        assert value == reference(p), p


@pytest.mark.parametrize("kernel", [f for f, _ in POLYNOMIALS], ids=lambda f: f.__name__)
def test_polynomials_refuse_floats(kernel):
    # Fraction(0.1) would silently be 3602879701896397/2^55, not 1/10
    for p in (0.1, 3.0, float("nan")):
        with pytest.raises(TypeError):
            kernel(p)


def test_density_quadratic_matches_fraction_reference():
    rs = seeded_rationals(100, seed=22) + [Fraction(k, 7) for k in range(-3, 4)]
    for p in (3, 4, 7, 20):
        for n in (1, 2, 66, 10**6):
            rs_here = rs + [density_quadratic_minimizer(n, p)]
            for r in rs_here:
                assert density_quadratic(n, p, r) == fraction_density_quadratic(n, p, r), (n, p, r)
    with pytest.raises(TypeError):
        density_quadratic(66, 3, 0.06)


def test_density_quadratic_minimizer_matches_fraction_reference():
    for p in range(3, 51):
        for n in (1, 2, 66, 10**6):
            q = 4 * p * p - 11 * p + 8
            want = Fraction(2 * (p - 2) ** 2, p * q) + Fraction((p - 1) ** 2, q * n)
            assert density_quadratic_minimizer(n, p) == want


def test_edge_identity_matches_fraction_reference():
    for p in range(3, 13):
        for n in range(0, 200):
            assert check_construction_edge_identity(n, p) is fraction_edge_identity(n, p) is True


def test_edge_identity_rejects_a_wrong_defect(monkeypatch):
    # the cross-multiplied form still compares against turan_defect
    monkeypatch.setattr(constructions, "turan_defect", lambda n, p: Fraction(1, 3))
    assert not check_construction_edge_identity(12, 3)


def test_formula_table_matches_fraction_reference():
    rows = formula_table(3, 60)
    for row in rows:
        p = row["p"]
        assert row == {
            "p": p,
            "leading_coefficient": Fraction(2 * (p - 2) ** 2, p * (4 * p * p - 11 * p + 8)),
            "threshold_low": Fraction(1, 40 * p * (p - 2) * (2 * p - 3)),
            "threshold_high": Fraction(2 * (p - 2) * (2 * p - 3), p * (4 * p * p - 11 * p + 8)),
            "poly_f": fraction_poly_f(p),
            "poly_g": fraction_poly_g(p),
        }
        assert [type(v) for v in row.values()] == [int] + [Fraction] * 5
