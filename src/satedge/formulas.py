"""Closed forms and lemma bounds, all in exact rational arithmetic.

Everything here is a pure function of small integers and Fractions.  The
recurring quantity Q = 4p^2 - 11p + 8 is the polynomial that shows up in the
construction modulus and in every density bound.  Decimal coefficients are
exact tenths; no binary floating point enters any computation.

The positivity polynomials and the density quadratic are evaluated at a
rational argument a/b with the denominators cleared: each homogenised integer
polynomial, for instance 10 b^5 f(a/b), is computed in ints and divided out
once, so every call builds one Fraction.  A float argument raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .constructions import modulus


class CheckFailedError(Exception):
    """An exact mathematical identity or bound failed to hold.

    Unlike an `assert`, the check is not stripped by `python -O`.
    """


def _q(p: int) -> int:
    return 4 * p * p - 11 * p + 8


def leading_coefficient(p: int) -> Fraction:
    """Coefficient of n^2 in the minimum saturating count at the jump.

    2(p-2)^2 / (p(4p^2-11p+8)); 2/33 at p=3.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    return Fraction(2 * (p - 2) ** 2, p * _q(p))


def exact_minimum_divisible(n: int, p: int) -> Fraction:
    """The exact minimum count when modulus(p) divides n.

    2(p-2)^2/(p Q) n^2 - (p-2)(2p-3)/Q n, an integer-valued rational.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    if n % modulus(p):
        raise ValueError(f"{n} is not divisible by modulus({p}) = {modulus(p)}")
    return leading_coefficient(p) * n * n - Fraction((p - 2) * (2 * p - 3), _q(p)) * n


def _check_h1_domain(p: int, x: int, y: int):
    """Refuses what constructions.h1 refuses, with its messages."""
    if p < 3 or x < 1 or y < 0:
        raise ValueError("need p >= 3, x >= 1, y >= 0")
    if not p * (p - 1) * (3 * p - 4) * x > y:
        raise ValueError(f"infeasible remainder: need p(p-1)(3p-4)x > y, got {p*(p-1)*(3*p-4)*x} <= {y}")


def h1_saturating_count(p: int, x: int, y: int) -> Fraction:
    """Saturating-edge count of h1(p, x, y) in closed form.

    Four terms in n = modulus(p) x + y:
        2(p-2)^2/(pQ) n^2 - (p-2)(2p-3)/Q n + 8(p-1)^3/(pQ) y^2 - 2(p-1)^2/Q y
    Equals the binomial form summed over the V parts.
    """
    _check_h1_domain(p, x, y)
    q = _q(p)
    n = modulus(p) * x + y
    return (
        Fraction(2 * (p - 2) ** 2, p * q) * n * n
        - Fraction((p - 2) * (2 * p - 3), q) * n
        + Fraction(8 * (p - 1) ** 3, p * q) * y * y
        - Fraction(2 * (p - 1) ** 2, q) * y
    )


def h1_saturating_count_binomial(p: int, x: int, y: int) -> int:
    """Same count as a sum of binomials over the V part sizes."""
    _check_h1_domain(p, x, y)
    v0 = 2 * (p - 1) * (p - 2) ** 2 * x + 2 * y
    vi = 4 * (p - 1) ** 2 * (p - 2) * x
    return v0 * (v0 - 1) // 2 + (p - 1) * (vi * (vi - 1) // 2)


def linear_bracket(n: int, p: int) -> tuple[Fraction, Fraction]:
    """Lower and upper linear terms bracketing the second-order correction.

    (-(p-2)(2p-3)/Q * n, -(p-2)(2p^2-5p+4)/(pQ) * n); the bounded-away
    constant slack is deliberately not modeled.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    q = _q(p)
    lower = -Fraction((p - 2) * (2 * p - 3), q) * n
    upper = -Fraction((p - 2) * (2 * p * p - 5 * p + 4), p * q) * n
    return lower, upper


def best_clique_edge_bound(n: int, p: int, r: Fraction, delta: Fraction) -> Fraction:
    """Guaranteed edges between the best packed clique and the remainder.

    (p(p-2)/(p-1) - p(2p^2-4p+1)/(2(p-1)) r) n - delta/(rn).
    """
    if r <= 0:
        raise ValueError("packing density r must be positive")
    return (
        (Fraction(p * (p - 2), p - 1) - Fraction(p * (2 * p * p - 4 * p + 1), 2 * (p - 1)) * r) * n
        - delta / (r * n)
    )


def attachment_fraction_bound(n: int, p: int, r: Fraction, delta: Fraction) -> Fraction:
    """Lower bound on z_{p-1} for a clique meeting best_clique_edge_bound.

    (p-2)/(p-1) - p(2p-3)/(2(p-1)) r - delta/(r n^2).
    """
    if r <= 0:
        raise ValueError("packing density r must be positive")
    return (
        Fraction(p - 2, p - 1)
        - Fraction(p * (2 * p - 3), 2 * (p - 1)) * r
        - delta / (r * n * n)
    )


def touching_saturating_bound(n: int, p: int, r: Fraction, delta: Fraction) -> Fraction:
    """Lower bound on saturating edges touching the packed vertices.

    ((p-2)/(p-1) r - p(p-2)/(2(p-1)) r^2) n^2 - (pr/2) n - delta.
    """
    return (
        (Fraction(p - 2, p - 1) * r - Fraction(p * (p - 2), 2 * (p - 1)) * r * r) * n * n
        - Fraction(p, 2) * r * n
        - delta
    )


def defect_factor(n: int, p: int, r: Fraction, delta: Fraction) -> Fraction:
    """The multiplier of delta in the remainder-side bound.

    F = delta/(2(p-1)r^2n^2) - (p-2)/((p-1)^2 r) + p(2p-3)/(2(p-1)^2) + 1/(2rn),
    always at least -(p-2)/((p-1)^2 r).
    """
    if r <= 0:
        raise ValueError("packing density r must be positive")
    f = (
        delta / (2 * (p - 1) * r * r * n * n)
        - Fraction(p - 2, (p - 1) ** 2) / r
        + Fraction(p * (2 * p - 3), 2 * (p - 1) ** 2)
        + Fraction(1, 2) / (r * n)
    )
    floor = -Fraction(p - 2, (p - 1) ** 2) / r
    if f < floor:
        raise CheckFailedError(f"defect factor {f} is below its floor {floor}")
    return f


def inside_saturating_bound(n: int, p: int, r: Fraction, delta: Fraction) -> Fraction:
    """Lower bound on saturating edges inside the remainder.

    (2(p-2)-p(2p-3)r)^2/(8(p-1)^3) n^2 - (2(p-2)-p(2p-3)r)/(4(p-1)) n
    + delta * defect_factor.
    """
    s = 2 * (p - 2) - p * (2 * p - 3) * r
    return (
        s * s * Fraction(n * n, 8 * (p - 1) ** 3)
        - s * Fraction(n, 4 * (p - 1))
        + delta * defect_factor(n, p, r, delta)
    )


def density_threshold_high(p: int) -> Fraction:
    """Packing density above which the touching-side bound already wins.

    2(p-2)(2p-3)/(p(4p^2-11p+8)); 2/11 at p=3.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    return Fraction(2 * (p - 2) * (2 * p - 3), p * _q(p))


def density_threshold_low(p: int) -> Fraction:
    """Packing density below which the remainder-side bound already wins.

    1/(40p(p-2)(2p-3)); 1/360 at p=3.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    return Fraction(1, 40 * p * (p - 2) * (2 * p - 3))


def _ratio(p: Fraction | int) -> tuple[int, int]:
    """p = a/b in lowest terms with b > 0.  A float is refused: it is a binary
    fraction, not the decimal it was written as."""
    if not isinstance(p, Rational):
        raise TypeError(f"exact forms take an int or Fraction, not {type(p).__name__}")
    return p.numerator, p.denominator


def _f10(a: int, b: int) -> int:
    """10 b^5 f(a/b) from the factored form of f, an integer."""
    product = a * (40 * a * a - 160 * a * b + 159 * b * b) * (4 * a * a - 11 * a * b + 8 * b * b)
    return product - 160 * (a - b) ** 3 * (a - 2 * b) ** 2


def positivity_poly_f(p: Fraction | int) -> Fraction:
    """p(4p^2-16p+15.9)(4p^2-11p+8) - 16(p-1)^3(p-2)^2, with 15.9 = 159/10."""
    a, b = _ratio(p)
    return Fraction(_f10(a, b), 10 * b ** 5)


def positivity_poly_f_expanded(p: Fraction | int) -> Fraction:
    """4p^4 - 32.4p^3 + 97.1p^2 - 128.8p + 64 with exact-tenth coefficients."""
    a, b = _ratio(p)
    return Fraction(
        40 * a ** 4 - 324 * a ** 3 * b + 971 * a * a * b * b - 1288 * a * b ** 3 + 640 * b ** 4,
        10 * b ** 4,
    )


def positivity_poly_g(p: Fraction | int) -> Fraction:
    """120p * positivity_poly_f(p) - (p-1)^3(4p^2+p-8)."""
    a, b = _ratio(p)
    return Fraction(12 * a * _f10(a, b) - b * (a - b) ** 3 * (4 * a * a + a * b - 8 * b * b), b ** 6)


def positivity_poly_g_expanded(p: Fraction | int) -> Fraction:
    """476p^5 - 3877p^4 + 11651p^3 - 15479p^2 + 7705p - 8."""
    a, b = _ratio(p)
    return Fraction(
        476 * a ** 5
        - 3877 * a ** 4 * b
        + 11651 * a ** 3 * b * b
        - 15479 * a * a * b ** 3
        + 7705 * a * b ** 4
        - 8 * b ** 5,
        b ** 5,
    )


def positivity_sweep(p_max: int) -> tuple[Fraction, Fraction]:
    """Check f(p) >= 0 and g(p) >= 0 for all integers 3 <= p <= p_max.

    Returns the minimum margins (min f, min g) over the sweep; raises if
    either polynomial dips below zero.  Uses scaled integer evaluation
    (10 f(p) and g(p) have integer coefficients).
    """
    if p_max < 3:
        raise ValueError("need p_max >= 3")
    min_f10 = None
    min_g = None
    for p in range(3, p_max + 1):
        f10 = 40 * p ** 4 - 324 * p ** 3 + 971 * p * p - 1288 * p + 640
        g = 476 * p ** 5 - 3877 * p ** 4 + 11651 * p ** 3 - 15479 * p * p + 7705 * p - 8
        if f10 < 0 or g < 0:
            raise CheckFailedError(f"positivity fails at p = {p}: 10f = {f10}, g = {g}")
        if min_f10 is None or f10 < min_f10:
            min_f10 = f10
        if min_g is None or g < min_g:
            min_g = g
    return Fraction(min_f10, 10), Fraction(min_g)


def _quadratic_coefficients(n: int, p: int) -> tuple[int, int, int]:
    """(A, B, C) with density_quadratic(n, p, r) = A r^2 - B r + C."""
    q = _q(p)
    return (
        p * p * q * q * n * n,
        4 * p * (p - 2) ** 2 * q * n * n + 2 * p * p * (p - 1) ** 2 * q * n,
        4 * p * (p - 2) ** 2 * q * n * n - 4 * p * (p - 1) ** 2 * (p - 2) * q * n,
    )


def density_quadratic(n: int, p: int, r: Fraction) -> Fraction:
    """The scaled combined lower bound as a quadratic in r.

    H(r) = p^2 Q^2 n^2 r^2 - (4p(p-2)^2 Q n^2 + 2p^2(p-1)^2 Q n) r
           + 4p(p-2)^2 Q n^2 - 4p(p-1)^2(p-2) Q n.
    Evaluated at r = a/b as (A a^2 - B a b + C b^2) / b^2.
    """
    lead, lin, const = _quadratic_coefficients(n, p)
    a, b = _ratio(r)
    return Fraction(lead * a * a - lin * a * b + const * b * b, b * b)


def density_quadratic_minimizer(n: int, p: int) -> Fraction:
    """r* = 2(p-2)^2/(pQ) + (p-1)^2/(Qn), the vertex of density_quadratic."""
    return Fraction(2 * (p - 2) ** 2 * n + p * (p - 1) ** 2, p * _q(p) * n)


def density_quadratic_floor(n: int, p: int) -> Fraction:
    """The closed-form minimum value of density_quadratic over r.

    16(p-1)^3(p-2)^2 n^2 - 8p(p-1)^3(p-2)(2p-3) n - p^2(p-1)^4.
    """
    return Fraction(
        16 * (p - 1) ** 3 * (p - 2) ** 2 * n * n
        - 8 * p * (p - 1) ** 3 * (p - 2) * (2 * p - 3) * n
        - p * p * (p - 1) ** 4
    )


def check_density_quadratic_identity(p: int, n: int) -> tuple[bool, Fraction, Fraction]:
    """Verify the quadratic's minimum identity at its exact vertex.

    Checks H(r*) equals density_quadratic_floor, that the derivative
    vanishes at r*, and that the quadratic is strictly convex.  Returns
    (holds, H(r*), floor).
    """
    if p < 3 or n < 1:
        raise ValueError("need p >= 3 and n >= 1")
    r_star = density_quadratic_minimizer(n, p)
    value = density_quadratic(n, p, r_star)
    floor = density_quadratic_floor(n, p)
    lead, lin, _ = _quadratic_coefficients(n, p)
    # H'(r*) = 2 A r* - B vanishes, cleared of r*'s denominator
    holds = value == floor and 2 * lead * r_star.numerator == lin * r_star.denominator and lead > 0
    return holds, value, floor


@dataclass(frozen=True)
class BoundSet:
    """Every density-parameterized bound evaluated at one (n, p, r, delta)."""

    p: int
    n: int
    r: Fraction
    delta: Fraction
    best_clique_edges: Fraction
    attachment_fraction: Fraction
    touching_saturating: Fraction
    inside_saturating: Fraction
    defect_multiplier: Fraction
    bracket_lower: Fraction
    bracket_upper: Fraction
    threshold_low: Fraction
    threshold_high: Fraction


def bound_set(n: int, p: int, r: Fraction, delta: Fraction) -> BoundSet:
    lower, upper = linear_bracket(n, p)
    return BoundSet(
        p=p,
        n=n,
        r=r,
        delta=delta,
        best_clique_edges=best_clique_edge_bound(n, p, r, delta),
        attachment_fraction=attachment_fraction_bound(n, p, r, delta),
        touching_saturating=touching_saturating_bound(n, p, r, delta),
        inside_saturating=inside_saturating_bound(n, p, r, delta),
        defect_multiplier=defect_factor(n, p, r, delta),
        bracket_lower=lower,
        bracket_upper=upper,
        threshold_low=density_threshold_low(p),
        threshold_high=density_threshold_high(p),
    )


def formula_table(p_min: int, p_max: int) -> list[dict[str, object]]:
    """Rows of (p, leading coefficient, thresholds, f(p), g(p)) for a range."""
    if p_min < 3 or p_max < p_min:
        raise ValueError("need 3 <= p_min <= p_max")
    rows = []
    for p in range(p_min, p_max + 1):
        rows.append(
            {
                "p": p,
                "leading_coefficient": leading_coefficient(p),
                "threshold_low": density_threshold_low(p),
                "threshold_high": density_threshold_high(p),
                "poly_f": positivity_poly_f(p),
                "poly_g": positivity_poly_g(p),
            }
        )
    return rows
