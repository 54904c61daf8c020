"""Seeded input generators owned by the benchmark.

Nothing here imports from the test suite, so a test change cannot move a
workload.  Every generator draws from a `random.Random` built by `stream`,
which keys the stream on the seed plus a path such as (workload, round,
job).  The *shapes* a workload uses (sizes, dimensions, verbs) come from
fixed schedules in workloads.py; the seed only picks coefficients, monomials
and variable choices, so a held-out seed builds inputs of the same shapes.

Polynomials are produced in two plain-data forms that the benchmark can
evaluate without the package:

* a raw table {monomial: Fraction}, monomial = ((var, exp), ...) sorted by
  variable, which is exactly what `Expression(...)` accepts;
* a closed form `Power` = c * L^k with linear L, which reads as tiny text
  but expands to hundreds or thousands of terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


def stream(seed: int, *path) -> random.Random:
    """Independent deterministic stream for one (seed, path) pair."""
    return random.Random("/".join(str(part) for part in (seed, *path)))


def rational(rng: random.Random, num: int = 4, den: int = 4) -> Fraction:
    """Nonzero small rational."""
    while True:
        numerator = rng.randint(-num, num)
        if numerator:
            return Fraction(numerator, rng.randint(1, den))


def monomial(rng: random.Random, variables, degree: int):
    counts: dict[str, int] = {}
    for _ in range(degree):
        name = rng.choice(variables)
        counts[name] = counts.get(name, 0) + 1
    return tuple(sorted(counts.items()))


def raw_poly(rng: random.Random, variables, terms: int, max_degree: int) -> dict:
    """Exactly `terms` distinct monomials of degree <= max_degree."""
    variables = tuple(variables)
    out: dict = {}
    while len(out) < terms:
        degree = rng.randint(0, max_degree) if variables else 0
        out.setdefault(monomial(rng, variables, degree), rational(rng))
    return out


def small_poly(rng: random.Random, variables, max_degree: int = 3, max_terms: int = 3) -> dict:
    """Zero to max_terms terms; may come out zero."""
    return raw_poly(rng, variables, rng.randint(0, max_terms), max_degree)


def point(rng: random.Random, variables) -> dict:
    """A rational evaluation point; values avoid 0 and +-1 so that wrong
    exponents and dropped terms change the value."""
    values = {}
    for name in variables:
        while True:
            value = Fraction(rng.randint(-7, 7), rng.randint(2, 5))
            if value not in (0, 1, -1):
                values[name] = value
                break
    return values


def raw_text(poly: dict) -> str:
    """DSL text for a raw table (not canonical; any valid input will do)."""
    if not poly:
        return "0"
    parts = []
    for mono, coeff in poly.items():
        factors = [f"({coeff})" if coeff.denominator != 1 or coeff < 0 else str(coeff)]
        factors.extend(v if e == 1 else f"{v}^{e}" for v, e in mono)
        parts.append("*".join(factors))
    return " + ".join(parts)


# -- closed forms -------------------------------------------------------------


@dataclass(frozen=True)
class Linear:
    const: Fraction
    coeffs: tuple  # ((var, Fraction), ...)

    def text(self) -> str:
        parts = [str(self.const)]
        for name, a in self.coeffs:
            sign = " - " if a < 0 else " + "
            mag = -a if a < 0 else a
            parts.append(sign + (name if mag == 1 else f"{mag}*{name}"))
        return "".join(parts)

    def value(self, values) -> Fraction:
        return self.const + sum((a * values[name] for name, a in self.coeffs), Fraction(0))

    def slope(self, name) -> Fraction:
        for var, a in self.coeffs:
            if var == name:
                return a
        return Fraction(0)


@dataclass(frozen=True)
class Power:
    """c * L^k."""

    scale: Fraction
    base: Linear
    k: int

    def text(self) -> str:
        head = "-" if self.scale < 0 else ""
        return f"{head}{abs(self.scale)}*({self.base.text()})^{self.k}"

    def value(self, values) -> Fraction:
        return self.scale * self.base.value(values) ** self.k

    def partial_value(self, name, values) -> Fraction:
        """Value of d/d(name) at the point."""
        slope = self.base.slope(name)
        return self.scale * self.k * slope * self.base.value(values) ** (self.k - 1)


# Magnitudes of the slopes of a linear form, and of a power's scale.  The
# seed permutes them and picks signs, so coefficient sizes (and with them the
# cost of the arithmetic) do not depend on the seed.
_SLOPES = (Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2), Fraction(1), Fraction(2, 3))
_SCALES = (Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(2, 3))


def _signed(rng: random.Random, magnitude: Fraction) -> Fraction:
    return magnitude if rng.random() < 0.5 else -magnitude


def linear(rng: random.Random, variables) -> Linear:
    """1 + sum a_i x_i, the shape of (1 + z1 + 2*z2 - 1/3*z3 + z4)."""
    slopes = list(_SLOPES[: len(variables)])
    rng.shuffle(slopes)
    return Linear(Fraction(1), tuple((name, _signed(rng, a)) for name, a in zip(variables, slopes)))


def power(rng: random.Random, variables, k: int) -> Power:
    scale = _signed(rng, rng.choice(_SCALES))
    return Power(scale, linear(rng, variables), k)
