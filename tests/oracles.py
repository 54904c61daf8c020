"""Independent oracles the tests compare the implementation against.

These deliberately take different computational routes: permutation signs by
brute-force inversion counting, the wedge by the shuffle-sum over index
splits, and expression identities by exact evaluation at random rational
points.
"""

from __future__ import annotations

import itertools

import folicalc as fc


def permutation_sign(sequence) -> int:
    """Sign of the permutation sorting the sequence; 0 on a repeat."""
    sign = 1
    for i in range(len(sequence)):
        for j in range(i + 1, len(sequence)):
            if sequence[i] == sequence[j]:
                return 0
            if sequence[i] > sequence[j]:
                sign = -sign
    return sign


def wedge_by_shuffles(a, b):
    """Wedge computed as the shuffle sum over splits of each target index."""
    if isinstance(a, fc.LeafwiseForm):
        limit = a.chart.dim_leaf
    else:
        limit = a.chart.dim
    degree = a.degree + b.degree
    components = {}
    for target in itertools.combinations(range(limit), degree):
        total = fc.Expression.zero()
        for picks in itertools.combinations(range(degree), a.degree):
            left = tuple(target[p] for p in picks)
            right = tuple(target[p] for p in range(degree) if p not in picks)
            f = a.components.get(left)
            g = b.components.get(right)
            if f is None or g is None:
                continue
            sign = permutation_sign(left + right)
            term = f * g
            total = total + (term if sign > 0 else -term)
        if not total.is_zero():
            components[target] = total
    return type(a)(a.chart, degree, components)


def schoolbook_product(a, b) -> dict:
    """a * b as {monomial: Fraction}, one Fraction product per pair of terms.

    Monomials are merged as exponent dicts and the sums collected in a dict,
    independently of the ring's own product code.
    """
    total = {}
    for mono_a, coeff_a in a.terms:
        for mono_b, coeff_b in b.terms:
            exponents = dict(mono_a)
            for name, exponent in mono_b:
                exponents[name] = exponents.get(name, 0) + exponent
            key = tuple(sorted(exponents.items()))
            total[key] = total.get(key, 0) + coeff_a * coeff_b
    return {key: coeff for key, coeff in total.items() if coeff}
