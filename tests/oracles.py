"""Independent oracles the tests compare the implementation against.

These deliberately take different computational routes: permutation signs by
brute-force inversion counting, the wedge by the shuffle-sum over index
splits, expression identities by exact evaluation at random rational
points, parsed text by ring operations on its parse tree, the canonical
term order by sorting exponent vectors, printed text term by term from
that order and Fractions, the differentials by a partial along
every direction, the covariant differential and the soldering form by
visiting every index slot of their tables, the pullback of a form along
a change of chart by the chain rule with Jacobian minors, a bundle table
under a fibre-only change of chart by the affine law on {monomial: Fraction}
dicts, and a bundle table under a triangular change of base chart by the
Jacobian of its back-substituted inverse.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

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


def differential_by_slots(form) -> dict:
    """d of a form as {index: {monomial: Fraction}}: every coefficient's
    partial along every direction of the form's kind, zero or not, added at
    its sorted slot with the sign of permutation_sign (none on a repeat)."""
    names = fc.base_chart(form.chart).coords
    limit = form.chart.dim_leaf if isinstance(form, fc.LeafwiseForm) else form.chart.dim
    parts = {}
    for index, expr in form.components.items():
        for direction in range(limit):
            partial = dict_partial(dict(expr.terms), names[direction])
            sign = permutation_sign((direction,) + index)
            if sign:
                slot = parts.setdefault(tuple(sorted((direction,) + index)), ([], []))
                slot[sign < 0].append(partial)
    out = {index: dict_sum(plus, minus) for index, (plus, minus) in parts.items()}
    return {index: value for index, value in out.items() if value}


def schoolbook_product(a, b) -> dict:
    """a * b as {monomial: Fraction}, one Fraction product per pair of terms.

    Monomials are merged as exponent dicts and the sums collected in a dict,
    independently of the ring's own product code.
    """
    return dict_product(dict(a.terms), dict(b.terms))


def canonical_order(expr) -> list:
    """The monomials of expr in descending graded lex order.

    Each monomial becomes its total degree and its vector of exponents over
    every variable name of expr, in sorted name order, and the monomials
    are sorted by that pair, largest first.
    """
    monomials = [mono for mono, _ in expr.terms]
    names = sorted({name for mono in monomials for name, _ in mono})

    def degree_and_vector(mono):
        exponents = dict(mono)
        vector = [exponents.get(name, 0) for name in names]
        return sum(vector), vector

    return sorted(monomials, key=degree_and_vector, reverse=True)


def printed(expr) -> str:
    """The canonical text of expr, term by term in canonical_order.

    Each coefficient is a Fraction; its magnitude is written unless it is 1
    on a nonconstant term, and each name with ^e unless e is 1.  The lead
    term takes a bare '-', with "1*" before a powered first factor (-z1^2
    would read as (-z1)^2); later terms are joined by " + " or " - ".
    """
    coefficients = dict(expr.terms)
    parts = []
    for mono in canonical_order(expr):
        coeff = coefficients[mono]
        factors = [name if e == 1 else f"{name}^{e}" for name, e in sorted(mono)]
        if abs(coeff) != 1 or not mono:
            factors.insert(0, str(abs(coeff)))
        elif coeff < 0 and not parts and "^" in factors[0]:
            factors.insert(0, "1")
        body = "*".join(factors)
        if parts:
            parts.append((" - " if coeff < 0 else " + ") + body)
        else:
            parts.append("-" + body if coeff < 0 else body)
    return "".join(parts) or "0"


# -- ring operations on {monomial: Fraction} dicts --------------------------------
#
# Each takes and returns plain dicts of nonzero Fraction coefficients, one
# Fraction operation per step, with no shared denominator and no gcd bound:
# the reference the int-numerator layout of Expression is checked against.


def _merge(mono_a, mono_b) -> tuple:
    exponents = dict(mono_a)
    for name, exponent in mono_b:
        exponents[name] = exponents.get(name, 0) + exponent
    return tuple(sorted(exponents.items()))


def _collect(pairs) -> dict:
    total = {}
    for key, coeff in pairs:
        total[key] = total.get(key, 0) + Fraction(coeff)
    return {key: coeff for key, coeff in total.items() if coeff}


def dict_from_entries(entries) -> dict:
    """The constructor: (monomial in any order, scalar) pairs summed."""
    return _collect((tuple(sorted(mono)), coeff) for mono, coeff in entries)


def dict_sum(parts, minus=()) -> dict:
    pairs = [item for part in parts for item in part.items()]
    pairs += [(key, -coeff) for part in minus for key, coeff in part.items()]
    return _collect(pairs)


def dict_product(a, b) -> dict:
    return _collect(
        (_merge(mono_a, mono_b), coeff_a * coeff_b)
        for mono_a, coeff_a in a.items()
        for mono_b, coeff_b in b.items()
    )


def dict_power(a, exponent) -> dict:
    result = {(): Fraction(1)}
    for _ in range(exponent):
        result = dict_product(result, a)
    return result


def dict_partial(a, variable) -> dict:
    pairs = []
    for mono, coeff in a.items():
        exponents = dict(mono)
        power = exponents.pop(variable, 0)
        if power:
            if power > 1:
                exponents[variable] = power - 1
            pairs.append((tuple(sorted(exponents.items())), coeff * power))
    return _collect(pairs)


def dict_substitute(a, bindings) -> dict:
    """Simultaneous substitution of {monomial: Fraction} dicts for names."""
    total = {}
    for mono, coeff in a.items():
        term = {(): coeff}
        for name, exponent in mono:
            factor = bindings.get(name, {((name, 1),): Fraction(1)})
            term = dict_product(term, dict_power(factor, exponent))
        total = dict_sum([total, term])
    return total


# -- the bundle-layer tables slot by slot ---------------------------------------
#
# Each visits every index slot of its table, empty or not, with the dict
# helpers above, and returns {key: {monomial: Fraction}} without the slots
# that come out zero: the dense formulas the sparse walks are checked against.


def table_terms(table) -> dict:
    """A coefficient table as {key: {monomial: Fraction}}."""
    return {key: dict(expr.terms) for key, expr in table.coefficients.items()}


def covariant_differential_by_slots(connection, section) -> dict:
    """nabla s = j1(s) - Gamma(s) at every (fibre, leaf) slot: the leaf
    partial of the section's component minus the connection coefficient with
    the components substituted for the fibre variables.  With the empty
    connection this is the jet prolongation."""
    chart = section.chart
    components = [dict(c.terms) for c in section.components]
    bindings = dict(zip(chart.fibre_coords, components))
    out = {}
    for fibre in range(chart.fibre_dim):
        for leaf, name in enumerate(chart.base.leaf_coords):
            coeff = dict(connection.coefficient(fibre, leaf).terms)
            value = dict_sum(
                [dict_partial(components[fibre], name)], [dict_substitute(coeff, bindings)]
            )
            if value:
                out[(fibre, leaf)] = value
    return out


def soldering_by_slots(split, difference) -> dict:
    """The soldering form at every (fibre, base position) slot: Q[f][l] on a
    leaf slot, -sum over leaves l of B[l][t] * Q[f][l] on a transverse one."""
    chart = difference.chart
    out = {}
    for fibre in range(chart.fibre_dim):
        for column in range(chart.dim):
            if column < chart.dim_leaf:
                value = dict(difference.coefficient(fibre, column).terms)
            else:
                products = [
                    dict_product(
                        dict(split.coefficient(leaf, column).terms),
                        dict(difference.coefficient(fibre, leaf).terms),
                    )
                    for leaf in range(chart.dim_leaf)
                ]
                value = dict_sum([], products)
            if value:
                out[(fibre, column)] = value
    return out


def parse_tree_value(tree) -> fc.Expression:
    """The value of a parse tree, built by Expression ring operations.

    This is the route the parser used to take: a product per '*', a power per
    '^', a negation per '-'.  A tree is (first_term, [(sign, term), ...]);
    a term is a list of factors (minus_signs, base, power or None); a base is
    ("num", numerator, denominator or None), ("var", name) or
    ("group", tree).
    """
    first, rest = tree
    value = _term_value(first)
    for sign, term in rest:
        value = value + _term_value(term) if sign == "+" else value - _term_value(term)
    return value


def _term_value(factors) -> fc.Expression:
    value = fc.Expression.one()
    for minus_signs, base, power in factors:
        if base[0] == "num":
            factor = fc.Expression.constant(Fraction(base[1], base[2] or 1))
        elif base[0] == "var":
            factor = fc.Expression.variable(base[1])
        else:
            factor = parse_tree_value(base[1])
        if minus_signs % 2:
            factor = -factor
        if power is not None:
            factor = factor**power
        value = value * factor
    return value


def pullback(form, components):
    """The pullback of a form along the chart map z -> components, where
    components[j] is the new value of the chart's j-th base coordinate.

    Each coefficient is substituted, and dz^I becomes the sum over target
    indices J of the Jacobian minor det(d components[I] / d z_J) dz^J, each
    minor expanded over the permutations of J from Expression.partial.  A
    LeafwiseForm is pulled back by the leaf block of the Jacobian only,
    which is its pullback when the map is adapted.
    """
    names = fc.base_chart(form.chart).coords
    limit = form.chart.dim_leaf if isinstance(form, fc.LeafwiseForm) else form.chart.dim
    bindings = dict(zip(names, components))
    jacobian = [[components[i].partial(names[j]) for j in range(limit)] for i in range(limit)]
    out = {}
    for index, coefficient in form.components.items():
        pulled = coefficient.substitute(bindings)
        for target in itertools.combinations(range(limit), form.degree):
            minor = fc.Expression.zero()
            for columns in itertools.permutations(target):
                term = fc.Expression.constant(permutation_sign(columns))
                for row, column in zip(index, columns):
                    term = term * jacobian[row][column]
                minor = minor + term
            out[target] = out.get(target, fc.Expression.zero()) + pulled * minor
    return type(form)(form.chart, form.degree, out)


def fibre_shift(table, shift):
    """A table under the fibre-only change of bundle chart u' = u + g(z),
    where shift[i] is g^i over the base coordinates and the base map is the
    identity.

    A connection or a leafwise connection takes the affine law with
    du'/du = 1 at every (fibre, column) slot of its kind, stored or not:
    Gamma'^i_l(z, u') = Gamma^i_l(z, u' - g(z)) + d_l g^i(z).  A soldering
    form is a tensor and takes the first term only.  A splitting lives on
    the base, which the change leaves alone, so it is returned as it is.
    """
    if isinstance(table, fc.Splitting):
        return table
    chart = table.chart
    names = chart.base.coords
    columns = chart.dim_leaf if isinstance(table, fc.LeafwiseConnection) else chart.dim
    affine = isinstance(table, (fc.Connection, fc.LeafwiseConnection))
    shift = [dict(g.terms) for g in shift]
    back = {
        name: dict_sum([{((name, 1),): Fraction(1)}], [g])
        for name, g in zip(chart.fibre_coords, shift)
    }
    out = {}
    for fibre in range(chart.fibre_dim):
        for column in range(columns):
            value = dict_substitute(dict(table.coefficient(fibre, column).terms), back)
            if affine:
                value = dict_sum([value, dict_partial(shift[fibre], names[column])])
            if value:
                out[(fibre, column)] = fc.Expression(value)
    return type(table)(chart, out)


def triangular_inverse(names, components):
    """The inverse of the base map z -> z', where components[j] is z'_j over
    the coordinates names, for a triangular map z'_j = z_j + f_j in which
    each f_j mentions only coordinates that some other component solves
    first.  Back-substitution: z_j = z'_j - f_j(z), with the z already
    solved substituted into f_j; the primed coordinates reuse the names."""
    solved = {}
    for _ in names:
        for name, value in zip(names, components):
            rest = value - fc.Expression.variable(name)
            if name not in solved and rest.variables() <= solved.keys():
                solved[name] = fc.Expression.variable(name) - rest.substitute(solved)
    return [solved[name] for name in names]


def bundle_change(chart, components, shift):
    """The change z' = components(z), u' = u + g(z) of a bundle chart, as a
    function that moves a table over the chart or a splitting over its base:
    components[j] is the new value of the j-th base coordinate, as in
    pullback, and shift[i] is g^i over the base coordinates.

    With k = dz/dz' and j = dz'/dz, every coefficient, k, j and d g
    evaluated along the inverse map (triangular_inverse, and u = u' - g(z)),
    and sums over repeated indices, mu over every base position, a and b
    over the leaf ones and t and tau over the transverse ones:
    - a connection: Gamma'^i_l = (Gamma^i_mu + d_mu g^i) k^mu_l;
    - a leafwise connection: the same sum over leaf mu only, since an
      adapted map has k^t_l = 0 for every leaf l;
    - a splitting: B'^a_tau = j^a_b (B^b_t k^t_tau - k^b_tau), from
      s(dz'^a) = j^a_b s(dz^b) = j^a_b (dz^b - B^b_t dz^t) written over the
      dz', whose leaf part j^a_b k^b_l is the identity;
    - a soldering form, a tensor: Delta'^i_l = Delta^i_mu k^mu_l, with no
      d g term.
    """
    base = chart.base
    names, leaf, zero = base.coords, base.dim_leaf, fc.Expression.zero()
    inverse = triangular_inverse(names, components)
    along = dict(zip(names, inverse))
    k = [[z.partial(name) for name in names] for z in inverse]
    j = [[z.partial(name).substitute(along) for name in names] for z in components]
    dg = [[g.partial(name).substitute(along) for name in names] for g in shift]
    back = along | {
        name: fc.Expression.variable(name) - g.substitute(along)
        for name, g in zip(chart.fibre_coords, shift)
    }
    transverse = range(leaf, base.dim)

    def change(table):
        moved = {key: value.substitute(back) for key, value in table.coefficients.items()}
        out = {}
        if isinstance(table, fc.Splitting):
            for a in range(leaf):
                for tau in transverse:
                    total = zero
                    for b in range(leaf):
                        image = sum(
                            (moved.get((b, t), zero) * k[t][tau] for t in transverse), -k[b][tau]
                        )
                        total = total + j[a][b] * image
                    out[(a, tau)] = total
        else:
            affine = not isinstance(table, fc.SolderingForm)
            columns = range(leaf if isinstance(table, fc.LeafwiseConnection) else base.dim)
            for i in range(chart.fibre_dim):
                for column in columns:
                    out[(i, column)] = sum(
                        (
                            (moved.get((i, mu), zero) + (dg[i][mu] if affine else zero))
                            * k[mu][column]
                            for mu in columns
                        ),
                        zero,
                    )
        return type(table)(table.chart, {key: c for key, c in out.items() if not c.is_zero()})

    return change
