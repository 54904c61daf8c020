"""The four workloads: fixed shape schedules, seeded inputs, checked jobs.

A workload hands out rounds.  Every round has the same job shapes in the
same order; the seed (and the round number) only choose the values, so the
quantiles of a run do not depend on where it stops, and a held-out seed
builds the same shapes.  Inputs for a round are generated before any of its
jobs is timed.

A job is `run()` (the timed part, which calls folicalc) plus `check(output)`
(untimed, returns None or the reason it failed) and `key(output)` (the text
compared between the traced and untraced passes).  Jobs never filter their
inputs for known defects; whatever fails is counted.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil

import folicalc as fc
import folicalc.cli

import checks
import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB_CAP_S = 30.0
Expression = fc.Expression


class Job:
    __slots__ = ("desc", "run", "check", "key")

    def __init__(self, desc, run, check, key=repr):
        self.desc = desc
        self.run = run
        self.check = check
        self.key = key


def _verdicts(text_out: str, json_out: str):
    """Cross-read a report's text and JSON forms; (error, checks)."""
    data = json.loads(json_out)
    found = data["checks"]
    lines = text_out.split("\n") if text_out else []
    if len(lines) != len(found):
        return f"text has {len(lines)} lines, JSON {len(found)} checks", found
    for line, entry in zip(lines, found):
        expected = f"[{entry['status']}] {entry['name']}"
        if entry["payload"]:
            expected += f": {entry['payload']}"
        if line != expected:
            return f"text/JSON disagree at {entry['name']!r}", found
    return None, found


def _mutate(text: str, kind: str):
    """An early grammar error and the (line, column) it must be reported at."""
    if kind == "double_brace":
        at = text.index("{") + 1
        new = text[:at] + "{" + text[at:]
    elif kind == "missing_equals":
        eq = text.index(" = ")
        new = text[: eq + 1] + text[eq + 3 :]
        at = eq + 1
    else:  # double_bracket
        at = text.index("[") + 1
        new = text[:at] + "[" + text[at:]
    line = text.count("\n", 0, at) + 1
    column = at - (text.rfind("\n", 0, at) + 1) + 1
    return new, (line, column)


def _parse_error_job(desc, text, where):
    def run():
        try:
            fc.parse_document(text)
        except fc.ParseError as error:
            return (error.line, error.column, error.message)
        return None

    def check(output):
        if output is None:
            return "malformed document parsed without error"
        if output[:2] != where:
            return f"ParseError at {output[0]}:{output[1]}, expected {where[0]}:{where[1]}"
        return None

    return Job(desc, run, check)


def _coords(dim):
    return tuple(f"z{i + 1}" for i in range(dim))


# -- text ------------------------------------------------------------------------


class TextWorkload:
    """Large canonical documents: parse, print, one light verb; plus mutated
    copies with an early grammar error."""

    name = "text"
    # Terms in the dominant coefficient of each valid job: a geometric ramp
    # over 70..300 terms, then one job at 500 and one at 1000.  Parsing is
    # quadratic today, so the 1000-term job is ~40% of a round.
    SIZES = [round(70 * (300 / 70) ** (i / 29)) for i in range(30)] + [500, 1000]
    # Valid jobs whose text is also mutated, and how.
    MUTATED = {2: "double_brace", 9: "missing_equals", 15: "double_bracket",
               21: "double_brace", 27: "missing_equals", 29: "double_bracket",
               30: "double_brace", 31: "missing_equals"}
    trace_rounds = 1

    def __init__(self, seed, out_dir):
        self.seed = seed
        base = fc.AdaptedChart(("z1", "z2"), ("z3", "z4"))
        self.chart = fc.BundleChart(base, ("u1",))
        self.variables = ("u1", "z1", "z2", "z3", "z4")

    def _document(self, rng, terms):
        chart, variables = self.chart, self.variables
        base_vars = variables[1:]

        def poly(n, degree, names=variables):
            return Expression(gen.raw_poly(rng, names, n, degree))

        raws = {
            "alpha": {(0,): gen.raw_poly(rng, variables, terms, 12),
                      (1,): gen.raw_poly(rng, variables, 6, 3)},
            "sigma": {(0, 1): gen.raw_poly(rng, variables, 5, 3),
                      (0, 2): gen.raw_poly(rng, variables, 5, 3),
                      (1, 3): gen.raw_poly(rng, variables, 4, 3)},
        }
        objects = (
            fc.DocumentObject("form", "alpha", fc.LeafwiseForm(
                chart, 1, {k: Expression(v) for k, v in raws["alpha"].items()})),
            fc.DocumentObject("exterior_form", "sigma", fc.ExteriorForm(
                chart, 2, {k: Expression(v) for k, v in raws["sigma"].items()})),
            fc.DocumentObject("connection", "Gamma", fc.Connection(
                chart, {(0, 0): poly(3, 2), (0, 2): poly(4, 3)})),
            fc.DocumentObject("splitting", "B", fc.Splitting(
                chart.base, {(0, 2): poly(3, 2, base_vars), (1, 3): poly(2, 2, base_vars)})),
        )
        return fc.Document(chart, objects), raws

    def round(self, r):
        jobs = []
        for j, terms in enumerate(self.SIZES):
            rng = gen.stream(self.seed, "text", r, j)
            document, raws = self._document(rng, terms)
            text = fc.print_document(document)
            values = gen.point(rng, self.variables)
            verb, name = ("diff", "alpha") if j % 2 == 0 else ("restrict", "sigma")
            desc = f"text round {r} job {j}: {verb} {name}, {terms} terms, {len(text)} bytes"
            jobs.append(self._valid_job(desc, text, document, raws, verb, name, values))
            if j in self.MUTATED:
                bad, where = _mutate(text, self.MUTATED[j])
                jobs.append(_parse_error_job(
                    f"text round {r} job {j}: {self.MUTATED[j]} at {where[0]}:{where[1]}",
                    bad, where))
        return jobs

    def _valid_job(self, desc, text, document, raws, verb, name, values):
        coords = self.chart.base.coords

        def run():
            parsed = fc.parse_document(text)
            printed = fc.print_document(parsed)
            report = fc.run_command(verb, parsed, [name])
            return parsed, printed, report, report.to_text()

        def check(output):
            parsed, printed, report, rendered = output
            if printed != text:
                return "print(parse(text)) is not a fixpoint"
            got = [(o.kind, o.name, o.value) for o in parsed.objects]
            if got != [(o.kind, o.name, o.value) for o in document.objects]:
                return "parsed objects differ from the generated ones"
            if not report.ok or len(report.checks) != 1:
                return f"unexpected report {rendered[:80]!r}"
            payload = report.checks[0].payload
            if rendered != f"[pass] {verb}.{name}: {payload}":
                return "rendered text disagrees with the report"
            if verb == "diff":
                alpha = raws["alpha"]
                want = (checks.raw_partial_value(alpha[(1,)], "z1", values)
                        - checks.raw_partial_value(alpha[(0,)], "z2", values))
            else:
                want = checks.raw_value(raws["sigma"][(0, 1)], values)
            got = checks.form_values(payload, 2, "~d", coords, values)
            return checks.same_values(got, {(0, 1): want})

        def key(output):
            return output[1] + "\n" + output[3]

        return Job(desc, run, check, key)


# -- ring ------------------------------------------------------------------------


_RING_HEAD = "manifold {\n  dim 4\n  leaf 2\n  coords z1 z2 z3 z4\n}\n"
_RING_BUNDLE = "bundle {\n  fibre u1\n}\n"


def _block(kind, name, entries):
    body = "".join(f"  {name}{index} = {value.text()}\n" for index, value in entries)
    return f"{kind} {name} {{\n{body}}}\n"


class RingWorkload:
    """Tiny documents whose coefficients are compact powers of linear forms,
    so the work is multiplication and accumulation."""

    name = "ring"
    BASE = ("z1", "z2", "z3", "z4")
    ALL = BASE + ("u1",)
    # (verb, sizes) per job; see _wedge, _diff, _extend and _check for what
    # the sizes mean.
    # Costs at this commit rise from ~6 ms to ~550 ms.  The four sizes
    # around the median appear twice, so it rests on more samples.  The five
    # costliest jobs (15% of a round) lie within 20% of each other and 50%
    # above the next, so the 90th percentile falls inside that group, not in
    # the gap below it.  Four rounds make MIN_JOBS.
    SCHEDULE = [
        ("diff", (3,)), ("diff", (4,)), ("wedge", (2, 3)), ("diff", (5,)),
        ("extend", (2, 2, 2)), ("wedge", (3, 3)), ("check", (2, 2, 1)), ("diff", (6,)),
        ("extend", (3, 2, 3)), ("wedge", (3, 4)), ("extend", (2, 2, 3)), ("diff", (7,)),
        ("check", (2, 2, 2)), ("extend", (3, 3, 3)), ("wedge", (4, 4)), ("check", (3, 2, 2)),
        ("check", (2, 2, 2)), ("extend", (3, 3, 3)), ("wedge", (4, 4)), ("check", (3, 2, 2)),
        ("diff", (8,)), ("check", (3, 3, 2)), ("diff", (9,)), ("wedge", (4, 5)),
        ("extend", (3, 3, 4)), ("extend", (4, 3, 4)), ("wedge", (5, 5)), ("extend", (5, 3, 4)),
        ("check", (4, 4, 2)), ("wedge", (5, 6)), ("extend", (5, 3, 4)), ("diff", (11,)),
    ]
    trace_rounds = 1

    def __init__(self, seed, out_dir):
        self.seed = seed

    def round(self, r):
        jobs = []
        for j, (verb, sizes) in enumerate(self.SCHEDULE):
            rng = gen.stream(self.seed, "ring", r, j)
            build = getattr(self, f"_{verb}")
            text, names, expect = build(rng, *sizes)
            values = gen.point(rng, self.ALL)
            desc = f"ring round {r} job {j}: {verb} {sizes}, {len(text)} bytes"
            jobs.append(self._job(desc, text, verb, names, expect, values))
        return jobs

    def _job(self, desc, text, verb, names, expect, values):
        def run():
            document = fc.parse_document(text)
            report = fc.run_command(verb, document, names)
            return report.to_text(), report.to_json()

        def check(output):
            text_out, json_out = output
            error, found = _verdicts(text_out, json_out)
            if error:
                return error
            if any(entry["status"] != "pass" for entry in found):
                return "a check failed"
            return expect(found, values)

        return Job(desc, run, check, key=lambda output: output[0] + "\n" + output[1])

    def _powers(self, rng, variables, exponents):
        return [gen.power(rng, variables, k) for k in exponents]

    def _wedge(self, rng, a, b):
        alpha = self._powers(rng, self.BASE, (a, a))
        beta = self._powers(rng, self.BASE, (b, b))
        text = (_RING_HEAD + _block("form", "alpha", [("[z1]", alpha[0]), ("[z2]", alpha[1])])
                + _block("form", "beta", [("[z1]", beta[0]), ("[z2]", beta[1])]))

        def expect(found, values):
            left = {(i,): p.value(values) for i, p in enumerate(alpha)}
            right = {(i,): p.value(values) for i, p in enumerate(beta)}
            want = checks.shuffle_wedge(left, 1, right, 1, 2)
            got = checks.form_values(found[0]["payload"], 2, "~d", self.BASE, values)
            return checks.same_values(got, want)

        return text, ["alpha", "beta"], expect

    def _diff(self, rng, k):
        # An exterior one-form with a leaf and a transverse component.
        sigma = dict(zip((0, 2), self._powers(rng, self.BASE, (k, k))))
        text = _RING_HEAD + _block(
            "exterior_form", "sigma", [(f"[{self.BASE[i]}]", p) for i, p in sigma.items()])

        def expect(found, values):
            def partial(rest, direction):
                if rest[0] not in sigma:
                    return 0
                return sigma[rest[0]].partial_value(self.BASE[direction], values)

            want = checks.differential(partial, 1, 4)
            got = checks.form_values(found[0]["payload"], 2, "d", self.BASE, values)
            return checks.same_values(got, want)

        return text, ["sigma"], expect

    def _extend(self, rng, a, b, g):
        A = self._powers(rng, self.ALL, (a, a))
        B = {(leaf, trans): gen.power(rng, self.BASE, b)
             for leaf in (0, 1) for trans in (2, 3)}
        G = self._powers(rng, self.ALL, (g, g, g, g))
        text = (_RING_HEAD + _RING_BUNDLE
                + _block("leafwise_connection", "A",
                         [(f"[u1][{self.BASE[i]}]", p) for i, p in enumerate(A)])
                + _block("splitting", "B",
                         [(f"[{self.BASE[l]}][{self.BASE[t]}]", p) for (l, t), p in B.items()])
                + _block("connection", "Gamma",
                         [(f"[u1][{self.BASE[i]}]", p) for i, p in enumerate(G)]))

        def expect(found, values):
            a_v = [p.value(values) for p in A]
            g_v = [p.value(values) for p in G]
            want = {("u1", self.BASE[i]): a_v[i] for i in (0, 1)}
            for t in (2, 3):
                want[("u1", self.BASE[t])] = g_v[t] - sum(
                    B[(l, t)].value(values) * (a_v[l] - g_v[l]) for l in (0, 1))
            got = checks.table_values(found[0]["payload"], values)
            return checks.same_values(got, want)

        return text, ["A", "B", "Gamma"], expect

    def _check(self, rng, k1, k0, ke):
        alpha = self._powers(rng, self.BASE, (k1, k1))
        f = gen.power(rng, self.BASE, k0)
        sigma = self._powers(rng, self.BASE, (ke, ke, ke, ke))
        text = (_RING_HEAD
                + _block("form", "alpha", [("[z1]", alpha[0]), ("[z2]", alpha[1])])
                + _block("form", "f", [("", f)])
                + _block("exterior_form", "sigma",
                         [(f"[{c}]", p) for c, p in zip(self.BASE, sigma)]))
        names = ["form.alpha.d_squared", "form.f.d_squared", "form.f.foliated_kernel",
                 "exterior_form.sigma.d_squared", "exterior_form.sigma.restrict_commutes",
                 "leibniz.alpha.alpha", "leibniz.alpha.f", "leibniz.f.f",
                 "leibniz.sigma.sigma"]

        def expect(found, values):
            got = [entry["name"] for entry in found]
            if got != names:
                return f"checks {got} differ from {names}"
            if found[2]["payload"] != "not foliated":
                return "f depends on z1 but was reported foliated"
            return None

        return text, [], expect


# -- sweep -----------------------------------------------------------------------


class SweepWorkload:
    """Library calls on many small random objects."""

    name = "sweep"
    # (leaf, dim, fibre): every chart with dim <= 6, leaf <= 4, fibre <= 3.
    SHAPES = [(leaf, dim, fibre)
              for fibre in (1, 2, 3) for leaf in (1, 2, 3, 4) for dim in range(leaf, 7)]
    trace_rounds = 4

    def __init__(self, seed, out_dir):
        self.seed = seed

    def round(self, r):
        return [self._job(r, j, shape) for j, shape in enumerate(self.SHAPES)]

    def _job(self, r, j, shape):
        leaf, dim, fibre_dim = shape
        rng = gen.stream(self.seed, "sweep", r, j)
        coords = _coords(dim)
        fibre = tuple(f"y{i + 1}" for i in range(fibre_dim))
        leaf_names, trans_names = coords[:leaf], coords[leaf:]
        every = coords + fibre

        def poly(names=every):
            return gen.small_poly(rng, names)

        def form(limit, degree):
            return {index: poly() for index in itertools.combinations(range(limit), degree)
                    if rng.random() < 0.75}

        def table(rows, cols, names=every):
            return {(i, c): poly(names) for i in rows for c in cols if rng.random() < 0.8}

        # Degrees follow the schedule too; only coefficients come from the seed.
        p, q = (j + r) % (leaf + 1), (j // 2 + r) % (dim + 1)
        pa, pb = (j // 3 + r) % (leaf + 1), (j // 5 + 2 * r) % (leaf + 1)
        raw = {
            "omega": form(leaf, p), "eta": form(dim, q),
            "a": form(leaf, pa), "b": form(leaf, pb),
            "s": [poly(coords) for _ in fibre],
            "A": table(range(fibre_dim), range(leaf)),
            "G": table(range(fibre_dim), range(dim)),
            "B1": table(range(leaf), range(leaf, dim), coords),
            "B2": table(range(leaf), range(leaf, dim), coords),
        }
        adapted = not trans_names or rng.random() < 0.5
        transition = [poly(coords) for _ in leaf_names]
        transition.extend(gen.small_poly(rng, trans_names) for _ in trans_names)
        if not adapted:
            transition[leaf][((leaf_names[0], 1), (trans_names[0], 1))] = gen.rational(rng)
        foliated_fibre = rng.random() < 0.5
        fibre_map = [gen.small_poly(rng, trans_names + fibre) for _ in fibre]
        if not foliated_fibre:
            fibre_map[0][((leaf_names[-1], 2),)] = gen.rational(rng)
        f = gen.small_poly(rng, coords)
        f_foliated = not any(v in leaf_names for mono in f for v, _ in mono)
        values = gen.point(rng, every)
        desc = (f"sweep round {r} job {j}: leaf {leaf} dim {dim} fibre {fibre_dim}, "
                f"degrees {p}/{q}/{pa}+{pb}")

        def run():
            E = Expression
            base = fc.AdaptedChart(leaf_names, trans_names)
            chart = fc.BundleChart(base, fibre)

            def exprs(entries):
                return {key: E(value) for key, value in entries.items()}

            omega = fc.LeafwiseForm(chart, p, exprs(raw["omega"]))
            eta = fc.ExteriorForm(chart, q, exprs(raw["eta"]))
            a = fc.LeafwiseForm(chart, pa, exprs(raw["a"]))
            b = fc.LeafwiseForm(chart, pb, exprs(raw["b"]))
            section = fc.BundleSection(chart, [E(c) for c in raw["s"]])
            A = fc.LeafwiseConnection(chart, exprs(raw["A"]))
            G = fc.Connection(chart, exprs(raw["G"]))
            B1 = fc.Splitting(base, exprs(raw["B1"]))
            B2 = fc.Splitting(base, exprs(raw["B2"]))
            t = fc.TransitionMap(base, [E(c) for c in transition])
            ext = fc.extend_connection(A, G, B1)
            back = fc.restrict_connection(ext)
            return {
                "adapted": fc.check_adapted_transition(t, base),
                "foliated_fibre": fc.check_foliated_bundle_transition(
                    [E(c) for c in fibre_map], chart),
                "foliated_f": fc.is_foliated_function(E(f), base),
                "dd": fc.leafwise_differential(fc.leafwise_differential(omega)),
                "DD": fc.exterior_differential(fc.exterior_differential(eta)),
                "commutator": fc.form_add(
                    fc.restrict_form(fc.exterior_differential(eta)),
                    -fc.leafwise_differential(fc.restrict_form(eta))),
                "wedge": fc.wedge(a, b),
                "cov": fc.covariant_differential(A, section),
                "ext": ext,
                "back_delta": fc.connection_difference(A, back),
                "verified": fc.verify_extension(A, G, B1),
                "dep": fc.extension_dependence(A, G, B1, B2),
            }

        def check(out):
            if out["adapted"] != adapted:
                return f"check_adapted_transition gave {out['adapted']}, built {adapted}"
            if out["foliated_fibre"] != foliated_fibre:
                return "check_foliated_bundle_transition disagrees with the construction"
            if out["foliated_f"] != f_foliated:
                return "is_foliated_function disagrees with the construction"
            for name in ("dd", "DD", "commutator", "back_delta"):
                if not out[name].is_zero():
                    return f"{name} is not zero"
            if out["verified"] is not True:
                return "verify_extension returned False"

            def at(expr):
                return checks.eval_text(str(expr), values)

            def raw_at(entries):
                return {k: checks.raw_value(v, values) for k, v in entries.items()}

            w = out["wedge"]
            got = {index: at(w.component(index))
                   for index in itertools.combinations(range(leaf), pa + pb)}
            want = checks.shuffle_wedge(raw_at(raw["a"]), pa, raw_at(raw["b"]), pb, leaf)
            error = checks.same_values(got, want)
            if error:
                return f"wedge vs shuffle sum: {error}"
            s_values = [checks.raw_value(c, values) for c in raw["s"]]
            along = dict(values, **dict(zip(fibre, s_values)))
            cov, ext, dep = out["cov"], out["ext"], out["dep"]
            A_v, G_v = raw_at(raw["A"]), raw_at(raw["G"])
            B1_v, B2_v = raw_at(raw["B1"]), raw_at(raw["B2"])
            for i in range(fibre_dim):
                for c in range(leaf):
                    want_cov = (checks.raw_partial_value(raw["s"][i], coords[c], values)
                                - checks.raw_value(raw["A"].get((i, c), {}), along))
                    if at(cov.coefficient(i, c)) != want_cov:
                        return f"covariant differential wrong at ({i}, {c})"
                    if at(ext.coefficient(i, c)) != A_v.get((i, c), 0):
                        return f"extension leaf entry wrong at ({i}, {c})"
                    if not dep.coefficient(i, c).is_zero():
                        return f"dependence has a leaf entry at ({i}, {c})"
                for t in range(leaf, dim):
                    shift = [A_v.get((i, l), 0) - G_v.get((i, l), 0) for l in range(leaf)]
                    want_ext = G_v.get((i, t), 0) - sum(
                        B1_v.get((l, t), 0) * shift[l] for l in range(leaf))
                    if at(ext.coefficient(i, t)) != want_ext:
                        return f"extension transverse entry wrong at ({i}, {t})"
                    want_dep = -sum((B1_v.get((l, t), 0) - B2_v.get((l, t), 0)) * shift[l]
                                    for l in range(leaf))
                    if at(dep.coefficient(i, t)) != want_dep:
                        return f"dependence formula fails at ({i}, {t})"
            return None

        def key(out):
            return "|".join(f"{name}={out[name]!r}" for name in sorted(out))

        return Job(desc, run, check, key)


# -- cli -------------------------------------------------------------------------


class CliWorkload:
    """One `folicalc.cli.main(argv)` call per job over a corpus of
    sample-sized files; exit codes 0, 1 and 2 by construction.

    The calls run in the worker's own interpreter.  What a fresh
    `python -m folicalc.cli` adds on top, interpreter start and
    `import folicalc`, is timed in the same run by run.py's probes
    (cli.interp_start_ms, cli.import_ms, setup_s).  Jobs are not separate
    processes: on a shared 2-core machine their median moves by up to 1.7x
    between runs with the machine's speed, start-up being the part that
    moves most, which is wider than any bound the benchmark may set.
    Rescaling by the reference task (see run.py) does not cure that: with
    a process per job, the median and the 90th percentile still spread by
    0.13 and 0.26 of their medians over ten runs.
    """

    name = "cli"
    trace_rounds = 1
    VERBS = [
        ("check", []), ("diff", ["alpha"]), ("wedge", ["alpha", "beta"]),
        ("restrict", ["Gamma"]), ("extend", ["A", "B1", "Gamma"]),
        ("verify", ["A", "B1", "B2", "Gamma"]),
    ]

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = os.path.join(out_dir, f"cli-seed{seed}")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.out_dir)

    def _document(self, rng, j, adapted):
        dim = 2 + j % 3
        leaf = 1 + (j // 3) % (dim - 1)
        fibre = ("u", "v")[: 1 + j % 2]
        coords = _coords(dim)
        leaf_names, trans_names = coords[:leaf], coords[leaf:]
        every = coords + fibre

        def poly(names=every):
            return gen.raw_text(gen.raw_poly(rng, names, rng.randint(1, 4), 3))

        lines = ["manifold {", f"  dim {dim}", f"  leaf {leaf}",
                 "  coords " + " ".join(coords), "}", "bundle {",
                 "  fibre " + " ".join(fibre), "}"]

        def block(kind, name, entries):
            lines.append(f"{kind} {name} {{")
            lines.extend(f"  {name}{index} = {value}" for index, value in entries)
            lines.append("}")

        block("form", "alpha", [(f"[{c}]", poly()) for c in leaf_names])
        block("form", "beta", [("", poly())])
        block("exterior_form", "sigma", [(f"[{c}]", poly()) for c in coords])
        block("connection", "Gamma", [(f"[{y}][{c}]", poly()) for y in fibre for c in coords])
        block("leafwise_connection", "A", [(f"[{y}][{c}]", poly()) for y in fibre for c in leaf_names])
        for name in ("B1", "B2"):
            block("splitting", name, [(f"[{l}][{t}]", poly(coords))
                                      for l in leaf_names for t in trans_names])
        block("section", "s", [(f"[{y}]", poly(coords)) for y in fibre])
        moved = trans_names[0]
        shift = poly(trans_names) if adapted else f"{moved} + {leaf_names[0]}"
        block("transition", "t", [(f"[{leaf_names[0]}]", poly(coords)),
                                  (f"[{moved}]", f"{moved} + {shift}"),
                                  (f"[{fibre[0]}]", f"{fibre[0]} + {poly(trans_names + fibre)}")])
        return "\n".join(lines) + "\n"

    def _write(self, name, text):
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return os.path.relpath(path, ROOT)

    def round(self, r):
        rng = gen.stream(self.seed, "cli", r)
        good = self._write(f"r{r}-pass.fol", self._document(rng, r, True))
        bad = self._write(f"r{r}-not-adapted.fol", self._document(rng, r + 1, False))
        broken_text, where = _mutate(self._document(rng, r + 2, True),
                                     ("double_brace", "missing_equals", "double_bracket")[r % 3])
        broken = self._write(f"r{r}-syntax.fol", broken_text)
        specs = [(verb, good, names, 0, None) for verb, names in self.VERBS]
        specs.append(("check", bad, [], 1, None))
        specs.append(("check", broken, [], 2, f"{broken}:{where[0]}:{where[1]}: "))
        specs.append(("diff", good, ["nosuch"], 2, "error: unknown object 'nosuch'"))
        jobs = []
        for verb, path, names, code, stderr_head in specs:
            pair = {}
            for as_json in (False, True):
                argv = [verb, path] + [a for n in names for a in ("--name", n)]
                if as_json:
                    argv.append("--json")
                desc = f"cli round {r}: folicalc {' '.join(argv)} (expect exit {code})"
                jobs.append(self._job(desc, argv, code, stderr_head, pair, as_json))
        return jobs

    def _job(self, desc, argv, code, stderr_head, pair, as_json):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = fc.cli.main(argv)
                except SystemExit as exit_:
                    status = exit_.code
            return (status, out.getvalue(), err.getvalue())

        def check(output):
            status, stdout, stderr = output
            if "Traceback" in stderr:
                return "traceback: " + stderr.strip().splitlines()[-1][:120]
            if status != code:
                return f"exit {status}, expected {code}"
            if code == 2:
                if not stderr.startswith(stderr_head):
                    return f"stderr {stderr[:80]!r} does not start with {stderr_head!r}"
                return None
            if as_json:
                statuses = [(c["name"], c["status"]) for c in json.loads(stdout)["checks"]]
            else:
                statuses = []
                for line in stdout.splitlines():
                    verdict, rest = line[1:].split("] ", 1)
                    statuses.append((rest.split(": ", 1)[0], verdict))
            if any(s != "pass" for _, s in statuses) != (code == 1):
                return "verdicts disagree with the exit code"
            if "verdicts" in pair and pair["verdicts"] != statuses:
                return "text and JSON verdicts disagree"
            pair["verdicts"] = statuses
            return None

        return Job(desc, run, check)


WORKLOADS = {w.name: w for w in (CliWorkload, TextWorkload, RingWorkload, SweepWorkload)}
