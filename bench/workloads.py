"""The benchmark's four workloads: input generation, one operation, and the
answer check for each.

Every input is derived from the seed alone, so one seed always gives
byte-identical instance text and base lists.  The package sees only the
generated inputs.  Answers are checked after the timed loop against an
expected answer that comes from construction, from the exhaustive oracle or
from a direct check of the source problem, never from the code under test.
"""

import contextlib
import io
import json
import os
import random

from postimp import classify, cli, decide, reductions, selftest
from postimp.boolfn import AND2, AND_OR3, MAJ3, OR_AND3, TOP, XOR2, BooleanFunction
from postimp.formula import App, Base, Formula, Instance, Var, format_formula


def naive_value(node, base, env):
    """Evaluate a formula tree straight off the truth tables; shares no code
    with the package's evaluators."""
    if isinstance(node, Var):
        return env[node.name]
    f = base[node.fn]
    index = 0
    for i, child in enumerate(node.args):
        index |= naive_value(child, base, env) << i
    return f.table >> index & 1


def is_counterexample(base, premises, conclusion, sigma) -> bool:
    """Does the assignment satisfy every premise and falsify the conclusion?"""
    try:
        return all(naive_value(p, base, sigma) for p in premises) and not naive_value(
            conclusion, base, sigma
        )
    except KeyError:  # the assignment misses a variable
        return False


def instance_text(inst: Instance) -> str:
    lines = [f"base: {' '.join(f'{f.name}/{f.arity}/{f.bits()}' for f in inst.base.functions)}"]
    lines += [f"premise: {format_formula(p)}" for p in inst.premises]
    lines.append(f"conclusion: {format_formula(inst.conclusion)}")
    return "\n".join(lines) + "\n"


def _fold(combine, nodes):
    node = nodes[0]
    for other in nodes[1:]:
        node = combine(node, other)
    return node


def _xor(a, b):
    return App("xor", (a, b))


def _and(a, b):
    return App("and", (a, b))


class Workload:
    """One benchmark workload.  `setup` builds the inputs from the seed, `run`
    performs op i on them, and `checker` returns the function that says
    whether an op's answer is right."""

    def ops(self, data):
        return len(data)

    def deadline(self, data, i):
        return self.deadline_s

    def describe(self, data, i):
        return f"input {i}"


class MixSmall(Workload):
    """The self-test distribution, kept in memory and sent through dispatch."""

    name = "mix-small"
    op = "one decide.dispatch call on an in-memory instance"
    loads = ["classify", "decide.dispatch", "formula.extract", "formula.evaluate", "gf2", "decide.oracle"]
    bypasses = ["formula.parse", "cli", "reductions", "classify.closure"]
    deadline_s = 1.0
    per_fragment = 500

    def setup(self, seed, workdir):
        groups = []
        for fragment in sorted(selftest.FRAGMENT_BASES):
            rng = random.Random(f"{seed}:{fragment}")
            single = fragment == "single-linear"
            mode = decide.Mode.SINGLE_PREMISE if single else decide.Mode.SET_PREMISE
            group = []
            for _ in range(self.per_fragment):
                base = rng.choice(selftest.FRAGMENT_BASES[fragment])
                group.append((selftest.random_instance(rng, base, single=single), mode))
            groups.append(group)
        # round robin over fragments, so every stretch of the loop sees all six
        return [item for row in zip(*groups) for item in row]

    def digest(self, data) -> str:
        return "".join(f"mode: {mode.value}\n" + instance_text(inst) for inst, mode in data)

    def run(self, data, i):
        inst, mode = data[i]
        return decide.dispatch(inst, mode).implies

    def checker(self, data):
        expected = {}

        def check(i, answer):
            if i not in expected:
                expected[i] = decide.decide_oracle(data[i][0]).implies
            return answer == expected[i]

        return check


class LinearWide(Workload):
    """Wide linear instances decided from files through the command line."""

    name = "linear-wide"
    op = 'one cli.main(["decide", "--instance", f, "--format", "record"]) call, record parsed'
    loads = ["cli", "formula.parse", "formula.build", "classify", "formula.extract", "formula.evaluate", "gf2"]
    bypasses = ["decide.oracle", "formula.evaluate_block", "reductions", "classify.closure"]
    deadline_s = 5.0
    # 48, 50, ..., 78 variables: sizes spread evenly around 64, so the op
    # latencies form a continuum rather than one narrow cluster
    widths = range(48, 80, 2)
    base = Base.of(XOR2, TOP)

    def _instance(self, rng, width, implied):
        names = [f"x{i}" for i in range(1, width + 1)]
        planted = {name: rng.randrange(2) for name in names}

        def true_under_plant(node):
            # a premise must hold under the planted assignment, so the
            # premises are satisfiable and a refuted conclusion stays refuted
            return node if naive_value(node, self.base, planted) else _xor(node, App("top"))

        chain = true_under_plant(_fold(_xor, [Var(n) for n in names]))
        shorts = [
            true_under_plant(_fold(_xor, [Var(n) for n in rng.sample(names, 3)]))
            for _ in range(width)
        ]
        chosen = rng.sample(shorts, rng.choice((3, 5)))
        conclusion = _fold(_xor, chosen)  # odd xor of premises: implied
        if not implied:
            conclusion = _xor(conclusion, Var("z"))  # z is free: refuted
        return [chain] + shorts, conclusion

    def setup(self, seed, workdir):
        rng = random.Random(f"{seed}:linear-wide")
        os.makedirs(workdir, exist_ok=True)
        base_path = os.path.join(workdir, "lin.base")
        self.base.save(base_path)
        data = []
        for j, width in enumerate(self.widths):
            implied = j % 2 == 0
            premises, conclusion = self._instance(rng, width, implied)
            path = os.path.join(workdir, f"inst{j:02d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("base: lin.base\n")
                for node in premises:
                    fh.write(f"premise: {format_formula(node)}\n")
                fh.write(f"conclusion: {format_formula(conclusion)}\n")
            data.append((path, premises, conclusion, implied))
        return data

    def digest(self, data) -> str:
        parts = []
        for path in [os.path.join(os.path.dirname(data[0][0]), "lin.base")] + [d[0] for d in data]:
            with open(path, encoding="utf-8") as fh:
                parts.append(fh.read())
        return "".join(parts)

    def run(self, data, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["decide", "--instance", data[i][0], "--format", "record"])
        if status != 0:
            raise RuntimeError(f"postimp decide exited with status {status}")
        return json.loads(out.getvalue())

    def checker(self, data):
        def check(i, record):
            _, premises, conclusion, implied = data[i]
            if record.get("implies") is not implied:
                return False
            if implied:
                return True
            return is_counterexample(self.base, premises, conclusion, record.get("counterexample") or {})

        return check


def planted_dnf(rng, num_vars, noise, tautology):
    """A 3-DNF that covers every assignment outside the region where its top
    three variables are all 0, and covers that region too when `tautology`.

    The eight sign patterns of the top three variables cover everything, so
    dropping the all-negative one leaves exactly that region uncovered.  Each
    noise term holds a positive top literal and so never reaches the region.
    This pins how many of the oracle's blocks a refuted instance sweeps.
    """
    top = list(range(num_vars - 2, num_vars + 1))
    terms = [
        [v if pattern >> k & 1 else -v for k, v in enumerate(top)]
        for pattern in range(8)
        if tautology or pattern
    ]
    for _ in range(noise):
        anchor = rng.choice(top)
        others = rng.sample([v for v in range(1, num_vars + 1) if v != anchor], 2)
        terms.append([anchor] + [v if rng.randrange(2) else -v for v in others])
    rng.shuffle(terms)
    return reductions.DnfInput.build(terms, num_vars)


class GeneralSweep(Workload):
    """coNP-base instances that make the exhaustive oracle sweep up to 2^20 lanes."""

    name = "general-sweep"
    op = "one decide.dispatch call on an in-memory instance of 20 variables"
    loads = ["decide.oracle", "formula.evaluate_block", "classify"]
    bypasses = ["formula.extract", "formula.evaluate", "gf2", "formula.parse", "cli", "classify.closure"]
    deadline_s = 5.0
    # noise terms of the monotone and majority DNFs and monomials of the ANF
    # premise, one size per instance of each family and answer: formula
    # sizes, and so op latencies, spread over a continuum
    sizes = [(12, 8, 10), (20, 13, 17), (28, 18, 24), (36, 23, 31)]
    anf_vars = 20
    anf_base = Base.of(AND2, XOR2, TOP)

    def _anf(self, rng, names, count):
        """A sum of `count` monomials of degree 2 or 3, as a set of frozensets."""
        poly = set()
        for _ in range(count):
            poly ^= {frozenset(rng.sample(names, rng.choice((2, 3))))}
        return poly

    def _anf_node(self, linear, poly):
        terms = [Var(n) for n in linear]
        for m in sorted(poly, key=sorted):
            terms.append(_fold(_and, [Var(n) for n in sorted(m, key=lambda s: int(s[1:]))]))
        return _fold(_xor, terms)

    def _anf_instance(self, rng, monomials, implied):
        """Premise p: the xor of every variable plus random monomials, so the
        variables occur in index order.  The conclusion p xor q xor pq is p or
        q.  A refuted conclusion adds the product g of the four highest
        variables, so every counterexample sits in the oracle's last block."""
        names = [f"x{i}" for i in range(1, self.anf_vars + 1)]
        poly = self._anf(rng, names, monomials)
        p = self._anf_node(names, poly)
        q = self._anf_node([], self._anf(rng, names, 4) or {frozenset(names[:2])})
        conclusion = _xor(_xor(p, q), _and(p, q))
        if not implied:
            high = names[-4:]
            conclusion = _xor(conclusion, _fold(_and, [Var(n) for n in high]))
            # refuted iff p can hold while g does: p with g's variables set to 1
            restricted = set()
            for m in poly | {frozenset([n]) for n in names}:
                restricted ^= {m - set(high)}
            implied = not restricted
        base = self.anf_base
        inst = Instance.build(base, [Formula.build(p, base)], Formula.build(conclusion, base))
        return inst, implied

    def setup(self, seed, workdir):
        rng = random.Random(f"{seed}:general-sweep")
        data = []
        for monotone_noise, majority_noise, monomials in self.sizes:
            for tautology in (True, False):
                monotone = planted_dnf(rng, 10, monotone_noise, tautology)
                data.append(("monotone", reductions.reduce_tautdnf_monotone(monotone), monotone))
                majority = planted_dnf(rng, 9, majority_noise, tautology)
                data.append(("d2", reductions.reduce_tautdnf_d2(majority), majority))
                inst, implied = self._anf_instance(rng, monomials, tautology)
                data.append(("anf", inst, implied))
        return data

    def digest(self, data) -> str:
        return "".join(f"family: {family}\n" + instance_text(inst) for family, inst, _ in data)

    def run(self, data, i):
        return decide.dispatch(data[i][1])

    def checker(self, data):
        expected = {}

        def check(i, decision):
            family, inst, source = data[i]
            if i not in expected:
                expected[i] = source if family == "anf" else source.is_tautology()
            if decision.implies != expected[i]:
                return False
            if decision.implies:
                return True
            return is_counterexample(
                inst.base,
                [p.root for p in inst.premises],
                inst.conclusion.root,
                decision.counterexample or {},
            )

        return check


WITNESSES = (OR_AND3, AND_OR3, MAJ3)


def _lift(table, arity, k):
    # the same table with k - arity extra fictive high-order variables
    for step in range(arity, k):
        table |= table << (1 << step)
    return table


class Closure(Workload):
    """Fixed-arity composition closures: every base of arity at most 2 with one
    connective, at arity 3 and 4, plus the random bases that acceptance
    criterion 2 draws, at arity 3: all of its draws without a ternary
    connective and the first eight with one.

    The base set is the same on every seed, so every run measures the same
    closures; the seed rotates their order.  On the numpy engine a draw with
    a ternary connective often takes 0.3-5 s at arity 3, 70 s for all of
    them, and 10 s for the first eight; that many fit in a pass.  The per-op
    deadline is 10 s at arity 3, about twice the slowest of them, and 1 s at
    arity 4, about five times the slowest single-connective closure that
    completes (0.2 s).  The complete singletons nor and nand miss it at
    arity 4.
    """

    name = "closure"
    op = "one classify.closure_fixed_arity(B, k) call"
    loads = ["classify.closure"]
    bypasses = ["decide", "formula", "gf2", "cli", "reductions"]
    deadlines = {3: 10.0, 4: 1.0}
    random_bases = 200
    ternary_bases = 8

    def setup(self, seed, workdir):
        singletons = [
            Base.of(BooleanFunction("g", arity, table))
            for arity in (0, 1, 2)
            for table in range(1 << (1 << arity))
        ]
        # the same draw as acceptance criterion 2
        rng = random.Random("acceptance:dichotomy")
        drawn, ternary = [], 0
        for _ in range(self.random_bases):
            fns = []
            for i in range(rng.randint(1, 2)):
                arity = rng.randint(0, 3)
                fns.append(BooleanFunction(f"g{i}", arity, rng.randrange(1 << (1 << arity))))
            if any(f.arity == 3 for f in fns):
                ternary += 1
                if ternary > self.ternary_bases:
                    continue
            drawn.append(Base.of(*fns))
        data = [(b, 3) for b in singletons + drawn] + [(b, 4) for b in singletons]
        # rotate rather than shuffle: every seed keeps the same neighbours,
        # so an op's timing does not depend on what ran just before it
        start = random.Random(f"{seed}:closure").randrange(len(data))
        return data[start:] + data[:start]

    def deadline(self, data, i):
        return self.deadlines[data[i][1]]

    def digest(self, data) -> str:
        return "".join(
            f"{k} " + " ".join(f"{f.name}/{f.arity}/{f.bits()}" for f in base.functions) + "\n"
            for base, k in data
        )

    def describe(self, data, i):
        base, k = data[i]
        return f"{{{', '.join(f.bits() for f in base.functions)}}} at arity {k}"

    def run(self, data, i):
        base, k = data[i]
        return classify.closure_fixed_arity(base, k)

    def checker(self, data):
        def check(i, closure):
            # the dichotomy rule: coNP-hard exactly when a hard witness composes
            base, k = data[i]
            tables = {f.table for f in closure}
            found = any(_lift(w.table, w.arity, k) in tables for w in WITNESSES)
            hard = classify.classify_base(base).complexity is classify.ImpClass.CONP_COMPLETE
            return found == hard

        return check


WORKLOADS = {w.name: w for w in (MixSmall(), LinearWide(), GeneralSweep(), Closure())}
