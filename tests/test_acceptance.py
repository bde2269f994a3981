"""End-to-end acceptance checks, each printed as one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; every check carries an explicit wall-clock budget.
"""

import itertools
import json
import random
import sys
import time

from helpers import (
    brute_consistent,
    depth,
    dichotomy_draws,
    naive_implies,
    naive_value,
    parity_table,
    satisfies_all,
    semantic_formulas,
)
from postimp.boolfn import (
    AND2,
    AND_OR3,
    BOT,
    BooleanFunction,
    MAJ3,
    NOT,
    OR2,
    OR_AND3,
    TOP,
    XOR2,
    XOR3,
)
from postimp.classify import (
    Fragment,
    ImpClass,
    classify_base,
    classify_base_single_premise,
    closure_fixed_arity,
)
from postimp.cli import main
from postimp.decide import (
    decide_and_fragment,
    decide_linear,
    decide_or_fragment,
    decide_oracle,
    decide_single_linear,
    decide_unary_fragment,
    dispatch,
)
from postimp.formula import (
    App,
    Base,
    Formula,
    Instance,
    Var,
    connective_count,
    connective_plan,
    evaluate_block,
    extract_linear_nf,
    variable_word,
)
from postimp.gf2 import Gf2System, solve
from postimp.reductions import (
    DnfInput,
    reduce_linsys_to_imp,
    reduce_mod2_single_linear,
    reduce_mod2_unary,
    reduce_tautdnf_d2,
    reduce_tautdnf_monotone,
)
from postimp.selftest import FRAGMENT_BASES, run_selftest

LIN_CONST = Base.of(XOR2, TOP)
V = Base.of(OR2, BOT, TOP)
E = Base.of(AND2, BOT, TOP)
N = Base.of(NOT, TOP)
L2 = Base.of(XOR3)


class budget:
    """Assert a wall-clock budget and print the acceptance line."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[acceptance] {self.name}: {status} ({elapsed:.2f}s, budget {self.seconds}s)",
            file=sys.stderr,
        )
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s ({elapsed:.2f}s)"
        return False


CANONICAL_TABLE = [
    ("and+not", (AND2, NOT), "coNP-complete"),
    ("or+and", (OR2, AND2), "coNP-complete"),
    ("x_or_yz", (OR_AND3,), "coNP-complete"),
    ("x_and_yz", (AND_OR3,), "coNP-complete"),
    ("maj", (MAJ3,), "coNP-complete"),
    ("xor+top", (XOR2, TOP), "ParityL-complete"),
    ("xor3", (XOR3,), "ParityL-complete"),
    ("or+consts", (OR2, BOT, TOP), "AC0"),
    ("and+consts", (AND2, BOT, TOP), "AC0"),
    ("not+top", (NOT, TOP), "AC0[2]"),
    ("not", (NOT,), "AC0[2]"),
]


def test_criterion_1_classification_table():
    with budget("classification table", 1.0):
        for label, functions, expected in CANONICAL_TABLE:
            base = Base.of(*functions)
            got = classify_base(base).complexity.value
            assert got == expected, f"{label}: {got} != {expected}"
            single = classify_base_single_premise(base).complexity.value
            expected_single = "AC0[2]" if expected == "ParityL-complete" else expected
            assert single == expected_single, f"{label} single-premise: {single}"


def test_criterion_2_dichotomy_cross_validation():
    witnesses = (OR_AND3, AND_OR3, MAJ3)
    with budget("dichotomy cross-validation", 60.0):
        bases = []
        for arity in (0, 1, 2):  # includes all 16 binary singletons
            for table in range(1 << (1 << arity)):
                bases.append((f"singleton a{arity} t{table}", Base.of(BooleanFunction("g", arity, table))))
        bases += [(f"random {22 + i}", base) for i, base in enumerate(dichotomy_draws())]
        mismatches = []
        for label, base in bases:
            hard = classify_base(base).complexity is ImpClass.CONP_COMPLETE
            tables = {f.table for f in closure_fixed_arity(base, 3)}
            found = any(w.table in tables for w in witnesses)
            if hard != found:
                mismatches.append(label)
        assert not mismatches, mismatches


FRAGMENT_CHECKS = {
    "linear": decide_linear,
    "or": decide_or_fragment,
    "and": decide_and_fragment,
    "unary": decide_unary_fragment,
}

MICRO_FRAGMENT_BASES = {
    "linear": Base.of(XOR2, XOR3, TOP, BOT),
    "or": V,
    "and": E,
    "unary": N,
}


def test_criterion_3_fragment_oracle_agreement():
    cases_per_fragment = 10_000
    with budget("fragment vs oracle agreement", 120.0):
        # each base classifies to its fragment, so dispatch reaches that
        # fragment's decider; single-linear bases are linear, decided with
        # one premise
        for fragment, bases in FRAGMENT_BASES.items():
            expected = Fragment(fragment.removeprefix("single-"))
            assert all(classify_base(base).fragment is expected for base in bases), fragment
        # the self-test seeds each fragment's rng with "acceptance:<fragment>"
        report = run_selftest("acceptance", cases_per_fragment)
        assert report["fragments"] == {
            fragment: {"cases": cases_per_fragment, "disagreements": 0} for fragment in FRAGMENT_BASES
        }, report
        # exhaustive micro-instances: every semantic class of depth <= 3 trees
        for fragment, base in MICRO_FRAGMENT_BASES.items():
            reps = list(semantic_formulas(base, ("x", "y", "z"), 3).values())
            for goal in reps:
                for count in (0, 1, 2):
                    for premises in itertools.product(reps, repeat=count):
                        instance = Instance.build(base, premises, goal)
                        fast = FRAGMENT_CHECKS[fragment](instance)
                        assert fast.implies == naive_implies(instance)[0]
        reps = list(semantic_formulas(L2, ("x", "y", "z"), 3).values())
        micro_lin = list(semantic_formulas(MICRO_FRAGMENT_BASES["linear"], ("x", "y", "z"), 3).values())
        for pool in (reps, micro_lin):
            for premise in pool:
                for goal in pool:
                    instance = Instance.build(pool[0].base, (premise,), goal)
                    fast = decide_single_linear(instance)
                    assert fast.implies == naive_implies(instance)[0]


def _linear_formula(c0, coeffs, names, base):
    node = None
    for c, name in zip(coeffs, names):
        if c:
            node = Var(name) if node is None else App("xor", (node, Var(name)))
    if c0:
        node = App("top") if node is None else App("xor", (node, App("top")))
    if node is None:
        node = App("xor", (App("top"), App("top")))
    return Formula.build(node, base)


def test_criterion_4_single_linear_rule():
    names = ("x", "y", "z")
    with budget("single-premise linear rule", 5.0):
        # base with constants realizes every linear normal form on 3 variables
        forms = [
            _linear_formula(c0, coeffs, names, LIN_CONST)
            for c0 in (0, 1)
            for coeffs in itertools.product((0, 1), repeat=3)
        ]
        published_disagreements = []
        for premise in forms:
            for goal in forms:
                instance = Instance.build(LIN_CONST, (premise,), goal)
                corrected = decide_single_linear(instance).implies
                truth = naive_implies(instance)[0]
                assert corrected == truth
                lnf = extract_linear_nf(premise, instance.index)
                rnf = extract_linear_nf(goal, instance.index)
                published = (lnf.c0 == 0 and not lnf.mask) or lnf == rnf
                if published != truth:
                    published_disagreements.append((lnf, rnf))
        assert published_disagreements, "expected the two-part rule to fail somewhere"
        # the concrete witness: x implies the constant-true conclusion
        witness = decide_single_linear(
            Instance.build(
                LIN_CONST,
                (_linear_formula(0, (1, 0, 0), names, LIN_CONST),),
                _linear_formula(1, (0, 0, 0), names, LIN_CONST),
            )
        )
        assert witness.implies
        # without constants every form is 0- and 1-reproducing; rule still exact
        reps = list(semantic_formulas(L2, names, 3).values())
        for premise in reps:
            for goal in reps:
                instance = Instance.build(L2, (premise,), goal)
                assert decide_single_linear(instance).implies == naive_implies(instance)[0]


def _xor_node(nodes):
    node = nodes[0]
    for other in nodes[1:]:
        node = App("xor", (node, other))
    return node


def _xor_chain(names):
    return Formula.build(_xor_node([Var(name) for name in names]), LIN_CONST)


def test_wide_xor_chain_budget():
    # the linear deciders must scale with formula size: one premise that is a
    # 1600-variable xor chain, against itself (implied) and against the chain
    # without its last variable (refuted)
    names = tuple(f"x{i}" for i in range(1600))
    chain = _xor_chain(names)
    shorter = _xor_chain(names[:-1])
    with budget("1600-variable xor chain, single premise", 1.0):
        assert decide_single_linear(Instance.build(LIN_CONST, (chain,), chain)).implies
        assert not decide_single_linear(Instance.build(LIN_CONST, (chain,), shorter)).implies
    with budget("1600-variable xor chain, premise set", 1.0):
        assert decide_linear(Instance.build(LIN_CONST, (chain,), chain)).implies
        refuted = decide_linear(Instance.build(LIN_CONST, (chain,), shorter))
    assert not refuted.implies
    sigma = refuted.counterexample
    assert sum(sigma.values()) % 2 == 1 and sum(sigma[v] for v in names[:-1]) % 2 == 0


def test_wide_connective_budget():
    # a 16-ary xor is one monomial per argument in its algebraic normal form;
    # expanding it into minterms would take 32768 terms per application
    arity = 16
    names = tuple(f"x{i}" for i in range(1, arity + 1))
    parity = parity_table(arity)
    base = Base.of(BooleanFunction("xor16", arity, parity))
    phi = Formula.build(App("xor16", tuple(Var(v) for v in names)), base)
    width = 1 << arity
    words = [variable_word(i, width) for i in range(arity)]
    connective_plan.cache_clear()
    with budget("16-ary xor, ten calls of 2^16 lanes, plan included", 3.0):
        for _ in range(10):
            assert evaluate_block(phi, words, width) == parity


def test_wide_random_connective_budget():
    # a random 16-ary table has no short form: its kernel factors about
    # 50000 operations out of 32768 monomials, and is compiled once
    arity = 16
    table = random.Random("wide-random").getrandbits(1 << arity)
    base = Base.of(BooleanFunction("rnd16", arity, table))
    phi = Formula.build(App("rnd16", tuple(Var(f"x{i}") for i in range(1, arity + 1))), base)
    width = 1 << arity
    words = [variable_word(i, width) for i in range(arity)]
    connective_plan.cache_clear()
    with budget("random 16-ary connective, one call of 2^16 lanes, plan included", 3.0):
        assert evaluate_block(phi, words, width) == table


def _wide_xor_instance():
    # ten premises and a conclusion, each one 16-ary xor of arguments drawn
    # from 40 variables (every one of them used) and the constant top
    arity = 16
    base = Base.of(BooleanFunction("xor16", arity, parity_table(arity)), TOP)
    rng = random.Random("wide-xor16")
    names = [f"x{i}" for i in range(1, 41)]
    stream = itertools.chain.from_iterable(rng.sample(names, len(names)) for _ in range(5))

    def argument():
        return App("top") if rng.random() < 0.125 else Var(next(stream))

    formulas = [
        Formula.build(App("xor16", tuple(argument() for _ in range(arity))), base) for _ in range(11)
    ]
    return Instance.build(base, formulas[:10], formulas[10])


def test_wide_linear_instance_budget():
    # membership in L, V and E is one comparison of whole tables, so a 16-ary
    # connective costs the classifier and each extraction no row-by-row walk
    inst = _wide_xor_instance()
    assert len(inst.variables) == 40
    connective_plan.cache_clear()
    with budget("11 formulae of a 16-ary xor over 40 variables, dispatched", 1.0):
        decision = dispatch(inst)
    assert decision.fragment_used is Fragment.LINEAR and not decision.implies
    env = decision.counterexample
    assert all(naive_value(p.root, inst.base, env) for p in inst.premises)
    assert not naive_value(inst.conclusion.root, inst.base, env)
    wide_random = BooleanFunction("rnd16", 16, random.Random("wide-random").getrandbits(1 << 16))
    for f, expected in ((inst.base["xor16"], ImpClass.PARITYL_COMPLETE), (wide_random, ImpClass.CONP_COMPLETE)):
        base = Base.of(f, TOP)
        with budget(f"classify {{{f.name}, top}}", 0.1):
            verdict = classify_base(base)
        assert verdict.complexity is expected


def _short_parity_instances(count):
    # `count` premises over `count` variables, each the xor of three of them,
    # all true under a planted assignment; an odd xor of premises is implied,
    # and the same xor with a fresh variable z is refuted
    rng = random.Random("short-parities")
    names = [f"x{i}" for i in range(1, count + 1)]
    planted = {name: rng.randrange(2) for name in names}
    premises = []
    for _ in range(count):
        node = _xor_node([Var(v) for v in rng.sample(names, 3)])
        if not naive_value(node, LIN_CONST, planted):
            node = App("xor", (node, App("top")))
        premises.append(node)
    goal = _xor_node(rng.sample(premises, 3))
    refuted = App("xor", (goal, Var("z")))
    built = [Formula.build(p, LIN_CONST) for p in premises]
    return (
        Instance.build(LIN_CONST, built, Formula.build(goal, LIN_CONST)),
        Instance.build(LIN_CONST, built, Formula.build(refuted, LIN_CONST)),
    )


def test_many_short_parities_budget():
    # each formula's extraction costs its own three variables, not the
    # instance's 2000, and the parity system is solved by basis insertion
    implied, refuted = _short_parity_instances(2000)
    with budget("2000 three-variable parity premises, implied and refuted, dispatched", 0.5):
        yes = dispatch(implied)
        no = dispatch(refuted)
    assert yes.fragment_used is Fragment.LINEAR and yes.implies
    assert no.fragment_used is Fragment.LINEAR and not no.implies
    env = no.counterexample
    assert all(naive_value(p.root, LIN_CONST, env) for p in refuted.premises)
    assert not naive_value(refuted.conclusion.root, LIN_CONST, env)


def test_closure_arity_4_budget(capsys, tmp_path):
    # every command finishes in bounded time: a complete base composes all
    # 65536 quaternary functions
    for name, text in (("and+not", "and 2 0001\nnot 1 10\n"), ("nand", "nand 2 1110\n")):
        path = tmp_path / f"{name}.base"
        path.write_text(text)
        with budget(f"closure --arity 4 of {{{name}}}", 5.0):
            assert main(["closure", "--base", str(path), "--arity", "4", "--format", "record"]) == 0
            assert json.loads(capsys.readouterr().out)["count"] == 65536


def _all_small_dnfs():
    literal_sets = []
    for signs in itertools.product((0, 1, -1), repeat=3):
        term = tuple(s * (i + 1) for i, s in enumerate(signs) if s)
        if term:
            literal_sets.append(term)
    for count in range(1, 4):
        for combo in itertools.combinations(literal_sets, count):
            yield DnfInput.build(list(combo))


def test_criterion_5_reduction_correctness():
    with budget("reduction correctness", 120.0):
        checked = 0
        for dnf in _all_small_dnfs():
            expected = dnf.is_tautology()
            assert decide_oracle(reduce_tautdnf_monotone(dnf)).implies == expected
            assert decide_oracle(reduce_tautdnf_d2(dnf)).implies == expected
            checked += 1
        assert checked == 2951  # 26 literal sets, up to 3 terms
        rng = random.Random("acceptance:linsys")
        for _ in range(500):
            n = rng.randint(1, 6)
            rows = tuple(
                (rng.randrange(1 << n), rng.randint(0, 1)) for _ in range(rng.randint(1, 6))
            )
            system = Gf2System(n, rows)
            instance = reduce_linsys_to_imp(system)
            assert decide_oracle(instance).implies == (solve(system) is None)
        for length in range(13):
            for bits in itertools.product("01", repeat=length):
                word = "".join(bits)
                odd = word.count("1") % 2 == 1
                assert decide_oracle(reduce_mod2_unary(word)).implies == odd
                assert decide_oracle(reduce_mod2_single_linear(word)).implies == odd


def test_criterion_6_majority_reduction_bounds():
    with budget("majority reduction size bounds", 10.0):
        rng = random.Random("acceptance:shape")
        for _ in range(60):
            term_count = rng.randint(1, 32)
            sizes = [rng.randint(1, 8) for _ in range(term_count)]
            universe = rng.randint(1, sum(sizes))
            body = []
            for size in sizes:
                size = min(size, universe)
                variables = rng.sample(range(1, universe + 1), size)
                body.append([v if rng.random() < 0.5 else -v for v in variables])
            dnf = DnfInput.build(body)
            instance = reduce_tautdnf_d2(dnf)
            lits = sum(len(t) for t in dnf.terms)
            widest = max(len(t) for t in dnf.terms)
            bound = (len(dnf.terms) - 1).bit_length() + (widest - 1).bit_length() + 3
            root = instance.conclusion.root
            assert depth(root) <= bound, (len(dnf.terms), widest, depth(root), bound)
            assert connective_count(root) <= 4 * (lits + len(dnf.terms))


def test_criterion_7_gf2_solver():
    with budget("gf2 solver validation", 30.0):
        rng = random.Random("acceptance:gf2")
        for _ in range(400):
            n = rng.randint(1, 12)
            rows = tuple(
                (rng.randrange(1 << n), rng.randint(0, 1)) for _ in range(rng.randint(0, 14))
            )
            system = Gf2System(n, rows)
            solution = solve(system)
            assert (solution is not None) == brute_consistent(system)
            if solution is not None:
                assert satisfies_all(system, solution)
            else:
                assert not brute_consistent(system)
