import itertools
import random
import tracemalloc

import pytest

from helpers import naive_implies, naive_value, semantic_formulas
from postimp.boolfn import AND2, BOT, MAJ3, NOT, OR2, TOP, XOR2, XOR3, BooleanFunction
from postimp.classify import Fragment
from postimp.decide import (
    Decision,
    Mode,
    VariableCapError,
    decide_and_fragment,
    decide_linear,
    decide_or_fragment,
    decide_oracle,
    decide_single_linear,
    decide_unary_fragment,
    dispatch,
)
from postimp import decide, formula
from postimp.formula import (
    App,
    Base,
    Formula,
    FragmentError,
    Instance,
    Program,
    Var,
    connective_count,
    evaluate_block,
    iter_nodes,
    parse_formula,
    variable_word,
)
from postimp.reductions import MONOTONE_BASE, DnfInput, reduce_tautdnf_d2, reduce_tautdnf_monotone
from postimp.selftest import FRAGMENT_BASES, random_formula, random_instance

BASIC = Base.of(AND2, OR2, NOT, TOP, BOT)
V = Base.of(OR2, TOP, BOT)
E = Base.of(AND2, TOP, BOT)
N = Base.of(NOT, TOP)
LIN = Base.of(XOR2, XOR3, TOP, BOT)
MAJ = Base.of(MAJ3)


def inst(base, premises, conclusion):
    return Instance.build(
        base, [parse_formula(p, base) for p in premises], parse_formula(conclusion, base)
    )


def check_counterexample(instance, decision):
    sigma = decision.counterexample
    assert sigma is not None
    for psi in instance.premises:
        assert naive_value(psi.root, instance.base, sigma) == 1
    assert naive_value(instance.conclusion.root, instance.base, sigma) == 0


def test_oracle_basics():
    assert decide_oracle(inst(BASIC, ["x"], "x")).implies
    assert decide_oracle(inst(BASIC, [], "or(x, not(x))")).implies
    assert decide_oracle(inst(BASIC, ["and(x, y)"], "y")).implies
    d = decide_oracle(inst(BASIC, ["or(x, y)"], "x"))
    assert not d.implies
    assert d.counterexample == {"x": 0, "y": 1}  # least assignment index wins


def test_oracle_counterexample_is_least():
    d = decide_oracle(inst(BASIC, ["or(x, y)"], "and(x, y)"))
    assert not d.implies
    # index 1 (x=1, y=0) is the first falsifier
    assert d.counterexample == {"x": 1, "y": 0}
    check_counterexample(inst(BASIC, ["or(x, y)"], "and(x, y)"), d)


def test_oracle_zero_variables():
    assert decide_oracle(inst(BASIC, ["top()"], "top()")).implies
    assert not decide_oracle(inst(BASIC, [], "bot()")).implies
    assert decide_oracle(inst(BASIC, ["bot()"], "bot()")).implies


def test_oracle_variable_cap():
    wide = inst(BASIC, [], "or(" + ", or(".join(f"v{i}" for i in range(24)) + ", v24" + ")" * 24)
    with pytest.raises(VariableCapError) as err:
        decide_oracle(wide)
    assert err.value.count == 25 and err.value.cap == 24
    assert decide_oracle(wide, max_vars=25).implies is False


def test_oracle_crosses_block_boundary():
    # 17 variables forces more than one 2^16-lane block
    names = [f"v{i}" for i in range(17)]
    conj = names[0]
    for n in names[1:]:
        conj = f"and({conj}, {n})"
    instance = inst(BASIC, [conj], "v16")
    assert decide_oracle(instance).implies
    instance = inst(BASIC, [conj.replace("v16", "not(v16)")], "v16")
    d = decide_oracle(instance)
    assert not d.implies
    check_counterexample(instance, d)


def test_linear_decider():
    assert decide_linear(inst(LIN, ["xor3(x, y, z)"], "xor3(x, y, z)")).implies
    d = decide_linear(inst(LIN, ["xor(x, y)", "xor(y, z)"], "xor(x, z)"))
    assert not d.implies
    check_counterexample(inst(LIN, ["xor(x, y)", "xor(y, z)"], "xor(x, z)"), d)
    assert decide_linear(inst(LIN, ["xor(x, y)", "xor(y, z)"], "xor(xor(x, z), top())")).implies
    # empty premises: linear tautologies only
    assert decide_linear(inst(LIN, [], "top()")).implies
    assert not decide_linear(inst(LIN, [], "xor(x, x)")).implies


def test_or_decider():
    assert decide_or_fragment(inst(V, ["or(x, y)"], "or(x, or(y, z))")).implies
    assert not decide_or_fragment(inst(V, ["or(x, y)"], "x")).implies
    assert decide_or_fragment(inst(V, [], "top()")).implies
    assert decide_or_fragment(inst(V, ["bot()"], "x")).implies  # unsatisfiable premise
    assert not decide_or_fragment(inst(V, ["top()"], "x")).implies


def test_and_decider():
    assert decide_and_fragment(inst(E, ["and(x, and(y, z))"], "and(x, y)")).implies
    assert not decide_and_fragment(inst(E, ["and(x, y)"], "and(x, z)")).implies
    # two premises jointly cover the conclusion
    assert decide_and_fragment(inst(E, ["x", "y"], "and(x, y)")).implies
    assert decide_and_fragment(inst(E, ["bot()"], "and(x, y)")).implies
    assert not decide_and_fragment(inst(E, ["x"], "bot()")).implies
    assert decide_and_fragment(inst(E, [], "top()")).implies


def test_unary_decider():
    assert decide_unary_fragment(inst(N, ["t"], "not(not(t))")).implies
    assert not decide_unary_fragment(inst(N, ["t"], "not(t)")).implies
    assert decide_unary_fragment(inst(N, ["t", "not(t)"], "u")).implies
    assert decide_unary_fragment(inst(N, ["not(top())"], "u")).implies
    assert not decide_unary_fragment(inst(N, ["top()"], "u")).implies
    assert decide_unary_fragment(inst(N, [], "not(not(top()))")).implies


def test_unary_dispatch_with_a_fictive_argument():
    # nfst is not(x1) and ignores x2: a binary connective in the unary fragment
    base = Base.of(BooleanFunction.from_bits("nfst", "1010"), TOP)
    rng = random.Random("nfst")
    answers = set()
    for _ in range(300):
        instance = random_instance(rng, base, max_vars=6)
        fast = dispatch(instance)
        assert fast.fragment_used is Fragment.UNARY
        assert fast.implies == decide_oracle(instance).implies
        answers.add(fast.implies)
    assert answers == {True, False}


def test_single_linear_decider():
    def single(premise, conclusion):
        return decide_single_linear(Instance.build(LIN, (parse_formula(premise, LIN),), parse_formula(conclusion, LIN)))

    assert single("xor3(x, y, z)", "xor3(x, y, z)").implies
    assert not single("xor3(x, y, z)", "xor(x, y)").implies
    assert single("xor(x, x)", "y").implies
    # the constant-true conclusion needs its own rule branch
    assert single("x", "top()").implies
    # the joint order puts the premise's variables first, then the conclusion's
    assert single("xor(y, x)", "xor(z, xor(x, xor(y, z)))").implies
    with pytest.raises(ValueError, match="must share its base"):
        Instance.build(LIN, (parse_formula("x", LIN),), parse_formula("x", Base.of(XOR2, TOP)))
    # any other premise count is refused with dispatch's message
    x = parse_formula("x", LIN)
    for premises in ((), (x, x)):
        inst = Instance.build(LIN, premises, x)
        with pytest.raises(ValueError, match=f"needs exactly one premise, got {len(premises)}") as caught:
            decide_single_linear(inst)
        with pytest.raises(ValueError) as by_dispatch:
            dispatch(inst, Mode.SINGLE_PREMISE)
        assert str(caught.value) == str(by_dispatch.value)


def both_directions(base, phi, psi):
    """Single-premise answers for phi => psi and psi => phi."""
    pairs = ((phi, psi), (psi, phi))
    return tuple(dispatch(inst(base, [p], c), Mode.SINGLE_PREMISE).implies for p, c in pairs)


def test_equivalence():
    assert both_directions(Base.of(NOT), "x", "not(not(x))") == (True, True)
    assert both_directions(V, "or(x, y)", "or(y, x)") == (True, True)
    assert both_directions(V, "x", "or(x, y)") == (True, False)


def test_dispatch_routing():
    linear = inst(LIN, ["xor3(x, y, z)"], "x")
    assert dispatch(linear).fragment_used is Fragment.LINEAR
    assert dispatch(linear, Mode.SINGLE_PREMISE).fragment_used is Fragment.LINEAR
    general = inst(BASIC, ["x"], "x")
    assert dispatch(general).fragment_used is Fragment.GENERAL
    with pytest.raises(ValueError, match="exactly one premise"):
        dispatch(inst(LIN, [], "x"), Mode.SINGLE_PREMISE)


def test_dispatch_override():
    mixed = inst(BASIC, ["or(x, y)"], "or(x, or(y, z))")
    forced = dispatch(mixed, override=Fragment.OR)
    assert forced.implies and forced.fragment_used is Fragment.OR
    with pytest.raises(FragmentError):
        dispatch(inst(BASIC, ["and(x, y)"], "x"), override=Fragment.OR)
    assert dispatch(mixed, override=Fragment.GENERAL).fragment_used is Fragment.GENERAL


def test_single_premise_semantics_differ_from_classification_only():
    # dispatch answers agree between modes on single-premise instances
    rng = random.Random(23)
    for _ in range(200):
        base = rng.choice(FRAGMENT_BASES["linear"])
        instance = random_instance(rng, base, max_vars=6, single=True)
        assert (
            dispatch(instance, Mode.SINGLE_PREMISE).implies
            == dispatch(instance, Mode.SET_PREMISE).implies
            == decide_oracle(instance).implies
        )


FRAGMENT_DECIDERS = {
    "linear": decide_linear,
    "or": decide_or_fragment,
    "and": decide_and_fragment,
    "unary": decide_unary_fragment,
}


@pytest.mark.parametrize("fragment", sorted(FRAGMENT_DECIDERS))
def test_fragment_decider_agrees_with_oracle_randomized(fragment):
    rng = random.Random(f"unit:{fragment}")
    decider = FRAGMENT_DECIDERS[fragment]
    for _ in range(400):
        base = rng.choice(FRAGMENT_BASES[fragment])
        instance = random_instance(rng, base, max_vars=8)
        fast = decider(instance)
        slow = decide_oracle(instance)
        assert fast.implies == slow.implies
        if fast.counterexample is not None:
            check_counterexample(instance, fast)


MICRO_BASES = {
    "linear": (LIN, decide_linear),
    "or": (V, decide_or_fragment),
    "and": (E, decide_and_fragment),
    "unary": (N, decide_unary_fragment),
}


@pytest.mark.parametrize("fragment", sorted(MICRO_BASES))
def test_fragment_decider_exhaustive_micro(fragment):
    base, decider = MICRO_BASES[fragment]
    names = ("x", "y", "z")
    reps = list(semantic_formulas(base, names, 3).values())
    for goal in reps:
        for count in (0, 1, 2):
            for premises in itertools.product(reps, repeat=count):
                instance = Instance.build(base, premises, goal)
                assert decider(instance).implies == naive_implies(instance)[0]


def test_single_linear_exhaustive_micro():
    reps = list(semantic_formulas(LIN, ("x", "y", "z"), 3).values())
    for premise in reps:
        for goal in reps:
            instance = Instance.build(LIN, (premise,), goal)
            assert decide_single_linear(instance).implies == naive_implies(instance)[0]
            # single-premise linear rule, the equation system, and the oracle agree
            assert decide_single_linear(instance).implies == decide_linear(instance).implies


def test_adding_premises_is_monotone():
    rng = random.Random(41)
    for _ in range(150):
        base = rng.choice([BASIC, MAJ, LIN])
        instance = random_instance(rng, base, max_vars=6, max_premises=3)
        extra = random_instance(rng, base, max_vars=6, max_premises=1)
        grown = Instance.build(
            base, instance.premises + extra.premises, instance.conclusion
        )
        if decide_oracle(instance).implies:
            assert decide_oracle(grown).implies


def test_equivalence_matches_joint_truth_tables():
    rng = random.Random(59)
    for _ in range(150):
        base = rng.choice([V, N, LIN])
        a = random_instance(rng, base, max_vars=5, max_premises=0)
        b = random_instance(rng, base, max_vars=5, max_premises=0)
        phi, psi = a.conclusion, b.conclusion
        for premise, conclusion in ((phi, psi), (psi, phi)):
            instance = Instance.build(base, (premise,), conclusion)
            assert dispatch(instance, Mode.SINGLE_PREMISE).implies == naive_implies(instance)[0]


def test_decision_shape():
    d = dispatch(inst(BASIC, ["or(x, y)"], "x"))
    assert isinstance(d, Decision)
    assert d.fragment_used is Fragment.GENERAL
    assert "assignment" in d.detail


def multi_block_instances():
    """Seeded instances over exactly 17 or 18 variables, so the oracle sweeps
    two to four 2^16-lane blocks: random formulae over the general self-test
    bases and the monotone base, then DNF-tautology reductions, then one
    instance whose premises vanish on all of block 0."""
    rng = random.Random("oracle:multi-block")
    out = []
    for base in (*FRAGMENT_BASES["general"], MONOTONE_BASE):
        found = 0
        while found < 4:
            names = [f"x{i + 1}" for i in range(rng.choice((17, 18)))]
            premises = [random_formula(rng, base, names, 7) for _ in range(rng.randint(1, 3))]
            instance = Instance.build(base, premises, random_formula(rng, base, names, 7))
            if len(instance.variables) == len(names):
                out.append(instance)
                found += 1
    for reduce, num_vars in ((reduce_tautdnf_monotone, 9), (reduce_tautdnf_d2, 8)):
        for tautology in (True, False):
            while True:
                terms = [
                    [rng.choice((1, -1)) * v for v in rng.sample(range(1, num_vars + 1), rng.randint(1, 3))]
                    for _ in range(3 * num_vars)
                ]
                if tautology:
                    terms += [[1], [-1, 2], [-1, -2]]
                dnf = DnfInput.build(terms, num_vars)
                if dnf.is_tautology() == tautology:
                    break
            out.append(reduce(dnf))
    # x17 is 0 on every lane of block 0, so the premise sweep there stops at x17
    nand = lambda a, b: f"not(and({a}, {b}))"
    low = [f"x{i}" for i in range(1, 17)]
    while len(low) > 1:
        low = [nand(low[i], low[i + 1]) for i in range(0, len(low), 2)]
    out.append(inst(Base.of(AND2, NOT), [low[0], "x17", "not(and(x2, x3))"], "not(and(x17, and(x3, x5)))"))
    return out


# (implies, index of the least counterexample, detail), from the block-by-block
# walk of every formula before the oracle compiled multi-block sweeps
MULTI_BLOCK_DECISIONS = [
    (True, None, 'all 262144 assignments checked'),  # 18 vars
    (True, None, 'all 262144 assignments checked'),  # 18 vars
    (False, 1823, 'assignment 1823 satisfies every premise and falsifies the conclusion'),  # 17 vars, block 0
    (True, None, 'all 262144 assignments checked'),  # 18 vars
    (False, 687, 'assignment 687 satisfies every premise and falsifies the conclusion'),  # 18 vars, block 0
    (False, 511, 'assignment 511 satisfies every premise and falsifies the conclusion'),  # 18 vars, block 0
    (False, 855, 'assignment 855 satisfies every premise and falsifies the conclusion'),  # 17 vars, block 0
    (False, 319, 'assignment 319 satisfies every premise and falsifies the conclusion'),  # 17 vars, block 0
    (False, 16389, 'assignment 16389 satisfies every premise and falsifies the conclusion'),  # 18 vars, block 0
    (False, 7431, 'assignment 7431 satisfies every premise and falsifies the conclusion'),  # 17 vars, block 0
    (False, 365, 'assignment 365 satisfies every premise and falsifies the conclusion'),  # 17 vars, block 0
    (False, 80231, 'assignment 80231 satisfies every premise and falsifies the conclusion'),  # 18 vars, block 1
    (True, None, 'all 262144 assignments checked'),  # 18 vars
    (False, 153946, 'assignment 153946 satisfies every premise and falsifies the conclusion'),  # 18 vars, block 2
    (True, None, 'all 262144 assignments checked'),  # 18 vars
    (False, 91477, 'assignment 91477 satisfies every premise and falsifies the conclusion'),  # 18 vars, block 1
    (False, 65596, 'assignment 65596 satisfies every premise and falsifies the conclusion'),  # 17 vars, block 1
]


def test_multi_block_oracle_decisions():
    instances = multi_block_instances()
    assert len(instances) == len(MULTI_BLOCK_DECISIONS)
    for instance, (implies, index, detail) in zip(instances, MULTI_BLOCK_DECISIONS):
        assert len(instance.variables) in (17, 18)
        d = decide_oracle(instance)
        assert (d.implies, d.fragment_used, d.detail) == (implies, Fragment.GENERAL, detail)
        if index is None:
            assert d.counterexample is None
        else:
            expected = [(name, index >> i & 1) for i, name in enumerate(instance.variables)]
            assert list(d.counterexample.items()) == expected
            check_counterexample(instance, d)


def _count_applications(monkeypatch):
    """A list that grows by one entry per kernel application, through
    `formula.connective_plan` rebound to hand out counting kernels."""
    applied = []

    make = formula.connective_plan

    def counting_plan(*key):
        kernel = make(*key)
        return lambda *args: applied.append(1) or kernel(*args)

    monkeypatch.setattr(formula, "connective_plan", counting_plan)
    return applied


def _distinct_applications(phi):
    return {node for node in iter_nodes(phi.root) if isinstance(node, App)}


def test_multi_block_oracle_skips_a_block_its_premises_rule_out(monkeypatch):
    instance = multi_block_instances()[-1]
    assert instance.variables[16] == "x17"
    words = [variable_word(i, 1 << 16) for i in range(16)] + [0]
    assert evaluate_block(instance.premises[1], words, 1 << 16, instance.variables) == 0
    applied = _count_applications(monkeypatch)
    d = decide_oracle(instance)
    assert not d.implies
    index = sum(d.counterexample[name] << i for i, name in enumerate(instance.variables))
    assert index >> 16 == 1
    # block 0 applies every step of the first premise, which is over the lane
    # variables alone, and stops at the second, the variable x17; block 1
    # applies no step of the first premise, and every step of the third
    # premise and the conclusion, which no block reached before
    first, second, third = instance.premises
    assert isinstance(second.root, Var) and "x17" not in first.variables
    expected = _distinct_applications(first) | _distinct_applications(third) | _distinct_applications(instance.conclusion)
    assert len(applied) == len(expected)


def _lane_blocks(n):
    """The oracle's blocks of words over n > 16 variables, in order."""
    width = 1 << 16
    mask = (1 << width) - 1
    low = [variable_word(i, width) for i in range(16)]
    return [low + [mask if block >> i & 1 else 0 for i in range(n - 16)] for block in range(1 << (n - 16))]


def _walk_oracle(instance):
    """(implies, detail, counterexample) from `evaluate_block` on every
    formula and every block, with no `Program` and no early exit."""
    order = instance.variables
    mask = (1 << (1 << 16)) - 1
    for block, words in enumerate(_lane_blocks(len(order))):
        sat = mask
        for psi in instance.premises:
            sat &= evaluate_block(psi, words, 1 << 16, order)
        bad = sat & (evaluate_block(instance.conclusion, words, 1 << 16, order) ^ mask)
        if bad:
            index = (block << 16) + (bad & -bad).bit_length() - 1
            sigma = {name: index >> i & 1 for i, name in enumerate(order)}
            return False, f"assignment {index} satisfies every premise and falsifies the conclusion", sigma
    return True, f"all {1 << len(order)} assignments checked", None


def hoisting_instances():
    """Seeded instances over 17 to 20 variables whose compiled programs
    hoist the steps over the 16 lane variables x1..x16, which occur first.

    Premise 1 is over the lane variables alone, so its root is invariant; it
    holds the lane-only subterm `shared`, which the conclusion reads too.
    Premise 2 is and(x_h, f) for a variable x_h past x16, so it vanishes on
    all of block 0, and the conclusion is first reached in a later block.
    The conclusion is or(and(shared, g), r), with g over the lane variables:
    r is f, so the instance is implied; or random; or the negated conjunction
    of every variable past x16 and a lane-only formula, so a counterexample
    can lie only in the last block."""
    rng = random.Random("oracle:hoisting")
    lanes = [f"x{i}" for i in range(1, 17)]

    def chain(names):
        node = Var(names[0])
        for name in names[1:]:
            node = App("and", (node, Var(name)))
        return node

    out = []
    for k in range(12):
        names = [f"x{i}" for i in range(1, 18 + k % 4)]
        shared = None
        while shared is None or connective_count(shared) < 4:
            shared = random_formula(rng, BASIC, lanes, 4).root
        lane_only = App("or", (shared, chain(lanes)))
        f = random_formula(rng, BASIC, names, 5).root
        vanishing = App("and", (Var(rng.choice(names[16:])), f))
        g = random_formula(rng, BASIC, lanes, 3).root
        r = (
            f,
            random_formula(rng, BASIC, names, 5).root,
            App("not", (App("and", (chain(names[16:]), random_formula(rng, BASIC, lanes, 4).root)),)),
        )[k % 3]
        conclusion = App("or", (App("and", (shared, g)), r))
        premises = [Formula.build(lane_only, BASIC), Formula.build(vanishing, BASIC)]
        out.append(Instance.build(BASIC, premises, Formula.build(conclusion, BASIC)))
    return out


def test_multi_block_oracle_matches_the_walk_on_hoisted_programs():
    outcomes = set()
    for instance in hoisting_instances():
        n = len(instance.variables)
        assert 17 <= n <= 20 and set(instance.variables[:16]) == {f"x{i}" for i in range(1, 17)}
        words = _lane_blocks(n)[0]
        assert evaluate_block(instance.premises[1], words, 1 << 16, instance.variables) == 0
        # the first premise's steps form one group, run in a first evaluation only
        program = Program.compile((*instance.premises, instance.conclusion), instance.variables, 16)
        ((lane_only, _),), *_ = program.segments[0]
        assert lane_only == 1 << (n - 16 + 1)
        d = decide_oracle(instance)
        implies, detail, sigma = _walk_oracle(instance)
        assert (d.implies, d.fragment_used, d.detail) == (implies, Fragment.GENERAL, detail)
        assert d.counterexample == sigma and (sigma is None or list(sigma) == list(instance.variables))
        if sigma is not None:
            index = sum(sigma[name] << i for i, name in enumerate(instance.variables))
            outcomes.add("last block" if index >> 16 == (1 << (n - 16)) - 1 else "earlier block")
        else:
            outcomes.add("implied")
    assert outcomes == {"implied", "earlier block", "last block"}


def general_sweep_instances():
    """Seeded 20-variable instances of the two coNP shapes that make the
    oracle sweep all 16 blocks: (family, instance) pairs.

    "maj" instances are `reduce_tautdnf_d2` of 9-variable 3-DNFs, whose
    `maj` kernels take 4 ops; every third DNF is a tautology.  Their tie
    premise needs x_i or y_i for every i, so a counterexample lies in a
    block that sets x8 or y8 and x9 or y9, never in block 0.  "anf"
    instances are over {and, xor, top}: the premise p is the xor of every
    variable, in index order, and of monomials of degree 2 or 3, some of
    them and-ed with the 0-ary `top`, and the conclusion p xor q xor pq
    (p or q) reads the premise's tree and shares monomial objects with it,
    so `top` sits inside shared subterms.  That conclusion is implied; the
    conclusion xor the product of x17..x20 can fail only in the last block,
    and the conclusion xor x_h x_k, for two variables past x16, only in a
    block between the first and the last."""
    rng = random.Random("oracle:general-sweep")
    out = []
    for k in range(6):
        terms = [[rng.choice((1, -1)) * v for v in rng.sample(range(1, 10), 3)] for _ in range(rng.choice((14, 20, 28)))]
        if k % 3 == 0:
            terms += [[1], [-1, 2], [-1, -2]]
        out.append(("maj", reduce_tautdnf_d2(DnfInput.build(terms, 9))))
    base = Base.of(AND2, XOR2, TOP)
    names = [f"x{i}" for i in range(1, 21)]
    top = App("top")

    def fold(op, nodes):
        node = nodes[0]
        for other in nodes[1:]:
            node = App(op, (node, other))
        return node

    for k in range(9):
        monomials = []
        for _ in range(rng.randint(8, 24)):
            monomial = fold("and", [Var(name) for name in sorted(rng.sample(names, rng.choice((2, 3))))])
            monomials.append(App("and", (monomial, top)) if rng.random() < 0.3 else monomial)
        p = fold("xor", [Var(name) for name in names] + monomials + [top] * (k % 2))
        q = fold("xor", rng.sample(monomials, 3))
        conclusion = App("xor", (App("xor", (p, q)), App("and", (p, q))))
        if k % 3 == 1:
            conclusion = App("xor", (conclusion, fold("and", [Var(name) for name in names[16:]])))
        elif k % 3 == 2:
            h, j = sorted(rng.sample(names[16:], 2))
            conclusion = App("xor", (conclusion, App("and", (Var(h), Var(j)))))
        out.append(("anf", Instance.build(base, [Formula.build(p, base)], Formula.build(conclusion, base))))
    return out


def test_multi_block_oracle_matches_the_walk_on_general_sweep_shapes():
    outcomes = {"maj": set(), "anf": set()}
    for family, instance in general_sweep_instances():
        assert len(instance.variables) == 20
        d = decide_oracle(instance)
        implies, detail, sigma = _walk_oracle(instance)
        assert (d.implies, d.fragment_used, d.detail) == (implies, Fragment.GENERAL, detail)
        assert d.counterexample == sigma and (sigma is None or list(sigma) == list(instance.variables))
        if sigma is None:
            outcomes[family].add("implied")
        else:
            block = sum(sigma[name] << i for i, name in enumerate(instance.variables)) >> 16
            outcomes[family].add("last block" if block == 15 else "earlier block" if block else "block 0")
    assert outcomes == {"maj": {"implied", "earlier block"}, "anf": {"implied", "earlier block", "last block"}}


def test_lane_words_are_built_once(monkeypatch):
    instance = multi_block_instances()[-1]
    assert len(instance.variables) == 17
    built = []
    make = decide.variable_word
    monkeypatch.setattr(decide, "variable_word", lambda *args: built.append(args) or make(*args))
    decide._lane_words.cache_clear()
    first = decide_oracle(instance)
    assert built == [(i, 1 << 16) for i in range(16)]
    built.clear()
    assert decide_oracle(instance) == first and built == []
    assert decide._lane_words() == tuple(variable_word(i, 1 << 16) for i in range(16))


def test_multi_block_oracle_applies_an_invariant_step_once(monkeypatch):
    # 20 variables, so 16 blocks in counting order: a step is applied in a
    # formula's first evaluation and again only when a block variable it
    # depends on has changed since that formula's last evaluation, so a step
    # over the 16 lane variables alone is applied once per sweep
    rng = random.Random("oracle:hoisting-count")
    terms = [[rng.choice((1, -1)) * v for v in rng.sample(range(1, 11), 3)] for _ in range(20)]
    instance = reduce_tautdnf_monotone(DnfInput.build(terms + [[1], [-1, 2], [-1, -2]], 10))
    order = instance.variables
    assert len(order) == 20
    lanes = set(order[:16])
    premise, conclusion = instance.premises[0], instance.conclusion
    # the tie premise vanishes on a block that sets both x9 and y9, or both
    # x10 and y10, to 0, so 9 of the 16 blocks reach the conclusion
    reached = [block for block, words in enumerate(_lane_blocks(20)) if evaluate_block(premise, words, 1 << 16, order)]
    assert len(reached) == 9
    # the old rule applied every step not over the lane variables alone in
    # every block that reached it
    expected, old_rule, invariant, seen = 0, 0, 0, set()
    for phi, blocks in ((premise, range(16)), (conclusion, reached)):
        for node in _distinct_applications(phi) - seen:
            leaves = {leaf.name for leaf in iter_nodes(node) if isinstance(leaf, Var)} - lanes
            support = sorted(order.index(name) - 16 for name in leaves)
            patterns = [[block >> i & 1 for i in support] for block in blocks]
            expected += 1 + sum(1 for a, b in zip(patterns, patterns[1:]) if a != b)
            old_rule += len(blocks) if support else 1
            invariant += not support
        seen.update(iter_nodes(phi.root))
    assert invariant > 0 and expected < old_rule
    applied = _count_applications(monkeypatch)
    assert decide_oracle(instance).implies
    assert len(applied) == expected


def _memory_instance():
    # 22 variables and about 1840 connectives: 64 blocks
    rng = random.Random("oracle:memory")
    terms = [[rng.choice((1, -1)) * v for v in rng.sample(range(1, 11), 3)] for _ in range(600)]
    instance = reduce_tautdnf_d2(DnfInput.build(terms, 10))
    assert len(instance.variables) == 22
    return instance


def test_multi_block_oracle_memory():
    # a program whose words are released after their last reader
    instance = _memory_instance()
    tracemalloc.start()
    try:
        d = decide_oracle(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.implies
    assert peak < 2_000_000


# kernel applications per `decide_oracle` call before the program tracked
# block variables, when a step not over the lane variables alone ran in
# every block that reached it
APPLICATIONS_BEFORE = {
    "memory": [77120],
    "multi-block": [14, 35, 34, 33, 283, 695, 72, 476, 60, 89, 84, 57, 116, 107, 150, 104, 35],
    "hoisting": [26, 41, 38, 23, 25, 45, 26, 66, 42, 41, 30, 114],
    "general-sweep": [590, 600, 341, 590, 230, 196, 653, 698, 526, 622, 576, 526, 411, 821, 557],
}


def test_oracle_applies_no_more_kernels_than_before(monkeypatch):
    applied = _count_applications(monkeypatch)
    instances = {
        "memory": [_memory_instance()],
        "multi-block": multi_block_instances(),
        "hoisting": hoisting_instances(),
        "general-sweep": [instance for _, instance in general_sweep_instances()],
    }
    counts = {}
    for name, group in instances.items():
        counts[name] = []
        for instance in group:
            applied.clear()
            decide_oracle(instance)
            counts[name].append(len(applied))
    for name, before in APPLICATIONS_BEFORE.items():
        assert len(counts[name]) == len(before)
        assert all(now <= then for now, then in zip(counts[name], before)), (name, counts[name])
    assert sum(counts["general-sweep"]) < sum(APPLICATIONS_BEFORE["general-sweep"])
