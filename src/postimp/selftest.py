"""Seeded random cross-checks of every fragment decider against the
exhaustive-enumeration decider."""

import random

from .boolfn import AND2, BOT, MAJ3, NOT, OR2, TOP, XOR2, XOR3
from .decide import Mode, decide_oracle, dispatch
from .formula import App, Base, Formula, Instance, Var, format_formula

# cases per fragment; 1 000 take about 3 s, so the cap is about 5 minutes
MAX_CASES = 100_000

FRAGMENT_BASES = {
    "linear": [Base.of(XOR3), Base.of(XOR2, TOP, BOT), Base.of(NOT, XOR2)],
    "or": [Base.of(OR2), Base.of(OR2, TOP, BOT)],
    "and": [Base.of(AND2), Base.of(AND2, TOP, BOT)],
    "unary": [Base.of(NOT), Base.of(NOT, TOP)],
    "single-linear": [Base.of(XOR3), Base.of(XOR2, TOP)],
    "general": [Base.of(AND2, NOT), Base.of(MAJ3)],
}


def random_formula(rng: random.Random, base: Base, names, max_depth: int) -> Formula:
    leaves = [Var(n) for n in names] + [App(f.name) for f in base.functions if f.arity == 0]
    inner = [f for f in base.functions if f.arity >= 1]

    def node(depth):
        if depth >= max_depth or not inner or rng.random() < 0.3:
            return rng.choice(leaves)
        f = rng.choice(inner)
        return App(f.name, tuple(node(depth + 1) for _ in range(f.arity)))

    return Formula.build(node(0), base)


def random_instance(
    rng: random.Random,
    base: Base,
    max_vars: int = 10,
    max_premises: int = 4,
    max_depth: int = 5,
    single: bool = False,
) -> Instance:
    names = [f"x{i + 1}" for i in range(rng.randint(1, max_vars))]
    count = 1 if single else rng.randint(0, max_premises)
    premises = [random_formula(rng, base, names, max_depth) for _ in range(count)]
    conclusion = random_formula(rng, base, names, max_depth)
    return Instance.build(base, premises, conclusion)


def run_selftest(seed: int = 0, cases: int = 1000) -> dict:
    """Per fragment: dispatch-selected decider versus the oracle on seeded
    random in-fragment instances.  Disagreement counts must be zero.  A count
    below 0 or above `MAX_CASES` is refused before any instance is drawn."""
    if cases < 0:
        raise ValueError(f"the case count must be nonnegative, got {cases}")
    if cases > MAX_CASES:
        raise ValueError(f"the case count must be at most {MAX_CASES} per fragment, got {cases}")
    fragments = {}
    total = 0
    for fragment in sorted(FRAGMENT_BASES):
        rng = random.Random(f"{seed}:{fragment}")
        single = fragment == "single-linear"
        mode = Mode.SINGLE_PREMISE if single else Mode.SET_PREMISE
        disagreements = 0
        first = None
        for _ in range(cases):
            base = rng.choice(FRAGMENT_BASES[fragment])
            inst = random_instance(rng, base, single=single)
            fast = dispatch(inst, mode)
            slow = decide_oracle(inst)
            if fast.implies != slow.implies:
                disagreements += 1
                if first is None:
                    first = {
                        "premises": [format_formula(psi) for psi in inst.premises],
                        "conclusion": format_formula(inst.conclusion),
                        "fast": fast.implies,
                        "oracle": slow.implies,
                    }
        entry = {"cases": cases, "disagreements": disagreements}
        if first is not None:
            entry["first_disagreement"] = first
        fragments[fragment] = entry
        total += disagreements
    return {
        "seed": seed,
        "cases_per_fragment": cases,
        "fragments": fragments,
        "total_disagreements": total,
    }
