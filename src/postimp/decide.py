"""Deciding whether premises imply a conclusion.

Each tractable fragment gets the algorithm its normal forms admit: linear
instances become a parity equation system, disjunctive instances a coefficient
dominance check, conjunctive instances a coverage check, unary instances a
literal comparison, and single linear premises a three-way coefficient rule.
The general case enumerates assignments with bit-sliced evaluation, in blocks
of 2^16 lanes; the same enumerator doubles as the reference oracle for
everything else.  An oracle sweep of more than one block compiles the
instance once into a `Program` and replays it over the block numbers (the
`Program` docstring states what a block variable changes); a one-block
sweep walks each formula with `evaluate_block`.  The words of the 16 lane
variables are built once per process and shared by every sweep.
"""

import enum
import functools

from .boolfn import Record, variable_word
from .classify import Fragment, classify_base, classify_base_single_premise
from .formula import (
    Instance,
    Program,
    evaluate_block,
    extract_and_nf,
    extract_linear_nf,
    extract_or_nf,
    extract_unary_nf,
)
from .gf2 import Gf2System, solve

DEFAULT_VARIABLE_CAP = 24
_BLOCK_BITS = 16


class Mode(enum.Enum):
    SET_PREMISE = "IMP"
    SINGLE_PREMISE = "IMP1"


class VariableCapError(RuntimeError):
    """The instance is too large for exhaustive enumeration."""

    def __init__(self, count: int, cap: int):
        super().__init__(
            f"instance has {count} variables but the enumeration cap is {cap}; "
            f"raise the cap to proceed"
        )
        self.count = count
        self.cap = cap


class Decision(Record):
    __slots__ = _fields = ("implies", "fragment_used", "detail", "counterexample")

    def __init__(self, implies: bool, fragment_used: Fragment, detail: str, counterexample: dict | None = None):
        self._set("implies", implies)
        self._set("fragment_used", fragment_used)
        self._set("detail", detail)
        self._set("counterexample", counterexample)


@functools.cache
def _lane_words() -> tuple:
    """The words of the lane variables x1..x16 over one block of 2^16 lanes,
    built on first use and shared by every sweep: 16 words of 8 KiB."""
    return tuple(variable_word(i, 1 << _BLOCK_BITS) for i in range(_BLOCK_BITS))


def decide_oracle(inst: Instance, max_vars: int = DEFAULT_VARIABLE_CAP) -> Decision:
    """Exhaustive check of all assignments, 2^min(n,16) lanes at a time.

    Reports the lexicographically least counterexample (x1 is the least
    significant bit of the assignment index).  Premises are evaluated one by
    one, and a block stops at the first premise that leaves no lane.  With
    more than one block, the premises and the conclusion are compiled once
    into a `Program` whose lane variables are the first 16, and it is
    replayed on the block numbers in counting order; the `Program`
    docstring states which steps a block re-applies and which words
    persist.  A one-block sweep walks each formula with `evaluate_block`
    instead: there a compile costs more than it saves.  The lane variables'
    words come from `_lane_words`, built on the first sweep; a sweep of
    fewer than 16 variables reads their first 2^n lanes.
    """
    n = len(inst.variables)
    if n > max_vars:
        raise VariableCapError(n, max_vars)
    wbits = min(n, _BLOCK_BITS)
    width = 1 << wbits
    mask = (1 << width) - 1
    formulas = (*inst.premises, inst.conclusion)
    # below 2^16 lanes evaluate_block masks the full lane words to the width
    lane_words = _lane_words()[:wbits]
    if n > wbits:
        sweep = Program.compile(formulas, inst.variables, wbits).replay(lane_words, range(1 << (n - wbits)), width)
    else:
        sweep = [(evaluate_block(phi, lane_words, width, inst.variables) for phi in formulas)]
    for block, results in enumerate(sweep):
        sat = mask
        for _ in inst.premises:
            sat &= next(results)
            if not sat:
                break
        if not sat:
            continue
        bad = sat & (next(results) ^ mask)
        if bad:
            index = (block << wbits) + (bad & -bad).bit_length() - 1
            sigma = {name: index >> i & 1 for i, name in enumerate(inst.variables)}
            return Decision(
                False,
                Fragment.GENERAL,
                f"assignment {index} satisfies every premise and falsifies the conclusion",
                sigma,
            )
    return Decision(True, Fragment.GENERAL, f"all {1 << n} assignments checked", None)


def decide_linear(inst: Instance) -> Decision:
    """Linear fragment: premises hold and the conclusion fails exactly when a
    parity system is solvable, so implication is its inconsistency.

    The system asserts each premise equal to 1 plus `conclusion xor t = 1` and
    `t = 1` over the instance variables extended by the fresh unknown t.
    """
    order, index = inst.variables, inst.index
    n = len(order)
    rows = []
    for psi in inst.premises:
        nf = extract_linear_nf(psi, index)
        rows.append((nf.mask, 1 ^ nf.c0))
    goal = extract_linear_nf(inst.conclusion, index)
    rows.append((goal.mask | 1 << n, 1 ^ goal.c0))
    rows.append((1 << n, 1))
    solution = solve(Gf2System(n + 1, tuple(rows)))
    if solution is None:
        return Decision(
            True,
            Fragment.LINEAR,
            "the parity system of the premises and the negated conclusion is inconsistent",
        )
    sigma = {name: solution[i] for i, name in enumerate(order)}
    return Decision(
        False,
        Fragment.LINEAR,
        "the parity system of the premises and the negated conclusion is solvable",
        sigma,
    )


def decide_or_fragment(inst: Instance) -> Decision:
    """Disjunctive fragment: implication holds iff the conclusion is constant
    true or some premise's coefficients are dominated by the conclusion's."""
    index = inst.index
    goal = extract_or_nf(inst.conclusion, index)
    if goal.c0:
        return Decision(True, Fragment.OR, "the conclusion is identically true")
    for pos, psi in enumerate(inst.premises, 1):
        nf = extract_or_nf(psi, index)
        if not nf.c0 and not nf.mask & ~goal.mask:
            return Decision(
                True, Fragment.OR, f"premise {pos} is dominated by the conclusion"
            )
    return Decision(
        False, Fragment.OR, "no premise disjunction is dominated by the conclusion"
    )


def decide_and_fragment(inst: Instance) -> Decision:
    """Conjunctive fragment: implication holds iff some premise is constant
    false, or the conclusion is satisfiable and every variable it forces is
    forced by some premise."""
    index = inst.index
    supplied = 0
    for pos, psi in enumerate(inst.premises, 1):
        nf = extract_and_nf(psi, index)
        if nf.c0 == 0:
            return Decision(True, Fragment.AND, f"premise {pos} is identically false")
        supplied |= nf.mask
    goal = extract_and_nf(inst.conclusion, index)
    if goal.c0 == 0:
        return Decision(
            False,
            Fragment.AND,
            "the conclusion is identically false but the premises are satisfiable",
        )
    if not goal.mask & ~supplied:
        return Decision(
            True,
            Fragment.AND,
            "every variable the conclusion forces is forced by a premise",
        )
    return Decision(
        False,
        Fragment.AND,
        "some variable the conclusion forces is not forced by any premise",
    )


def decide_unary_fragment(inst: Instance) -> Decision:
    """Unary fragment: every formula is a literal or a constant, a linear form
    with at most one coefficient.  Premises are unsatisfiable only through a
    constant-false premise or a complementary literal pair; otherwise the
    conclusion must be constant true or one of the premise literals.

    Literals are keyed by (mask, c0): the complement of a literal flips c0,
    and a constant has an empty mask."""
    index = inst.index
    literals = {}
    for pos, psi in enumerate(inst.premises, 1):
        nf = extract_unary_nf(psi, index)
        if not nf.mask:
            if not nf.c0:
                return Decision(
                    True, Fragment.UNARY, f"premise {pos} is identically false"
                )
            continue
        other = literals.get((nf.mask, nf.c0 ^ 1))
        if other is not None:
            return Decision(
                True,
                Fragment.UNARY,
                f"premises {other} and {pos} are complementary literals",
            )
        literals.setdefault((nf.mask, nf.c0), pos)
    goal = extract_unary_nf(inst.conclusion, index)
    if not goal.mask:
        if goal.c0:
            return Decision(True, Fragment.UNARY, "the conclusion is identically true")
        return Decision(
            False, Fragment.UNARY, "the conclusion is identically false but the premises hold somewhere"
        )
    pos = literals.get((goal.mask, goal.c0))
    if pos is not None:
        return Decision(
            True, Fragment.UNARY, f"the conclusion literal is forced by premise {pos}"
        )
    return Decision(
        False, Fragment.UNARY, "the conclusion literal is not among the premise literals"
    )


def _require_single_premise(inst: Instance) -> None:
    if len(inst.premises) != 1:
        raise ValueError(f"single-premise mode needs exactly one premise, got {len(inst.premises)}")


def decide_single_linear(inst: Instance) -> Decision:
    """Single linear premise: implication holds iff the premise is constant
    false, the conclusion is constant true, or both have identical parity
    coefficients."""
    _require_single_premise(inst)
    left = extract_linear_nf(inst.premises[0], inst.index)
    right = extract_linear_nf(inst.conclusion, inst.index)
    if left.c0 == 0 and not left.mask:
        return Decision(True, Fragment.LINEAR, "the premise is identically false")
    if right.c0 == 1 and not right.mask:
        return Decision(True, Fragment.LINEAR, "the conclusion is identically true")
    if left == right:
        return Decision(
            True, Fragment.LINEAR, "premise and conclusion have identical parity coefficients"
        )
    return Decision(
        False,
        Fragment.LINEAR,
        "the coefficients differ, the premise is satisfiable, and the conclusion is refutable",
    )


_SET_DECIDERS = {
    Fragment.OR: decide_or_fragment,
    Fragment.AND: decide_and_fragment,
    Fragment.LINEAR: decide_linear,
    Fragment.UNARY: decide_unary_fragment,
    Fragment.TRIVIAL: decide_unary_fragment,
}


def dispatch(
    inst: Instance,
    mode: Mode = Mode.SET_PREMISE,
    override: Fragment | None = None,
    max_vars: int = DEFAULT_VARIABLE_CAP,
) -> Decision:
    """Route the instance to the decider its base classification selects.

    `override` forces a particular decider (it errors if the instance falls
    outside that decider's fragment).
    """
    if mode is Mode.SINGLE_PREMISE:
        _require_single_premise(inst)
    if override is not None:
        fragment = override
    elif mode is Mode.SINGLE_PREMISE:
        fragment = classify_base_single_premise(inst.base).fragment
    else:
        fragment = classify_base(inst.base).fragment
    if fragment is Fragment.GENERAL:
        return decide_oracle(inst, max_vars)
    if fragment is Fragment.LINEAR and mode is Mode.SINGLE_PREMISE:
        return decide_single_linear(inst)
    return _SET_DECIDERS[fragment](inst)
