"""Complexity classification of a connective base, and the closure of a base
at a fixed arity, used to cross-validate the classification.

The fast classifier reads membership in the Post classes V, E and L
connective by connective from one `boolfn.profile` each: a base whose
connectives are all disjunctions (or all conjunctions) is constant-depth
decidable; an all-linear base is parity-hard once some connective has two or
more relevant variables (identifying variables in such a connective yields the
ternary xor, so the closure reaches the full linear region); otherwise every
connective is a constant or a literal, and since constants and projections
are disjunctions, some connective negates.  Everything else composes one of
the three hard ternary generators, which the closure confirms independently.

Every clone is the intersection of some of the Post classes R0, R1, M, D, L,
V, E, N, S0^m and S1^m (Boehler, Creignou, Reith, Vollmer, "Playing with
Boolean Blocks I"), so f lies in [B] exactly when f lies in every class that
contains all of B: the closure is computed by membership, not composition.
"""

import enum
import functools
import itertools
import operator

from . import boolfn
from .boolfn import BooleanFunction, Record, variable_word
from .formula import Base

MAX_CLOSURE_ARITY = 4


class ImpClass(enum.Enum):
    CONP_COMPLETE = "coNP-complete"
    PARITYL_COMPLETE = "ParityL-complete"
    AC0_MOD2 = "AC0[2]"
    AC0 = "AC0"


class Fragment(enum.Enum):
    GENERAL = "general"
    LINEAR = "linear"
    OR = "or"
    AND = "and"
    UNARY = "unary"
    TRIVIAL = "trivial"  # never classified: such a base lies in V; dispatch(override=...) takes it


class ImpComplexity(Record):
    __slots__ = _fields = ("complexity", "fragment", "witness")

    def __init__(self, complexity: ImpClass, fragment: Fragment, witness: str):
        self._set("complexity", complexity)
        self._set("fragment", fragment)
        self._set("witness", witness)


def classify_base(base: Base) -> ImpComplexity:
    """Complexity of the implication problem with set-valued premises."""
    profiles = [(f, boolfn.profile(f)) for f in base.functions]
    non_disjunction = next((f for f, p in profiles if not p.disjunction), None)
    if non_disjunction is None:
        return ImpComplexity(
            ImpClass.AC0, Fragment.OR, "every connective is a disjunction of variables and constants"
        )
    non_conjunction = next((f for f, p in profiles if not p.conjunction), None)
    if non_conjunction is None:
        return ImpComplexity(
            ImpClass.AC0, Fragment.AND, "every connective is a conjunction of variables and constants"
        )
    non_linear = next((f for f, p in profiles if not p.linear), None)
    if non_linear is None:
        wide = next(((f, p) for f, p in profiles if not p.unary), None)
        if wide is None:
            # constants and projections are disjunctions, so some literal
            # here is a negation: 1 on the all-0 row
            negation = next(f for f, p in profiles if p.c0 and p.relevant)
            return ImpComplexity(
                ImpClass.AC0_MOD2,
                Fragment.UNARY,
                f"every connective depends on at most one variable and {negation.name!r} negates",
            )
        return ImpComplexity(
            ImpClass.PARITYL_COMPLETE,
            Fragment.LINEAR,
            f"every connective is linear and {wide[0].name!r} depends on "
            f"{wide[1].relevant.bit_count()} variables",
        )
    return ImpComplexity(
        ImpClass.CONP_COMPLETE,
        Fragment.GENERAL,
        f"{non_disjunction.name!r} is not a disjunction, {non_conjunction.name!r} is not a "
        f"conjunction, and {non_linear.name!r} is not linear",
    )


def classify_base_single_premise(base: Base) -> ImpComplexity:
    """Complexity with a single premise; only the linear region gets easier."""
    verdict = classify_base(base)
    if verdict.fragment is Fragment.LINEAR:
        return ImpComplexity(
            ImpClass.AC0_MOD2,
            Fragment.LINEAR,
            verdict.witness + "; a single premise reduces to coefficient comparison",
        )
    return verdict


def _properties(f: BooleanFunction) -> tuple:
    """f's class vector: membership in R0, R1, M, D, L, V, E and N, then its
    degrees of 0- and 1-separation."""
    p = boolfn.profile(f)
    return (
        not p.c0, p.c1 == 1,
        boolfn.is_monotone(f), boolfn.is_self_dual(f),
        p.linear, p.disjunction, p.conjunction, p.unary,
        boolfn.separation_degree(f, 0), boolfn.separation_degree(f, 1),
    )


def _base_properties(base: Base) -> tuple:
    """The meet of the connectives' vectors: False < True, so a componentwise min."""
    return tuple(map(min, zip(*map(_properties, base.functions))))


@functools.lru_cache(maxsize=None)
def _covers(k: int, m: int) -> list:
    """Sets of at most m masks whose union is all k positions, none redundant."""
    top = (1 << k) - 1
    union = lambda masks: functools.reduce(operator.or_, masks, 0)  # noqa: E731
    sets = (c for size in range(1, m + 1) for c in itertools.combinations(range(1, top + 1), size))
    return [c for c in sets if union(c) == top and all(union(c[:i] + c[i + 1 :]) != top for i in range(len(c)))]


def _disagreeing(x, point: int, step) -> int:
    """Lanes whose value at some row point ^ s differs from step(prediction
    at point ^ (s less its lowest bit), value at point ^ that bit)."""
    predicted = [x[point]]
    for s in range(1, len(x)):
        predicted.append(step(predicted[s ^ s & -s], x[point ^ s & -s]))
    return functools.reduce(operator.or_, (x[point ^ s] ^ p for s, p in enumerate(predicted)))


def _membership_word(props: tuple, k: int) -> int:
    """Lane t is set when the k-ary table t lies in every class of `props`.
    Row word r carries every table's value at row r, `nx` its complement, and
    each class adds the lanes that violate it; nonnegative words keep the
    big-int ops fast."""
    rows = 1 << k
    full = (1 << (1 << rows)) - 1
    top = rows - 1
    x = [variable_word(r, 1 << rows) for r in range(rows)]
    nx = [w ^ full for w in x]
    r0, r1, monotone, self_dual, linear, disjunction, conjunction, unary, deg0, deg1 = props
    bad = (x[0] if r0 else 0) | (nx[top] if r1 else 0)
    if self_dual:
        bad |= functools.reduce(operator.or_, (x[r] ^ nx[top ^ r] for r in range(rows // 2)))
    if linear:
        bad |= _disagreeing(x, 0, lambda p, v: p ^ v ^ x[0])
    if unary:  # N lies in L, so linear is set too: at most one x_i may flip the table
        flips = [x[1 << i] ^ x[0] for i in range(k)]
        bad |= functools.reduce(operator.or_, (a & b for a, b in itertools.combinations(flips, 2)), 0)
    if disjunction:
        bad |= _disagreeing(x, 0, operator.or_)
    if conjunction:
        bad |= _disagreeing(x, top, operator.and_)
    if monotone:
        pairs = ((r, r | 1 << i) for i in range(k) for r in range(rows) if not r >> i & 1)
        bad |= functools.reduce(operator.or_, (x[a] & nx[b] for a, b in pairs))
    # outside S_c^m: some m or fewer rows mapped to c have non-c coordinates
    # covering every position; an irredundant cover has at most k rows
    for c, maps_to_c, degree in ((0, nx, deg0), (1, x, deg1)):
        for cover in _covers(k, min(degree, k)):
            bad |= functools.reduce(operator.and_, (maps_to_c[v ^ top * c] for v in cover))
    return full ^ bad


@functools.lru_cache(maxsize=None)
def _functions_of(k: int, word: int) -> frozenset:
    """The k-ary functions whose tables are the set lanes of `word`, cached so
    that equal closures share one object; there are finitely many k-ary clones."""
    return frozenset(
        BooleanFunction("f_" + format(t, f"0{1 << k}b")[::-1], k, t)
        for t, lane in enumerate(bin(word)[:1:-1])
        if lane == "1"
    )


def closure_fixed_arity(base: Base, k: int) -> frozenset:
    """All k-ary functions expressible by base formulae over k fixed variables:
    the k-ary tables in every Post class that contains the base."""
    if not 1 <= k <= MAX_CLOSURE_ARITY:
        raise ValueError(f"closure arity must lie in 1..{MAX_CLOSURE_ARITY}, got {k}")
    return _functions_of(k, _membership_word(_base_properties(base), k))
