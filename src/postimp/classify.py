"""Complexity classification of a connective base, plus a bounded-arity
composition-closure engine used to cross-validate the classification.

The fast classifier tests fragment membership function by function: a base
whose connectives are all disjunctions (or all conjunctions) is constant-depth
decidable; an all-linear base is parity-hard once some connective has two or
more relevant variables (identifying variables in such a connective yields the
ternary xor, so the closure reaches the full linear region); an all-unary base
is easy unless it can negate.  Everything else composes one of the three hard
ternary generators, which the closure engine can confirm independently.
"""

import enum
from dataclasses import dataclass

from . import boolfn
from .boolfn import BooleanFunction, relevant_variables
from .formula import Base

MAX_CLOSURE_ARITY = 4
_CHUNK_ELEMS = 1 << 22


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
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class ImpComplexity:
    complexity: ImpClass
    fragment: Fragment
    witness: str


def classify_base(base: Base) -> ImpComplexity:
    """Complexity of the implication problem with set-valued premises."""
    non_disjunction = next((f for f in base.functions if boolfn.as_disjunction(f) is None), None)
    if non_disjunction is None:
        return ImpComplexity(
            ImpClass.AC0, Fragment.OR, "every connective is a disjunction of variables and constants"
        )
    non_conjunction = next((f for f in base.functions if boolfn.as_conjunction(f) is None), None)
    if non_conjunction is None:
        return ImpComplexity(
            ImpClass.AC0, Fragment.AND, "every connective is a conjunction of variables and constants"
        )
    forms = [(f, boolfn.as_linear(f)) for f in base.functions]
    non_linear = next((f for f, nf in forms if nf is None), None)
    if non_linear is None:
        # a linear connective is unary when at most one coefficient is set,
        # and it negates when that literal carries the constant 1
        wide = next((f for f, nf in forms if nf.mask.bit_count() > 1), None)
        if wide is None:
            negation = next((f for f, nf in forms if nf.mask and nf.c0), None)
            if negation is not None:
                return ImpComplexity(
                    ImpClass.AC0_MOD2,
                    Fragment.UNARY,
                    f"every connective depends on at most one variable and {negation.name!r} negates",
                )
            return ImpComplexity(
                ImpClass.AC0, Fragment.TRIVIAL, "every connective is a projection or a constant"
            )
        return ImpComplexity(
            ImpClass.PARITYL_COMPLETE,
            Fragment.LINEAR,
            f"every connective is linear and {wide.name!r} depends on "
            f"{len(relevant_variables(wide))} variables",
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


def _lift(table: int, arity: int, k: int) -> int:
    # replicate so the extra high-order variables become fictive
    t = table
    for step in range(arity, k):
        t |= t << (1 << step)
    return t


def _apply_chunks(np, fbits, axes, size):
    """Apply one connective to every argument tuple drawn from the given axis
    arrays, yielding the distinct result tables chunk by chunk.  Tuples are
    enumerated through a flat index so memory stays bounded regardless of the
    axis sizes.  `np` is the numpy module, imported by the caller."""
    a = len(axes)
    sizes = [ax.size for ax in axes]
    total = 1
    for s in sizes:
        total *= s
    for start in range(0, total, _CHUNK_ELEMS):
        flat = np.arange(start, min(start + _CHUNK_ELEMS, total), dtype=np.int64)
        args = []
        rem = flat
        for i in reversed(range(a)):  # last axis varies fastest
            args.append((i, axes[i][rem % sizes[i]]))
            rem = rem // sizes[i]
        out = None
        for r in range(size):
            idx = None
            for i, g in args:
                bit = (((g >> r) & 1) << i).astype(np.uint32)
                idx = bit if idx is None else idx + bit
            vals = fbits[idx] << r
            out = vals if out is None else out | vals
        yield np.unique(out)


def _closure_search(base: Base, k: int, targets: frozenset, stop_on_first: bool):
    """Fixpoint of table composition at arity k, as a set of table ints.

    Starts from the projections and the lifted 0-ary constants of the base,
    then repeatedly applies every base connective to argument tuples that
    touch the newest tables.  Stops early once the requested target tables
    are found (all of them, or any one when `stop_on_first`), or when the
    whole table universe is reached.  numpy is imported here, once per
    search, so that importing the package does not load it.
    """
    import numpy as np

    size = 1 << k
    full = (1 << size) - 1
    universe = 1 << size
    tables = set()
    for i in range(k):
        tables.add((full // ((1 << (1 << i)) + 1)) << (1 << i))
    for f in base.functions:
        if f.arity == 0:
            tables.add(full if f.table else 0)
    found = set(targets) & tables

    def finished():
        return targets and (found == set(targets) or (stop_on_first and found))

    if finished():
        return tables, found
    appliers = [f for f in base.functions if f.arity >= 1]
    old = np.array([], dtype=np.uint32)
    frontier = np.array(sorted(tables), dtype=np.uint32)
    while frontier.size and len(tables) < universe:
        current = np.concatenate([old, frontier])
        discovered = set()
        for f in appliers:
            fbits = np.array([(f.table >> m) & 1 for m in range(f.rows)], dtype=np.uint32)
            for j in range(f.arity):
                axes = [old] * j + [frontier] + [current] * (f.arity - 1 - j)
                if any(ax.size == 0 for ax in axes):
                    continue
                for chunk in _apply_chunks(np, fbits, axes, size):
                    for t in chunk.tolist():
                        if t in tables or t in discovered:
                            continue
                        discovered.add(t)
                        if t in targets:
                            found.add(t)
                    if finished():
                        tables |= discovered
                        return tables, found
        tables |= discovered
        old = current
        frontier = np.array(sorted(discovered), dtype=np.uint32)
    return tables, found


def _check_closure_arity(k: int) -> None:
    if not 1 <= k <= MAX_CLOSURE_ARITY:
        raise ValueError(f"closure arity must lie in 1..{MAX_CLOSURE_ARITY}, got {k}")


def closure_fixed_arity(base: Base, k: int) -> set:
    """All k-ary functions expressible by base formulae over k fixed variables."""
    _check_closure_arity(k)
    tables, _ = _closure_search(base, k, frozenset(), stop_on_first=False)
    size = 1 << k
    return {
        BooleanFunction(
            "f_" + "".join("1" if t >> j & 1 else "0" for j in range(size)), k, t
        )
        for t in tables
    }


def generators_in_closure(base: Base, generators, stop_on_first: bool = False) -> set:
    """Which of the given functions the base can compose; with `stop_on_first`
    the search may return a partial answer as soon as one is found."""
    gens = tuple(generators)
    k = max(1, max(g.arity for g in gens))
    _check_closure_arity(k)
    by_table = {}
    for g in gens:
        by_table.setdefault(_lift(g.table, g.arity, k), g)
    _, found = _closure_search(base, k, frozenset(by_table), stop_on_first)
    return {by_table[t] for t in found}


def contains_generator(base: Base, g: BooleanFunction) -> bool:
    """Is g a composition of base connectives (and projections)?"""
    if g.arity > MAX_CLOSURE_ARITY:
        raise ValueError(f"generator arity {g.arity} exceeds the closure cap {MAX_CLOSURE_ARITY}")
    return bool(generators_in_closure(base, [g], stop_on_first=True))
