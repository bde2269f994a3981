"""Instance generators that translate other decision problems into
implication questions over canonical bases, for hardness-style testing.

Every generator emits a concrete, parseable instance whose answer provably
matches the source problem, so each construction can be cross-checked against
the exhaustive decider.
"""

import re

from .boolfn import AND2, MAJ3, NOT, OR2, XOR3, Record, content_lines
from .formula import App, Base, Formula, Instance, Var
from .gf2 import Gf2System

MONOTONE_BASE = Base.of(AND2, OR2)
MAJORITY_BASE = Base.of(MAJ3)
TERNARY_XOR_BASE = Base.of(XOR3)
NEGATION_BASE = Base.of(NOT)
# a reduction grows with the largest index, not with the input's length; at
# this cap the worst 3-literal DNF reduces in 0.41 s (tautdnf-d2, CPython 3.11)
MAX_DNF_VARIABLES = 1 << 15

# int() converts a string of at most this many digits whatever
# sys.set_int_max_str_digits holds; a longer index is refused by its length
_MAX_INDEX_DIGITS = 640
_LITERAL_RE = re.compile(r"(-?)x([1-9][0-9]*)$")


class DnfInput(Record):
    """A DNF over variables x1..x{num_vars}; terms are sets of signed indices.

    However it is built, the input is checked: every term needs a literal,
    every literal is a nonzero int, and no index exceeds `num_vars` (the
    widest index when it is None) or `MAX_DNF_VARIABLES`.  Terms containing
    a complementary literal pair are unsatisfiable disjuncts and are dropped
    (this preserves tautology).
    """

    __slots__ = _fields = ("num_vars", "terms")

    def __init__(self, num_vars: int | None, terms):
        normalized = []
        widest = 0
        for term in terms:
            lits = frozenset(term)
            if not lits:
                raise ValueError("a DNF term needs at least one literal")
            for lit in lits:
                if not isinstance(lit, int) or lit == 0:
                    raise ValueError(f"literals are nonzero signed indices, got {lit!r}")
                widest = max(widest, abs(lit))
            if not any(-lit in lits for lit in lits):
                normalized.append(lits)
        if num_vars is None:
            num_vars = widest
        elif num_vars < widest:
            raise ValueError(f"literal index {widest} exceeds num_vars {num_vars}")
        if num_vars > MAX_DNF_VARIABLES:
            what = f"literal index {widest}" if num_vars == widest else f"num_vars {num_vars}"
            raise ValueError(f"{what} exceeds the cap of {MAX_DNF_VARIABLES} DNF variables")
        self._set("num_vars", num_vars)
        self._set("terms", tuple(normalized))

    @classmethod
    def build(cls, terms, num_vars=None) -> "DnfInput":
        return cls(num_vars, terms)

    def is_tautology(self) -> bool:
        """Direct check by enumerating all assignments."""
        for assignment in range(1 << self.num_vars):
            hit = False
            for term in self.terms:
                if all(
                    (assignment >> (abs(lit) - 1) & 1) == (1 if lit > 0 else 0)
                    for lit in term
                ):
                    hit = True
                    break
            if not hit:
                return False
        return True


def parse_dnf(text: str) -> DnfInput:
    """One term per line of space-separated literals `x3` / `-x3`."""
    terms = []
    for lineno, line in content_lines(text.splitlines()):
        term = []
        for token in line.split():
            m = _LITERAL_RE.fullmatch(token)
            if not m:
                raise ValueError(f"line {lineno}: bad literal {token!r} (expected x3 or -x3)")
            digits = m.group(2)
            if len(digits) > _MAX_INDEX_DIGITS:
                what = f"a literal index of {len(digits)} digits"
                raise ValueError(f"line {lineno}: {what} exceeds the cap of {MAX_DNF_VARIABLES} DNF variables")
            index = int(digits)
            term.append(-index if m.group(1) else index)
        terms.append(term)
    return DnfInput.build(terms)


def read_dnf(path) -> DnfInput:
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_dnf(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _balanced(nodes, combine):
    """Fold a nonempty list pairwise, left to right, into a log-depth tree."""
    level = list(nodes)
    while len(level) > 1:
        nxt = [combine(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _instance(base, premises, conclusion) -> Instance:
    """The instance over `base` of the premise trees and the conclusion tree."""
    return Instance.build(
        base,
        tuple([Formula.build(node, base) for node in premises]),
        Formula.build(conclusion, base),
    )


def _term_leaves(term):
    lits = sorted(term, key=lambda l: (abs(l), l < 0))
    return [Var(f"x{l}") if l > 0 else Var(f"y{-l}") for l in lits]


def _dnf_trees(dnf: DnfInput, conj, disj):
    """The balanced `tie` of every (x_i or y_i) and the balanced `rewritten`
    DNF, with -x_i read as y_i, built by the given `and` and `or`."""
    # a term always mentions a literal, so nonempty terms imply num_vars >= 1
    if not dnf.terms:
        raise ValueError("the DNF has no satisfiable terms, nothing to reduce")
    tie = _balanced(
        [disj(Var(f"x{i}"), Var(f"y{i}")) for i in range(1, dnf.num_vars + 1)], conj
    )
    rewritten = _balanced(
        [_balanced(_term_leaves(term), conj) for term in dnf.terms], disj
    )
    return tie, rewritten


def reduce_tautdnf_monotone(dnf: DnfInput) -> Instance:
    """DNF tautology as monotone implication over {and, or}.

    Negative literals become fresh y-variables; the premise ties each pair
    with (x_i or y_i), so the rewritten DNF is implied exactly when the
    original was a tautology.
    """
    tie, rewritten = _dnf_trees(
        dnf, lambda a, b: App("and", (a, b)), lambda a, b: App("or", (a, b))
    )
    return _instance(MONOTONE_BASE, (tie,), rewritten)


def reduce_tautdnf_d2(dnf: DnfInput) -> Instance:
    """DNF tautology over the single majority connective.

    With fresh variables t and f, maj(a, b, f) acts as conjunction and
    maj(a, b, t) as disjunction under the intended reading t=1, f=0; the
    swapped and constant readings are implied unconditionally, so guarding
    both sides with majority applications preserves the answer.  All chains
    are balanced, keeping the trees logarithmically deep.
    """
    t, f = Var("t"), Var("f")
    tie, rewritten = _dnf_trees(
        dnf, lambda a, b: App("maj", (a, b, f)), lambda a, b: App("maj", (a, b, t))
    )
    premise = App("maj", (tie, t, f))
    conclusion = App("maj", (App("maj", (tie, rewritten, f)), t, f))
    return _instance(MAJORITY_BASE, (premise,), conclusion)


def _xor_fold(names):
    # left fold of ternary xor; the name list must have odd length
    node = Var(names[0])
    for i in range(1, len(names) - 1, 2):
        node = App("xor3", (node, Var(names[i]), Var(names[i + 1])))
    return node


def reduce_linsys_to_imp(system: Gf2System) -> Instance:
    """A parity system as implication over the ternary xor.

    Each row becomes a formula asserting its parity, with the constant true
    replaced by a fresh variable t (premised to hold) and rows over an even
    number of variables padded with a fresh variable f.  The system is
    solvable exactly when the premises do not imply f.
    """
    if not system.rows:
        raise ValueError("the linear system has no rows, nothing to reduce")
    premises = []
    for mask, rhs in system.rows:
        names = [f"x{i + 1}" for i in range(system.n) if mask >> i & 1]
        if rhs == 0:
            names = ["t"] + names
        if len(names) % 2 == 0:
            names.append("f")
        premises.append(_xor_fold(names))
    premises.append(Var("t"))
    return _instance(TERNARY_XOR_BASE, premises, Var("f"))


def _check_word(word: str) -> None:
    for ch in word:
        if ch not in "01":
            raise ValueError(f"parity words are over 0/1, found {ch!r}")


def reduce_mod2_unary(word: str) -> Instance:
    """Odd parity of a word as implication over negation alone: each 1-bit
    contributes one negation on top of `not t`, so t implies the stack exactly
    when the number of ones is odd."""
    _check_word(word)
    node = App("not", (Var("t"),))
    for ch in reversed(word):
        if ch == "1":
            node = App("not", (node,))
    return _instance(NEGATION_BASE, (Var("t"),), node)


def reduce_mod2_single_linear(word: str) -> Instance:
    """Odd parity as a single-premise implication over the ternary xor: the
    conclusion folds `t xor f xor _` once per 1-bit over the seed f, so it is
    equivalent to t for odd parity and to f otherwise."""
    _check_word(word)
    node = Var("f")
    for ch in reversed(word):
        if ch == "1":
            node = App("xor3", (Var("t"), Var("f"), node))
    return _instance(TERNARY_XOR_BASE, (Var("t"),), node)
