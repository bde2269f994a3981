"""Formulae over a declared connective base: parsing, printing, evaluation.

Formulae are trees of applications of named base connectives to variables.
`parse_formula` reads text in one pass, one regex scan and one loop that
builds, checks and indexes the tree, so no second walk follows it.
Variables are positioned by first occurrence; every coefficient extraction
accepts an explicit variable order as a dict from name to position
(`Instance.index`, built once per instance), so that premises and a
conclusion can share one index.  All four extractors (linear,
disjunctive, conjunctive and unary) read their probe points off one
bit-sliced `evaluate_block` pass, `_flip_scan`, over the formula's own
variables: |vars(phi)|+1 points, however many variables the order holds.
The flips are placed at their positions in the order and returned as an
int mask, which is the form's coefficient mask in all four kinds (a
constant has none); a unary formula gets the linear form with at most one
coefficient.  The one evaluation
primitive is the connective kernel, `connective_plan(arity, table,
constants)`: compiled once per truth table and set of block-constant
positions from the cheapest factored form of the table (its algebraic
normal form, minterms, complemented maxterms, and for a monotone or
antitone table its minimal true points), so `and`, `or` and `xor` cost one
big-int operation per application and `maj` four.  A kernel reads its
argument words from a list by index, so both callers hand it the list they
already hold: `evaluate_block` its value stack, and a `Program` replay its
slots.  `Program` compiles several formulae over one variable order, in
one walk, into one straight-line program of kernel applications: equal
subterms are numbered by (connective, argument slots) into one step, and
each word is released after its last reader.  Its replay takes the lane
variables' words once and then block numbers; the `Program` docstring
states how block variables specialise kernels and skip steps.
Compiling costs more than one walk, so only a caller that evaluates the
same formulae on many blocks (the oracle above 2^16 assignments) compiles.
The parser, every evaluation walk and tree `==` and `hash` are iterative,
so formula depth is bounded only by memory.
"""

import functools
import math
import os
import re
from collections.abc import Sequence

from . import boolfn
from .boolfn import (
    AndNormalForm,
    ArityError,
    BooleanFunction,
    LinearNormalForm,
    OrNormalForm,
    Record,
    read_functions,
    variable_word,
    write_functions,
)


class ParseError(ValueError):
    """Formula text rejected; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FragmentError(ValueError):
    """A connective falls outside the fragment a decider requires."""


class Base(Record):
    """An ordered set of connectives with unique names."""

    __slots__ = ("functions", "_by_name")
    _fields = ("functions",)

    def __init__(self, functions: tuple):
        if not functions:
            raise ValueError("a base needs at least one function")
        names = [f.name for f in functions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate function names in base: {sorted(names)}")
        self._set("functions", functions)
        self._set("_by_name", {f.name: f for f in functions})

    @classmethod
    def of(cls, *functions: BooleanFunction) -> "Base":
        return cls(tuple(functions))

    @classmethod
    def load(cls, path) -> "Base":
        return cls(tuple(read_functions(path)))

    def save(self, path) -> None:
        write_functions(self.functions, path)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> BooleanFunction:
        return self._by_name[name]

    @property
    def names(self) -> tuple:
        return tuple(f.name for f in self.functions)


class Var(Record):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        self._set("name", name)


class App(Record):
    __slots__ = _fields = ("fn", "args")

    def __init__(self, fn: str, args: tuple = ()):
        self._set("fn", fn)
        self._set("args", args)

    def _key(self) -> tuple:
        # pre-order (connective, arity) pairs and leaves fix the tree; walked
        # on a stack, so a deep tree compares and hashes without recursion
        return tuple([(node.fn, len(node.args)) if isinstance(node, App) else node for node in iter_nodes(self)])


Node = Var | App

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# a name, or one non-space character: punctuation, or one that starts no token
_TOKEN_RE = re.compile(_NAME_RE.pattern + r"|\S")
_VAR_RE = re.compile(r"[a-z][a-z0-9_]*")


def iter_nodes(root: Node):
    """Yield every node of the tree, parents before children."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, App):
            stack.extend(reversed(node.args))


def connective_count(root: Node) -> int:
    return sum(1 for node in iter_nodes(root) if isinstance(node, App))


class Formula(Record):
    __slots__ = _fields = ("root", "base", "variables")

    def __init__(self, root: Node, base: Base, variables: tuple):
        self._set("root", root)
        self._set("base", base)
        self._set("variables", variables)

    @classmethod
    def build(cls, root: Node, base: Base) -> "Formula":
        """Validate a tree built in code against the base and index variables
        by first occurrence; `parse_formula` makes the same checks as it reads."""
        seen = {}
        stack = [root]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                if node.name not in seen:
                    # the printed formula must parse back to the same tree
                    if not _VAR_RE.fullmatch(node.name) or node.name in base:
                        raise ValueError(f"{node.name!r} does not parse as a variable over this base")
                    seen[node.name] = len(seen)
                continue
            if node.fn not in base:
                raise ValueError(f"unknown connective {node.fn!r}")
            f = base[node.fn]
            if len(node.args) != f.arity:
                raise ArityError(node.fn, f.arity, len(node.args))
            stack.extend(reversed(node.args))
        return cls(root, base, tuple(seen))


def parse_formula(text: str, base: Base) -> Formula:
    """Parse `NAME(arg, ...)` / `NAME` / variable syntax over the given base.

    One regex scan splits the text into tokens; one loop with a stack of
    open applications builds the tree, checks each arity when its
    application closes, makes one `Var` per name and indexes the variables
    in text order, which is pre-order.  That makes every check of
    `Formula.build`, so no second walk follows.  Positions are found only
    for an error; a character that starts no token is reported first.
    """
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append("")  # the end of input, which is no token
    functions = base._by_name
    seen = {}  # variable name -> its one Var, in order of first occurrence
    frames = []  # open applications: (function, its name's token index, enclosing arguments)
    args = []  # arguments of the innermost open application; at the top, the root
    k = 0
    while True:
        # a subformula starts at token k
        tok = tokens[k]
        f = functions.get(tok)
        if f is None:
            node = seen.get(tok)
            if node is None or tokens[k + 1] == "(":
                node = _variable(text, tokens, k, seen)
            k += 1
        elif tokens[k + 1] == "(" and tokens[k + 2] != ")":
            frames.append((f, k, args))
            args = []
            k += 2
            continue
        else:
            if f.arity:
                _fail(text, tokens, k, f"{tok} expects {f.arity} argument(s), got 0")
            node = App(tok, ())
            k += 3 if tokens[k + 1] == "(" else 1
        # a complete subformula: fold it into the open applications
        while True:
            args.append(node)
            tok = tokens[k]
            if tok == "," and frames:
                k += 1
                break
            if tok == ")" and frames:
                f, start, outer = frames.pop()
                if len(args) != f.arity:
                    _fail(text, tokens, start, f"{f.name} expects {f.arity} argument(s), got {len(args)}")
                node = App(f.name, tuple(args))
                args = outer
                k += 1
                continue
            if frames:
                _fail(text, tokens, k, f"expected ',' or ')', got {tok!r}" if tok else "unexpected end of input")
            if tok:
                _fail(text, tokens, k, f"unexpected trailing token {tok!r}")
            return Formula(node, base, tuple(seen))


def _variable(text: str, tokens: list, k: int, seen: dict) -> Var:
    """The variable named by token k, which names no connective."""
    tok = tokens[k]
    if not tok:
        _fail(text, tokens, k, "unexpected end of input")
    if tok in "(),":
        _fail(text, tokens, k, f"expected a name, got {tok!r}")
    if tokens[k + 1] == "(":
        _fail(text, tokens, k, f"unknown connective {tok!r}")
    if not _VAR_RE.fullmatch(tok):
        _fail(text, tokens, k, f"unknown symbol {tok!r}")
    return seen.setdefault(tok, Var(tok))


def _fail(text: str, tokens: list, k: int, message: str):
    """Raise `message` at token k, or at the end of the text for the end of
    input; a character that starts no token, anywhere in the text, is
    reported instead."""
    starts = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if tok not in "()," and not _NAME_RE.match(tok):
            raise ParseError(f"unexpected character {tok!r}", m.start())
        starts.append(m.start())
    raise ParseError(message, starts[k] if tokens[k] else len(text))


def format_formula(phi) -> str:
    """Canonical text; `parse_formula(format_formula(phi))` is the identity."""
    root = phi.root if isinstance(phi, Formula) else phi
    out = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(item.name)
        elif not item.args:
            out.append(item.fn + "()")
        else:
            out.append(item.fn + "(")
            tail = []
            for i, a in enumerate(item.args):
                if i:
                    tail.append(", ")
                tail.append(a)
            tail.append(")")
            stack.extend(reversed(tail))
    return "".join(out)


def evaluate(phi: Formula, sigma: Sequence[int], variables=None) -> int:
    """Evaluate under an assignment aligned with the given variable order: one lane."""
    return evaluate_block(phi, sigma, 1, variables)


def evaluate_block(phi: Formula, words: Sequence[int], width: int, variables=None) -> int:
    """Bit-sliced evaluation: lane k of each word holds assignment k.

    Walks the tree in post-order on a stack of words and applies each
    connective's `connective_plan` kernel to the top `arity` of them,
    `plan(values, -arity, ..., -1, mask)`; returns the result word.  `width`
    is the number of live lanes.  The words are nonnegative, and one with
    bits beyond the lanes is cut to them, so every intermediate word stays
    within the width's mask.  `variables` is the order of the words, phi's
    own by default.
    """
    order = phi.variables if variables is None else tuple(variables)
    missing = set(phi.variables) - set(order)
    if missing:
        raise ValueError(f"variable order is missing {sorted(missing)!r}")
    if len(words) < len(order):
        raise ValueError(f"{len(words)} words supplied for {len(order)} variables")
    env = dict(zip(order, words))
    mask = (1 << width) - 1
    plans = {}  # connective name -> (arity, plan, stack indices of its arguments)
    values = []
    stack = [phi.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            # cut only a word wider than the lanes: `& mask` copies even one that fits
            word = env[node.name]
            values.append(word & mask if word > mask else word)
        elif isinstance(node, App):
            # a 1-tuple below the arguments marks the application
            stack.append((node,))
            stack.extend(node.args[::-1])
        else:
            (node,) = node
            entry = plans.get(node.fn)
            if entry is None:
                f = phi.base[node.fn]
                entry = plans[node.fn] = (f.arity, connective_plan(f.arity, f.table, ()), tuple(range(-f.arity, 0)))
            arity, plan, top = entry
            word = plan(values, *top, mask)
            if arity:
                del values[-arity:]
            values.append(word)
    return values[0]


# Words a `Program` may persist across blocks; see the `Program` docstring.
_KEPT_WORDS = 64
# Block-constant arguments a specialised kernel branches on: at most 16 branches.
_BRANCHED = 4


class Program(Record):
    """Formulae over one base and one variable order, compiled into one
    straight-line program that is replayed block after block.

    Slots 0..n-1 hold the variable words, and slot n+k holds the result of
    step k.  A step is `(slot, plan, argument slots, released slots)`; a
    replay applies it as `values[slot] = plan(values, *argument_slots, mask)`.
    Steps are numbered by (connective name, argument slots), so each
    distinct subterm gets one step, whether its copies are one shared object
    or were built apart.

    The first `lanes` variables are the lane variables, whose words are the
    same in every block; each later one is a block variable.  A block is
    given by its number: block variable `lanes + i` holds the mask in a
    block whose number has bit i set, and 0 otherwise.  An argument is
    block-constant when it is a block variable or a step whose arguments
    are all block-constant; a step that reads one gets the `connective_plan`
    kernel specialised on the first `_BRANCHED` such positions, which
    branches on those words, so `maj(x, y, c)` costs one op instead of
    four.  A step's support is the mask of block variables it depends on:
    bit i for variable `lanes + i`.  A formula evaluated in a block
    re-applies only the steps whose support meets the block variables whose
    words changed since that formula's last evaluation, so a step over the
    lane variables alone is applied once per sweep.  `segments` holds one
    entry per formula, in order: its steps in groups of one class, as
    (condition, steps), where a class is a support or the steps that run in
    every evaluation; its root slot; and the slots released once the root
    is read.  A group runs when its condition meets the changed bits, and a
    formula's first evaluation runs every group.

    A step's word persists across blocks when one of its readers may run
    without it: a step of another support or a formula's root.  A step of a
    later formula counts too, as a block that stops before that formula
    leaves the word alive.  Persisting words are never released; every
    other slot is released after its last reader, so only words that are
    still to be read stay alive.  At most `_KEPT_WORDS` words persist.  Over
    that bound, compile stops tracking block variables, the first one
    first: in counting order, as the oracle replays, it changes in every
    block, and the next in every second.  A step whose support holds an
    untracked variable runs in every evaluation.  With none tracked only
    the steps over the lane variables wait, each applied once; if even those
    persist more than the bound, every step runs in every evaluation.  So no replay applies
    more kernels than one that ran every step over block variables in
    every block.  A word of 2^16 lanes takes 8 KiB, so persisting words
    add at most 512 KiB to a sweep's live words.  Over seeds 1-10, the
    benchmark's general-sweep instances of 20 variables persist 18 to 64
    words, with all four block variables tracked or all but the first; a
    22-variable reduction of a 600-term DNF would persist 203 words with
    none tracked, and replays every step in every block.
    """

    __slots__ = _fields = ("variables", "lanes", "segments")

    def __init__(self, variables: tuple, lanes: int, segments: tuple):
        self._set("variables", variables)
        self._set("lanes", lanes)
        self._set("segments", segments)

    @classmethod
    def compile(cls, formulas, variables, lanes: int) -> "Program":
        n = len(variables)
        slot_of = {name: i for i, name in enumerate(variables)}
        plans = {}  # (connective name, mask of block-constant positions) -> plan
        numbering = {}  # (connective name, argument slots) -> slot
        seen = {}  # id(node) -> slot, so a shared subtree object is walked once
        # per slot: the block variables it depends on, and the bit `always`
        # if it reads a lane variable; a slot without that bit is block-constant
        always = 1 << (n - lanes)
        block = always - 1
        support = [always] * lanes + [1 << i for i in range(n - lanes)]
        step_plans, step_args = [], []
        ends = []  # (steps so far, root slot) after each formula
        # steps a root, a step of a later formula or a step of a wider support
        # reads: they persist whenever their support is tracked
        exposed = set()
        for phi in formulas:
            first = n + len(step_args)  # the formula's first step slot
            out = []
            stack = [phi.root]
            while stack:
                node = stack.pop()
                if isinstance(node, Var):
                    slot = slot_of.get(node.name)
                    if slot is None:
                        raise ValueError(f"variable order is missing {node.name!r}")
                elif isinstance(node, App):
                    slot = seen.get(id(node))
                    if slot is None:
                        # a 1-tuple below the arguments marks the application
                        stack.append((node,))
                        stack.extend(node.args[::-1])
                        continue
                else:
                    (node,) = node
                    arity = len(node.args)
                    args = tuple(out[len(out) - arity :])
                    del out[len(out) - arity :]
                    key = (node.fn, args)
                    slot = numbering.get(key)
                    if slot is None:
                        depends = constants = 0
                        for p, a in enumerate(args):
                            s = support[a]
                            depends |= s
                            if not s & always:
                                constants |= 1 << p
                        plan = plans.get((node.fn, constants))
                        if plan is None:
                            f = phi.base[node.fn]
                            positions = [p for p in range(arity) if constants >> p & 1]
                            plan = connective_plan(f.arity, f.table, tuple(positions[:_BRANCHED]))
                            plans[node.fn, constants] = plan
                        slot = numbering[key] = n + len(step_args)
                        step_plans.append(plan)
                        step_args.append(args)
                        support.append(depends)
                        for a in args:
                            if a >= n and (a < first or (support[a] ^ depends) & block):
                                exposed.add(a)
                    seen[id(node)] = slot
                out.append(slot)
            exposed.add(out[0])
            ends.append((len(step_args), out[0]))
        # track every block variable, then drop the one that changes most
        # often, until at most _KEPT_WORDS exposed words wait for a change;
        # a step of class `always` runs in every evaluation
        exposed = [a for a in exposed if a >= n]
        for tracked in [block & -1 << i for i in range(n - lanes + 1)]:
            if sum(1 for a in exposed if support[a] & block | tracked == tracked) <= _KEPT_WORDS:
                classes = [s & block if s & block | tracked == tracked else always for s in support]
                break
        else:
            classes = [always] * len(support)
        # walking backwards, the first reader of a slot is its last one;
        # variables and persisting words are never released
        read = set(range(n)).union([a for a in exposed if classes[a] != always])
        segments = []
        for j in reversed(range(len(ends))):
            stop, root = ends[j]
            start = ends[j - 1][0] if j else 0
            release = () if root in read else (root,)
            read.add(root)
            # steps sorted by class keep each argument before its readers: an
            # argument's support is a subset of its reader's, so no larger;
            # walked backwards, from the last step of the last class
            groups = []
            for k in sorted(range(n + stop - 1, n + start - 1, -1), key=classes.__getitem__, reverse=True):
                args = step_args[k - n]
                free = tuple([a for a in args if a not in read])
                read.update(args)
                # a step that releases all its arguments shares their tuple
                step = (k, step_plans[k - n], args, args if free == args else free)
                if groups and groups[-1][0] == classes[k]:
                    groups[-1][1].append(step)
                else:
                    groups.append((classes[k], [step]))
            # a group runs when its class meets the block variables that
            # changed, and in the formula's first evaluation: the bit above
            # `always`; tuples of lists, as a tuple built from a generator is
            # resized, and CPython's free list for its final size holds on to it
            groups = tuple([(c | always << 1, tuple(group[::-1])) for c, group in reversed(groups)])
            segments.append((groups, root, release))
        segments.reverse()
        return cls(tuple(variables), lanes, tuple(segments))

    def replay(self, lane_words, blocks, width: int):
        """For each block number in `blocks`, yield a generator of each
        formula's word, in order, as `evaluate_block` returns it.

        Lane k of each word holds assignment k, as in `evaluate_block`.
        `lane_words` are the lane variables' words, cut to the width and
        stored once per sweep; block variable `lanes + i` gets the mask in
        a block whose number has bit i set, and 0 otherwise.  One list of
        values lives for the whole sweep, and a formula re-applies only the
        step groups whose support meets the block variables that changed
        since its last evaluation.  Read a block's words in order and leave
        it before drawing the next one: a caller that stops early skips the
        steps of the formulae after it.
        """
        n, lanes = len(self.variables), self.lanes
        if len(lane_words) < lanes:
            raise ValueError(f"{len(lane_words)} words supplied for {lanes} lane variables")
        mask = (1 << width) - 1
        always = 1 << (n - lanes)
        values = [None] * (n + sum(len(steps) for groups, *_ in self.segments for _, steps in groups))
        values[:lanes] = [w & mask if w >> width else w for w in lane_words[:lanes]]
        # per formula, the block variables set at its last evaluation; the
        # bit above `always` makes every group of a first evaluation run
        last = [always << 1] * len(self.segments)

        def formulas(bits):
            for j, (groups, root, release) in enumerate(self.segments):
                changed = (bits ^ last[j]) | always
                last[j] = bits
                for condition, steps in groups:
                    if condition & changed:
                        for slot, plan, args, free in steps:
                            values[slot] = plan(values, *args, mask)
                            for a in free:
                                values[a] = None
                word = values[root]
                for a in release:
                    values[a] = None
                yield word

        for bits in blocks:
            values[lanes:n] = [mask if bits >> i & 1 else 0 for i in range(n - lanes)]
            yield formulas(bits)


@functools.lru_cache(maxsize=512)
def connective_plan(arity: int, table: int, constants: tuple):
    """The connective compiled into a bit-sliced kernel,
    `plan(words, *argument_indices, mask) -> word`, which reads its
    arguments from the list `words` at the given indices.

    `Program.replay` passes its slot list and a step's argument slots, and
    `evaluate_block` its value stack and the negative indices of the top
    `arity` entries, so neither builds an argument list per application.
    `constants` is the sorted tuple of the positions whose words are 0 or
    the mask M in every block, `()` for a plain kernel; every caller passes
    it, so each (arity, table, constants) compiles once.  The kernel
    branches on the truth of those words, `(...) if V[ip] else (...)`, and
    each branch is the cheapest factored form (see `_factored_form`) of the
    table restricted to that pattern: `0` or `M`, the other argument's own
    word object, or a form over the rest.  So `maj` with one constant
    argument costs one `&` or `|`, and a step whose arguments are all
    constant costs none.  The kernel is compiled once into
    `lambda V, i0, ..., M: ...` whose body holds only the argument words
    V[i0]..V[i{arity-1}], the mask M, the literal 0, `&`, `|`, `^`,
    parentheses, `if` and `else`: no name or text from a base file reaches
    `compile`.  A negated argument is `V[i] ^ M`, so no word is ever
    negative.
    """

    def branch(table, names, constants):
        if not constants:
            return _factored_form(table, names)
        # the highest position first, so the lower ones keep their indices
        p = constants[-1]
        rest = names[:p] + names[p + 1 :]
        one = branch(_cofactor(table, len(names), p, 1), rest, constants[:-1])
        zero = branch(_cofactor(table, len(names), p, 0), rest, constants[:-1])
        # a nonzero cost makes `_operand` parenthesise the conditional
        return 1, f"{_operand(one)} if V[i{p}] else {_operand(zero)}"

    _cost, body = branch(table, list(range(arity)), constants)
    params = ", ".join(["V", *(f"i{i}" for i in range(arity)), "M"])
    return eval(compile(f"lambda {params}: {body}", "<connective kernel>", "eval"), {"__builtins__": {}})


def _cofactor(table: int, arity: int, position: int, value: int) -> int:
    """The table with the argument at `position` fixed to `value`, over the
    other arguments in order: the runs of 2^position rows where that
    argument is `value`."""
    run = 1 << position
    rows = f"{table:0{1 << arity}b}"[::-1]  # row 0 first
    kept = "".join([rows[start : start + run] for start in range(value * run, 1 << arity, 2 * run)])
    return int(kept[::-1], 2)


class _OverBudget(Exception):
    """A candidate form grew as costly as the cheapest one found so far."""


def _factored_form(table: int, names) -> tuple:
    """The cheapest factored form of a table over the arguments `names`, as
    (big-int ops, expression), where argument j is printed `V[i{names[j]}]`.

    The candidates are the algebraic normal form (monomials joined by XOR),
    the minterms, and the complemented maxterms (the minterms of the
    negation); a monotone table adds the OR of its minimal true points, and
    an antitone one the complement of that form of its negation.  Each
    candidate is factored by pulling out its most frequent literal first:
    `x & F1 op F0`, a Davio expansion for the normal form and a Shannon
    expansion for the minterms.  Factoring never costs more than the flat
    form, and a random 16-ary table takes about a fifth of the ops of its
    flat normal form.  A candidate is dropped as soon as it has spent as
    many ops as the cheapest one before it, so a 16-ary xor never expands
    its 32768 minterms.

    Sets of monomials and of minterms are int masks over the 2^arity rows.
    The variable pulled out is first swapped into the top index bit, so
    each cofactor is half the width of its parent.
    """
    arity = len(names)
    rows = 1 << arity
    cols = [variable_word(i, rows) for i in range(arity)]
    lows = [(1 << (1 << w)) - 1 for w in range(arity + 1)]  # all rows of w variables
    left = 0  # ops the candidate being factored may still spend

    def spend(ops, cost, text):
        nonlocal left
        left -= ops
        if left < 0:
            raise _OverBudget
        return cost, text

    def join(terms, op):
        if len(terms) < 2:
            return terms[0] if terms else (0, "0")
        ops = len(terms) - 1
        return spend(ops, sum(cost for cost, _ in terms) + ops, f" {op} ".join(map(_operand, terms)))

    def conjoin(literal, inner):
        if inner[1] == "M":
            return literal
        return spend(1, literal[0] + inner[0] + 1, f"{_operand(literal)} & {_operand(inner)}")

    def complement(form):
        return spend(1, form[0] + 1, f"{_operand(form)} ^ M")

    def pull_to_top(members, i, names):
        # swap index bits i and top, so the variable at i becomes the top one
        top = len(names) - 1
        names[i], names[top] = names[top], names[i]
        if i == top:
            return members
        d = (1 << top) - (1 << i)
        x = ((members >> d) ^ members) & cols[i] & lows[top]
        return members ^ x ^ (x << d)

    def monomials(members, names, op):
        # x & F1 op F0: F1 are the monomials with x, x removed, and F0 the rest
        const = members & 1
        members ^= const
        names = list(names)
        terms = []
        while members:
            i = max(range(len(names)), key=lambda j: (members & cols[j]).bit_count())
            members = pull_to_top(members, i, names)
            top = len(names) - 1
            inner = monomials(members >> (1 << top), names[:top], op)
            members &= lows[top]
            terms.append(conjoin((0, f"V[i{names.pop()}]"), inner))
        if const:
            terms.append((0, "M"))
        return join(terms, op)

    def minterms(members, names):
        # x & F1 | ~x & F0 over the cofactors, the more frequent literal first
        if members in (0, lows[len(names)]):
            return (0, "M") if members else (0, "0")
        count = members.bit_count()
        ones = [(members & cols[j]).bit_count() for j in range(len(names))]
        i = max(range(len(names)), key=lambda j: max(ones[j], count - ones[j]))
        names = list(names)
        members = pull_to_top(members, i, names)
        top = len(names) - 1
        name = f"V[i{names.pop()}]"
        one, zero = members >> (1 << top), members & lows[top]
        terms = []
        if one:
            terms.append(conjoin((0, name), minterms(one, names)))
        if zero:
            terms.append(conjoin(spend(1, 1, f"{name} ^ M"), minterms(zero, names)))
        if 2 * ones[i] < count:
            terms.reverse()
        return join(terms, "|")

    def minimal_points(members):
        # the true rows of a monotone table with no true row just below them
        least = members
        for i, col in enumerate(cols):
            least &= ~((members & ~col) << (1 << i))
        return least

    anf = table
    for i, col in enumerate(cols):
        anf ^= anf << (1 << i) & col  # Moebius transform over variable i
    negation = table ^ lows[arity]
    candidates = [
        lambda: monomials(anf, names, "^"),
        lambda: minterms(table, names),
        lambda: complement(minterms(negation, names)),
    ]
    if boolfn.is_monotone(BooleanFunction("table", arity, table)):
        candidates.append(lambda: monomials(minimal_points(table), names, "|"))
    if boolfn.is_monotone(BooleanFunction("negation", arity, negation)):
        candidates.append(lambda: complement(monomials(minimal_points(negation), names, "|")))
    best = (math.inf, None)
    for candidate in candidates:
        left = best[0] - 1
        try:
            best = candidate()
        except _OverBudget:
            pass
    return best


def _operand(form) -> str:
    cost, text = form
    return f"({text})" if cost else text


def _require_fragment(phi: Formula, member: str, what: str) -> None:
    """Refuse phi unless every connective it uses is in the class `member`
    names; the alphabetically first offender is the one reported."""
    for name in sorted({node.fn for node in iter_nodes(phi.root) if isinstance(node, App)}):
        if not getattr(boolfn.profile(phi.base[name]), member):
            raise FragmentError(f"connective {name!r} is not {what}")


def _flip_scan(phi: Formula, variables, base_bit: int):
    """Value at the point with every variable at `base_bit`, and the mask of
    single-variable flips that change it, from one bit-sliced evaluation.

    The evaluation runs over phi's own variables: lane 0 holds the base point
    and lane j+1 flips phi's j-th variable, so it has |vars(phi)|+1 lanes
    however long the order is.  `variables` is the order, a dict from name to
    position (`Instance.index`), or None for phi's own order; the flips are
    placed at their positions in it and packed into one int.  Returns
    (c0, flips, n) with bit i of `flips` for the variable at position i of
    the order.
    """
    own = phi.variables
    index = {name: i for i, name in enumerate(own)} if variables is None else variables
    try:
        positions = [index[name] for name in own]
    except KeyError:
        missing = sorted(name for name in own if name not in index)
        raise ValueError(f"variable order is missing {missing!r}") from None
    n = len(index)
    k = len(own)
    if base_bit:
        full = (2 << k) - 1
        words = [full ^ (2 << j) for j in range(k)]
    else:
        words = [2 << j for j in range(k)]
    word = evaluate_block(phi, words, k + 1)
    c0 = word & 1
    flips = word >> 1
    if c0:
        flips ^= (1 << k) - 1
    # one byte array packed at the end: setting bits one by one in a growing
    # int would copy it per bit
    packed = bytearray((n + 7) >> 3)
    for i, bit in zip(positions, f"{flips:b}"[::-1]):
        if bit == "1":
            packed[i >> 3] |= 1 << (i & 7)
    return c0, int.from_bytes(packed, "little"), n


def extract_linear_nf(phi: Formula, variables=None) -> LinearNormalForm:
    """Linear coefficients read off at the zero vector and the unit vectors.

    Sound only when every connective of the formula is linear, which is
    checked up front; all |vars(phi)|+1 points go through one `evaluate_block`
    call.
    """
    _require_fragment(phi, "linear", "linear")
    return LinearNormalForm(*_flip_scan(phi, variables, 0))


def extract_or_nf(phi: Formula, variables=None) -> OrNormalForm:
    """Disjunction coefficients from the zero vector and the unit vectors."""
    _require_fragment(phi, "disjunction", "a disjunction")
    return OrNormalForm(*_flip_scan(phi, variables, 0))


def extract_and_nf(phi: Formula, variables=None) -> AndNormalForm:
    """Conjunction coefficients, dually, from the all-ones and co-unit vectors."""
    _require_fragment(phi, "conjunction", "a conjunction")
    return AndNormalForm(*_flip_scan(phi, variables, 1))


def extract_unary_nf(phi: Formula, variables=None) -> LinearNormalForm:
    """A constant or a literal, as the linear form with at most one coefficient.

    Every connective depends on at most one input, so the formula does too;
    such a formula is linear and its flips at the zero vector describe it.
    """
    _require_fragment(phi, "unary", "unary")
    return LinearNormalForm(*_flip_scan(phi, variables, 0))


class Instance(Record):
    """Premises and a conclusion over one base, with a joint variable index.

    `index` maps each name of `variables` to its position, built once per
    instance, so that an extractor places a formula's coefficients in the
    joint order without walking the whole order.
    """

    __slots__ = ("base", "premises", "conclusion", "variables", "index")
    _fields = __slots__[:-1]

    def __init__(self, base: Base, premises: tuple, conclusion: Formula, variables: tuple):
        self._set("base", base)
        self._set("premises", premises)
        self._set("conclusion", conclusion)
        self._set("variables", variables)
        self._set("index", {v: i for i, v in enumerate(variables)})

    @classmethod
    def build(cls, base: Base, premises, conclusion: Formula) -> "Instance":
        prem = tuple(premises)
        for phi in (*prem, conclusion):
            if phi.base != base:
                raise ValueError("all formulae of an instance must share its base")
        variables = dict.fromkeys([v for phi in (*prem, conclusion) for v in phi.variables])
        return cls(base, prem, conclusion, tuple(variables))


def read_instance(path, base: Base | None = None) -> Instance:
    """Read `premise:`/`conclusion:` lines, with an optional `base:` header.

    A `base:` path is resolved relative to the instance file's directory; a
    base passed in as an argument takes precedence.
    """
    premises_text = []
    conclusion_text = None
    base_ref = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in boolfn.content_lines(fh):
            key, sep, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if not sep or key not in ("base", "premise", "conclusion"):
                raise ValueError(f"{path}:{lineno}: expected 'base:', 'premise:' or 'conclusion:'")
            if key == "base":
                if base_ref is not None:
                    raise ValueError(f"{path}:{lineno}: duplicate 'base:' header")
                if not value:
                    raise ValueError(f"{path}:{lineno}: empty 'base:' header")
                base_ref = (value, lineno)
            elif key == "premise":
                premises_text.append((value, lineno))
            else:
                if conclusion_text is not None:
                    raise ValueError(f"{path}:{lineno}: more than one 'conclusion:' line")
                conclusion_text = (value, lineno)
    if base is None:
        if base_ref is None:
            raise ValueError(f"{path}: no 'base:' header and no base supplied")
        ref_path = base_ref[0]
        if not os.path.isabs(ref_path):
            ref_path = os.path.join(os.path.dirname(os.path.abspath(path)), ref_path)
        base = Base.load(ref_path)
    if conclusion_text is None:
        raise ValueError(f"{path}: missing 'conclusion:' line")

    def parse_at(text, lineno):
        try:
            return parse_formula(text, base)
        except ParseError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None

    premises = [parse_at(t, ln) for t, ln in premises_text]
    conclusion = parse_at(*conclusion_text)
    return Instance.build(base, premises, conclusion)


def write_instance(inst: Instance, path, base_ref: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if base_ref is not None:
            fh.write(f"base: {base_ref}\n")
        for psi in inst.premises:
            fh.write(f"premise: {format_formula(psi)}\n")
        fh.write(f"conclusion: {format_formula(inst.conclusion)}\n")
