"""Independent brute-force references shared across the test suite.

Everything here re-derives answers by direct enumeration, deliberately
avoiding the library's bit-sliced and normal-form code paths.
"""

import itertools
import math
import random
import re

from postimp.boolfn import AndNormalForm, LinearNormalForm, OrNormalForm
from postimp.formula import App, Formula, ParseError, Var


def naive_value(node, base, env):
    """Recursive scalar evaluation straight off the truth tables."""
    if isinstance(node, Var):
        return env[node.name]
    f = base[node.fn]
    index = 0
    for i, child in enumerate(node.args):
        index |= naive_value(child, base, env) << i
    return f.table >> index & 1


def table_bit(f, args):
    """Value of a connective at the argument bits (x1 first), read straight
    off its truth table."""
    return f.table >> sum(a << i for i, a in enumerate(args)) & 1


def parity_table(arity):
    """Truth table of the xor of all `arity` inputs, row by row."""
    table = 0
    for m in range(1 << arity):
        table |= (m.bit_count() & 1) << m
    return table


def form_value(nf, args):
    """Value of a coefficient form at the argument bits (x1 first), from the
    definition of its kind: c0 xor the parity, c0 or some coefficient, or c0
    and every coefficient of the set arguments."""
    point = sum(a << i for i, a in enumerate(args))
    if isinstance(nf, LinearNormalForm):
        return nf.c0 ^ (nf.mask & point).bit_count() & 1
    if isinstance(nf, OrNormalForm):
        return int(bool(nf.c0 or nf.mask & point))
    assert isinstance(nf, AndNormalForm)
    return int(bool(nf.c0 and not nf.mask & ~point))


def depth(node):
    """Connective nesting depth; a bare variable or constant has depth 0."""
    if isinstance(node, Var) or not node.args:
        return 0
    return 1 + max(depth(a) for a in node.args)


def lane_reference(phi, words, width, order):
    """Bit-sliced evaluation done lane by lane: lane j of the result is the
    tree evaluated on bit j of each variable's word."""
    out = 0
    for j in range(width):
        env = {name: w >> j & 1 for name, w in zip(order, words)}
        out |= naive_value(phi.root, phi.base, env) << j
    return out


def plan_forms(arity, table):
    """The flat forms of a table, which no connective kernel may cost more
    than: the algebraic normal form, the minterms and the complemented
    maxterms, each as `(invert, terms)` with (positive, negated) index
    tuples, derived row by row."""
    rows = range(1 << arity)

    def bits(m, value):
        return tuple(i for i in range(arity) if (m >> i & 1) == value)

    anf = [m for m in rows if sum(table >> s & 1 for s in rows if s & m == s) % 2]
    ones = [m for m in rows if table >> m & 1]
    zeros = [m for m in rows if not table >> m & 1]
    return {
        "anf": (int(0 in anf), tuple((bits(m, 1), ()) for m in anf if m)),
        "minterms": (0, tuple((bits(m, 1), bits(m, 0)) for m in ones)),
        "maxterms": (1, tuple((bits(m, 1), bits(m, 0)) for m in zeros)),
    }


def plan_cost(form):
    """Big-int operations a flat form takes when applied term by term: the
    ANDs between positive factors, an XOR and an AND per negated factor, one
    XOR per term and one for the inversion."""
    invert, terms = form
    return invert + sum(max(len(pos) - 1, 0) + 2 * len(neg) + 1 for pos, neg in terms)


def naive_implies(inst):
    """(implies?, falsifying environment or None) by full enumeration."""
    for bits in itertools.product((0, 1), repeat=len(inst.variables)):
        env = dict(zip(inst.variables, bits))
        if all(naive_value(p.root, inst.base, env) for p in inst.premises) and not naive_value(
            inst.conclusion.root, inst.base, env
        ):
            return False, env
    return True, None


def naive_table(node, base, names):
    """Truth table of the node over the given variable order, as an int."""
    table = 0
    for j in range(1 << len(names)):
        env = {name: j >> i & 1 for i, name in enumerate(names)}
        table |= naive_value(node, base, env) << j
    return table


def brute_consistent(system):
    """Exhaustive satisfiability of a Z2 system (n <= ~16)."""
    for assignment in range(1 << system.n):
        if all(
            bin(mask & assignment).count("1") % 2 == rhs for mask, rhs in system.rows
        ):
            return True
    return False


def satisfies_all(system, solution):
    assignment = 0
    for i, b in enumerate(solution):
        assignment |= (b & 1) << i
    return all(bin(mask & assignment).count("1") % 2 == rhs for mask, rhs in system.rows)


def semantic_formulas(base, names, max_depth):
    """One representative formula per reachable truth table, for every tree of
    connective depth <= max_depth over the given variables.

    Enumerating representatives by table keeps exhaustive sweeps tiny while
    still covering every semantically distinct shape.
    """
    from postimp.formula import Formula

    reps = {}
    for name in names:
        reps.setdefault(naive_table(Var(name), base, names), Var(name))
    for f in base.functions:
        if f.arity == 0:
            node = App(f.name)
            reps.setdefault(naive_table(node, base, names), node)
    for _ in range(max_depth):
        current = list(reps.items())
        for f in base.functions:
            if f.arity == 0:
                continue
            for combo in itertools.product(current, repeat=f.arity):
                node = App(f.name, tuple(n for _, n in combo))
                reps.setdefault(naive_table(node, base, names), node)
    return {t: Formula.build(node, base) for t, node in reps.items()}


def dichotomy_draws():
    """The 200 random bases of acceptance criterion 2: one or two connectives
    of arity 0-3 each, from a fixed seed."""
    from postimp.boolfn import BooleanFunction
    from postimp.formula import Base

    rng = random.Random("acceptance:dichotomy")
    draws = []
    for _ in range(200):
        fns = []
        for i in range(rng.randint(1, 2)):
            arity = rng.randint(0, 3)
            fns.append(BooleanFunction(f"g{i}", arity, rng.randrange(1 << (1 << arity))))
        draws.append(Base.of(*fns))
    return draws


def composition_closure(base, k):
    """Tables of every k-ary function the base composes, by the fixpoint of
    table composition: start from the projections and the lifted 0-ary
    constants, then apply every connective to the argument tuples that touch
    the newest tables until nothing new appears.  numpy does the applying;
    argument tuples go through a flat index in bounded chunks."""
    import numpy as np

    chunk = 1 << 22
    size = 1 << k
    full = (1 << size) - 1
    tables = {(full // ((1 << (1 << i)) + 1)) << (1 << i) for i in range(k)}
    tables |= {full if f.table else 0 for f in base.functions if f.arity == 0}
    appliers = [f for f in base.functions if f.arity >= 1]
    old = np.array([], dtype=np.uint32)
    frontier = np.array(sorted(tables), dtype=np.uint32)
    while frontier.size and len(tables) < 1 << size:
        current = np.concatenate([old, frontier])
        discovered = set()
        for f in appliers:
            fbits = np.array([(f.table >> m) & 1 for m in range(f.rows)], dtype=np.uint32)
            for j in range(f.arity):
                axes = [old] * j + [frontier] + [current] * (f.arity - 1 - j)
                sizes = [ax.size for ax in axes]
                total = math.prod(sizes)
                for start in range(0, total, chunk):
                    rem = np.arange(start, min(start + chunk, total), dtype=np.int64)
                    args = []
                    for i in reversed(range(f.arity)):  # last axis varies fastest
                        args.append((i, axes[i][rem % sizes[i]]))
                        rem = rem // sizes[i]
                    out = 0
                    for r in range(size):
                        idx = sum((((g >> r) & 1) << i).astype(np.uint32) for i, g in args)
                        out = out | (fbits[idx] << r)
                    discovered.update(np.unique(out).tolist())
        discovered -= tables
        tables |= discovered
        old = current
        frontier = np.array(sorted(discovered), dtype=np.uint32)
    return tables


_REFERENCE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REFERENCE_VAR = re.compile(r"[a-z][a-z0-9_]*")


def reference_parse(text, base):
    """The formula parser as it stood before the one-pass rewrite: a
    tokenizer that stops at the first character no token starts with, a
    frame-stack parser over its tokens, then `Formula.build` to validate
    the tree and index its variables.  `parse_formula` must give the same
    `Formula`, or a `ParseError` with the same message and position."""

    def tokenize():
        tokens = []
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "(),":
                tokens.append((ch, i))
                i += 1
                continue
            m = _REFERENCE_NAME.match(text, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", i)
            tokens.append((m.group(), i))
            i = m.end()
        return tokens

    def atom(name, pos):
        if name in base:
            f = base[name]
            if f.arity != 0:
                raise ParseError(f"{name} expects {f.arity} argument(s), got 0", pos)
            return App(name, ())
        if not _REFERENCE_VAR.fullmatch(name):
            raise ParseError(f"unknown symbol {name!r}", pos)
        return Var(name)

    def reduce_app(name, pos, args):
        f = base[name]
        if len(args) != f.arity:
            raise ParseError(f"{name} expects {f.arity} argument(s), got {len(args)}", pos)
        return App(name, tuple(args))

    tokens = tokenize()
    if not tokens:
        raise ParseError("empty input", 0)

    def expect_name(k):
        if k >= len(tokens):
            raise ParseError("unexpected end of input", len(text))
        tok, pos = tokens[k]
        if tok in "(),":
            raise ParseError(f"expected a name, got {tok!r}", pos)
        return tok, pos

    # frames: (function name, its position, collected arguments)
    frames = []
    k = 0
    node = None
    while True:
        tok, pos = expect_name(k)
        k += 1
        if k < len(tokens) and tokens[k][0] == "(":
            if tok not in base:
                raise ParseError(f"unknown connective {tok!r}", pos)
            k += 1
            if k < len(tokens) and tokens[k][0] == ")":
                k += 1
                node = reduce_app(tok, pos, [])
            else:
                frames.append((tok, pos, []))
                continue
        else:
            node = atom(tok, pos)
        # a complete subformula: fold it into enclosing frames
        while frames:
            fname, fpos, args = frames[-1]
            args.append(node)
            if k >= len(tokens):
                raise ParseError("unexpected end of input", len(text))
            sep, spos = tokens[k]
            if sep == ",":
                k += 1
                node = None
                break
            if sep == ")":
                k += 1
                frames.pop()
                node = reduce_app(fname, fpos, args)
                continue
            raise ParseError(f"expected ',' or ')', got {sep!r}", spos)
        if node is None:
            continue
        if not frames:
            if k != len(tokens):
                tok, pos = tokens[k]
                raise ParseError(f"unexpected trailing token {tok!r}", pos)
            return Formula.build(node, base)


def reference_eliminate(system):
    """Gauss-Jordan elimination as `gf2` did it before basis insertion: the
    reduced row echelon form over Z2, pivot rows first, and the 1-based pivot
    columns, ascending.  Pivots are the lowest nonzero column taken from the
    topmost remaining row, and every pivot reduces all other rows."""
    rest = list(system.rows)
    pivot_rows = []
    pivots = []
    for col in range(system.n):
        bit = 1 << col
        hit = next((k for k, (m, _) in enumerate(rest) if m & bit), None)
        if hit is None:
            continue
        mask, rhs = rest.pop(hit)
        rest = [(m ^ mask, b ^ rhs) if m & bit else (m, b) for m, b in rest]
        pivot_rows = [(m ^ mask, b ^ rhs) if m & bit else (m, b) for m, b in pivot_rows]
        pivot_rows.append((mask, rhs))
        pivots.append(col + 1)
    return tuple(pivot_rows) + tuple(rest), tuple(pivots)


def reference_solve(system):
    """The solution read off `reference_eliminate`, free variables zero, or
    None if some row reduces to 0 = 1; `gf2.solve` must give the same."""
    rows, pivots = reference_eliminate(system)
    if any(m == 0 and b for m, b in rows):
        return None
    x = [0] * system.n
    for (_, rhs), col in zip(rows, pivots):
        x[col - 1] = rhs
    return tuple(x)
