import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    form_value,
    lane_reference,
    naive_table,
    naive_value,
    plan_cost,
    plan_forms,
    reference_parse,
)
from postimp import formula
from postimp.boolfn import (
    AND2,
    BOT,
    AndNormalForm,
    BooleanFunction,
    LinearNormalForm,
    MAJ3,
    NAND2,
    NOT,
    OR2,
    OrNormalForm,
    TOP,
    XOR2,
    XOR3,
)
from postimp.formula import (
    App,
    Base,
    Formula,
    FragmentError,
    Instance,
    ParseError,
    Program,
    Var,
    connective_count,
    evaluate,
    evaluate_block,
    extract_and_nf,
    extract_linear_nf,
    extract_or_nf,
    extract_unary_nf,
    format_formula,
    iter_nodes,
    parse_formula,
    read_instance,
    connective_plan,
    variable_word,
    write_instance,
)
from postimp.reductions import MAJORITY_BASE, MONOTONE_BASE, DnfInput, reduce_tautdnf_d2
from postimp.selftest import FRAGMENT_BASES

BASIC = Base.of(AND2, OR2, NOT, TOP, BOT)
LIN = Base.of(XOR2, XOR3, TOP, BOT)
MAJ = Base.of(MAJ3)
NFST = BooleanFunction.from_bits("nfst", "1010")  # not x1, x2 fictive


def test_parse_application():
    phi = parse_formula("and(x, not(y))", BASIC)
    assert phi.root == App("and", (Var("x"), App("not", (Var("y"),))))
    assert phi.variables == ("x", "y")


def test_parse_ternary():
    phi = parse_formula("xor3(x,y,z)", LIN)
    assert phi.root == App("xor3", (Var("x"), Var("y"), Var("z")))


def test_parse_errors():
    with pytest.raises(ParseError, match="expects 2 argument"):
        parse_formula("and(x)", BASIC)
    with pytest.raises(ParseError, match="unknown connective 'nope'"):
        parse_formula("nope(x)", BASIC)
    with pytest.raises(ParseError, match="unknown symbol 'Zed'"):
        parse_formula("Zed", BASIC)
    with pytest.raises(ParseError, match="empty input"):
        parse_formula("   ", BASIC)
    with pytest.raises(ParseError, match="trailing"):
        parse_formula("x y", BASIC)
    err = None
    try:
        parse_formula("and(x, ?)", BASIC)
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 7


def test_parse_constant_forms():
    assert parse_formula("top()", BASIC).root == App("top", ())
    assert parse_formula("top", BASIC).root == App("top", ())
    with pytest.raises(ParseError, match="expects 0"):
        parse_formula("top(x)", BASIC)


def test_roundtrip_canonical():
    for text in ["and(x, not(y))", "or(top(), bot())", "some_var", "not(not(not(t)))"]:
        phi = parse_formula(text, BASIC)
        assert parse_formula(format_formula(phi), BASIC) == phi
    messy = parse_formula("  and( x ,or(y,  top) ) ", BASIC)
    once = format_formula(messy)
    assert format_formula(parse_formula(once, BASIC)) == once
    assert once == "and(x, or(y, top()))"


def test_build_rejects_variables_that_do_not_read_back():
    # printed, these trees would parse as something else or not at all
    base = Base.of(OR2, TOP, BOT)
    with pytest.raises(ValueError, match="'top' does not parse as a variable"):
        Formula.build(App("or", (Var("top"), Var("bot"))), base)
    with pytest.raises(ValueError, match="'X1' does not parse as a variable"):
        Formula.build(Var("X1"), base)
    with pytest.raises(ValueError, match="'or' does not parse as a variable"):
        Formula.build(App("or", (Var("x"), Var("or"))), base)
    phi = Formula.build(App("or", (Var("x1"), Var("t_2"))), base)
    assert parse_formula(format_formula(phi), base) == phi


def _node_strategy():
    leaves = st.sampled_from([Var("x"), Var("y"), Var("z"), App("top"), App("bot")])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(lambda a: App("not", (a,)), kids),
            st.builds(lambda a, b: App("and", (a, b)), kids, kids),
            st.builds(lambda a, b: App("or", (a, b)), kids, kids),
        ),
        max_leaves=20,
    )


@settings(max_examples=120, deadline=None)
@given(_node_strategy())
def test_parse_print_identity(node):
    phi = Formula.build(node, BASIC)
    assert parse_formula(format_formula(phi), BASIC) == phi


def _parse_outcome(parse, text, base):
    """The formula a parser returns, or the (message, position) it raises."""
    try:
        return parse(text, base)
    except ParseError as exc:
        return str(exc), exc.position


# the whitespace a formula may carry between tokens, Unicode em space included
_SPACES = st.text(alphabet=" \t\n\u2003", max_size=2)


@settings(max_examples=150, deadline=None)
@given(_node_strategy(), st.data())
def test_parse_matches_reference_on_spaced_text(node, data):
    # printed with random whitespace around every token, constants as `top` or `top()`
    out = [data.draw(_SPACES)]
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Var):
            out.append(item.name)
        elif not item.args:
            out.append(item.fn + data.draw(st.sampled_from(["", "()", "(" + data.draw(_SPACES) + ")"])))
        else:
            tail = [item.fn, "("]
            for i, a in enumerate(item.args):
                tail += [","] * bool(i) + [a]
            stack.extend(reversed(tail + [")"]))
        out.append(data.draw(_SPACES))
    text = "".join(out)
    phi = parse_formula(text, BASIC)
    assert phi == reference_parse(text, BASIC)
    assert phi.root == node


_SOUP = ["and", "or", "not", "top", "bot", "x", "y", "x1", "Zed", "_u", "(", ")", ",", "?", "é", "-", "1"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SOUP), st.sampled_from(["", " ", "\u2003"])), max_size=14))
def test_parse_matches_reference_on_token_soup(pieces):
    # names, connective names in variable position, punctuation and characters no token starts with
    text = "".join(tok + space for tok, space in pieces)
    assert _parse_outcome(parse_formula, text, BASIC) == _parse_outcome(reference_parse, text, BASIC)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("", "empty input", 0),
        (" \u2003\n", "empty input", 0),
        ("and(x, ", "unexpected end of input", 7),
        ("not(x  ", "unexpected end of input", 7),
        ("not(", "unexpected end of input", 4),
        ("(x)", "expected a name, got '('", 0),
        ("and(x, )", "expected a name, got ')'", 7),
        ("and(,x)", "expected a name, got ','", 4),
        ("nope(x)", "unknown connective 'nope'", 0),
        ("not(x(y))", "unknown connective 'x'", 4),
        ("and(x, x(y))", "unknown connective 'x'", 7),
        ("and(x)", "and expects 2 argument(s), got 1", 0),
        ("not(x, y, z)", "not expects 1 argument(s), got 3", 0),
        ("or(x, and)", "and expects 2 argument(s), got 0", 6),
        ("or(x, and())", "and expects 2 argument(s), got 0", 6),
        ("top(x)", "top expects 0 argument(s), got 1", 0),
        ("not(Zed)", "unknown symbol 'Zed'", 4),
        ("not(x y)", "expected ',' or ')', got 'y'", 6),
        ("not(top() (x))", "expected ',' or ')', got '('", 10),
        ("x y", "unexpected trailing token 'y'", 2),
        ("top() top", "unexpected trailing token 'top'", 6),
        ("not(x))", "unexpected trailing token ')'", 6),
        ("x,", "unexpected trailing token ','", 1),
        ("and(x, ?)", "unexpected character '?'", 7),
        ("x1é", "unexpected character 'é'", 2),
        ("not(1x)", "unexpected character '1'", 4),
        # a character no token starts with wins over an earlier syntax error
        ("and(x) -", "unexpected character '-'", 7),
        (") ?", "unexpected character '?'", 2),
    ],
)
def test_parse_error_corpus(text, message, position):
    expected = (f"{message} (at position {position})", position)
    assert _parse_outcome(parse_formula, text, BASIC) == expected
    assert _parse_outcome(reference_parse, text, BASIC) == expected


def test_parse_deep_text_without_recursion():
    depth = 100_000
    text = "not(" * depth + "x" + ")" * depth
    phi = parse_formula(text, BASIC)
    assert phi.variables == ("x",)
    assert format_formula(phi) == text
    again = parse_formula(text, BASIC)
    assert phi == again and phi.root == again.root
    assert hash(phi) == hash(again) and hash(phi.root) == hash(again.root)


def test_parse_wide_balanced_text():
    level = [f"x{i}" for i in range(1, (1 << 15) + 1)]
    while len(level) > 1:
        level = [f"xor({a}, {b})" for a, b in zip(level[::2], level[1::2])]
    phi = parse_formula(level[0], LIN)
    assert phi.variables == tuple(f"x{i}" for i in range(1, (1 << 15) + 1))
    assert format_formula(phi) == level[0]


def test_evaluate_examples():
    phi = parse_formula("and(x, not(y))", BASIC)
    assert evaluate(phi, (1, 0)) == 1
    g = parse_formula("maj(x, y, f)", MAJ)
    assert evaluate(g, (1, 0, 0)) == 0  # third input low: behaves like and
    assert evaluate(g, (1, 0, 1)) == 1  # third input high: behaves like or


def test_evaluate_with_explicit_order():
    phi = parse_formula("and(b, a)", BASIC)
    assert phi.variables == ("b", "a")
    assert evaluate(phi, (0, 1), variables=("a", "b")) == 0  # a=0 kills the conjunction
    assert evaluate(phi, (1, 1), variables=("a", "b")) == 1


def test_evaluate_block_lanes():
    x = parse_formula("x", BASIC)
    assert evaluate_block(x, [0b01], 2) == 0b01
    notx = parse_formula("not(x)", BASIC)
    assert evaluate_block(notx, [0b0101], 4) == 0b1010
    conj = parse_formula("and(x, y)", BASIC)
    assert evaluate_block(conj, [0b0101, 0b0011], 4) == 0b0001


@settings(max_examples=100, deadline=None)
@given(_node_strategy())
def test_evaluate_block_matches_scalar(node):
    phi = Formula.build(node, BASIC)
    n = len(phi.variables)
    width = 1 << n
    words = [variable_word(i, width) for i in range(n)]
    word = evaluate_block(phi, words, width)
    for j in range(width):
        env = {name: j >> i & 1 for i, name in enumerate(phi.variables)}
        assert word >> j & 1 == naive_value(phi.root, BASIC, env)


def test_variable_word_matches_per_lane_reference():
    # lane j of the word over assignments 0..width-1 carries bit i of j
    for w in range(17):
        width = 1 << w
        for i in range(20):
            lanes = "".join(str(j >> i & 1) for j in reversed(range(width)))
            assert variable_word(i, width) == int(lanes, 2), (i, width)


def _plan_tables():
    # every table of arity 0-3, and seeded ones of arity 4-6
    for arity in range(4):
        for table in range(1 << (1 << arity)):
            yield arity, table
    rng = random.Random("plan-tables")
    for arity in (4, 5, 6):
        for _ in range(32):
            yield arity, rng.getrandbits(1 << arity)


def test_plan_applied_to_the_rows_gives_the_table():
    for arity, table in _plan_tables():
        rows = 1 << arity
        words = [variable_word(i, rows) for i in range(arity)]
        assert connective_plan(arity, table, ())(words, *range(arity), (1 << rows) - 1) == table, (arity, table)


class _CountedWord(int):
    """An int that counts the ANDs, ORs and XORs it takes part in."""

    ops = [0]

    def __and__(self, other):
        self.ops[0] += 1
        return _CountedWord(int(self) & int(other))

    def __or__(self, other):
        self.ops[0] += 1
        return _CountedWord(int(self) | int(other))

    def __xor__(self, other):
        self.ops[0] += 1
        return _CountedWord(int(self) ^ int(other))

    __rand__ = __and__
    __ror__ = __or__
    __rxor__ = __xor__


def _kernel_ops(arity, table):
    """Big-int operations the kernel of a table spends on the full rows."""
    rows = 1 << arity
    words = [_CountedWord(variable_word(i, rows)) for i in range(arity)]
    _CountedWord.ops[0] = 0
    assert connective_plan(arity, table, ())(words, *range(arity), _CountedWord((1 << rows) - 1)) == table
    return _CountedWord.ops[0]


def test_plan_is_the_cheapest_form():
    # no kernel costs more than the cheapest flat form: the algebraic normal
    # form, the minterms or the complemented maxterms
    for arity, table in _plan_tables():
        flat = min(plan_cost(form) for form in plan_forms(arity, table).values())
        assert _kernel_ops(arity, table) <= flat, (arity, table)
    nor = BooleanFunction.from_bits("nor", "1000")
    counts = [(AND2, 1), (OR2, 1), (XOR2, 1), (NAND2, 2), (nor, 2), (MAJ3, 4)]
    assert [(f.name, _kernel_ops(f.arity, f.table)) for f, _ in counts] == [(f.name, n) for f, n in counts]


def test_wide_random_kernel_is_factored():
    # a random 16-ary table: its flat algebraic normal form costs one op per
    # factor of each monomial, about 262000, and the factored kernel a fifth
    arity, rows = 16, 1 << 16
    table = random.Random("wide-random").getrandbits(rows)
    cols = [variable_word(i, rows) for i in range(arity)]
    anf = table
    for i, col in enumerate(cols):
        anf ^= anf << (1 << i) & col
    flat = sum((anf & col).bit_count() for col in cols) + (anf & 1)
    assert 4 * _kernel_ops(arity, table) < flat


_KERNEL_SOURCE = re.compile(r"lambda V, ((?:i[0-9]+, )*)M: ([ViMfels0-9\[\]&|^() ]*)")


@pytest.fixture
def kernel_sources(monkeypatch):
    """Every source `connective_plan` hands to `compile` during the test."""
    sources = []

    def recording_compile(source, *rest):
        sources.append(source)
        return compile(source, *rest)

    monkeypatch.setattr(formula, "compile", recording_compile, raising=False)
    connective_plan.cache_clear()
    yield sources
    connective_plan.cache_clear()


def _check_kernel_source(source):
    match = _KERNEL_SOURCE.fullmatch(source)
    assert match, source
    params = match.group(1).split(", ")[:-1]
    assert params == [f"i{i}" for i in range(len(params))], source
    tokens = re.findall(r"V\[i[0-9]+\]|M|0|if|else|[&|^()]", match.group(2))
    assert "".join(tokens) == match.group(2).replace(" ", ""), source
    assert {t[2:-1] for t in tokens if t[0] == "V"} <= set(params), source


def test_kernel_sources_use_only_arguments_mask_and_operators(kernel_sources):
    # connectives named after builtins, applied by the walk and by a replay;
    # the replay reads the 0-ary exec, which is block-constant, so
    # eval(x, exec) gets a specialised kernel
    base = Base.of(
        BooleanFunction("__import__", 3, MAJ3.table),
        BooleanFunction("eval", 2, NAND2.table),
        BooleanFunction("exec", 0, 0),
    )
    phi = parse_formula("__import__(eval(x, exec), y, eval(y, z))", base)
    words = [0b01010101, 0b00110011, 0b00001111]
    assert evaluate_block(phi, words, 8) == lane_reference(phi, words, 8, phi.variables)
    assert _replay(Program.compile((phi,), phi.variables, 3), words, 8) == [evaluate_block(phi, words, 8)]
    assert len(kernel_sources) == 4 and " if V[i1] else " in kernel_sources[3]
    tables = set(_plan_tables())
    for arity, table in tables:
        connective_plan(arity, table, ())
    assert len(kernel_sources) == len(tables) + 1
    for source in kernel_sources:
        _check_kernel_source(source)


def _constant_patterns(arity):
    """Every nonempty set of positions of `arity` arguments, as a sorted tuple."""
    for size in range(1, arity + 1):
        yield from itertools.combinations(range(arity), size)


def test_specialised_kernels_match_the_plain_kernel(kernel_sources):
    # every table of arity 0-3, every set of constant positions and every
    # 0/mask pattern on them, on random words of width 1, 64 and 2^16
    rng = random.Random("specialised-kernels")
    words = {width: [rng.getrandbits(width) for _ in range(3)] for width in (1, 64, 1 << 16)}
    for arity in range(4):
        for table in range(1 << (1 << arity)):
            plain = connective_plan(arity, table, ())
            for constants in _constant_patterns(arity):
                kernel = connective_plan(arity, table, constants)
                free = [i for i in range(arity) if i not in constants]
                rows = 1 << len(free)
                columns = [variable_word(j, rows) for j in range(len(free))]
                for pattern in range(1 << len(constants)):
                    ones = {p for k, p in enumerate(constants) if pattern >> k & 1}
                    # the restricted table, read off the plain kernel over the free arguments
                    probe = [None] * arity
                    for j, i in enumerate(free):
                        probe[i] = columns[j]
                    for p in constants:
                        probe[p] = (1 << rows) - 1 if p in ones else 0
                    restricted = plain(probe, *range(arity), (1 << rows) - 1)
                    for width, random_words in words.items():
                        mask = (1 << width) - 1
                        args = [mask if i in ones else 0 if i in constants else random_words[i] for i in range(arity)]
                        word = kernel(args, *range(arity), mask)
                        assert word == plain(args, *range(arity), mask), (arity, table, constants, pattern, width)
                        if restricted == 0:
                            assert word == 0
                        elif restricted == (1 << rows) - 1:
                            assert word == mask
                        elif restricted in columns:
                            # a projection returns the argument's own word object
                            assert word is args[free[columns.index(restricted)]]
    for source in kernel_sources:
        _check_kernel_source(source)


def test_wide_specialised_kernels_match_the_table():
    # 8 random 16-ary tables, each with 1 to 3 constant positions, checked
    # lane by lane against the table
    rng = random.Random("wide-specialised")
    for _ in range(8):
        table = rng.getrandbits(1 << 16)
        constants = tuple(sorted(rng.sample(range(16), rng.randint(1, 3))))
        kernel = connective_plan(16, table, constants)
        for width in (1, 64):
            mask = (1 << width) - 1
            for _ in range(4):
                args = [rng.choice((0, mask)) if i in constants else rng.getrandbits(width) for i in range(16)]
                word = kernel(args, *range(16), mask)
                for k in range(width):
                    row = sum((a >> k & 1) << i for i, a in enumerate(args))
                    assert word >> k & 1 == table >> row & 1, (constants, width, k)


_LANE_BASES = {
    " ".join(b.names): b
    for b in [*(b for bases in FRAGMENT_BASES.values() for b in bases), MONOTONE_BASE, MAJORITY_BASE]
}
_LANE_BASES["and xor top"] = Base.of(AND2, XOR2, TOP)
# plans with negated factors: minterms of nor3 and of x1 and not x2 and not x3,
# complemented maxterms of or3
_LANE_BASES["nor3 or3 sole"] = Base.of(
    BooleanFunction("nor3", 3, 0b00000001),
    BooleanFunction("or3", 3, 0b11111110),
    BooleanFunction("sole", 3, 0b00000010),
)


@pytest.mark.parametrize("names", sorted(_LANE_BASES))
def test_evaluate_block_matches_lane_reference(names):
    # words carry bits beyond the width, which the result must not show
    base = _LANE_BASES[names]
    rng = random.Random(f"lanes-{names}")
    order = tuple(f"v{i}" for i in range(1, 7))
    for width in (1, 2, 3, 63, 64, 65, 1000, 1 << 10):
        for _ in range(2):
            phi = Formula.build(_random_formula(rng, base, order, 5), base)
            words = [rng.getrandbits(width + 3) for _ in order]
            assert evaluate_block(phi, words, width, order) == lane_reference(phi, words, width, order), (
                width,
                format_formula(phi),
            )


@pytest.mark.parametrize("width", [1 << 10, 1 << 16])
def test_evaluate_block_full_width_and_premasked_words_agree(width):
    # a one-block sweep of 16 variables hands over full 2^16-lane words, which
    # are cut to the lanes only where they are wider
    rng = random.Random(f"premasked-{width}")
    order = tuple(f"v{i}" for i in range(1, 17))
    full = [variable_word(i, 1 << 16) for i in range(16)]
    masked = [w & (1 << width) - 1 for w in full]
    for _ in range(3):
        phi = Formula.build(_random_formula(rng, BASIC, order, 7), BASIC)
        word = evaluate_block(phi, full, width, order)
        assert word == evaluate_block(phi, masked, width, order)
        assert word >> width == 0
        if width < 1 << 16:
            assert word == lane_reference(phi, masked, width, order)



def _shared_formulas(rng, base, names, count):
    """`count` formulae whose applications take their arguments from a pool
    of earlier subtrees, so one subtree object recurs within a formula and
    across formulae; each formula then comes again, reparsed, as equal
    subterms built apart."""
    pool = [Var(name) for name in names] + [App(f.name) for f in base.functions if f.arity == 0]
    size = {id(node): 1 for node in pool}
    inner = [f for f in base.functions if f.arity >= 1]
    while len(pool) < len(names) + 40:
        f = rng.choice(inner)
        args = tuple(rng.choice(pool[-6:] if rng.random() < 0.5 else pool) for _ in range(f.arity))
        total = 1 + sum(size[id(a)] for a in args)
        if total <= 200:
            node = App(f.name, args)
            size[id(node)] = total
            pool.append(node)
    roots = [rng.choice(pool[len(pool) - 8 :]) for _ in range(count)]
    formulas = [Formula.build(root, base) for root in roots]
    formulas += [parse_formula(format_formula(phi), base) for phi in formulas]
    return [*formulas, formulas[0], Formula.build(Var(names[-1]), base)]


def _replay(program, lane_words, width):
    """Every formula's word from a replay of block 0 on the lane words."""
    (block,) = program.replay(lane_words, [0], width)
    return list(block)


@pytest.mark.parametrize("names", sorted(_LANE_BASES))
def test_program_matches_walk_and_lane_reference(names):
    # words carry bits beyond the width, which no result may show; every
    # variable is a lane variable, so its word may be any word
    base = _LANE_BASES[names]
    rng = random.Random(f"program-{names}")
    order = tuple(f"v{i}" for i in range(1, 7))
    formulas = _shared_formulas(rng, base, order, 4)
    program = Program.compile(formulas, order, len(order))
    for width in (1, 64, 65, 1 << 16):
        words = [rng.getrandbits(width + 3) for _ in order]
        replayed = _replay(program, words, width)
        assert len(replayed) == len(formulas)
        lanes = range(width) if width <= 65 else rng.sample(range(width), 24)
        for phi, word in zip(formulas, replayed):
            assert word == evaluate_block(phi, words, width, order), (width, format_formula(phi))
            for j in lanes:
                env = {name: w >> j & 1 for name, w in zip(order, words)}
                assert word >> j & 1 == naive_value(phi.root, base, env), (width, j, format_formula(phi))
        if width <= 65:
            assert replayed == [lane_reference(phi, words, width, order) for phi in formulas]


def _steps(program):
    return sum(len(steps) for groups, *_ in program.segments for _, steps in groups)


def _persisting(program):
    """The step slots that no step and no root ever releases."""
    slots, released = set(), set()
    for groups, _root, release in program.segments:
        released.update(release)
        for _, steps in groups:
            for slot, _plan, _args, free in steps:
                slots.add(slot)
                released.update(free)
    return slots - released


def _tier(program):
    """Which steps wait for a change, read off the groups: "every step" runs
    in every evaluation; "lane steps once" leaves only the steps over the
    lane variables waiting; "some tracked" has some steps over block
    variables wait and others run every time; "all tracked" has every step
    wait.  A group's condition holds the bit `always` when it runs
    in every evaluation, and else is its steps' support with the bit above
    `always`, which a first evaluation sets."""
    n = len(program.variables)
    always = 1 << (n - program.lanes)
    support = [0] * program.lanes + [1 << i for i in range(n - program.lanes)]
    support += [0] * sum(len(steps) for groups, *_ in program.segments for _, steps in groups)
    waiting, running = set(), set()
    for groups, *_ in program.segments:
        for condition, steps in groups:
            for slot, _plan, args, _free in steps:
                for a in args:
                    support[slot] |= support[a]
                if condition & always:
                    assert condition == always | always << 1
                    running.add(support[slot])
                else:
                    assert condition == support[slot] | always << 1
                    waiting.add(support[slot])
    if not waiting:
        return "every step"
    if not running - {0}:
        return "all tracked" if waiting - {0} else "no step over block variables"
    return "some tracked" if waiting - {0} else "lane steps once"


def test_program_numbers_each_distinct_subterm_once():
    rng = random.Random("program-steps")
    terms = [[rng.choice((1, -1)) * v for v in rng.sample(range(1, 9), 3)] for _ in range(40)]
    inst = reduce_tautdnf_d2(DnfInput.build(terms, 8))
    formulas = (*inst.premises, inst.conclusion)
    steps = _steps(Program.compile(formulas, inst.variables, 0))
    # one step per (connective, argument slots): structurally equal subterms
    distinct = {node for phi in formulas for node in iter_nodes(phi.root) if isinstance(node, App)}
    assert steps == len(distinct)
    assert steps < sum(connective_count(phi.root) for phi in formulas)
    # the tie chain, read by the premise and the conclusion, is computed once
    tie = inst.premises[0].root.args[0]
    alone = sum(_steps(Program.compile((phi,), inst.variables, 0)) for phi in formulas)
    assert alone - steps >= connective_count(tie)
    # the same text parsed twice compiles to the steps of one parse
    text = format_formula(inst.conclusion)
    twice = [parse_formula(text, MAJORITY_BASE) for _ in range(2)]
    assert _steps(Program.compile(twice, inst.variables, 0)) == _steps(Program.compile(twice[:1], inst.variables, 0))


def test_program_releases_each_slot_after_its_last_reader(monkeypatch):
    phi = parse_formula("and(or(x, y), not(or(x, y)))", BASIC)
    psi = parse_formula("or(x, y)", BASIC)
    formulas = (phi, psi, phi)
    # or(x, y) is slot 2, not(or(x, y)) slot 3 and the and slot 4; the roots
    # 2 and 4 persist for later blocks, and slot 3 is released by its reader
    program = Program.compile(formulas, ("x", "y"), 2)
    (groups1, root1, release1), (groups2, root2, release2), (groups3, root3, release3) = program.segments
    ((_, body1),) = groups1
    assert [args for _slot, _plan, args, _free in body1] == [(0, 1), (2,), (2, 3)]
    assert [free for _slot, _plan, _args, free in body1] == [(), (), (3,)]
    assert groups2 == groups3 == () and (root1, root2, root3) == (4, 2, 4)
    assert (release1, release2, release3) == ((), (), ())
    assert _persisting(program) == {2, 4}
    assert _replay(program, [0b0101, 0b0011], 4) == [0, 0b0111, 0]
    # with no word allowed to persist, every step runs in every evaluation
    # and each root is released after its last reader, the second formula
    # for slot 2
    monkeypatch.setattr(formula, "_KEPT_WORDS", 0)
    program = Program.compile(formulas, ("x", "y"), 2)
    (groups1, _, release1), (_, _, release2), (_, _, release3) = program.segments
    ((_, body1),) = groups1
    assert [free for _slot, _plan, _args, free in body1] == [(), (), (3,)]
    assert (release1, release2, release3) == ((), (2,), (4,))
    assert _tier(program) == "every step" and _persisting(program) == set()
    assert _replay(program, [0b0101, 0b0011], 4) == [0, 0b0111, 0]


def test_program_persists_a_word_a_later_formula_reads():
    # y is a block variable: or(x, y) is read by its own formula's root and
    # by the second formula, which a block that stops after the first leaves
    # unread, so its word persists like both roots
    phi = parse_formula("not(or(x, y))", BASIC)
    psi = parse_formula("and(or(x, y), x)", BASIC)
    program = Program.compile((phi, psi), ("x", "y"), 1)
    assert _tier(program) == "all tracked"
    assert _persisting(program) == {2, 3, 4}
    blocks = [0, 1, 1, 0]
    for block, count, results in zip(blocks, (2, 1, 2, 2), program.replay([0b0101], blocks, 4)):
        for f, word in zip((phi, psi)[:count], results):
            assert word == evaluate_block(f, [0b0101, 0b1111 * block], 4, ("x", "y"))


@pytest.mark.parametrize("names", sorted(_LANE_BASES))
def test_program_replays_blocks_on_kept_invariant_words(names):
    # v1..v4 are the lane variables; each block draws v5 and v6 afresh from
    # 0 and the mask and reads a seeded prefix of the formulae, so some are
    # first reached late; the first formulae are over the lane variables alone
    base = _LANE_BASES[names]
    rng = random.Random(f"program-blocks-{names}")
    order = tuple(f"v{i}" for i in range(1, 7))
    formulas = _shared_formulas(rng, base, order[:4], 2) + _shared_formulas(rng, base, order, 4)
    program = Program.compile(formulas, order, 4)
    # a group over the lane variables alone runs only in a first evaluation
    first_only = 1 << 3
    assert any(condition == first_only for groups, *_ in program.segments for condition, _ in groups)
    assert _persisting(program)
    for width in (64, 1 << 16):
        mask = (1 << width) - 1
        lanes = [rng.getrandbits(width + 3) for _ in range(4)]
        blocks = [sum(rng.choice((0, 1)) << i for i in range(2)) for _ in range(6)]
        reads = [rng.randrange(len(formulas) + 1) for _ in blocks]
        for block, count, results in zip(blocks, reads, program.replay(lanes, blocks, width)):
            words = lanes + [mask if block >> i & 1 else 0 for i in range(2)]
            for phi, word in zip(formulas[:count], results):
                assert word == evaluate_block(phi, words, width, order), (width, format_formula(phi))


def test_program_replays_incrementally_on_every_tier(monkeypatch):
    # seeded programs over 17 to 20 variables, v1..v16 the lane variables;
    # every block pattern comes twice, in a shuffled order, and each block
    # reads a random prefix of the formulae; a bound of 0, 4, 16 and 64
    # persisting words reaches every fallback tier
    width = 64
    mask = (1 << width) - 1
    tiers = set()
    for kept in (0, 4, 16, 64):
        monkeypatch.setattr(formula, "_KEPT_WORDS", kept)
        for names in sorted(_LANE_BASES):
            base = _LANE_BASES[names]
            rng = random.Random(f"program-incremental-{names}")
            order = tuple(f"v{i}" for i in range(1, rng.randint(17, 20) + 1))
            formulas = _shared_formulas(rng, base, order[:16], 2) + _shared_formulas(rng, base, order[12:], 4)
            program = Program.compile(formulas, order, 16)
            assert len(_persisting(program)) <= kept
            tiers.add(_tier(program))
            lanes = [rng.getrandbits(width) for _ in range(16)]
            patterns = [p for p in range(1 << (len(order) - 16)) for _ in range(2)]
            rng.shuffle(patterns)
            for p, results in zip(patterns, program.replay(lanes, patterns, width)):
                words = lanes + [mask if p >> i & 1 else 0 for i in range(len(order) - 16)]
                for phi, word in zip(formulas[: rng.randrange(len(formulas) + 1)], results):
                    assert word == evaluate_block(phi, words, width, order), (kept, names, format_formula(phi))
    assert {"every step", "lane steps once", "some tracked", "all tracked"} <= tiers


def test_program_keeps_no_invariant_word_beyond_the_bound():
    names = [f"v{i}" for i in range(1, 17)]
    pairs = [(a, b) for a in names for b in names if a < b]
    for count in (formula._KEPT_WORDS, formula._KEPT_WORDS + 1):
        # each formula is one invariant step, its own persisting root
        formulas = [parse_formula(f"and({a}, {b})", BASIC) for a, b in pairs[:count]]
        program = Program.compile(formulas, names, 16)
        # no block variable: bit 0 marks a group run in every evaluation, bit 1
        # one run in a first evaluation
        conditions = [condition for groups, *_ in program.segments for condition, _ in groups]
        if count <= formula._KEPT_WORDS:
            assert conditions == [0b10] * count and len(_persisting(program)) == count
        else:
            assert conditions == [0b11] * count and _persisting(program) == set()
        words = [variable_word(i, 1 << 16) for i in range(16)]
        for results in program.replay(words, [0, 0], 1 << 16):
            assert list(results) == [evaluate_block(phi, words, 1 << 16, names) for phi in formulas]


def test_program_errors():
    phi = parse_formula("and(x, y)", BASIC)
    with pytest.raises(ValueError, match="missing"):
        Program.compile((phi,), ("x",), 0)
    program = Program.compile((phi,), ("x", "y"), 2)
    with pytest.raises(ValueError, match="1 words supplied for 2 lane variables"):
        _replay(program, [1], 1)


def _full_table(phi):
    # one lane per assignment of the formula's own variables
    n = len(phi.variables)
    words = [variable_word(i, 1 << n) for i in range(n)]
    return evaluate_block(phi, words, 1 << n)


def test_truth_table():
    assert _full_table(parse_formula("x", BASIC)) == 0b10
    assert _full_table(parse_formula("xor3(x, y, z)", LIN)) == XOR3.table
    # maj(x, x, y) collapses to x; brute-forced over the 4 assignments
    phi = parse_formula("maj(x, x, y)", MAJ)
    assert naive_table(phi.root, MAJ, phi.variables) == _full_table(phi) == 0b1010


def test_linear_extraction():
    assert extract_linear_nf(parse_formula("xor3(x, y, z)", LIN)) == LinearNormalForm(0, 0b111, 3)
    assert extract_linear_nf(parse_formula("xor3(x, x, y)", LIN)) == LinearNormalForm(0, 0b10, 2)
    assert extract_linear_nf(parse_formula("xor3(t, t, t)", LIN)) == LinearNormalForm(0, 0b1, 1)
    with pytest.raises(FragmentError, match="'and' is not linear"):
        extract_linear_nf(parse_formula("and(x, y)", BASIC))


def test_or_extraction():
    nf = extract_or_nf(parse_formula("or(x, or(y, top()))", BASIC))
    assert nf.c0 == 1
    assert extract_or_nf(parse_formula("or(x, y)", BASIC)).mask == 0b11
    assert extract_or_nf(parse_formula("or(x, y)", BASIC)).c0 == 0
    with pytest.raises(FragmentError):
        extract_or_nf(parse_formula("and(x, y)", BASIC))


def test_and_extraction():
    nf = extract_and_nf(parse_formula("and(x, bot())", BASIC))
    assert nf.c0 == 0
    nf = extract_and_nf(parse_formula("and(x, and(y, z))", BASIC))
    assert nf.c0 == 1 and nf.mask == 0b111


def test_unary_extraction():
    assert extract_unary_nf(parse_formula("not(not(t))", BASIC)) == LinearNormalForm(0, 0b1, 1)
    assert extract_unary_nf(parse_formula("not(t)", BASIC)) == LinearNormalForm(1, 0b1, 1)
    assert extract_unary_nf(parse_formula("top()", BASIC)) == LinearNormalForm(1, 0, 0)
    assert extract_unary_nf(parse_formula("not(top())", BASIC)) == LinearNormalForm(0, 0, 0)
    with pytest.raises(FragmentError):
        extract_unary_nf(parse_formula("and(x, y)", BASIC))


def _random_formula(rng, base, names, depth):
    inner = [f for f in base.functions if f.arity >= 1]
    if depth == 0 or rng.random() < 0.3:
        leaves = list(names) + [f.name for f in base.functions if f.arity == 0]
        pick = rng.choice(leaves)
        return Var(pick) if pick in names else App(pick)
    f = rng.choice(inner)
    return App(f.name, tuple(_random_formula(rng, base, names, depth - 1) for _ in range(f.arity)))


@pytest.mark.parametrize(
    "base,extract",
    [
        (Base.of(XOR2, XOR3, TOP, BOT), extract_linear_nf),
        (Base.of(OR2, TOP, BOT), extract_or_nf),
        (Base.of(AND2, TOP, BOT), extract_and_nf),
        (Base.of(NOT, TOP, BOT), extract_unary_nf),
    ],
)
def test_extraction_reconstructs_truth_table(base, extract):
    rng = random.Random(11)
    for trial in range(160):
        names = tuple(f"v{i}" for i in range(1, 13 if trial % 16 == 0 else 9))
        phi = Formula.build(_random_formula(rng, base, names, 4), base)
        nf = extract(phi, {name: i for i, name in enumerate(names)})
        for j in range(1 << len(names)):
            sigma = [(j >> i) & 1 for i in range(len(names))]
            env = dict(zip(names, sigma))
            assert form_value(nf, sigma) == naive_value(phi.root, base, env), format_formula(phi)



def _scalar_flip_reference(phi, order, kind):
    # the extraction rule spelled out with n+1 scalar evaluations: in every
    # kind a coefficient is a single-variable flip at the base point
    point = dict.fromkeys(order, 1 if kind == "and" else 0)
    c0 = naive_value(phi.root, phi.base, point)
    coeffs = []
    for name in order:
        point[name] ^= 1
        coeffs.append(naive_value(phi.root, phi.base, point) ^ c0)
        point[name] ^= 1
    return c0, tuple(coeffs)


def _wide_formula(rng, base, names, const_rate):
    # random tree over many variables: leaves are combined pairwise at random
    connectives = [f for f in base.functions if f.arity >= 1]
    constants = [f.name for f in base.functions if f.arity == 0]

    def leaf():
        if rng.random() < const_rate:
            return App(rng.choice(constants))
        return Var(rng.choice(names))

    nodes = [leaf() for _ in range(2 * len(names))]
    while len(nodes) > 1:
        f = rng.choice(connectives)
        args = [nodes.pop(rng.randrange(len(nodes))) for _ in range(min(f.arity, len(nodes)))]
        args += [leaf() for _ in range(f.arity - len(args))]
        nodes.append(App(f.name, tuple(args)))
    return nodes[0]


@pytest.mark.parametrize(
    "base,extract,kind",
    [
        (Base.of(XOR2, XOR3, TOP, BOT), extract_linear_nf, "linear"),
        (Base.of(OR2, TOP, BOT), extract_or_nf, "or"),
        (Base.of(AND2, TOP, BOT), extract_and_nf, "and"),
        (Base.of(NOT, NFST, TOP, BOT), extract_unary_nf, "unary"),
    ],
)
def test_extraction_beyond_one_word(base, extract, kind):
    # orders of 70-200 variables give multi-limb lane words; the order also
    # holds variables absent from the formula, and some formulae are constant
    rng = random.Random(f"wide-{kind}")
    for trial in range(9):
        pool = tuple(f"v{i}" for i in range(rng.randint(70, 200)))
        used = rng.sample(pool, rng.randint(1, len(pool) - 1))
        const_rate = (0.0, 0.004, 1.0)[trial % 3]
        phi = Formula.build(_wide_formula(rng, base, used, const_rate), base)
        order = list(pool)
        rng.shuffle(order)
        nf = extract(phi, {name: i for i, name in enumerate(order)})
        c0, coeffs = _scalar_flip_reference(phi, order, kind)
        assert (nf.c0, nf.mask, nf.n) == (c0, sum(c << i for i, c in enumerate(coeffs)), len(order))
        absent = [i for i, name in enumerate(order) if name not in phi.variables]
        assert absent and not any(nf.mask >> i & 1 for i in absent)
        for _ in range(12):
            sigma = [rng.getrandbits(1) for _ in order]
            assert form_value(nf, sigma) == naive_value(phi.root, base, dict(zip(order, sigma)))
        if not phi.variables:
            bare = extract(phi, {})
            assert (bare.c0, bare.mask, bare.n) == (c0, 0, 0)
            assert form_value(bare, []) == naive_value(phi.root, base, {})


def _full_order_scan(phi, order, base_bit):
    # the flip scan over the whole order, as extraction did it before it ran
    # over the formula's own variables: one walk on len(order)+1 lanes
    n = len(order)
    width = n + 1
    if base_bit:
        full = (1 << width) - 1
        words = [full ^ (2 << i) for i in range(n)]
    else:
        words = [2 << i for i in range(n)]
    word = evaluate_block(phi, words, width, order)
    c0 = word & 1
    flips = word >> 1
    if c0:
        flips ^= (1 << n) - 1
    return c0, flips, n


_EXTRACTORS = {
    "linear": (Base.of(XOR2, XOR3, TOP, BOT), extract_linear_nf, LinearNormalForm, 0, "xor(x, y)"),
    "or": (Base.of(OR2, TOP, BOT), extract_or_nf, OrNormalForm, 0, "or(x, y)"),
    "and": (Base.of(AND2, TOP, BOT), extract_and_nf, AndNormalForm, 1, "and(x, y)"),
    "unary": (Base.of(NOT, NFST, TOP, BOT), extract_unary_nf, LinearNormalForm, 0, "nfst(x, y)"),
}
_EXTRA_NAMES = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "w", "x", "y", "z"]


def _fragment_node(base):
    leaves = st.sampled_from([Var(v) for v in "wxyz"] + [App(f.name) for f in base.functions if not f.arity])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            [
                st.builds(lambda *args, name=f.name: App(name, args), *[kids] * f.arity)
                for f in base.functions
                if f.arity
            ]
        ),
        max_leaves=24,
    )


@pytest.mark.parametrize("kind", sorted(_EXTRACTORS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_extraction_over_own_variables_matches_full_order_scan(kind, data):
    # the order holds variables absent from the formula, in shuffled order;
    # given as a dict and as an instance's index, it must give what the scan
    # over all of its len(order)+1 lanes gives
    base, extract, form, base_bit, _ = _EXTRACTORS[kind]
    phi = Formula.build(data.draw(_fragment_node(base)), base)
    extra = data.draw(st.lists(st.sampled_from(_EXTRA_NAMES), unique=True, max_size=8))
    order = data.draw(st.permutations(list(dict.fromkeys((*phi.variables, *extra)))))
    expected = form(*_full_order_scan(phi, order, base_bit))
    assert extract(phi, {name: i for i, name in enumerate(order)}) == expected
    # a premise ahead of phi moves phi's variables in the instance's index
    lead = Formula.build(Var(extra[0]) if extra else App("top"), base)
    inst = Instance.build(base, [lead], phi)
    assert extract(phi, inst.index) == form(*_full_order_scan(phi, inst.variables, base_bit))
    assert extract(phi) == form(*_full_order_scan(phi, phi.variables, base_bit))


@pytest.mark.parametrize("kind", sorted(_EXTRACTORS))
def test_extraction_errors_fragment_before_missing_variable(kind):
    base, extract, _, _, text = _EXTRACTORS[kind]
    phi = parse_formula(text, base)
    for order in ({"x": 0}, {"e1": 0, "x": 1, "e2": 2}):
        with pytest.raises(ValueError, match=re.escape("variable order is missing ['y']")) as caught:
            extract(phi, order)
        assert caught.type is ValueError
    with pytest.raises(ValueError, match=re.escape("variable order is missing ['x', 'y']")):
        extract(phi, {})
    # a connective outside the fragment is reported before a missing variable
    outside = parse_formula("or(x, y)" if kind == "and" else "and(x, y)", BASIC)
    for order in ({"x": 0}, {}):
        with pytest.raises(FragmentError, match="is not"):
            extract(outside, order)


def test_instance_variable_order():
    p1 = parse_formula("or(b, a)", BASIC)
    p2 = parse_formula("or(c, a)", BASIC)
    goal = parse_formula("or(d, b)", BASIC)
    inst = Instance.build(BASIC, [p1, p2], goal)
    assert inst.variables == ("b", "a", "c", "d")


def test_instance_file_roundtrip(tmp_path):
    base_path = tmp_path / "ops.base"
    BASIC.save(base_path)
    inst = Instance.build(
        BASIC,
        [parse_formula("or(x, y)", BASIC), parse_formula("not(z)", BASIC)],
        parse_formula("and(x, top())", BASIC),
    )
    inst_path = tmp_path / "inst.txt"
    write_instance(inst, inst_path, base_ref="ops.base")
    back = read_instance(inst_path)
    assert back == inst
    # explicit base argument wins over the header
    assert read_instance(inst_path, BASIC) == inst


def test_instance_file_errors(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("premise: x\n")
    with pytest.raises(ValueError, match="no 'base:' header"):
        read_instance(path)
    with pytest.raises(ValueError, match="missing 'conclusion:'"):
        read_instance(path, BASIC)
    path.write_text("conclusion: and(x)\n")
    with pytest.raises(ValueError, match="inst.txt:1"):
        read_instance(path, BASIC)
    path.write_text("what: x\n")
    with pytest.raises(ValueError, match="inst.txt:1"):
        read_instance(path, BASIC)


@settings(max_examples=60, deadline=None)
@given(_node_strategy())
def test_naive_agreement(node):
    # the library evaluator against the test suite's independent one
    phi = Formula.build(node, BASIC)
    n = len(phi.variables)
    for j in range(1 << n):
        env = {name: j >> i & 1 for i, name in enumerate(phi.variables)}
        sigma = [env[name] for name in phi.variables]
        assert evaluate(phi, sigma) == naive_value(phi.root, BASIC, env)
