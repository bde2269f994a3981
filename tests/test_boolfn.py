import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from helpers import parity_table, table_bit
from postimp import boolfn
from postimp.boolfn import (
    AND2,
    BOT,
    MAJ3,
    NOT,
    OR2,
    OR_AND3,
    TOP,
    XOR2,
    XOR3,
    ArityError,
    BooleanFunction,
    dual,
    is_monotone,
    is_self_dual,
    profile,
    read_functions,
    separation_degree,
    write_functions,
)
from postimp.formula import App, Base, Formula, Var


def test_evaluate_basic():
    assert table_bit(AND2, (1, 1)) == 1
    assert table_bit(AND2, (1, 0)) == 0
    # majority of (1, 0, 1) computed by hand from (x&y)|(y&z)|(x&z)
    assert table_bit(MAJ3, (1, 0, 1)) == 1
    assert table_bit(TOP, ()) == 1


def test_evaluate_arity_mismatch():
    with pytest.raises(ArityError) as err:
        Formula.build(App("and", (Var("x"),)), Base.of(AND2))
    assert err.value.name == "and"
    assert err.value.expected == 2
    assert err.value.actual == 1


def test_table_bit_order():
    # x1 is the least significant index bit
    f = BooleanFunction.from_bits("p1", "01010101")
    assert f.arity == 3
    assert table_bit(f, (1, 0, 0)) == 1
    assert table_bit(f, (0, 1, 1)) == 0


def test_reproducing():
    assert profile(AND2).c0 == 0
    # a profile is a plain tuple of its six fields, in this order
    assert profile(AND2) == (0, 1, 0b11, False, False, True)
    assert type(profile(AND2))._fields == ("c0", "c1", "relevant", "linear", "disjunction", "conjunction")
    assert profile(XOR3).c0 == 0 and profile(XOR3).c1 == 1
    assert profile(NOT).c0 == 1


def test_monotone():
    assert is_monotone(OR2)
    assert not is_monotone(NOT)
    assert is_monotone(MAJ3)


def test_self_dual():
    assert is_self_dual(MAJ3)
    assert is_self_dual(XOR3)
    assert not is_self_dual(AND2)


def test_separating():
    assert separation_degree(OR_AND3, 0) == math.inf
    assert separation_degree(OR2, 0) == math.inf
    assert separation_degree(XOR2, 0) == 0
    # 0 exactly on the unit vectors: any two zeros share a 0, all three do not
    assert separation_degree(BooleanFunction.from_bits("t", "10010111"), 0) == 2
    # a constant has the degrees of its unary lift
    assert separation_degree(TOP, 0) == separation_degree(BooleanFunction.from_bits("t", "11"), 0) == math.inf
    assert separation_degree(TOP, 1) == separation_degree(BooleanFunction.from_bits("t", "11"), 1) == 0


def test_relevant_variables():
    assert profile(BooleanFunction.from_bits("p1", "01010101")).relevant == 0b001
    assert profile(XOR3).relevant == 0b111
    assert profile(BooleanFunction.from_bits("t2", "1111")).relevant == 0
    assert profile(NOT).unary and not profile(XOR2).unary


def test_normal_form_examples():
    assert profile(XOR3).linear and profile(NOT).linear and profile(TOP).linear
    assert profile(OR2).disjunction and profile(TOP).disjunction and profile(BOT).disjunction
    assert not profile(OR2).linear
    assert not profile(NOT).disjunction and not profile(NOT).conjunction
    assert profile(AND2).conjunction and not profile(AND2).disjunction
    maj = profile(MAJ3)
    assert not maj.linear and not maj.disjunction and not maj.conjunction


# ---- independent re-derivations for the exhaustive sweep ----


def _rows(arity):
    return list(itertools.product((0, 1), repeat=arity))


def _slow_monotone(f):
    rows = _rows(f.arity)
    return all(
        table_bit(f, a) <= table_bit(f, b)
        for a in rows
        for b in rows
        if all(x <= y for x, y in zip(a, b))
    )


def _slow_self_dual(f):
    return all(
        table_bit(f, a) == 1 - table_bit(f, tuple(1 - x for x in a)) for a in _rows(f.arity)
    )


def _slow_separation_degree(f, c):
    # fewest inputs mapped to c with no common coordinate equal to c, less one
    if f.arity == 0:
        f = BooleanFunction(f.name, 1, 3 * f.table)
    preimage = [a for a in _rows(f.arity) if table_bit(f, a) == c]
    for size in range(1, len(preimage) + 1):
        for subset in itertools.combinations(preimage, size):
            if not any(all(a[i] == c for a in subset) for i in range(f.arity)):
                return size - 1
    return math.inf


def _slow_relevant(f):
    out = set()
    for i in range(f.arity):
        for a in _rows(f.arity):
            flipped = list(a)
            flipped[i] ^= 1
            if table_bit(f, a) != table_bit(f, tuple(flipped)):
                out.add(i + 1)
                break
    return frozenset(out)


def _search_linear(f):
    for c0 in (0, 1):
        for coeffs in itertools.product((0, 1), repeat=f.arity):
            if all(
                (c0 ^ sum(c & x for c, x in zip(coeffs, a)) % 2) == table_bit(f, a)
                for a in _rows(f.arity)
            ):
                return True
    return False


def _search_disjunction(f):
    for c0 in (0, 1):
        for coeffs in itertools.product((0, 1), repeat=f.arity):
            if all(
                (1 if c0 or any(c & x for c, x in zip(coeffs, a)) else 0) == table_bit(f, a)
                for a in _rows(f.arity)
            ):
                return True
    return False


def _search_conjunction(f):
    for c0 in (0, 1):
        for coeffs in itertools.product((0, 1), repeat=f.arity):
            if all(
                (1 if c0 and all(x for c, x in zip(coeffs, a) if c) else 0) == table_bit(f, a)
                for a in _rows(f.arity)
            ):
                return True
    return False


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_exhaustive_property_sweep(arity):
    for table in range(1 << (1 << arity)):
        f = BooleanFunction("f", arity, table)
        p = profile(f)
        assert is_monotone(f) == _slow_monotone(f)
        assert is_self_dual(f) == _slow_self_dual(f)
        assert p.c0 == table_bit(f, (0,) * arity)
        assert p.c1 == table_bit(f, (1,) * arity)
        for c in (0, 1):
            assert separation_degree(f, c) == _slow_separation_degree(f, c)
        relevant = _slow_relevant(f)
        assert p.relevant == sum(1 << (i - 1) for i in relevant)
        assert p.unary == (len(relevant) <= 1)


def _assert_predicates_match_search(f):
    p = profile(f)
    assert p.linear == _search_linear(f)
    assert p.disjunction == _search_disjunction(f)
    assert p.conjunction == _search_conjunction(f)
    if p.linear and p.disjunction:
        assert p.unary


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_exhaustive_normal_form_sweep(arity):
    for table in range(1 << (1 << arity)):
        _assert_predicates_match_search(BooleanFunction("f", arity, table))


def _form_table(arity, kind, c0, mask):
    # the table of c0 combined with the masked variables, row by row
    table = 0
    for a in _rows(arity):
        chosen = [x for i, x in enumerate(a) if mask >> i & 1]
        if kind == "linear":
            value = c0 ^ sum(chosen) % 2
        elif kind == "or":
            value = c0 | any(chosen)
        else:
            value = c0 & all(chosen)
        table |= value << sum(x << i for i, x in enumerate(a))
    return table


@pytest.mark.parametrize("arity", [4, 5, 6])
def test_seeded_normal_form_sweep(arity):
    # 64 tables per arity: random ones (almost never in L, V or E) and, in
    # equal parts, members of each class with random coefficients
    rng = random.Random(f"predicates-{arity}")
    for trial in range(64):
        kind = ("random", "linear", "or", "and")[trial % 4]
        if kind == "random":
            table = rng.getrandbits(1 << arity)
        else:
            table = _form_table(arity, kind, rng.getrandbits(1), rng.getrandbits(arity))
        _assert_predicates_match_search(BooleanFunction("f", arity, table))


def test_wide_predicates_and_single_row_flips():
    # 16-ary members of L, V and E, and every table one row away from them
    # at the edge rows and at 64 seeded rows: a flip leaves the class unless
    # it lands on another member (a disjunction of fewer variables, or a
    # constant)
    arity = 16
    rows = 1 << arity
    top = rows - 1
    full = (1 << rows) - 1
    xor16 = parity_table(arity)
    or16 = full ^ 1
    and16 = 1 << top
    members = [
        ("linear", xor16, lambda r: False),
        ("linear", xor16 ^ full, lambda r: False),  # the complement, c0 = 1
        ("disjunction", or16, lambda r: r.bit_count() <= 1),
        ("disjunction", full, lambda r: r == 0),  # or16 with the constant 1
        ("conjunction", and16, lambda r: (top ^ r).bit_count() <= 1),
        ("conjunction", 0, lambda r: r == top),  # and16 with the constant 0
    ]
    rng = random.Random("wide-flips")
    flips = [0, top] + [1 << i for i in range(arity)] + [top ^ 1 << i for i in range(arity)]
    flips += [rng.randrange(rows) for _ in range(64)]
    for member, table, stays in members:
        assert getattr(profile(BooleanFunction("f", arity, table)), member)
        for r in flips:
            assert getattr(profile(BooleanFunction("f", arity, table ^ 1 << r)), member) == stays(r), (table, r)
    # the complements of a disjunction and a conjunction lie in none of them
    for table in (or16 ^ full, and16 ^ full):
        p = profile(BooleanFunction("f", arity, table))
        assert not p.linear and not p.disjunction and not p.conjunction


@given(st.integers(0, 6).flatmap(lambda a: st.tuples(st.just(a), st.integers(0, (1 << (1 << a)) - 1))))
def test_dual_is_an_involution(pair):
    arity, table = pair
    f = BooleanFunction("f", arity, table)
    assert dual(dual(f)) == f


def test_function_file_roundtrip(tmp_path):
    path = tmp_path / "demo.base"
    write_functions([AND2, NOT, XOR3, BOT], path)
    back = read_functions(path)
    assert back == [AND2, NOT, XOR3, BOT]


def test_function_file_comments_and_errors(tmp_path):
    path = tmp_path / "funcs.base"
    path.write_text("# a comment\n\nor 2 0111\n")
    assert read_functions(path) == [OR2]
    bad = tmp_path / "bad.base"
    bad.write_text("or 2 011\n")
    with pytest.raises(ValueError, match="bad.base:1"):
        read_functions(bad)
    bad.write_text("or two 0111\n")
    with pytest.raises(ValueError, match="integer"):
        read_functions(bad)


def test_function_names_are_ascii_identifiers(tmp_path):
    # the formula tokenizer reads ASCII names only, so any other name would
    # print as formula text that does not parse back
    with pytest.raises(ValueError, match="ASCII identifier"):
        BooleanFunction("\u00e9", 0, 1)
    bad = tmp_path / "bad.base"
    bad.write_text("ok 0 1\n\u00e9 0 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.base:2: .*ASCII identifier"):
        read_functions(bad)
