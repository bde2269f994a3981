import itertools
import math

import pytest
from hypothesis import given, strategies as st

from helpers import table_bit
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
    as_conjunction,
    as_disjunction,
    as_linear,
    as_unary,
    dual,
    is_c_reproducing,
    is_monotone,
    is_self_dual,
    read_functions,
    relevant_variables,
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
    assert is_c_reproducing(AND2, 0)
    assert is_c_reproducing(XOR3, 0) and is_c_reproducing(XOR3, 1)
    assert not is_c_reproducing(NOT, 0)


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
    assert relevant_variables(BooleanFunction.from_bits("p1", "01010101")) == {1}
    assert relevant_variables(XOR3) == {1, 2, 3}
    assert relevant_variables(BooleanFunction.from_bits("t2", "1111")) == frozenset()


def test_normal_form_examples():
    assert as_linear(XOR3) == boolfn.LinearNormalForm(0, 0b111, 3)
    assert as_disjunction(OR2) == boolfn.OrNormalForm(0, 0b11, 2)
    assert as_linear(OR2) is None
    nf = as_unary(NOT)
    assert nf == boolfn.LinearNormalForm(1, 0b1, 1)
    assert as_disjunction(NOT) is None
    assert as_conjunction(AND2) == boolfn.AndNormalForm(1, 0b11, 2)
    assert as_unary(TOP) == boolfn.LinearNormalForm(1, 0, 0)


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
        assert is_monotone(f) == _slow_monotone(f)
        assert is_self_dual(f) == _slow_self_dual(f)
        for c in (0, 1):
            assert is_c_reproducing(f, c) == (table_bit(f, (c,) * arity) == c)
            assert separation_degree(f, c) == _slow_separation_degree(f, c)
        assert relevant_variables(f) == _slow_relevant(f)


@pytest.mark.parametrize("arity", [0, 1, 2, 3])
def test_exhaustive_normal_form_sweep(arity):
    for table in range(1 << (1 << arity)):
        f = BooleanFunction("f", arity, table)
        assert (as_linear(f) is not None) == _search_linear(f)
        assert (as_disjunction(f) is not None) == _search_disjunction(f)
        assert (as_conjunction(f) is not None) == _search_conjunction(f)
        assert (as_unary(f) is not None) == (len(relevant_variables(f)) <= 1)
        for nf in (as_linear(f), as_disjunction(f), as_conjunction(f), as_unary(f)):
            if nf is not None:
                assert all(nf.value(a) == table_bit(f, a) for a in _rows(arity))
        if as_linear(f) is not None and as_disjunction(f) is not None:
            assert len(relevant_variables(f)) <= 1


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
