import itertools
import os
import random
import subprocess
import sys

import pytest
from helpers import composition_closure, dichotomy_draws

import postimp
from postimp.boolfn import (
    AND2,
    AND_OR3,
    BOT,
    BooleanFunction,
    MAJ3,
    NAND2,
    NOT,
    OR2,
    OR_AND3,
    TOP,
    XOR2,
    XOR3,
)
from postimp.classify import (
    Fragment,
    ImpClass,
    classify_base,
    classify_base_single_premise,
    closure_fixed_arity,
)
from postimp.formula import Base

XNOR2 = BooleanFunction.from_bits("xnor", "1001")
IMP = BooleanFunction.from_bits("imp", "1011")  # x1 -> x2
NOR2 = BooleanFunction.from_bits("nor", "1000")
NXOR3 = BooleanFunction.from_bits("nxor3", "10010110")


def in_closure(base, generators):
    """The given functions whose tables lie in the base's closure at their arity."""
    return {g for g in generators if g.table in {f.table for f in closure_fixed_arity(base, g.arity)}}


@pytest.mark.parametrize(
    "functions,expected_class,expected_fragment",
    [
        ((AND2, NOT), ImpClass.CONP_COMPLETE, Fragment.GENERAL),
        ((OR2, AND2), ImpClass.CONP_COMPLETE, Fragment.GENERAL),
        ((OR_AND3,), ImpClass.CONP_COMPLETE, Fragment.GENERAL),
        ((AND_OR3,), ImpClass.CONP_COMPLETE, Fragment.GENERAL),
        ((MAJ3,), ImpClass.CONP_COMPLETE, Fragment.GENERAL),
        ((XOR2, TOP), ImpClass.PARITYL_COMPLETE, Fragment.LINEAR),
        ((XOR3,), ImpClass.PARITYL_COMPLETE, Fragment.LINEAR),
        ((OR2, BOT, TOP), ImpClass.AC0, Fragment.OR),
        ((AND2, BOT, TOP), ImpClass.AC0, Fragment.AND),
        ((NOT, TOP), ImpClass.AC0_MOD2, Fragment.UNARY),
        ((NOT,), ImpClass.AC0_MOD2, Fragment.UNARY),
    ],
)
def test_classify_canonical_bases(functions, expected_class, expected_fragment):
    verdict = classify_base(Base.of(*functions))
    assert verdict.complexity is expected_class
    assert verdict.fragment is expected_fragment


def test_classify_single_premise():
    assert classify_base_single_premise(Base.of(XOR3)).complexity is ImpClass.AC0_MOD2
    assert classify_base_single_premise(Base.of(XOR3)).fragment is Fragment.LINEAR
    assert classify_base_single_premise(Base.of(XOR2, TOP)).complexity is ImpClass.AC0_MOD2
    assert classify_base_single_premise(Base.of(AND2, NOT)).complexity is ImpClass.CONP_COMPLETE
    assert classify_base_single_premise(Base.of(NOT)).complexity is ImpClass.AC0_MOD2
    assert classify_base_single_premise(Base.of(OR2, BOT, TOP)).complexity is ImpClass.AC0


def test_class_fragment_consistency():
    # every classification pairs the class with a compatible fragment
    pairs = {
        ImpClass.CONP_COMPLETE: {Fragment.GENERAL},
        ImpClass.PARITYL_COMPLETE: {Fragment.LINEAR},
        ImpClass.AC0_MOD2: {Fragment.UNARY, Fragment.LINEAR},
        ImpClass.AC0: {Fragment.OR, Fragment.AND, Fragment.TRIVIAL},
    }
    rng = random.Random(5)
    for _ in range(300):
        fns = [
            BooleanFunction(f"g{i}", a, rng.randrange(1 << (1 << a)))
            for i, a in enumerate(rng.choices((0, 1, 2, 3), k=rng.randint(1, 2)))
        ]
        for verdict in (classify_base(Base.of(*fns)), classify_base_single_premise(Base.of(*fns))):
            assert verdict.fragment in pairs[verdict.complexity]


def test_closure_examples():
    assert {f.bits() for f in closure_fixed_arity(Base.of(NOT), 1)} == {"01", "10"}
    # ternary xor over two fixed variables collapses to the projections
    assert {f.bits() for f in closure_fixed_arity(Base.of(XOR3), 2)} == {"0101", "0011"}
    assert len(closure_fixed_arity(Base.of(AND2, NOT), 2)) == 16


def test_closure_includes_lifted_constants():
    tables = {f.bits() for f in closure_fixed_arity(Base.of(OR2, BOT, TOP), 2)}
    assert "0000" in tables and "1111" in tables
    assert "0111" in tables  # x or y


def test_package_import_leaves_numpy_unloaded():
    # the package does not depend on numpy; only the test reference uses it
    src = os.path.dirname(os.path.dirname(os.path.abspath(postimp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, postimp, postimp.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_closure_arity_validation():
    with pytest.raises(ValueError, match="closure arity"):
        closure_fixed_arity(Base.of(NOT), 0)
    with pytest.raises(ValueError, match="closure arity"):
        closure_fixed_arity(Base.of(NOT), 5)


def test_contains_generator_examples():
    assert in_closure(Base.of(AND2, OR2), [MAJ3])
    assert not in_closure(Base.of(XOR3), [MAJ3])
    assert in_closure(Base.of(NOT), [NOT])
    assert in_closure(Base.of(XOR2), [XOR3])
    assert in_closure(Base.of(XNOR2), [XOR3])
    assert in_closure(Base.of(NXOR3), [XOR3])


def test_closure_is_a_fixpoint():
    # holds both projections and every one-step application of the base
    for fns in [(NOT, TOP), (XOR3,), (OR2, BOT), (MAJ3,)]:
        base = Base.of(*fns)
        closure = closure_fixed_arity(base, 2)
        tables = {f.table for f in closure}
        assert {0b1010, 0b1100} <= tables  # both binary projections
        for f in fns:
            if f.arity == 0:
                continue
            for combo in itertools.product(sorted(tables), repeat=f.arity):
                result = 0
                for row in range(4):
                    idx = 0
                    for i, g in enumerate(combo):
                        idx |= (g >> row & 1) << i
                    result |= (f.table >> idx & 1) << row
                assert result in tables


def test_closure_monotone_in_the_base():
    small = {f.table for f in closure_fixed_arity(Base.of(OR2), 2)}
    large = {f.table for f in closure_fixed_arity(Base.of(OR2, AND2), 2)}
    assert small <= large


def test_parityl_bases_generate_ternary_xor():
    for fns in [(XOR2,), (XNOR2,), (NXOR3,), (XOR2, TOP), (NOT, XOR3)]:
        base = Base.of(*fns)
        assert classify_base(base).complexity is ImpClass.PARITYL_COMPLETE
        assert in_closure(base, [XOR3])


def test_dichotomy_on_binary_singletons():
    # all 16 binary connectives, each as a one-function base
    witnesses = (OR_AND3, AND_OR3, MAJ3)
    for table in range(16):
        base = Base.of(BooleanFunction("g", 2, table))
        hard = classify_base(base).complexity is ImpClass.CONP_COMPLETE
        found = in_closure(base, witnesses)
        assert hard == bool(found), f"binary table {table:04b}"


def test_generators_in_closure_full_report():
    found = in_closure(Base.of(NAND2), [OR_AND3, AND_OR3, MAJ3])
    assert found == {OR_AND3, AND_OR3, MAJ3}
    found = in_closure(Base.of(OR2, BOT, TOP), [OR_AND3, AND_OR3, MAJ3])
    assert found == set()


def test_membership_matches_composition():
    # the composition fixpoint is the independent reference
    singletons = [
        Base.of(BooleanFunction("g", arity, table))
        for arity in (0, 1, 2, 3)
        for table in range(1 << (1 << arity))
    ]
    small = singletons[:22]  # arity <= 2
    draws = [b for b in dichotomy_draws() if all(f.arity < 3 for f in b.functions)]
    rng = random.Random("closure:ternary")
    ternary = [Base.of(BooleanFunction("g", 3, rng.randrange(256))) for _ in range(16)]
    cases = [(base, k) for base in singletons for k in (1, 2)]
    cases += [(base, 3) for base in small + draws + ternary]
    cases += [(base, 4) for base in small if base.functions[0].bits() not in (NAND2.bits(), NOR2.bits())]
    for base, k in cases:
        got = {f.table for f in closure_fixed_arity(base, k)}
        assert got == composition_closure(base, k), (base.functions, k)


def test_constants_have_the_classes_of_their_lift():
    # top is 0-separating like its unary lift, so it adds nothing to implication
    for k in (3, 4):
        assert closure_fixed_arity(Base.of(IMP, TOP), k) == closure_fixed_arity(Base.of(IMP), k)
