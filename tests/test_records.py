"""The package's fixed-field records: equality, hashing, immutability,
constructors and validation, and an import that generates no code."""

import copy
import json
import os
import pickle
import re
import subprocess
import sys

import pytest

import postimp
from postimp.boolfn import AND2, NOT, AndNormalForm, BooleanFunction, LinearNormalForm, OrNormalForm, Record
from postimp.classify import Fragment, ImpComplexity, classify_base
from postimp.decide import Decision
from postimp.formula import App, Base, Formula, Instance, Program, Var, parse_formula
from postimp.gf2 import Gf2System
from postimp.reductions import DnfInput

BASE = Base.of(AND2, NOT)
TEXT = "and(x, not(and(y, x)))"


def _formula():
    return parse_formula(TEXT, BASE)


# each factory builds a fresh record; two calls give equal, distinct objects
RECORDS = {
    "BooleanFunction": lambda: BooleanFunction("f", 2, 6),
    "LinearNormalForm": lambda: LinearNormalForm(1, 5, 3),
    "OrNormalForm": lambda: OrNormalForm(1, 5, 3),
    "AndNormalForm": lambda: AndNormalForm(1, 5, 3),
    "Base": lambda: Base.of(AND2, NOT),
    "Var": lambda: Var("x"),
    "App": lambda: App("and", (Var("x"), App("not", (Var("y"),)))),
    "Formula": _formula,
    "Program": lambda: Program.compile([_formula()], ("x", "y"), 1),
    "Instance": lambda: Instance.build(BASE, [_formula()], _formula()),
    "ImpComplexity": lambda: classify_base(BASE),
    "Decision": lambda: Decision(False, Fragment.LINEAR, "refuted", None),
    "Gf2System": lambda: Gf2System(3, ((5, 1), (2, 0))),
    "DnfInput": lambda: DnfInput.build([[1, -2], [2]]),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered():
    assert {type(make()).__name__ for make in RECORDS.values()} == set(RECORDS)
    # the coefficient forms' private base is covered through its three subclasses
    assert {cls.__name__ for cls in _subclasses(Record)} - {"_CoefficientForm"} == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # a record equals no tuple of its fields, and copies compare equal; so do
    # pickles, but a Program holds compiled kernels, which do not pickle
    values = tuple(getattr(a, field) for field in a._fields)
    assert a != values and values != a
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    if name != "Program":
        assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith(f"{name}(") and repr(a) == repr(b)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_or_deleting_an_attribute_raises(name):
    record = RECORDS[name]()
    for field in (*record._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert not hasattr(record, "__dict__")


def test_records_of_two_classes_are_never_equal():
    forms = [LinearNormalForm(0, 1, 1), OrNormalForm(0, 1, 1), AndNormalForm(0, 1, 1)]
    for i, a in enumerate(forms):
        for j, b in enumerate(forms):
            assert (a == b) == (i == j)
    # two fields each, equal values
    assert Gf2System(2, ()) != DnfInput(2, ())
    assert Var("x") != App("x")


def test_unequal_trees_are_unequal():
    x, y = Var("x"), Var("y")
    assert App("and", (x, y)) != App("and", (y, x))
    assert App("f", (App("g", (x,)), y)) != App("f", (App("g", (x, y)),))
    assert App("not", (x,)) != App("neg", (x,))
    assert parse_formula("and(x, y)", BASE) != parse_formula("and(x, y)", Base.of(AND2))


def test_constructors_keep_positions_keywords_and_defaults():
    assert App("top") == App("top", ()) == App(fn="top", args=())
    decision = Decision(True, Fragment.OR, "proved")
    assert decision.counterexample is None
    assert decision == Decision(implies=True, fragment_used=Fragment.OR, detail="proved", counterexample=None)
    assert ImpComplexity(complexity=None, fragment=Fragment.OR, witness="w").witness == "w"
    assert Gf2System(n=1, rows=((1, 1),)).rows == ((1, 1),)
    # a record holding a dict is as unhashable as the dict
    with pytest.raises(TypeError):
        hash(Decision(False, Fragment.OR, "refuted", {"x": 1}))


def test_derived_fields_stay_out_of_equality_and_repr():
    inst = RECORDS["Instance"]()
    assert inst.index == {"x": 0, "y": 1}
    assert inst._fields == ("base", "premises", "conclusion", "variables")
    assert "index" not in repr(inst)
    base = Base.of(AND2, NOT)
    assert base._by_name == {"and": AND2, "not": NOT}
    assert "_by_name" not in repr(base)


def test_validation_errors_still_fire():
    with pytest.raises(ValueError, match=re.escape("arity must lie in 0..16, got 17")):
        BooleanFunction("f", 17, 0)
    with pytest.raises(ValueError, match=re.escape("table of f does not fit 2 rows")):
        BooleanFunction("f", 1, 4)
    with pytest.raises(ValueError, match="function name must be an ASCII identifier"):
        BooleanFunction("é", 1, 1)
    with pytest.raises(ValueError, match="a base needs at least one function"):
        Base(())
    with pytest.raises(ValueError, match="duplicate function names in base"):
        Base.of(AND2, AND2)
    with pytest.raises(ValueError, match="number of unknowns must be nonnegative"):
        Gf2System(-1, ())
    with pytest.raises(ValueError, match=re.escape("row mask 0x4 does not fit 2 unknowns")):
        Gf2System(2, ((4, 0),))
    with pytest.raises(ValueError, match="right-hand side must be a bit, got 2"):
        Gf2System(2, ((1, 2),))
    for form in (LinearNormalForm, OrNormalForm, AndNormalForm):
        with pytest.raises(ValueError, match=re.escape("coefficient mask 0x8 does not fit 3 variables")):
            form(0, 8, 3)
        with pytest.raises(ValueError, match="coefficient mask"):
            form(0, -1, 3)


def test_builders_are_classmethods_of_their_own_class():
    # the benchmark tracer rebinds them through the class __dict__
    assert isinstance(Formula.__dict__["build"], classmethod)
    assert isinstance(Instance.__dict__["build"], classmethod)


def test_package_import_generates_no_record_code():
    # dataclasses pulls in inspect, dis, ast and tokenize; no record needs them
    src = os.path.dirname(os.path.dirname(os.path.abspath(postimp.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import json, sys; before = set(sys.modules); import postimp; package = set(sys.modules); "
        "import postimp.cli; print(json.dumps([sorted(package - before), sorted(set(sys.modules) - before)]))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    package, added = json.loads(out.stdout)
    assert "dataclasses" not in added and "inspect" not in added
    modules = {"boolfn", "formula", "classify", "gf2", "decide", "reductions"}
    assert {m for m in package if m.startswith("postimp")} == {"postimp", *(f"postimp.{m}" for m in modules)}
    # without `site`, which may load typing first, the package loads none of
    # typing, dataclasses and inspect itself
    probe = "import json, sys, postimp, postimp.cli; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert "postimp.cli" in loaded
    assert not loaded & {"typing", "dataclasses", "inspect"}
