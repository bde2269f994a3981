import itertools
import random
import sys
import time

import pytest

from helpers import brute_consistent, depth
from postimp.decide import decide_oracle
from postimp.formula import (
    connective_count,
    format_formula,
    iter_nodes,
    parse_formula,
    read_instance,
    write_instance,
)
from postimp.formula import App
from postimp.gf2 import Gf2System, solve
from postimp.reductions import (
    MAX_DNF_VARIABLES,
    DnfInput,
    parse_dnf,
    read_dnf,
    reduce_linsys_to_imp,
    reduce_mod2_single_linear,
    reduce_mod2_unary,
    reduce_tautdnf_d2,
    reduce_tautdnf_monotone,
)


def test_dnf_normalization():
    dnf = DnfInput.build([[1, -2], [2, -2, 3], [3]])
    assert dnf.num_vars == 3
    assert dnf.terms == (frozenset({1, -2}), frozenset({3}))
    with pytest.raises(ValueError, match="at least one literal"):
        DnfInput.build([[]])
    with pytest.raises(ValueError, match="nonzero signed"):
        DnfInput.build([[0]])


def test_dnf_tautology_check():
    assert DnfInput.build([[1], [-1]]).is_tautology()
    assert not DnfInput.build([[1]]).is_tautology()
    assert DnfInput.build([[1, -2], [-1], [2]]).is_tautology()


def test_dnf_parsing():
    dnf = parse_dnf("x1 -x2\n# comment\n\nx3\n")
    assert dnf.terms == (frozenset({1, -2}), frozenset({3}))
    with pytest.raises(ValueError, match="bad literal 'y2'"):
        parse_dnf("x1 y2\n")


def test_dnf_file_roundtrip(tmp_path):
    dnf = DnfInput.build([[2, -1], [3]])
    path = tmp_path / "phi.dnf"
    path.write_text("-x1 x2\nx3\n")
    assert read_dnf(path) == dnf


def test_monotone_reduction_examples():
    taut = reduce_tautdnf_monotone(DnfInput.build([[1], [-1]]))
    assert decide_oracle(taut).implies
    single = reduce_tautdnf_monotone(DnfInput.build([[1]]))
    d = decide_oracle(single)
    assert not d.implies
    assert d.counterexample["x1"] == 0 and d.counterexample["y1"] == 1
    three = reduce_tautdnf_monotone(DnfInput.build([[1, -2], [-1], [2]]))
    assert decide_oracle(three).implies


def test_majority_reduction_examples():
    assert decide_oracle(reduce_tautdnf_d2(DnfInput.build([[1], [-1]]))).implies
    assert not decide_oracle(reduce_tautdnf_d2(DnfInput.build([[1]]))).implies


def test_dnf_variable_cap():
    # the work follows the largest index: x5000000 is refused before any tree
    # is built, whether the index comes from a literal or from num_vars
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"literal index 5000000 exceeds the cap of {MAX_DNF_VARIABLES} DNF"):
        parse_dnf("x1 x5000000\n-x1\n")
    assert time.perf_counter() - started < 0.1
    with pytest.raises(ValueError, match=f"num_vars {MAX_DNF_VARIABLES + 1} exceeds the cap of {MAX_DNF_VARIABLES} DNF"):
        DnfInput.build([[1]], MAX_DNF_VARIABLES + 1)
    assert DnfInput.build([[1], [-MAX_DNF_VARIABLES]]).num_vars == MAX_DNF_VARIABLES
    wide = reduce_tautdnf_monotone(parse_dnf("x1 x32000\n-x1\n"))
    assert len(wide.variables) == 64_000


def test_directly_built_dnf_is_capped():
    # the constructor is the checked path, so an API caller that skips
    # `build` is refused before any tree is built, as parse_dnf is
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"^num_vars 70000 exceeds the cap of {MAX_DNF_VARIABLES} DNF variables$"):
        DnfInput(70000, (frozenset({1}),))
    assert time.perf_counter() - started < 0.1


_OVER = MAX_DNF_VARIABLES + 1


@pytest.mark.parametrize(
    "terms, num_vars, message",
    [
        ([[1], []], None, "a DNF term needs at least one literal"),
        ([[1, 0]], None, "literals are nonzero signed indices, got 0"),
        ([[1], ["x2"]], None, "literals are nonzero signed indices, got 'x2'"),
        ([[1, -3]], 2, "literal index 3 exceeds num_vars 2"),
        ([[1, _OVER]], None, f"literal index {_OVER} exceeds the cap of {MAX_DNF_VARIABLES} DNF variables"),
        ([[1]], _OVER, f"num_vars {_OVER} exceeds the cap of {MAX_DNF_VARIABLES} DNF variables"),
        # normalization drops the complementary term, but its index still counts
        ([[1], [_OVER, -_OVER]], None, f"literal index {_OVER} exceeds the cap of {MAX_DNF_VARIABLES} DNF variables"),
    ],
    ids=["empty-term", "zero", "non-integer", "over-num-vars", "index-over-cap", "num-vars-over-cap", "complementary-over-cap"],
)
def test_dnf_build_and_constructor_refuse_alike(terms, num_vars, message):
    with pytest.raises(ValueError) as built:
        DnfInput.build(terms, num_vars)
    with pytest.raises(ValueError) as constructed:
        DnfInput(num_vars, terms)
    assert str(built.value) == str(constructed.value) == message


def test_long_literal_is_refused_by_its_length():
    # refused before int() reads the digits: no interpreter advice, no echo
    started = time.perf_counter()
    with pytest.raises(ValueError) as refused:
        parse_dnf("x1\nx1 x" + "9" * 5000 + "\n-x1\n")
    assert time.perf_counter() - started < 0.1
    message = str(refused.value)
    assert message == f"line 2: a literal index of 5000 digits exceeds the cap of {MAX_DNF_VARIABLES} DNF variables"
    assert "set_int_max_str_digits" not in message and "99999" not in message
    # an index short enough for int() under any digit limit keeps the cap's message
    with pytest.raises(ValueError, match=f"^literal index 100000 exceeds the cap of {MAX_DNF_VARIABLES} DNF"):
        parse_dnf("x1 x100000\n")
    longest = "9" * 640
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(640)  # the lowest limit the interpreter allows
        with pytest.raises(ValueError, match=f"^literal index {longest} exceeds the cap"):
            parse_dnf(f"x{longest}\n")
        with pytest.raises(ValueError, match="^line 1: a literal index of 641 digits exceeds the cap"):
            parse_dnf(f"-x{longest}9\n")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_reductions_reject_degenerate_dnf():
    with pytest.raises(ValueError, match="no satisfiable terms"):
        reduce_tautdnf_monotone(DnfInput.build([[1, -1]]))
    with pytest.raises(ValueError, match="no satisfiable terms"):
        reduce_tautdnf_d2(DnfInput(0, ()))


def _all_small_dnfs(max_vars=3, max_terms=3):
    literal_sets = []
    for signs in itertools.product((0, 1, -1), repeat=max_vars):
        term = [s * (i + 1) for i, s in enumerate(signs) if s]
        if term:
            literal_sets.append(tuple(term))
    for count in range(1, max_terms + 1):
        for combo in itertools.combinations(literal_sets, count):
            yield DnfInput.build(list(combo))


def test_tautology_reductions_exhaustive_small():
    checked = 0
    for dnf in _all_small_dnfs(max_vars=2, max_terms=3):
        expected = dnf.is_tautology()
        assert decide_oracle(reduce_tautdnf_monotone(dnf)).implies == expected
        assert decide_oracle(reduce_tautdnf_d2(dnf)).implies == expected
        checked += 1
    assert checked > 50


def test_linear_system_reduction():
    solvable = Gf2System(1, ((0b1, 1),))
    inst = reduce_linsys_to_imp(solvable)
    assert not decide_oracle(inst).implies
    conflict = Gf2System(2, ((0b11, 1), (0b11, 0)))
    inst = reduce_linsys_to_imp(conflict)
    assert decide_oracle(inst).implies
    cycle = Gf2System(3, ((0b011, 1), (0b110, 1), (0b101, 1)))
    inst = reduce_linsys_to_imp(cycle)
    assert decide_oracle(inst).implies


def test_linear_system_reduction_edge_rows():
    # an all-zero row with rhs 1 forces the goal variable directly
    inst = reduce_linsys_to_imp(Gf2System(2, ((0b00, 1),)))
    assert decide_oracle(inst).implies
    inst = reduce_linsys_to_imp(Gf2System(2, ((0b00, 0),)))
    assert not decide_oracle(inst).implies
    with pytest.raises(ValueError, match="no rows"):
        reduce_linsys_to_imp(Gf2System(2, ()))


def test_linear_system_reduction_randomized():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = tuple((rng.randrange(1 << n), rng.randint(0, 1)) for _ in range(rng.randint(1, 6)))
        system = Gf2System(n, rows)
        inst = reduce_linsys_to_imp(system)
        solvable = solve(system) is not None
        assert solvable == brute_consistent(system)
        assert decide_oracle(inst).implies == (not solvable)


def test_mod2_reductions_exhaustive_short():
    for length in range(9):
        for bits in itertools.product("01", repeat=length):
            word = "".join(bits)
            odd = word.count("1") % 2 == 1
            assert decide_oracle(reduce_mod2_unary(word)).implies == odd
            assert decide_oracle(reduce_mod2_single_linear(word)).implies == odd


def test_mod2_word_validation():
    with pytest.raises(ValueError, match="over 0/1"):
        reduce_mod2_unary("10x")
    with pytest.raises(ValueError, match="over 0/1"):
        reduce_mod2_single_linear("2")


def test_mod2_structures():
    inst = reduce_mod2_unary("11")
    assert format_formula(inst.conclusion) == "not(not(not(t)))"
    inst = reduce_mod2_single_linear("10")
    assert format_formula(inst.conclusion) == "xor3(t, f, f)"
    inst = reduce_mod2_single_linear("")
    assert format_formula(inst.conclusion) == "f"


def test_majority_reduction_shape_bounds():
    rng = random.Random(3)
    for _ in range(30):
        terms = rng.randint(1, 12)
        universe = 0
        body = []
        for _ in range(terms):
            width = rng.randint(1, 5)
            picks = rng.sample(range(1, 1 + max(2, terms * width // 2)), k=min(width, max(2, terms * width // 2)))
            body.append([p if rng.random() < 0.5 else -p for p in picks])
            universe = max(universe, *(abs(l) for l in body[-1]))
        dnf = DnfInput.build(body)
        if not dnf.terms:
            continue
        inst = reduce_tautdnf_d2(dnf)
        lits = sum(len(t) for t in dnf.terms)
        widest = max(len(t) for t in dnf.terms)
        bound = (len(dnf.terms) - 1).bit_length() + (widest - 1).bit_length() + 3
        assert depth(inst.conclusion.root) <= bound
        assert connective_count(inst.conclusion.root) <= 4 * (lits + len(dnf.terms))


def test_emitted_instances_roundtrip(tmp_path):
    emitted = [
        reduce_tautdnf_monotone(DnfInput.build([[1, -2], [2]])),
        reduce_tautdnf_d2(DnfInput.build([[1, -2], [2]])),
        reduce_linsys_to_imp(Gf2System(2, ((0b11, 1),))),
        reduce_mod2_unary("101"),
        reduce_mod2_single_linear("101"),
    ]
    for k, inst in enumerate(emitted):
        base_path = tmp_path / f"b{k}.base"
        inst_path = tmp_path / f"i{k}.txt"
        inst.base.save(base_path)
        write_instance(inst, inst_path, base_ref=base_path.name)
        back = read_instance(inst_path)
        assert back == inst
        used = {
            node.fn
            for phi in (*inst.premises, inst.conclusion)
            for node in iter_nodes(phi.root)
            if isinstance(node, App)
        }
        assert used <= set(inst.base.names)


def test_monotone_reduction_is_parseable_text():
    inst = reduce_tautdnf_monotone(DnfInput.build([[1, 2, -3], [-1]]))
    text = format_formula(inst.conclusion)
    assert parse_formula(text, inst.base) == inst.conclusion
