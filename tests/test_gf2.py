import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_consistent, satisfies_all
from postimp.gf2 import Gf2System, eliminate, read_system, solve


def sys_of(n, *rows):
    # rows list the coefficient bits of x1..xn; the system takes them as masks
    return Gf2System(n, tuple((sum(c << i for i, c in enumerate(bits)), rhs) for bits, rhs in rows))


def test_eliminate_single_pivot():
    _, pivots = eliminate(sys_of(1, ([1], 1)))
    assert pivots == (1,)


def test_eliminate_detects_contradiction():
    rows, _ = eliminate(sys_of(2, ([1, 1], 1), ([1, 1], 0)))
    assert (0, 1) in rows
    assert solve(sys_of(2, ([1, 1], 1), ([1, 1], 0))) is None


def test_identity_system():
    system = sys_of(3, ([1, 0, 0], 1), ([0, 1, 0], 0), ([0, 0, 1], 1))
    _, pivots = eliminate(system)
    assert len(pivots) == 3
    assert solve(system) == (1, 0, 1)


def test_three_cycle_inconsistent():
    # x1+x2=1, x2+x3=1, x1+x3=1 sums to 0=1; brute force over 8 assignments agrees
    system = sys_of(3, ([1, 1, 0], 1), ([0, 1, 1], 1), ([1, 0, 1], 1))
    assert not brute_consistent(system)
    assert solve(system) is None


def test_three_cycle_consistent():
    system = sys_of(3, ([1, 1, 0], 1), ([0, 1, 1], 1), ([1, 0, 1], 0))
    assert brute_consistent(system)
    assert solve(system) is not None
    assert satisfies_all(system, solve(system))


def test_solve_zeroes_free_variables():
    assert solve(sys_of(2, ([1, 1], 1))) == (1, 0)
    assert solve(Gf2System(2, ())) == (0, 0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_consistency_matches_enumeration(data):
    n = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(0, 14))
    rows = [
        (data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(0, 1)))
        for _ in range(m)
    ]
    system = Gf2System(n, tuple(rows))
    assert (solve(system) is not None) == brute_consistent(system)
    solution = solve(system)
    if solution is not None:
        assert satisfies_all(system, solution)
    else:
        assert not brute_consistent(system)


def test_elimination_is_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10)
        rows = tuple(
            (rng.randrange(1 << n), rng.randint(0, 1)) for _ in range(rng.randint(0, 12))
        )
        reduced, pivots = eliminate(Gf2System(n, rows))
        assert eliminate(Gf2System(n, reduced)) == (reduced, pivots)


def test_system_file_roundtrip(tmp_path):
    system = sys_of(3, ([1, 0, 1], 1), ([0, 1, 1], 0))
    path = tmp_path / "sys.txt"
    path.write_text("2 3\n101 1\n011 0\n")
    assert read_system(path) == system


def test_system_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n101 1\n")
    with pytest.raises(ValueError, match="promises 2 rows"):
        read_system(path)
    path.write_text("1 3\n10a 1\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_system(path)
