import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import brute_consistent, reference_eliminate, reference_solve, satisfies_all
from postimp.gf2 import Gf2System, read_system, solve


def sys_of(n, *rows):
    # rows list the coefficient bits of x1..xn; the system takes them as masks
    return Gf2System(n, tuple((sum(c << i for i, c in enumerate(bits)), rhs) for bits, rhs in rows))


def test_eliminate_single_pivot():
    system = sys_of(1, ([1], 1))
    _, pivots = reference_eliminate(system)
    assert pivots == (1,)
    assert solve(system) == reference_solve(system) == (1,)


def test_eliminate_detects_contradiction():
    system = sys_of(2, ([1, 1], 1), ([1, 1], 0))
    rows, _ = reference_eliminate(system)
    assert (0, 1) in rows
    assert reference_solve(system) is None
    assert solve(system) is None


def test_identity_system():
    system = sys_of(3, ([1, 0, 0], 1), ([0, 1, 0], 0), ([0, 0, 1], 1))
    _, pivots = reference_eliminate(system)
    assert len(pivots) == 3
    assert solve(system) == reference_solve(system) == (1, 0, 1)


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
    # row operations keep the row space, hence the pivots and the solution:
    # solving the reduced system gives what solving the original gives
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10)
        rows = tuple(
            (rng.randrange(1 << n), rng.randint(0, 1)) for _ in range(rng.randint(0, 12))
        )
        reduced, _ = reference_eliminate(Gf2System(n, rows))
        assert solve(Gf2System(n, reduced)) == solve(Gf2System(n, rows))


def test_solve_edge_systems():
    assert solve(Gf2System(0, ())) == ()
    assert solve(Gf2System(0, ((0, 0), (0, 0)))) == ()
    assert solve(Gf2System(0, ((0, 0), (0, 1)))) is None
    assert solve(Gf2System(3, ())) == (0, 0, 0)
    assert solve(Gf2System(3, ((0, 0),))) == (0, 0, 0)
    assert solve(Gf2System(3, ((0b110, 1), (0, 1)))) is None
    # a zero row after a consistent basis, and a duplicate that contradicts it
    assert solve(Gf2System(3, ((0b110, 1), (0b110, 1), (0, 0)))) == (0, 1, 0)
    assert solve(Gf2System(3, ((0b110, 1), (0b011, 0), (0b110, 0)))) is None


def _seeded_system(rng):
    """A random system of one of several shapes: 0, 1 or a few unknowns or
    dozens; dense or 3-sparse rows; a planted solution or random right-hand
    sides; with zero rows and duplicate rows mixed in."""
    n = rng.choice((0, 1, 2, rng.randint(3, 12), rng.randint(3, 12), rng.randint(20, 70)))
    sparse = rng.random() < 0.5
    planted = rng.getrandbits(n) if rng.random() < 0.5 else None
    rows = []
    for _ in range(rng.randint(0, 2 * n + 3)):
        roll = rng.random()
        if rows and roll < 0.1:
            mask, rhs = rng.choice(rows)  # a duplicate, its rhs flipped at times
            rows.append((mask, rhs ^ (planted is None and rng.random() < 0.5)))
            continue
        if n == 0 or roll < 0.15:
            mask = 0
        elif sparse:
            mask = sum(1 << i for i in rng.sample(range(n), min(3, n)))
        else:
            mask = rng.getrandbits(n)
        if planted is None:
            rhs = rng.randint(0, 1)
        else:
            rhs = (mask & planted).bit_count() & 1
        rows.append((mask, rhs))
    return Gf2System(n, tuple(rows)), planted


def test_solve_matches_gauss_jordan_reference():
    rng = random.Random("gf2:basis-insertion")
    seen = {"consistent": 0, "inconsistent": 0, "no rows": 0, "zero rhs 1": 0, "n=0": 0}
    for _ in range(3000):
        system, planted = _seeded_system(rng)
        solution = solve(system)
        assert solution == reference_solve(system), system
        if planted is not None:
            assert solution is not None
        if solution is None:
            seen["inconsistent"] += 1
        else:
            seen["consistent"] += 1
            assert len(solution) == system.n
            assert satisfies_all(system, solution)
        seen["no rows"] += not system.rows
        seen["zero rhs 1"] += (0, 1) in system.rows
        seen["n=0"] += system.n == 0
    assert min(seen.values()) >= 50, seen


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
