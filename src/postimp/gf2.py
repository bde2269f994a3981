"""Bit-packed linear systems over Z2.

Rows are (coefficient mask, right-hand side) pairs; bit i of a mask is the
coefficient of x_{i+1}.  `solve` inserts the rows one by one into a basis
keyed by lowest set bit, each row with its right-hand side as bit n: a row
is reduced by the basis row of its lowest bit until it has a lowest bit no
basis row holds, and joins the basis, or reduces to zero; a row that
reduces to 0 = 1 makes the system inconsistent at once.
The pivots, the lowest bits of this echelon basis, are a property of the
row space, so the solution is the one that a Gauss-Jordan elimination with
lowest-column pivots gives: back-substituted from the highest pivot down,
with every free variable zero.
"""

from .boolfn import Record, content_lines


class Gf2System(Record):
    __slots__ = _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple):  # rows of (mask, rhs) pairs
        if n < 0:
            raise ValueError("number of unknowns must be nonnegative")
        for mask, rhs in rows:
            if not 0 <= mask < (1 << n):
                raise ValueError(f"row mask {mask:#x} does not fit {n} unknowns")
            if rhs not in (0, 1):
                raise ValueError(f"right-hand side must be a bit, got {rhs!r}")
        self._set("n", n)
        self._set("rows", rows)


def solve(system: Gf2System) -> tuple | None:
    """One solution with all free variables zero, or None if inconsistent."""
    n = system.n
    top = 1 << n  # bit n of a row holds its right-hand side
    basis = {}  # 1 + lowest set bit of a basis row -> that row
    for mask, rhs in system.rows:
        row = mask | top if rhs else mask
        while row:
            col = (row & -row).bit_length()
            pivot = basis.get(col)
            if pivot is None:
                if col > n:
                    return None  # the row reduced to 0 = 1
                basis[col] = row
                break
            row ^= pivot
    # the other bits of a basis row lie above its pivot, so are solved
    # already; `solved` holds bit n too, so a row's parity over it is its value
    x = [0] * n
    solved = top
    for col in sorted(basis, reverse=True):
        if (basis[col] & solved).bit_count() & 1:
            solved |= 1 << (col - 1)
            x[col - 1] = 1
    return tuple(x)


def read_system(path) -> Gf2System:
    """Read `m n` followed by m rows of coefficient bits, a space, and a rhs bit."""
    with open(path, encoding="utf-8") as fh:
        entries = list(content_lines(fh.read().splitlines()))
    if not entries:
        raise ValueError(f"{path}: missing 'm n' header")
    head_no, head = entries[0]
    parts = head.split()
    if len(parts) != 2:
        raise ValueError(f"{path}:{head_no}: expected 'm n', got {head!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{path}:{head_no}: expected integers in 'm n', got {head!r}") from None
    body = entries[1:]
    if len(body) != m:
        raise ValueError(f"{path}: header promises {m} rows, found {len(body)}")
    rows = []
    for no, line in body:
        fields = line.split()
        if n == 0 and len(fields) == 1:
            fields = ["", fields[0]]
        if (
            len(fields) != 2
            or len(fields[0]) != n
            or any(c not in "01" for c in fields[0])
            or fields[1] not in ("0", "1")
        ):
            raise ValueError(f"{path}:{no}: expected {n} coefficient bits and a rhs bit, got {line!r}")
        mask = sum(1 << i for i, c in enumerate(fields[0]) if c == "1")
        rows.append((mask, int(fields[1])))
    return Gf2System(n, tuple(rows))
