"""Bit-packed linear systems over Z2.

Rows are (coefficient mask, right-hand side) pairs; bit i of a mask is the
coefficient of x_{i+1}.  Elimination is deterministic: pivots are the lowest
nonzero column taken from the topmost remaining row, and solutions zero all
free variables.
"""

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Gf2System:
    n: int
    rows: tuple  # of (mask, rhs) pairs

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("number of unknowns must be nonnegative")
        for mask, rhs in self.rows:
            if not 0 <= mask < (1 << self.n):
                raise ValueError(f"row mask {mask:#x} does not fit {self.n} unknowns")
            if rhs not in (0, 1):
                raise ValueError(f"right-hand side must be a bit, got {rhs!r}")


def eliminate(system: Gf2System) -> tuple:
    """Reduced row echelon form over Z2: the rows, pivot rows first, and the
    1-based pivot columns, ascending."""
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


def solve(system: Gf2System) -> Optional[tuple]:
    """One solution with all free variables zero, or None if inconsistent."""
    rows, pivots = eliminate(system)
    if any(m == 0 and b for m, b in rows):
        return None
    x = [0] * system.n
    for (_, rhs), col in zip(rows, pivots):
        x[col - 1] = rhs
    return tuple(x)


def read_system(path) -> Gf2System:
    """Read `m n` followed by m rows of coefficient bits, a space, and a rhs bit."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    entries = [(k + 1, ln.strip()) for k, ln in enumerate(lines)]
    entries = [(no, ln) for no, ln in entries if ln and not ln.startswith("#")]
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
