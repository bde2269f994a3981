"""Finite Boolean functions as bit-packed truth tables.

A function of arity n is stored as an integer whose bit j holds the value at
the argument tuple encoded by j, with x1 on the least significant index bit:
a_i = (j >> (i - 1)) & 1.  The constants are the 0-ary functions with tables
"0" and "1".

Every Post-class test reads the whole table at once.  `variable_word` gives
the column of each input, so monotonicity and relevance cost one shift and
mask per input, and membership in L, V or E is one comparison with the table
that f's constant and its relevant columns predict.  The coefficient forms
carry what the formula extractors read off a formula.
"""

import math
import operator
from dataclasses import dataclass
from typing import Iterable

MAX_ARITY = 16


class ArityError(ValueError):
    """Argument count does not match a connective's arity."""

    def __init__(self, name: str, expected: int, actual: int):
        super().__init__(f"{name} expects {expected} argument(s), got {actual}")
        self.name = name
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True, slots=True)
class BooleanFunction:
    name: str
    arity: int
    table: int

    def __post_init__(self):
        if not (self.name.isascii() and self.name.isidentifier()):
            raise ValueError(f"function name must be an ASCII identifier, got {self.name!r}")
        if not 0 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity must lie in 0..{MAX_ARITY}, got {self.arity}")
        if not 0 <= self.table < (1 << self.rows):
            raise ValueError(f"table of {self.name} does not fit {self.rows} rows")

    @property
    def rows(self) -> int:
        return 1 << self.arity

    @classmethod
    def from_bits(cls, name: str, bits: str) -> "BooleanFunction":
        """Build from a truth-table string; character j is the value at index j."""
        n = len(bits)
        arity = n.bit_length() - 1
        if n == 0 or (1 << arity) != n:
            raise ValueError(f"table length must be a power of two, got {n}")
        if any(c not in "01" for c in bits):
            raise ValueError(f"table for {name} must be over 0/1, got {bits!r}")
        table = sum(1 << j for j, c in enumerate(bits) if c == "1")
        return cls(name, arity, table)

    def bits(self) -> str:
        return "".join("1" if self.table >> j & 1 else "0" for j in range(self.rows))


def variable_word(i: int, width: int) -> int:
    """Lane pattern of variable i over assignments 0..width-1.

    `width` must be a power of two; lane k then carries bit (k >> i) & 1.
    With width f.rows it is the column of x_{i+1} in f's table.
    """
    period = 1 << i
    if period >= width:
        return 0
    word = ((1 << period) - 1) << period  # one period of 0s, then one of 1s
    while word.bit_length() < width:
        word |= word << word.bit_length()
    return word


def is_c_reproducing(f: BooleanFunction, c: int) -> bool:
    """f(c, ..., c) = c."""
    return f.table >> (f.rows - 1 if c else 0) & 1 == c


def is_monotone(f: BooleanFunction) -> bool:
    """No single 0->1 input flip ever decreases the output."""
    for i in range(f.arity):
        if f.table & ~variable_word(i, f.rows) & ~(f.table >> (1 << i)):
            return False
    return True


def dual(f: BooleanFunction) -> BooleanFunction:
    """Negate the output and all inputs, so row j is row rows-1-j complemented."""
    flipped = format(f.table ^ ((1 << f.rows) - 1), f"0{f.rows}b")
    return BooleanFunction(f.name, f.arity, int(flipped[::-1], 2))


def is_self_dual(f: BooleanFunction) -> bool:
    return f.table == dual(f).table


def separation_degree(f: BooleanFunction, c: int) -> float:
    """Largest m with f in S_c^m: any m or fewer inputs that f maps to c share
    a coordinate equal to c; infinite when f is c-separating.  A constant has
    the degree of its unary lift.  With below[s] the number of such inputs
    whose non-c coordinates lie in s, the j-tuples of them whose non-c
    coordinates cover all n positions number sum (-1)^(n - |s|) below[s]^j."""
    if f.arity == 0:
        f = BooleanFunction(f.name, 1, 3 * f.table)
    full = f.rows - 1
    below = [0] * f.rows
    for j in range(f.rows):
        below[j ^ full * c] += (f.table >> j & 1) == c
    for i in range(f.arity):
        for s in range(f.rows):
            if s >> i & 1:
                below[s] += below[s ^ 1 << i]
    for m in range(f.arity):
        if sum((-1) ** (full ^ s).bit_count() * below[s] ** (m + 1) for s in range(f.rows)):
            return m
    return math.inf


def relevant_variables(f: BooleanFunction) -> frozenset:
    """1-based indices of inputs that can flip the output."""
    return frozenset(
        i + 1
        for i in range(f.arity)
        if (f.table ^ f.table >> (1 << i)) & ~variable_word(i, f.rows)
    )


@dataclass(frozen=True)
class _CoefficientForm:
    """A constant c0 and one coefficient per variable, packed into `mask`.

    Bit i-1 of `mask` is the coefficient of x_i, for i in 1..n.
    """

    c0: int
    mask: int
    n: int

    def __post_init__(self):
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"coefficient mask {self.mask:#x} does not fit {self.n} variables")

    @classmethod
    def from_flips(cls, c0: int, flips: int, n: int):
        """The form whose value at the base point is c0 and whose value flips
        exactly under the single-variable changes set in `flips`."""
        return cls(c0, flips, n)


@dataclass(frozen=True)
class LinearNormalForm(_CoefficientForm):
    """c0 xor c1*x1 xor ... xor cn*xn; with at most one ci set, the unary form."""


@dataclass(frozen=True)
class OrNormalForm(_CoefficientForm):
    """c0 or the disjunction of the variables with coefficient 1."""

    @classmethod
    def from_flips(cls, c0: int, flips: int, n: int):
        # flips are read at the all-0 point; a constant-true form keeps every coefficient
        return cls(c0, (1 << n) - 1 if c0 else flips, n)


@dataclass(frozen=True)
class AndNormalForm(_CoefficientForm):
    """c0 and the conjunction of the variables with coefficient 1."""

    @classmethod
    def from_flips(cls, c0: int, flips: int, n: int):
        # flips are read at the all-1 point; a constant-false form keeps every coefficient
        return cls(c0, flips if c0 else (1 << n) - 1, n)


def _predicted(f: BooleanFunction, point: int, op) -> bool:
    """Is f its value at row `point` combined by `op` with the columns of its
    relevant variables?  That table is f's only candidate in L (^ from row
    0), V (| from row 0) or E (& from the top row), so one comparison of
    whole tables decides membership."""
    word = (1 << f.rows) - 1 if f.table >> point & 1 else 0
    for i in relevant_variables(f):
        word = op(word, variable_word(i - 1, f.rows))
    return word == f.table


def is_linear(f: BooleanFunction) -> bool:
    """f = c0 xor c1*x1 xor ... xor cn*xn (Post's class L)."""
    return _predicted(f, 0, operator.xor)


def is_disjunction(f: BooleanFunction) -> bool:
    """f = c0 or a disjunction of variables (Post's class V)."""
    return _predicted(f, 0, operator.or_)


def is_conjunction(f: BooleanFunction) -> bool:
    """f = c1 and a conjunction of variables (Post's class E)."""
    return _predicted(f, f.rows - 1, operator.and_)


def read_functions(path) -> list:
    """Parse a function-table file: one `name arity bits` entry per line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'name arity bits', got {line!r}")
            name, arity_text, bits = parts
            try:
                arity = int(arity_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: arity must be an integer, got {arity_text!r}") from None
            if not 0 <= arity <= MAX_ARITY:
                raise ValueError(f"{path}:{lineno}: arity must lie in 0..{MAX_ARITY}, got {arity}")
            if len(bits) != 1 << arity:
                raise ValueError(
                    f"{path}:{lineno}: table for {name} must have {1 << arity} bits, got {len(bits)}"
                )
            try:
                fn = BooleanFunction.from_bits(name, bits)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            out.append(fn)
    return out


def write_functions(functions: Iterable[BooleanFunction], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in functions:
            fh.write(f"{f.name} {f.arity} {f.bits()}\n")


def _bf(name, bits):
    return BooleanFunction.from_bits(name, bits)


TOP = _bf("top", "1")
BOT = _bf("bot", "0")
NOT = _bf("not", "10")
AND2 = _bf("and", "0001")
OR2 = _bf("or", "0111")
XOR2 = _bf("xor", "0110")
NAND2 = _bf("nand", "1110")
XOR3 = _bf("xor3", "01101001")
MAJ3 = _bf("maj", "00010111")
OR_AND3 = _bf("or_and", "01010111")  # x or (y and z)
AND_OR3 = _bf("and_or", "00010101")  # x and (y or z)
