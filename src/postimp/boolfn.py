"""Finite Boolean functions as bit-packed truth tables.

A function of arity n is stored as an integer whose bit j holds the value at
the argument tuple encoded by j, with x1 on the least significant index bit:
a_i = (j >> (i - 1)) & 1.  The constants are the 0-ary functions with tables
"0" and "1".

Every Post-class test reads the whole table at once.  `variable_word` gives
the column of each input, so monotonicity and relevance cost one shift and
mask per input.  `profile` reads f's constants, its relevant inputs and its
membership in L, V, E and N in one pass over the columns.  The coefficient forms
carry what the formula extractors read off a formula: its value at a base
point and the single-variable flips that change it.
"""

import math
from collections import namedtuple
from collections.abc import Iterable

MAX_ARITY = 16


class Record:
    """Fields named by `_fields`, held in slots and set once by `__init__`
    through `self._set`; no code is generated at import.  Two records are
    equal when they share a class and a `_key()`, the field values by
    default, and hash by it; attributes are read-only."""

    __slots__ = _fields = ()
    _set = object.__setattr__  # self._set(name, value), past __setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class ArityError(ValueError):
    """Argument count does not match a connective's arity."""

    def __init__(self, name: str, expected: int, actual: int):
        super().__init__(f"{name} expects {expected} argument(s), got {actual}")
        self.name = name
        self.expected = expected
        self.actual = actual


class BooleanFunction(Record):
    __slots__ = _fields = ("name", "arity", "table")

    def __init__(self, name: str, arity: int, table: int):
        if not (name.isascii() and name.isidentifier()):
            raise ValueError(f"function name must be an ASCII identifier, got {name!r}")
        if not 0 <= arity <= MAX_ARITY:
            raise ValueError(f"arity must lie in 0..{MAX_ARITY}, got {arity}")
        if not 0 <= table < (1 << (1 << arity)):
            raise ValueError(f"table of {name} does not fit {1 << arity} rows")
        self._set("name", name)
        self._set("arity", arity)
        self._set("table", table)

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


class Profile(namedtuple("Profile", "c0 c1 relevant linear disjunction conjunction")):
    """What one pass over f's columns reads off: f on the all-0 row (`c0`)
    and on the all-1 row (`c1`), the mask of its relevant inputs (bit i for
    x_{i+1}), and its membership in Post's classes L, V and E."""

    __slots__ = ()

    @property
    def unary(self) -> bool:
        """At most one relevant input: Post's class N."""
        return self.relevant & (self.relevant - 1) == 0


def profile(f: BooleanFunction) -> Profile:
    """f's only candidates in L, V and E are its value at row 0 combined by
    ^ or | with the columns of its relevant inputs, and its value at the top
    row combined with them by &; each relevant column is folded into all
    three, and one comparison of whole tables decides each membership."""
    table, rows = f.table, f.rows
    full = (1 << rows) - 1
    c0, c1 = table & 1, table >> (rows - 1) & 1
    relevant = 0
    xor = disjunction = full if c0 else 0
    conjunction = full if c1 else 0
    for i in range(f.arity):
        column = variable_word(i, rows)
        if (table ^ table >> (1 << i)) & ~column:
            relevant |= 1 << i
            xor ^= column
            disjunction |= column
            conjunction &= column
    return Profile(c0, c1, relevant, xor == table, disjunction == table, conjunction == table)


class _CoefficientForm(Record):
    """A constant c0 and one coefficient per variable, packed into `mask`.

    Bit i-1 of `mask` is the coefficient of x_i, for i in 1..n: set exactly
    when flipping x_i alone at the base point (all 0, or all 1 for an AND
    form) changes the form's value c0 there.  So a constant form has mask 0.
    """

    __slots__ = _fields = ("c0", "mask", "n")

    def __init__(self, c0: int, mask: int, n: int):
        if mask < 0 or mask >> n:
            raise ValueError(f"coefficient mask {mask:#x} does not fit {n} variables")
        self._set("c0", c0)
        self._set("mask", mask)
        self._set("n", n)


class LinearNormalForm(_CoefficientForm):
    """c0 xor c1*x1 xor ... xor cn*xn; with at most one ci set, the unary form."""

    __slots__ = ()


class OrNormalForm(_CoefficientForm):
    """c0 or the disjunction of the variables with coefficient 1."""

    __slots__ = ()


class AndNormalForm(_CoefficientForm):
    """c0 and the conjunction of the variables with coefficient 1."""

    __slots__ = ()


def content_lines(lines):
    """(line number, stripped line) of each line neither blank nor a `#` comment."""
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def read_functions(path) -> list:
    """Parse a function-table file: one `name arity bits` entry per line."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in content_lines(fh):
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
