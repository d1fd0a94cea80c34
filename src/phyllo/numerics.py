"""Integer and symbolic helpers shared by the generators and the analysis.

Everything in here is exact: Fibonacci numbers as Python ints, convergents as
Fractions, substitution words as tuples of 'L'/'S' symbols, and the square
lattice strip model of a defect ring as int64 arrays.  Floating point enters
only through the
golden-ratio constants, which are derived once from a 50-digit Decimal value.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "GOLDEN_RATIO",
    "DIVERGENCE",
    "MAX_FIB_RANK",
    "fibonacci",
    "golden_approximant",
    "LSWord",
    "inflate",
    "words_equal",
    "strip_sequence",
    "strip_dipole_word",
]

with decimal.localcontext() as _ctx:
    _ctx.prec = 50
    _GOLDEN_DECIMAL = (1 + decimal.Decimal(5).sqrt()) / 2

#: (1 + sqrt 5) / 2, rounded once from 50-digit precision.
GOLDEN_RATIO: float = float(_GOLDEN_DECIMAL)

#: Default divergence: fraction of a turn between consecutive sites.
DIVERGENCE: float = float(1 / _GOLDEN_DECIMAL)

#: Largest rank that stays well inside signed 64-bit range.
MAX_FIB_RANK = 90

_FIB: list[int] = [0, 1]
while len(_FIB) <= MAX_FIB_RANK:
    _FIB.append(_FIB[-1] + _FIB[-2])


def fibonacci(u: int) -> int:
    """Exact Fibonacci number f_u with f_0 = 0, f_1 = 1.

    Raises OverflowError above rank 90 (the last rank representable in a
    signed 64-bit integer is 92; we stop earlier so squares of ratios and
    the f_{2u+1} identities used elsewhere never overflow downstream
    consumers that store into int64 arrays).
    """
    if not isinstance(u, int):
        raise TypeError(f"rank must be an int, got {type(u).__name__}")
    if u < 0:
        raise ValueError(f"rank must be >= 0, got {u}")
    if u > MAX_FIB_RANK:
        raise OverflowError(f"rank {u} exceeds supported maximum {MAX_FIB_RANK}")
    return _FIB[u]


def golden_approximant(u: int) -> Fraction:
    """Convergent f_u / f_{u-1} of the golden ratio, as an exact Fraction."""
    if u < 2:
        raise ValueError(f"approximant needs rank >= 2, got {u}")
    return Fraction(fibonacci(u), fibonacci(u - 1))


# ---------------------------------------------------------------------------
# substitution words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LSWord:
    """A word over the alphabet {L, S}, optionally read on a ring.

    Cyclic words compare equal modulo rotation and reversal: the rings the
    words are read from have no distinguished starting cell and no
    distinguished orientation.
    """

    symbols: tuple[str, ...]
    cyclic: bool = False

    def __post_init__(self) -> None:
        bad = set(self.symbols) - {"L", "S"}
        if bad:
            raise ValueError(f"word symbols must be 'L' or 'S', got {sorted(bad)}")

    @staticmethod
    def from_string(text: str, cyclic: bool = False) -> "LSWord":
        return LSWord(tuple(text), cyclic)

    def __str__(self) -> str:
        return "".join(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def counts(self) -> tuple[int, int]:
        """(#L, #S)."""
        n_l = sum(1 for c in self.symbols if c == "L")
        return n_l, len(self.symbols) - n_l


def inflate(word: LSWord, times: int = 1) -> LSWord:
    """Apply the substitution L -> LS, S -> L `times` times."""
    if times < 0:
        raise ValueError("inflation count must be >= 0")
    symbols = word.symbols
    for _ in range(times):
        out: list[str] = []
        for c in symbols:
            if c == "L":
                out.append("L")
                out.append("S")
            else:
                out.append("L")
        symbols = tuple(out)
    return LSWord(symbols, word.cyclic)


def words_equal(a: LSWord, b: LSWord) -> bool:
    """Equality; cyclic words match modulo rotation and reversal."""
    if len(a) != len(b):
        return False
    if a.cyclic != b.cyclic:
        return False
    if not a.cyclic:
        return a.symbols == b.symbols
    # b is a rotation of a, or of a reversed, iff b or b reversed occurs in a+a
    ring, other = str(a) * 2, str(b)
    return other in ring or other[::-1] in ring


# ---------------------------------------------------------------------------
# strip model of a defect ring
# ---------------------------------------------------------------------------

def _strip_rows(u: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row rule of the rank-u strip, for rows j = 0..f_u-1.

    Returns (base, m, hexagon) with base = j*f_{u-1} div f_u,
    m = j*f_{u-1} mod f_u, and hexagon[j] true where the row holds a hexagon
    (m = 0 or m > f_{u-2}).
    """
    if not 3 <= u <= 30:
        # f_{u+2} cells in three int64 arrays: 52 MB at u = 30, 6.4 GB at u = 40
        raise ValueError(
            f"strip rank must be in [3, 30], got {u}; a rank-u strip holds f_(u+2)"
            " cells, over 3.5 million above rank 30"
        )
    f_u = fibonacci(u)
    f_um1 = fibonacci(u - 1)
    base, m = np.divmod(np.arange(f_u, dtype=np.int64) * f_um1, f_u)
    return base, m, (m == 0) | (m > f_u - f_um1)


def strip_sequence(u: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lattice model of the defect ring carrying f_u seven/five dipoles.

    Selects the points of the square lattice falling in a strip around the
    line of slope f_u/f_{u-1} through the origin.  One period runs over rows
    j = 0..f_u-1; each row holds one heptagon and one pentagon (a dipole) and
    f_{u-1} of the rows also hold a hexagon between them.  Totals per period
    are therefore (f_u, f_{u-1}, f_u) = f_{u+2} cells.

    Returns three int64 arrays of length f_{u+2}, one entry per cell: the
    lattice column ``i``, the row ``j`` and ``sides``, the side count of the
    cell type (7 heptagon, 6 hexagon, 5 pentagon, as in
    ``tessellation.CELL_TYPE_BY_SIDES``).  Cells run row by row (heptagon,
    optional hexagon, pentagon), which walks the strip along its axis.
    """
    base, m, hexagon = _strip_rows(u)
    per_row = 2 + hexagon
    first = np.cumsum(per_row) - per_row  # index of each row's heptagon
    j = np.repeat(np.arange(len(base)), per_row)
    # a row's cells occupy consecutive columns from its heptagon's, base or base+1
    i = np.repeat(base + (m != 0) - first, per_row) + np.arange(len(j))
    sides = np.full(len(j), 6)
    sides[first] = 7
    sides[first + per_row - 1] = 5
    return i, j, sides


def strip_dipole_word(u: int) -> LSWord:
    """Singleton/pair pattern of the strip's dipoles, as a cyclic word.

    The hexagon of row j sits between dipole j and dipole j+1 along the ring,
    so consecutive dipoles not separated by a hexagon form a pair.  Pairs map
    to 'L', singletons to 'S'; under ring inflation a singleton becomes a
    pair and a pair becomes a pair plus a singleton, matching L -> LS, S -> L.
    """
    _, _, hexagon = _strip_rows(u)
    # row 0 always holds a hexagon, so the groups are the runs of rows ending
    # at each later hexagon row, closed by the run that wraps back to row 0
    ends = np.flatnonzero(hexagon)
    sizes = np.diff(ends, append=len(hexagon))
    return LSWord(tuple(np.where(sizes == 2, "L", "S").tolist()), cyclic=True)
