"""Integer and symbolic helpers shared by the generators and the analysis.

Everything in here is exact: Fibonacci numbers from one int64 table,
substitution words as strings over {L, S}, read cyclically, and the square
lattice strip model of a defect ring as int64 arrays.  Floating point enters
only through the golden-ratio constants, which are derived once from a
50-digit Decimal value.
"""

from __future__ import annotations

import decimal

import numpy as np

__all__ = ["DIVERGENCE", "strip_sequence", "strip_dipole_word"]

with decimal.localcontext() as _ctx:
    _ctx.prec = 50
    _GOLDEN_DECIMAL = (1 + decimal.Decimal(5).sqrt()) / 2

#: (1 + sqrt 5) / 2, rounded once from 50-digit precision.
GOLDEN_RATIO: float = float(_GOLDEN_DECIMAL)

#: Default divergence: fraction of a turn between consecutive sites.
DIVERGENCE: float = float(1 / _GOLDEN_DECIMAL)


def _fibonacci_below(limit: int):
    a, b = 0, 1
    while a < limit:
        yield a
        a, b = b, a + b


#: f_u for u = 0, 1, ..., MAX_FIB_RANK: every f_u below 2**62, so the sum of
#: two stays inside signed 64-bit range; read-only
FIBONACCI = np.fromiter(_fibonacci_below(2**62), dtype=np.int64)
FIBONACCI.flags.writeable = False

#: Largest rank in the table.
MAX_FIB_RANK = len(FIBONACCI) - 1


def fibonacci(u: int) -> int:
    """Exact Fibonacci number f_u with f_0 = 0, f_1 = 1.

    Raises OverflowError above MAX_FIB_RANK (the last rank representable in
    a signed 64-bit integer is 92; the table stops earlier so squares of
    ratios and the f_{2u+1} identities used elsewhere never overflow
    downstream consumers that store into int64 arrays).
    """
    if not isinstance(u, int):
        raise TypeError(f"rank must be an int, got {type(u).__name__}")
    if u < 0:
        raise ValueError(f"rank must be >= 0, got {u}")
    if u > MAX_FIB_RANK:
        raise OverflowError(f"rank {u} exceeds supported maximum {MAX_FIB_RANK}")
    return int(FIBONACCI[u])


def fibonacci_rank(value) -> np.ndarray:
    """The largest u with f_u = value, elementwise (so 2 for 1); -1 where there is none."""
    value = np.asarray(value)
    u = np.searchsorted(FIBONACCI, value, side="right") - 1
    return np.where(FIBONACCI[u] == value, u, -1)


# ---------------------------------------------------------------------------
# substitution words
# ---------------------------------------------------------------------------

_INFLATE = str.maketrans({"L": "LS", "S": "L"})


def inflate(word: str, times: int = 1) -> str:
    """Apply the substitution L -> LS, S -> L `times` times."""
    if times < 0:
        raise ValueError("inflation count must be >= 0")
    for _ in range(times):
        word = word.translate(_INFLATE)
    return word


def words_equal(a: str, b: str) -> bool:
    """Equality of ring words: modulo rotation and reversal.

    The rings the words are read from have no distinguished starting cell
    and no distinguished orientation.
    """
    # b is a rotation of a, or of a reversed, iff b or b reversed occurs in a+a
    ring = a + a
    return len(a) == len(b) and (b in ring or b[::-1] in ring)


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


def strip_dipole_word(u: int) -> str:
    """Singleton/pair pattern of the strip's dipoles, as a ring word.

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
    return "".join(np.where(sizes == 2, "L", "S").tolist())
