import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phyllo.numerics import (
    DIVERGENCE,
    FIBONACCI,
    GOLDEN_RATIO,
    fibonacci,
    fibonacci_rank,
    inflate,
    strip_dipole_word,
    strip_sequence,
    words_equal,
)


@pytest.mark.parametrize(
    "u, value",
    [(0, 0), (1, 1), (2, 1), (3, 2), (7, 13), (10, 55), (11, 89), (13, 233), (20, 6765)],
)
def test_fibonacci_values(u, value):
    assert fibonacci(u) == value


def test_fibonacci_bounds():
    assert fibonacci(90) == 2880067194370816120
    with pytest.raises(OverflowError):
        fibonacci(91)
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_rank_and_inflation_count_domains():
    with pytest.raises(TypeError, match=r"^rank must be an int, got float$"):
        fibonacci(2.0)
    with pytest.raises(ValueError, match=r"^inflation count must be >= 0$"):
        inflate("LS", -1)


def test_fibonacci_table():
    assert FIBONACCI.tolist() == [fibonacci(u) for u in range(len(FIBONACCI))]
    assert type(fibonacci(90)) is int
    with pytest.raises(ValueError):
        FIBONACCI[0] = 1  # read-only
    assert fibonacci_rank([0, 1, 2, 3, 4, 89, fibonacci(90), fibonacci(90) + 1, -1]).tolist() == [
        0, 2, 3, 4, -1, 11, 90, -1, -1
    ]


def test_golden_constants():
    assert GOLDEN_RATIO == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-15)
    assert DIVERGENCE == pytest.approx(GOLDEN_RATIO - 1, abs=1e-15)
    assert GOLDEN_RATIO * DIVERGENCE == pytest.approx(1.0, abs=1e-15)


@given(st.integers(min_value=1, max_value=89))
def test_cassini_identity(u):
    assert fibonacci(u + 1) * fibonacci(u - 1) - fibonacci(u) ** 2 == (-1) ** u


@given(st.integers(min_value=0, max_value=44))
def test_sum_of_squares_identity(u):
    assert fibonacci(u) ** 2 + fibonacci(u + 1) ** 2 == fibonacci(2 * u + 1)


@given(st.integers(min_value=2, max_value=30))
def test_approximant_error_decays_alternating(u):
    err = fibonacci(u) / fibonacci(u - 1) - GOLDEN_RATIO
    assert abs(err) < 3 * GOLDEN_RATIO ** (-2 * (u - 1))
    # exact sign via the minimal polynomial t^2 - t - 1 of the golden ratio:
    # sign(x/y - tau) = sign(x^2 - x*y - y^2) for y > 0
    x, y = fibonacci(u), fibonacci(u - 1)
    assert x * x - x * y - y * y == (-1) ** (u - 1)
    if u <= 25:  # far enough from double-precision rounding
        assert (err > 0) == (u % 2 == 1)


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

def test_inflate_linear():
    assert inflate("LS") == "LSL"
    assert inflate("LS", 2) == "LSLLS"
    assert inflate("L", 5) == "LSLLSLSLLSLLS"


@given(st.integers(min_value=0, max_value=15))
def test_inflate_counts_are_fibonacci(k):
    w = inflate("L", k)
    assert w.count("L") == fibonacci(k + 1)
    assert w.count("S") == fibonacci(k)
    assert len(w) == fibonacci(k + 2)


def test_cyclic_equality_modulo_rotation_and_reversal():
    a = "LSLLS"
    assert words_equal(a, "SLSLL")  # rotation
    assert words_equal(a, "SLLSL")  # reversal
    # a chiral ring: its reversal is no rotation of it
    assert words_equal("LLSLSS", "SSLSLL")
    assert not words_equal(a, "LLLSS")


# ---------------------------------------------------------------------------
# strip model
# ---------------------------------------------------------------------------

def _census(sides):
    """(#heptagons, #hexagons, #pentagons) from strip side codes."""
    return tuple(int(np.count_nonzero(sides == k)) for k in (7, 6, 5))


@pytest.mark.parametrize(
    "u, expected",
    [
        (3, (2, 1, 2)),
        (4, (3, 2, 3)),
        (7, (13, 8, 13)),
        (10, (55, 34, 55)),
    ],
)
def test_strip_census(u, expected):
    _, _, sides = strip_sequence(u)
    census = _census(sides)
    assert census == expected
    assert sum(census) == fibonacci(u + 2)


def test_strip_rank_domain():
    with pytest.raises(ValueError):
        strip_sequence(2)
    with pytest.raises(ValueError):
        strip_sequence(41)
    # rank 31 would need 3.5M cells; the cap keeps the arrays near 50 MB
    with pytest.raises(ValueError):
        strip_sequence(31)
    with pytest.raises(ValueError):
        strip_dipole_word(31)


def test_strip_sequence_matches_row_loop():
    # reference: the row rule applied one row at a time
    for u in range(3, 17):
        f_u, f_um1 = fibonacci(u), fibonacci(u - 1)
        cells = []
        for j in range(f_u):
            m, base = (j * f_um1) % f_u, (j * f_um1) // f_u
            hept = base if m == 0 else base + 1
            cells.append((hept, j, 7))
            if m == 0 or m > f_u - f_um1:
                cells.append((hept + 1, j, 6))
                cells.append((base + 3 if m > f_u - f_um1 else base + 2, j, 5))
            else:
                cells.append((base + 2, j, 5))
        i, j, sides = strip_sequence(u)
        assert list(zip(i.tolist(), j.tolist(), sides.tolist())) == cells


@example(u=25)
@given(st.integers(min_value=3, max_value=25))
def test_strip_row_structure(u):
    i, j, sides = strip_sequence(u)
    f_u = fibonacci(u)
    # every row 0..f_u-1 is present, in order
    step = np.diff(j)
    assert j[0] == 0 and j[-1] == f_u - 1
    assert ((step == 0) | (step == 1)).all()
    first = np.append(0, np.flatnonzero(step) + 1)
    last = np.append(first[1:], len(j)) - 1
    size = last - first + 1
    # each row reads heptagon, optional hexagon, pentagon
    assert ((size == 2) | (size == 3)).all()
    assert (sides[first] == 7).all() and (sides[last] == 5).all()
    assert (sides[first + 1][size == 3] == 6).all()
    # columns strictly increase within a row
    assert (np.diff(i)[step == 0] > 0).all()
    # a dipole spans two or three lattice columns
    span = i[last] - i[first]
    assert ((span >= 1) & (span <= 3)).all()


@example(u=25)
@given(st.integers(min_value=3, max_value=25))
def test_strip_hexagons_split_rows_without_gaps(u):
    # never two consecutive hexagon-free rows: dipole groups have size 1 or 2
    word = strip_dipole_word(u)
    assert set(word) <= {"L", "S"}
    n_l, n_s = word.count("L"), word.count("S")
    assert n_l == fibonacci(u - 2)
    assert n_s == fibonacci(u - 3)
    assert 2 * n_l + n_s == fibonacci(u)


def test_strip_words_small():
    assert strip_dipole_word(3) == "L"
    assert words_equal(strip_dipole_word(4), "LS")
    assert words_equal(strip_dipole_word(5), "LSL")


@example(u=24)
@given(st.integers(min_value=3, max_value=24))
def test_strip_word_inflation_chain(u):
    # the rank-(u+1) word is the inflation of the rank-u word, up to
    # rotation and reversal of the ring
    assert words_equal(inflate(strip_dipole_word(u)), strip_dipole_word(u + 1))
