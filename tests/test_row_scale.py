"""Scaling a generator row keeps the span, so no rank read from generator
rows may see it: multiplying any row of a generator matrix by 2^k leaves
is_maximal_at and kernel_at bit for bit as they were.  Entries are zero or
of magnitude in [2^-60, 2^60] and |k| <= 900, so every scaled entry is a
normal double and the scaling is exact."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spraydirac.dirac import is_maximal_at, kernel_at  # noqa: E402

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)
ENTRY = st.one_of(
    st.just(0.0),
    st.tuples(st.floats(2.0 ** -60, 2.0 ** 60), st.booleans()).map(
        lambda t: -t[0] if t[1] else t[0]),
)


@st.composite
def scaled_rows(draw):
    """A generator-like r x 4n matrix, a row index and a power of two.  Some
    rows repeat an earlier one (a dependence), and some have a zero form
    half (a kernel direction)."""
    n, r = draw(st.integers(1, 2)), draw(st.integers(1, 6))
    rows = []
    for _ in range(r):
        if rows and draw(st.booleans()):
            row = -rows[draw(st.integers(0, len(rows) - 1))]
        else:
            row = np.array(draw(st.lists(ENTRY, min_size=4 * n, max_size=4 * n)))
        if draw(st.booleans()):
            row[2 * n:] = 0.0
        rows.append(row)
    return np.array(rows), draw(st.integers(0, r - 1)), draw(st.integers(-900, 900))


@PROPERTY
@given(scaled_rows())
def test_a_row_scaled_by_a_power_of_two_reads_the_same_rank_and_kernel(case):
    B, i, k = case
    C = B.copy()
    C[i] *= 2.0 ** k
    assert is_maximal_at(C) is is_maximal_at(B)
    assert is_maximal_at(np.stack([B, C])).tolist() == [is_maximal_at(B)] * 2
    got, want = kernel_at(C), kernel_at(B)
    assert len(got) == len(want)
    assert all(u.tobytes() == v.tobytes() for u, v in zip(got, want))
