"""The permanent and the exponent formulas built on it."""

import math

import exact
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from daywatch import ExponentialOverflow, NonPositivePermanent, run_watch
from daywatch.checks import exact_permanent
from daywatch.inputs import scale_times
from daywatch.lyapunov import (
    build_matrix,
    droop_exponent,
    error_exponent,
    permanent,
    permanent_exponent,
    price_exponent,
)

# Circulant 0/1 band: each row may map to its own column or the next one.
# Only the identity and the full 4-cycle survive, so per = 2 exactly.
CYCLE_BAND = (
    (1.0, 1.0, 0.0, 0.0),
    (0.0, 1.0, 1.0, 0.0),
    (0.0, 0.0, 1.0, 1.0),
    (1.0, 0.0, 0.0, 1.0),
)

finite_entries = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def matrix_from(values):
    return tuple(tuple(values[4 * i: 4 * i + 4]) for i in range(4))


def term_scale(matrix):
    """Product of row 1-norms: bounds every term of the expansion.

    These entries take both signs, so per(A) can cancel to far below its
    terms; a float evaluation is then accurate only relative to the term
    sizes, which this product bounds.
    """
    product = 1.0
    for row in matrix:
        product *= sum(abs(x) for x in row)
    return product


class TestPermanent:
    def test_hand_computable_matrices(self):
        identity = tuple(
            tuple(1.0 if i == j else 0.0 for j in range(4)) for i in range(4)
        )
        ones = tuple(tuple(1.0 for _ in range(4)) for _ in range(4))
        assert permanent(identity) == 1.0
        assert permanent(ones) == 24.0
        assert permanent(CYCLE_BAND) == 2.0
        assert exact_permanent(CYCLE_BAND) == 2

    def test_baseline_evolution_matrix(self, baseline):
        matrix = build_matrix(*scale_times(*baseline[:4]))
        assert matrix == (
            (1.2, 0.6, 1.0, 0.0),
            (2.4, 1.6, 0.6, 1.0),
            (1.6, 2.4, 1.6, 0.6),
            (0.6, 1.6, 2.4, 0.6),
        )
        assert permanent(matrix) == pytest.approx(35.0032, rel=1e-12)

    @pytest.mark.parametrize("rows", [3, 5])
    def test_rejects_wrong_row_count(self, rows):
        bad = tuple(tuple(1.0 for _ in range(4)) for _ in range(rows))
        with pytest.raises(ValueError):
            permanent(bad)

    def test_rejects_ragged_rows(self):
        bad = ((1.0,) * 4, (1.0,) * 4, (1.0,) * 3, (1.0,) * 4)
        with pytest.raises(ValueError):
            permanent(bad)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(finite_entries, min_size=16, max_size=16))
    def test_matches_exact_expansion(self, values):
        matrix = matrix_from(values)
        scale = term_scale(matrix)
        assert abs(permanent(matrix) - exact_permanent(matrix)) <= (
            1e-12 * max(1.0, scale)
        )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                    min_size=4, max_size=4))
    def test_accurate_on_evolution_matrices(self, times):
        # nonnegative entries: no cancellation, so the error is relative
        matrix = build_matrix(*scale_times(*times))
        assert exact.relative_error(
            permanent(matrix), exact_permanent(matrix)) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(finite_entries, min_size=16, max_size=16),
        st.permutations(range(4)),
    )
    def test_row_and_column_permutation_invariance(self, values, order):
        matrix = matrix_from(values)
        scale = max(1.0, term_scale(matrix))
        reference = permanent(matrix)
        rows_permuted = tuple(matrix[i] for i in order)
        cols_permuted = tuple(
            tuple(row[j] for j in order) for row in matrix
        )
        assert abs(permanent(rows_permuted) - reference) <= 1e-12 * scale
        assert abs(permanent(cols_permuted) - reference) <= 1e-12 * scale

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite_entries, min_size=16, max_size=16))
    def test_transpose_invariance(self, values):
        matrix = matrix_from(values)
        transpose = tuple(
            tuple(matrix[i][j] for i in range(4)) for j in range(4)
        )
        # each orientation accumulates rounding against its own row norms
        scale = max(1.0, term_scale(matrix), term_scale(transpose))
        assert abs(permanent(transpose) - permanent(matrix)) <= 1e-12 * scale


class TestExponents:
    def test_error_exponent_is_affine(self):
        assert error_exponent(0.035) == pytest.approx(1.035, rel=1e-15)
        assert error_exponent(0.0) == 1.0

    def test_permanent_exponent_values(self):
        assert permanent_exponent(math.e) == pytest.approx(1.1, rel=1e-15)
        assert permanent_exponent(1.0) == 1.0
        assert permanent_exponent(35.0032) == pytest.approx(
            2.264114993776534, rel=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_permanent_exponent_requires_positive_permanent(self, bad):
        with pytest.raises(NonPositivePermanent) as excinfo:
            permanent_exponent(bad)
        assert type(excinfo.value).__name__ == "NonPositivePermanent"
        assert excinfo.value.detail == "per(A) is not positive"
        assert excinfo.value.value == bad
        assert str(excinfo.value) \
            == f"per(A) is not positive (value={bad!r})"

    def test_price_exponent(self):
        assert price_exponent(50.0) == pytest.approx(
            7.38905609893065, rel=1e-12
        )
        assert price_exponent(0.0) == 1.0

    def test_droop_exponent(self):
        assert droop_exponent(4.0) == pytest.approx(
            2.4918246976412703, rel=1e-12
        )
        assert droop_exponent(0.0) == 2.0

    @pytest.mark.parametrize(
        ("fn", "detail"),
        [(price_exponent, "exp(c_0 / 25) exceeds the float range"),
         (droop_exponent, "exp(k_c / 10) exceeds the float range")],
        ids=["price_exponent-l_y1", "droop_exponent-l_y2"],
    )
    def test_exponential_overflow_is_reported(self, fn, detail):
        with pytest.raises(ExponentialOverflow) as excinfo:
            fn(1e6)
        assert excinfo.value.detail == detail
        assert excinfo.value.value == 1e6

    def test_compute_exponents_end_to_end(self, baseline):
        trace = run_watch(baseline).trace
        assert trace["perm_a"] == pytest.approx(35.0032, rel=1e-12)
        assert trace["l_p1"] == pytest.approx(1.035, rel=1e-12)
        assert trace["l_p2"] == pytest.approx(2.264114993776534, rel=1e-12)
        assert trace["l_y1"] == pytest.approx(7.38905609893065, rel=1e-12)
        assert trace["l_y2"] == pytest.approx(2.4918246976412703, rel=1e-12)
