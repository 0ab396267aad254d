"""Properties of ``first_crossing`` (referenced from its docstring).

The falsification tightening stage feeds ``first_crossing`` severity
series that can contain gaps and non-monotone stretches, so its edge
behaviour is pinned here: the result is never NaN, always lies inside
the x-range of the finite points, gaps (None/NaN/inf/non-numeric) break
interpolation, and non-monotone series yield the *first* reach.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings, strategies as st

from repro.sweep.aggregate import _finite, first_crossing

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
messy_values = st.one_of(
    finite_floats,
    st.none(),
    st.just(float("nan")),
    st.just(float("inf")),
    st.just(float("-inf")),
    st.booleans(),
    st.text(max_size=3),
)


@st.composite
def messy_series(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    xs = draw(st.lists(messy_values, min_size=n, max_size=n))
    ys = draw(st.lists(messy_values, min_size=n, max_size=n))
    level = draw(finite_floats)
    return xs, ys, level


class TestFinite:
    @given(value=messy_values)
    @settings(max_examples=100, deadline=None)
    def test_result_is_finite_or_none(self, value):
        out = _finite(value)
        assert out is None or (isinstance(out, float)
                               and math.isfinite(out))

    @given(value=finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_finite_floats_pass_through(self, value):
        assert _finite(value) == value


class TestFirstCrossingProperties:
    @given(series=messy_series())
    @example(series=([48577.0, -999999.9999999999], [0.0, 48577.0], 48577.0))
    @settings(max_examples=200, deadline=None)
    def test_never_nan_and_inside_x_range(self, series):
        xs, ys, level = series
        result = first_crossing(xs, ys, level)
        if result is None:
            return
        assert math.isfinite(result)
        clean_xs = [x for x, y in zip(xs, ys)
                    if _finite(x) is not None and _finite(y) is not None]
        assert min(clean_xs) <= result <= max(clean_xs)

    @given(series=messy_series())
    @settings(max_examples=200, deadline=None)
    def test_none_iff_no_finite_point_reaches_level(self, series):
        xs, ys, level = series
        reaches = any(_finite(x) is not None and _finite(y) is not None
                      and y >= level for x, y in zip(xs, ys))
        result = first_crossing(xs, ys, level)
        assert (result is not None) == reaches

    @given(xs=st.lists(finite_floats, min_size=2, max_size=10, unique=True),
           level=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_gap_breaks_interpolation(self, xs, level):
        """With a gap before the first at-level point, that point's own
        x is returned exactly -- no interpolation spans the gap."""
        xs = sorted(xs)
        ys: list = [level - 1.0] * len(xs)
        ys[-2] = None          # the gap
        ys[-1] = level + 1.0   # first (and only) at-level point
        assert first_crossing(xs, ys, level) == xs[-1]

    @given(xs=st.lists(finite_floats, min_size=1, max_size=10, unique=True),
           level=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_leading_gap_then_at_level_point_is_exact(self, xs, level):
        xs = sorted(xs)
        padded = [None] + xs
        ys = [None] + [level] * len(xs)
        assert first_crossing(padded, ys, level) == xs[0]

    @given(level=finite_floats)
    @settings(max_examples=50, deadline=None)
    def test_non_monotone_series_returns_first_reach(self, level):
        xs = [0.0, 1.0, 2.0, 3.0, 4.0]
        ys = [level - 2.0, level + 1.0, level - 3.0, level + 5.0,
              level - 1.0]
        result = first_crossing(xs, ys, level)
        assert result is not None
        # The crossing happens in (0, 1]: before the later dip/rebound.
        assert 0.0 < result <= 1.0

    @given(xs=st.lists(finite_floats, min_size=1, max_size=10, unique=True),
           offset=st.floats(min_value=0.0, max_value=10.0,
                            allow_nan=False),
           level=finite_floats)
    @settings(max_examples=100, deadline=None)
    def test_all_at_or_above_level_returns_first_x(self, xs, offset, level):
        xs = sorted(xs)
        ys = [level + offset] * len(xs)
        assert first_crossing(xs, ys, level) == xs[0]

    @given(series=messy_series())
    @settings(max_examples=100, deadline=None)
    def test_trailing_garbage_after_crossing_changes_nothing(self, series):
        xs, ys, level = series
        result = first_crossing(xs, ys, level)
        if result is None:
            return
        extended = first_crossing(list(xs) + [None, float("nan")],
                                  list(ys) + [float("inf"), None], level)
        assert extended == result
