"""Tests for ADSet (incl. the finite/cofinite algebra) and TimeWindow."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy.sets import ADSet, TimeWindow, _SetMode


class TestADSetBasics:
    def test_everyone_matches_all(self):
        s = ADSet.everyone()
        assert s.matches(0) and s.matches(10_000)
        assert s.is_universal
        assert not s.is_empty

    def test_include(self):
        s = ADSet.of([1, 2, 3])
        assert s.matches(2)
        assert not s.matches(4)
        assert 2 in s
        assert not s.is_universal

    def test_exclude(self):
        s = ADSet.excluding([5])
        assert not s.matches(5)
        assert s.matches(6)
        assert not s.is_universal
        assert ADSet.excluding([]).is_universal

    def test_none_is_empty(self):
        assert ADSet.none().is_empty
        assert not ADSet.none().matches(1)

    def test_size_bytes_scales_with_members(self):
        assert ADSet.everyone().size_bytes() == 1
        assert ADSet.of([1, 2]).size_bytes() == 5

    def test_plausible_size(self):
        assert ADSet.of([1, 2]).plausible_size() == 2
        assert ADSet.everyone().plausible_size() == float("inf")
        assert ADSet.excluding([1]).plausible_size() == float("inf")


# Strategy producing arbitrary finite/cofinite AD sets over a small universe.
_members = st.frozensets(st.integers(0, 9), max_size=6)
_adsets = st.one_of(
    st.just(ADSet.everyone()),
    _members.map(ADSet.of),
    _members.map(ADSet.excluding),
)


class TestADSetAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(a=_adsets, b=_adsets, x=st.integers(0, 9))
    def test_intersection_semantics(self, a, b, x):
        assert a.intersect(b).matches(x) == (a.matches(x) and b.matches(x))

    @settings(max_examples=200, deadline=None)
    @given(a=_adsets, b=_adsets, x=st.integers(0, 9))
    def test_union_semantics(self, a, b, x):
        assert a.union(b).matches(x) == (a.matches(x) or b.matches(x))

    @settings(max_examples=100, deadline=None)
    @given(a=_adsets)
    def test_identity_elements(self, a):
        everyone, none = ADSet.everyone(), ADSet.none()
        for x in range(10):
            assert a.intersect(everyone).matches(x) == a.matches(x)
            assert a.union(none).matches(x) == a.matches(x)
            assert not a.intersect(none).matches(x)
            assert a.union(everyone).matches(x)

    def test_empty_detection_after_intersection(self):
        assert ADSet.of([1]).intersect(ADSet.of([2])).is_empty
        assert not ADSet.of([1]).intersect(ADSet.of([1, 2])).is_empty
        assert ADSet.of([1]).intersect(ADSet.excluding([1])).is_empty

    def test_subset_cases(self):
        assert ADSet.of([1]).is_subset_of(ADSet.of([1, 2]))
        assert not ADSet.of([1, 3]).is_subset_of(ADSet.of([1, 2]))
        assert ADSet.of([2]).is_subset_of(ADSet.excluding([1]))
        assert not ADSet.of([1]).is_subset_of(ADSet.excluding([1]))
        assert ADSet.excluding([1, 2]).is_subset_of(ADSet.excluding([1]))
        assert not ADSet.excluding([1]).is_subset_of(ADSet.excluding([1, 2]))
        # A cofinite set never fits inside a finite one.
        assert not ADSet.excluding([1]).is_subset_of(ADSet.of(range(100)))
        assert ADSet.none().is_subset_of(ADSet.of([]))
        assert ADSet.everyone().is_subset_of(ADSet.excluding([]))

    @settings(max_examples=200, deadline=None)
    @given(a=_adsets, b=_adsets, x=st.integers(0, 9))
    def test_subset_implies_pointwise_containment(self, a, b, x):
        if a.is_subset_of(b) and a.matches(x):
            assert b.matches(x)


# Reference copy of the plain frozenset algebra, no fast paths.  Results
# are (mode, members) pairs, so ALL and EXCLUDE(empty) -- equal as
# predicates, distinct as values and on the wire -- are told apart.
def _ref_norm(s):
    if s.mode is _SetMode.ALL:
        return _SetMode.EXCLUDE, frozenset()
    return s.mode, s.members


def _ref_intersect(a, b):
    (am, a_), (bm, b_) = _ref_norm(a), _ref_norm(b)
    if am is _SetMode.INCLUDE and bm is _SetMode.INCLUDE:
        return ADSet(_SetMode.INCLUDE, a_ & b_)
    if am is _SetMode.INCLUDE:
        return ADSet(_SetMode.INCLUDE, a_ - b_)
    if bm is _SetMode.INCLUDE:
        return ADSet(_SetMode.INCLUDE, b_ - a_)
    return ADSet(_SetMode.EXCLUDE, a_ | b_)


def _ref_union(a, b):
    (am, a_), (bm, b_) = _ref_norm(a), _ref_norm(b)
    if am is _SetMode.INCLUDE and bm is _SetMode.INCLUDE:
        return ADSet(_SetMode.INCLUDE, a_ | b_)
    if am is _SetMode.INCLUDE:
        return ADSet(_SetMode.EXCLUDE, b_ - a_)
    if bm is _SetMode.INCLUDE:
        return ADSet(_SetMode.EXCLUDE, a_ - b_)
    return ADSet(_SetMode.EXCLUDE, a_ & b_)


def _ref_is_subset(a, b):
    (am, a_), (bm, b_) = _ref_norm(a), _ref_norm(b)
    if am is _SetMode.INCLUDE:
        return a_ <= b_ if bm is _SetMode.INCLUDE else not (a_ & b_)
    return False if bm is _SetMode.INCLUDE else b_ <= a_


# Every representation, the identity elements in each spelling included.
_any_adsets = st.one_of(
    st.sampled_from(
        [ADSet.everyone(), ADSet.none(), ADSet.excluding(()), ADSet.of(())]
    ),
    _adsets,
)


class TestADSetRepresentationOracle:
    """Results must *equal* the reference values, mode included; a
    membership check alone cannot see ALL returned for EXCLUDE(empty)."""

    @settings(max_examples=400, deadline=None)
    @given(a=_any_adsets, b=_any_adsets)
    def test_intersect_matches_reference(self, a, b):
        got = a.intersect(b)
        assert got == _ref_intersect(a, b)
        assert got.mode is _ref_intersect(a, b).mode

    @settings(max_examples=400, deadline=None)
    @given(a=_any_adsets, b=_any_adsets)
    def test_union_matches_reference(self, a, b):
        got = a.union(b)
        assert got == _ref_union(a, b)
        assert got.mode is _ref_union(a, b).mode

    @settings(max_examples=400, deadline=None)
    @given(a=_any_adsets, b=_any_adsets)
    def test_subset_matches_reference(self, a, b):
        assert a.is_subset_of(b) == _ref_is_subset(a, b)

    def test_identity_elements_normalise_all(self):
        everyone, none = ADSet.everyone(), ADSet.none()
        assert everyone.intersect(everyone) == ADSet.excluding(())
        assert everyone.intersect(everyone) != everyone
        assert ADSet.of([1]).intersect(everyone) == ADSet.of([1])
        assert everyone.union(none) == ADSet.excluding(())
        assert none.union(none) == none
        assert ADSet.of([1]).union(everyone) == ADSet.excluding(())

    def test_constructors_share_identity_singletons(self):
        assert ADSet.everyone() is ADSet.everyone()
        assert ADSet.none() is ADSet.none()
        assert ADSet.everyone() == ADSet(_SetMode.ALL)
        assert ADSet.none() == ADSet(_SetMode.INCLUDE, frozenset())


class TestTimeWindow:
    def test_universal_by_default(self):
        w = TimeWindow.always()
        assert all(w.matches(h) for h in range(24))
        assert w.is_universal

    def test_simple_window(self):
        w = TimeWindow(9, 17)
        assert w.matches(9)
        assert w.matches(16)
        assert not w.matches(17)
        assert not w.matches(3)

    def test_wraparound_window(self):
        w = TimeWindow(22, 6)
        assert w.matches(23)
        assert w.matches(0)
        assert w.matches(5)
        assert not w.matches(6)
        assert not w.matches(12)

    def test_invalid_hours_rejected(self):
        with pytest.raises(ValueError):
            TimeWindow(25, 0)
        with pytest.raises(ValueError):
            TimeWindow(0, 5).matches(24)

    @settings(max_examples=100, deadline=None)
    @given(start=st.integers(0, 23), end=st.integers(0, 23))
    def test_window_covers_exact_hour_count(self, start, end):
        w = TimeWindow(start, end)
        covered = sum(w.matches(h) for h in range(24))
        expected = 24 if start == end else (end - start) % 24
        assert covered == expected
