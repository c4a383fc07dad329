"""Tests for repro.core.domains: codecs, membership, vectorized decode."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.domains import BoolDomain, EnumDomain, IntRange
from repro.errors import DomainError


class TestBoolDomain:
    def test_codec(self):
        d = BoolDomain()
        assert d.size == 2
        assert d.value_at(0) is False
        assert d.value_at(1) is True
        assert d.index_of(True) == 1

    def test_rejects_ints_as_bools(self):
        # Strict typing: 0/1 are not booleans in this model.
        with pytest.raises(DomainError):
            BoolDomain().index_of(1)

    def test_numpy_bool_accepted(self):
        assert BoolDomain().index_of(np.bool_(True)) == 1

    def test_bad_index(self):
        with pytest.raises(DomainError):
            BoolDomain().value_at(2)

    def test_decode_encode_arrays(self):
        d = BoolDomain()
        idx = np.array([0, 1, 1, 0])
        vals = d.decode_array(idx)
        assert vals.dtype == bool
        assert (d.encode_array(vals) == idx).all()

    def test_equality_and_hash(self):
        assert BoolDomain() == BoolDomain()
        assert hash(BoolDomain()) == hash(BoolDomain())

    def test_contains(self):
        d = BoolDomain()
        assert True in d and False in d and 1 not in d

    def test_iteration(self):
        assert list(BoolDomain()) == [False, True]


class TestIntRange:
    def test_codec(self):
        d = IntRange(2, 5)
        assert d.size == 4
        assert list(d) == [2, 3, 4, 5]
        assert d.index_of(4) == 2
        assert d.value_at(2) == 4

    def test_negative_bounds(self):
        d = IntRange(-3, 1)
        assert d.size == 5
        assert d.index_of(-3) == 0
        assert d.value_at(4) == 1

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            IntRange(5, 4)

    def test_non_int_bounds_rejected(self):
        with pytest.raises(DomainError):
            IntRange(0, 1.5)  # type: ignore[arg-type]

    def test_out_of_range_value(self):
        with pytest.raises(DomainError):
            IntRange(0, 3).index_of(4)

    def test_bool_rejected_as_int(self):
        with pytest.raises(DomainError):
            IntRange(0, 3).index_of(True)

    def test_decode_encode_arrays(self):
        d = IntRange(-2, 2)
        idx = np.arange(5)
        vals = d.decode_array(idx)
        assert (vals == np.array([-2, -1, 0, 1, 2])).all()
        assert (d.encode_array(vals) == idx).all()

    def test_encode_array_out_of_range(self):
        with pytest.raises(DomainError):
            IntRange(0, 2).encode_array(np.array([0, 3]))

    def test_check_helper_message(self):
        with pytest.raises(DomainError, match="variable x"):
            IntRange(0, 1).check(9, context="variable x")

    @given(st.integers(-50, 50), st.integers(0, 60))
    def test_roundtrip_property(self, lo, width):
        d = IntRange(lo, lo + width)
        for idx in range(0, d.size, max(1, d.size // 7)):
            assert d.index_of(d.value_at(idx)) == idx

    def test_equality(self):
        assert IntRange(0, 3) == IntRange(0, 3)
        assert IntRange(0, 3) != IntRange(0, 4)
        assert IntRange(0, 1) != BoolDomain()


class TestEnumDomain:
    def test_codec(self):
        d = EnumDomain("phase", ("idle", "want", "hold"))
        assert d.size == 3
        assert d.index_of("want") == 1
        assert d.value_at(2) == "hold"

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            EnumDomain("p", ("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            EnumDomain("p", ())

    def test_unknown_label(self):
        with pytest.raises(DomainError):
            EnumDomain("p", ("a", "b")).index_of("c")

    def test_unhashable_value(self):
        with pytest.raises(DomainError):
            EnumDomain("p", ("a", "b")).index_of(["a"])

    def test_decode_array(self):
        d = EnumDomain("p", ("a", "b"))
        vals = d.decode_array(np.array([1, 0, 1]))
        assert list(vals) == ["b", "a", "b"]

    def test_encode_array_matches_index_of(self):
        d = EnumDomain("p", ("a", "b", 7, None))
        values = ["b", 7, "a", None, "b", "a"]
        for arr in (
            np.array(values, dtype=object),
            d.decode_array(np.array([1, 2, 0, 3, 1, 0])),
        ):
            out = d.encode_array(arr)
            assert out.dtype == np.int64
            assert out.tolist() == [d.index_of(v) for v in values]
        # A fixed-width string array (what a broadcast label becomes).
        strings = np.array(["b", "a", "b"])
        assert d.encode_array(strings).tolist() == [1, 0, 1]

    def test_encode_array_empty(self):
        d = EnumDomain("p", ("a", "b"))
        out = d.encode_array(np.array([], dtype=object))
        assert out.dtype == np.int64
        assert out.shape == (0,)

    def test_encode_array_non_label_raises_index_of_error(self):
        d = EnumDomain("p", ("a", "b"))
        with pytest.raises(DomainError) as per_element:
            d.index_of("c")
        with pytest.raises(DomainError) as vectorized:
            d.encode_array(np.array(["a", "c", "b"], dtype=object))
        assert str(vectorized.value) == str(per_element.value)

    def test_encode_array_unhashable_raises(self):
        d = EnumDomain("p", ("a", "b"))
        values = np.empty(2, dtype=object)
        values[0] = "a"
        values[1] = ["a"]
        with pytest.raises(DomainError):
            d.encode_array(values)

    def test_equality_includes_name_and_labels(self):
        assert EnumDomain("p", ("a", "b")) == EnumDomain("p", ("a", "b"))
        assert EnumDomain("p", ("a", "b")) != EnumDomain("q", ("a", "b"))
        assert EnumDomain("p", ("a", "b")) != EnumDomain("p", ("b", "a"))
