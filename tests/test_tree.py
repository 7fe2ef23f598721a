"""Vertex addressing tests."""

import pytest

from rwre.errors import InvalidInputError
from rwre.tree import (
    ROOT,
    SENTINEL,
    child,
    is_ancestor_or_self,
    is_sentinel,
    level,
    parent,
    validate_path,
)


class TestLevels:
    def test_root_is_empty_tuple_at_level_zero(self):
        assert ROOT == ()
        assert level(ROOT) == 0

    def test_sentinel_sits_at_level_minus_one(self):
        assert level(SENTINEL) == -1
        assert is_sentinel(SENTINEL)
        assert not is_sentinel(ROOT)

    def test_level_equals_path_length(self):
        assert level((1,)) == 1
        assert level((2, 1, 2)) == 3


class TestParentChild:
    def test_parent_of_root_is_sentinel(self):
        assert parent(ROOT) is SENTINEL

    def test_parent_strips_last_digit(self):
        assert parent((1, 2)) == (1,)
        assert parent((3,)) == ROOT

    def test_sentinel_has_no_parent(self):
        with pytest.raises(InvalidInputError):
            parent(SENTINEL)

    def test_child_appends_digit(self):
        assert child(ROOT, 2, b=3) == (2,)
        assert child((1,), 3, b=3) == (1, 3)

    def test_child_digit_out_of_range(self):
        with pytest.raises(InvalidInputError):
            child(ROOT, 0, b=2)
        with pytest.raises(InvalidInputError):
            child(ROOT, 3, b=2)

    def test_sentinel_single_child_is_root(self):
        assert child(SENTINEL, 1, b=4) == ROOT
        with pytest.raises(InvalidInputError):
            child(SENTINEL, 2, b=4)

    def test_round_trip(self):
        v = (2, 1, 3)
        assert parent(child(v, 1, b=3)) == v


class TestValidation:
    def test_validate_accepts_in_range(self):
        validate_path((1, 2, 2), b=2)
        validate_path(SENTINEL, b=2)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            validate_path((1, 3), b=2)
        with pytest.raises(InvalidInputError):
            validate_path((0,), b=2)


class TestAncestry:
    def test_root_is_ancestor_of_all_paths(self):
        assert is_ancestor_or_self(ROOT, (1, 2, 1))
        assert is_ancestor_or_self(ROOT, ROOT)

    def test_sentinel_is_ancestor_of_everything(self):
        assert is_ancestor_or_self(SENTINEL, ROOT)
        assert is_ancestor_or_self(SENTINEL, SENTINEL)
        assert not is_ancestor_or_self(ROOT, SENTINEL)

    def test_proper_prefix_relation(self):
        assert is_ancestor_or_self((1,), (1, 2))
        assert not is_ancestor_or_self((2,), (1, 2))
        assert not is_ancestor_or_self((1, 2), (1,))
