"""Vertex addressing tests."""

import pytest

from rwre.errors import InvalidInputError
from rwre.tree import ROOT, is_ancestor_or_self, validate_path


class TestValidation:
    def test_validate_accepts_in_range(self):
        validate_path((1, 2, 2), b=2)
        validate_path(ROOT, b=2)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            validate_path((1, 3), b=2)
        with pytest.raises(InvalidInputError):
            validate_path((0,), b=2)


class TestAncestry:
    def test_root_is_ancestor_of_all_paths(self):
        assert is_ancestor_or_self(ROOT, (1, 2, 1))
        assert is_ancestor_or_self(ROOT, ROOT)

    def test_proper_prefix_relation(self):
        assert is_ancestor_or_self((1,), (1, 2))
        assert not is_ancestor_or_self((2,), (1, 2))
        assert not is_ancestor_or_self((1, 2), (1,))
