"""Part-set membership, bounded enumeration, parsing, scaling."""

import re

import pytest

from qpl.errors import ParameterError
from qpl.partsets import PartSet, parse_part_set


class TestContains:
    def test_jbar_3_1_is_everything(self):
        s = PartSet.with_multiples(3, 1)
        assert all(s.contains(x) for x in range(1, 101))

    def test_j_4_1(self):
        s = PartSet.plus_minus(4, 1)
        assert s.contains(5)
        assert not s.contains(2)
        assert [x for x in range(1, 12) if s.contains(x)] == [1, 3, 5, 7, 9, 11]

    def test_finite_prefix(self):
        s = PartSet.finite_prefix(5, 2, 1)
        assert not s.contains(8)
        assert [x for x in range(1, 30) if s.contains(x)] == [2, 3]
        s2 = PartSet.finite_prefix(5, 2, 2)
        assert [x for x in range(1, 30) if s2.contains(x)] == [2, 3, 7, 8]

    def test_residues(self):
        s = PartSet.residues(4, 3)
        assert [x for x in range(1, 13) if s.contains(x)] == [3, 7, 11]
        assert [x for x in range(1, 13) if PartSet.residues(4, 0).contains(x)] == [4, 8, 12]
        assert [x for x in range(1, 13) if PartSet.residues(4, 4).contains(x)] == [4, 8, 12]

    def test_explicit(self):
        s = PartSet.explicit([7, 1, 3])
        assert s.contains(3) and not s.contains(2)
        assert not s.contains(0)

    def test_nonmembers_below_one(self):
        assert not PartSet.multiples(3).contains(0)
        assert not PartSet.multiples(3).contains(-3)


class TestMembersUpto:
    def test_jbar_4_1(self):
        assert PartSet.with_multiples(4, 1).members_upto(9) == [1, 3, 4, 5, 7, 8, 9]

    def test_empty_range(self):
        assert PartSet.with_multiples(4, 1).members_upto(0) == []
        assert PartSet.explicit([2]).members_upto(0) == []

    def test_multiples(self):
        assert PartSet.multiples(3).members_upto(10) == [3, 6, 9]

    def test_agrees_with_contains(self):
        sets = [
            PartSet.with_multiples(5, 2),
            PartSet.plus_minus(7, 3),
            PartSet.residues(4, 3),
            PartSet.finite_prefix(4, 1, 3),
            PartSet.multiples(6),
            PartSet.explicit([1, 4, 9, 16]),
        ]
        for s in sets:
            members = s.members_upto(60)
            assert members == [x for x in range(1, 61) if s.contains(x)]
            assert members == sorted(set(members))

    def test_prefix_members_stop_at_n_and_at_s(self):
        # n below, at and past the last prefix member, and s far past n
        for k, ell in [(3, 1), (5, 2), (8, 3)]:
            for s in (1, 2, 3, 10**9):
                part_set = PartSet.finite_prefix(k, ell, s)
                for n in range(0, 4 * k):
                    members = part_set.members_upto(n)
                    assert members == [x for x in range(1, n + 1) if part_set.contains(x)]


class TestFamilies:
    def test_reflection_invariance(self):
        for k, ell in [(4, 1), (5, 2), (8, 3)]:
            a, b = PartSet.plus_minus(k, ell), PartSet.plus_minus(k, k - ell)
            assert a.members_upto(100) == b.members_upto(100)
            a, b = PartSet.with_multiples(k, ell), PartSet.with_multiples(k, k - ell)
            assert a.members_upto(100) == b.members_upto(100)
            for s in (1, 2, 5):
                a = PartSet.finite_prefix(k, ell, s)
                b = PartSet.finite_prefix(k, k - ell, s)
                assert a.members_upto(100) == b.members_upto(100)

    def test_prefix_chain(self):
        full = PartSet.plus_minus(5, 2)
        prev: set[int] = set()
        for s in range(1, 6):
            cur = set(PartSet.finite_prefix(5, 2, s).members_upto(200))
            assert prev < cur
            assert cur <= set(full.members_upto(200))
            prev = cur

    def test_interior_required(self):
        with pytest.raises(ParameterError):
            PartSet.plus_minus(4, 2)
        with pytest.raises(ParameterError):
            PartSet.with_multiples(3, 0)
        with pytest.raises(ParameterError):
            PartSet.finite_prefix(2, 1, 3)

    @pytest.mark.parametrize(
        "build,message",
        [
            # explicit([2.7]) once became set:2 and counted parts of size 2
            (lambda: PartSet.explicit([2.7]), "explicit part must be an integer, got 2.7"),
            (lambda: PartSet.explicit([1, "3"]), "explicit part must be an integer, got '3'"),
            (lambda: PartSet.finite_prefix(5, 2, 2.0), "prefix length s must be an integer, got 2.0"),
            (lambda: PartSet.multiples(2.5), "k must be an integer, got 2.5"),
            (lambda: PartSet.residues(4, 1.5), "ell must be an integer, got 1.5"),
        ],
    )
    def test_non_integer_fields_rejected(self, build, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("parts", [[], (), iter([])])
    def test_explicit_needs_a_part(self, parts):
        # an empty set would be labelled "set:", which parse_part_set refuses
        with pytest.raises(ParameterError, match="^an explicit part set needs at least one part$"):
            PartSet.explicit(parts)


class TestParse:
    @pytest.mark.parametrize(
        "text,members",
        [
            ("I:4,3", [3, 7, 11]),
            ("J:4,1", [1, 3, 5, 7, 9, 11]),
            ("Jbar:3,1", list(range(1, 13))),
            ("Js:5,2,1", [2, 3]),
            ("mult:4", [4, 8, 12]),
            ("set:1,3,7", [1, 3, 7]),
        ],
    )
    def test_examples(self, text, members):
        assert parse_part_set(text).members_upto(12) == members

    def test_round_trip_labels(self):
        for text in ["I:4,3", "J:4,1", "Jbar:3,1", "Js:5,2,1", "mult:4", "set:1,3,7"]:
            assert parse_part_set(parse_part_set(text).label()) == parse_part_set(text)

    @pytest.mark.parametrize("bad", ["", "J", "J:4", "Q:1,2", "set:", "J:a,b", "mult:0"])
    def test_malformed(self, bad):
        with pytest.raises(ParameterError):
            parse_part_set(bad)
