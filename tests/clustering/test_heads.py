"""Tests for the per-node clusterHead choice rules of the election oracle."""

from tests.oracles.election import (
    best_neighbor,
    choose_parent,
    dominates_two_hop_heads,
    is_local_max,
    wants_headship,
)


class TestIsLocalMax:
    def test_strictly_greater_than_all(self):
        assert is_local_max((2,), [(1,), (0,)])

    def test_not_max_if_any_neighbor_wins(self):
        assert not is_local_max((1,), [(2,), (0,)])

    def test_vacuous_for_isolated_node(self):
        assert is_local_max((0,), [])


class TestBestNeighbor:
    def test_picks_greatest_key(self):
        assert best_neighbor({"a": (1,), "b": (3,), "c": (2,)}) == "b"

    def test_single_neighbor(self):
        assert best_neighbor({"only": (0,)}) == "only"


class TestChooseParent:
    def test_local_max_is_its_own_parent(self):
        assert choose_parent("p", (5,), {"q": (1,)}) == "p"

    def test_otherwise_best_neighbor(self):
        assert choose_parent("p", (1,), {"q": (2,), "r": (3,)}) == "r"

    def test_isolated_node_is_its_own_parent(self):
        assert choose_parent("p", (0,), {}) == "p"


class TestFusionCondition:
    def test_dominates_empty_claims(self):
        assert dominates_two_hop_heads((2,), [])

    def test_blocked_by_stronger_claim(self):
        assert not dominates_two_hop_heads((2,), [(3,)])

    def test_dominates_weaker_claims(self):
        assert dominates_two_hop_heads((2,), [(1,), (0,)])


class TestWantsHeadship:
    def test_basic_rule_ignores_two_hop(self):
        assert wants_headship((2,), [(1,)], claimed_two_hop_head_keys=None)

    def test_fusion_rule_blocks(self):
        assert not wants_headship((2,), [(1,)],
                                  claimed_two_hop_head_keys=[(3,)])

    def test_fusion_rule_allows_when_dominating(self):
        assert wants_headship((2,), [(1,)], claimed_two_hop_head_keys=[(1,)])

    def test_must_be_local_max_first(self):
        assert not wants_headship((1,), [(2,)], claimed_two_hop_head_keys=[])
