"""Tests for classification steering (Section 2.3, Fig. 4, Algorithm 1)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classification import (
    INFINITE_DISTANCE,
    UNKNOWN_CLASS_ID,
    ClassificationGraph,
    ClassificationSteering,
    brute_force_all_pairs,
    default_steering,
)
from repro.core.errors import UnknownClassError
from repro.ontology.msc import build_small_msc
from repro.ontology.scheme import ClassificationScheme


def small_scheme() -> ClassificationScheme:
    scheme = ClassificationScheme("t")
    scheme.add_class("05", "Combinatorics")
    scheme.add_class("03", "Logic")
    scheme.add_class("05C", "Graph theory", parent="05")
    scheme.add_class("05B", "Designs", parent="05")
    scheme.add_class("03E", "Set theory", parent="03")
    scheme.add_class("05C10", "Topological", parent="05C")
    scheme.add_class("05C40", "Connectivity", parent="05C")
    scheme.add_class("05C99", "Misc", parent="05C")
    scheme.add_class("03E20", "Other set theory", parent="03E")
    return scheme


class TestWeights:
    def test_weight_formula(self) -> None:
        scheme = small_scheme()  # height 3
        graph = ClassificationGraph.from_scheme(scheme, base_weight=10)
        # Edge root->05 has i=0 -> weight 10^(3-0-1) = 100.
        assert graph.neighbors("__root__")["05"] == pytest.approx(100.0)
        # Edge 05->05C has i=1 -> 10.
        assert graph.neighbors("05")["05C"] == pytest.approx(10.0)
        # Edge 05C->05C40 has i=2 -> 1.
        assert graph.neighbors("05C")["05C40"] == pytest.approx(1.0)

    def test_base_one_is_hop_count(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme(), base_weight=1)
        assert graph.distance("05C10", "05C40") == pytest.approx(2.0)
        assert graph.distance("05C10", "03E20") == pytest.approx(6.0)

    def test_invalid_base_rejected(self) -> None:
        with pytest.raises(ValueError):
            ClassificationGraph.from_scheme(small_scheme(), base_weight=0)

    def test_negative_edge_rejected(self) -> None:
        graph = ClassificationGraph()
        with pytest.raises(ValueError):
            graph.add_edge("a", "b", -1.0)


class TestDistances:
    def test_siblings_closer_than_cross_subtree(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme(), base_weight=10)
        same_subtree = graph.distance("05C10", "05C40")
        cross_area = graph.distance("05C10", "03E20")
        assert same_subtree < cross_area

    def test_deep_siblings_closer_than_shallow_siblings(self) -> None:
        # The motivating observation: 05C10/05C40 (deep) are closer than
        # 05C/05B (one level up).
        graph = ClassificationGraph.from_scheme(small_scheme(), base_weight=10)
        assert graph.distance("05C10", "05C40") < graph.distance("05C", "05B")

    def test_self_distance_zero(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme())
        assert graph.distance("05C40", "05C40") == 0.0

    def test_unknown_code_infinite(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme())
        assert graph.distance("05C40", "99Z99") == INFINITE_DISTANCE
        assert graph.distance("zz", "zz") == INFINITE_DISTANCE

    def test_distance_symmetric(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme(), base_weight=10)
        for a, b in [("05C10", "03E20"), ("05", "05C99"), ("03", "05B")]:
            assert graph.distance(a, b) == pytest.approx(graph.distance(b, a))


class TestJohnson:
    def test_johnson_matches_brute_force_on_msc(self) -> None:
        scheme = small_scheme()
        graph = ClassificationGraph.from_scheme(scheme, base_weight=10)
        johnson = graph.johnson_all_pairs()
        reference = brute_force_all_pairs(graph)
        for a in graph.nodes():
            for b in graph.nodes():
                expected = reference[a][b]
                actual = johnson[a].get(b, INFINITE_DISTANCE)
                if math.isinf(expected):
                    assert math.isinf(actual)
                else:
                    assert actual == pytest.approx(expected)

    def test_bellman_ford_matches_dijkstra(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme(), base_weight=10)
        assert graph.bellman_ford("05") == pytest.approx(graph.dijkstra("05"))

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9),
                st.integers(0, 9),
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_johnson_matches_brute_force_on_random_graphs(
        self, edges: list[tuple[int, int, float]]
    ) -> None:
        graph = ClassificationGraph()
        for a, b, weight in edges:
            if a != b:
                graph.add_edge(str(a), str(b), weight)
        if not len(graph):
            return
        johnson = graph.johnson_all_pairs()
        reference = brute_force_all_pairs(graph)
        for a in graph.nodes():
            for b in graph.nodes():
                expected = reference[a][b]
                actual = johnson[a].get(b, INFINITE_DISTANCE)
                if math.isinf(expected):
                    assert math.isinf(actual)
                else:
                    assert actual == pytest.approx(expected)


class TestSteering:
    def test_fig4_scenario(self) -> None:
        """The paper's worked example: source 05C40 steers 'graph' to 05C99."""
        steering = default_steering(build_small_msc())
        result = steering.steer(
            ["05C40"], {5: ["05C99"], 6: ["03E20"]}
        )
        assert result.winners == (5,)
        assert result.distances[5] < result.distances[6]

    def test_multiple_source_classes_use_minimum(self) -> None:
        steering = default_steering(small_scheme())
        result = steering.steer(["03E20", "05C10"], {1: ["05C40"], 2: ["03E"]})
        # 05C10 is very close to 05C40; 03E20 close to 03E.
        assert set(result.distances) == {1, 2}
        assert result.winners  # someone wins deterministically

    def test_unclassified_candidate_loses_to_classified(self) -> None:
        steering = default_steering(small_scheme())
        result = steering.steer(["05C40"], {1: ["05C10"], 2: []})
        assert result.winners == (1,)
        assert result.distances[2] == INFINITE_DISTANCE

    def test_unclassified_source_all_tie(self) -> None:
        steering = default_steering(small_scheme())
        result = steering.steer([], {1: ["05C10"], 2: ["03E20"]})
        assert result.winners == (1, 2)

    def test_empty_candidates(self) -> None:
        steering = default_steering(small_scheme())
        result = steering.steer(["05C40"], {})
        assert result.winners == ()
        assert result.best_distance == INFINITE_DISTANCE

    def test_ties_preserved_and_sorted(self) -> None:
        steering = default_steering(small_scheme())
        result = steering.steer(["05C40"], {9: ["05C10"], 4: ["05C10"]})
        assert result.winners == (4, 9)

    def test_exact_class_match_wins(self) -> None:
        steering = default_steering(small_scheme())
        result = steering.steer(["05C40"], {1: ["05C40"], 2: ["05C10"]})
        assert result.winners == (1,)
        assert result.best_distance == 0.0

    def test_precomputed_distances_give_same_answer(self) -> None:
        # The paper precomputes Johnson's all-pairs table; the linker
        # walks the tree instead.  Every class pair must agree.
        steering = default_steering(build_small_msc())
        johnson = steering.graph.johnson_all_pairs()
        for source in steering.graph.nodes():
            for target in steering.graph.nodes():
                assert steering.pair_distance([source], [target]) == pytest.approx(
                    johnson[source].get(target, INFINITE_DISTANCE)
                )


class TestSteeringObject:
    def test_pair_distance_empty_inputs(self) -> None:
        steering = ClassificationSteering(
            ClassificationGraph.from_scheme(small_scheme())
        )
        assert steering.pair_distance([], ["05"]) == INFINITE_DISTANCE
        assert steering.pair_distance(["05"], []) == INFINITE_DISTANCE


class TestInterning:
    def test_class_id_round_trips(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme())
        for code in graph.nodes():
            assert graph.code_of(graph.class_id(code)) == code

    def test_unknown_code_gets_sentinel_id(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme())
        assert graph.class_id("99Z99") == UNKNOWN_CLASS_ID
        with pytest.raises(UnknownClassError):
            graph.code_of(UNKNOWN_CLASS_ID)

    def test_distance_between_ids_matches_string_api(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme(), base_weight=10)
        for a in graph.nodes():
            for b in graph.nodes():
                assert graph.distance_between_ids(
                    graph.class_id(a), graph.class_id(b)
                ) == pytest.approx(graph.distance(a, b))

    def test_distance_between_ids_on_cyclic_graph(self) -> None:
        # A bridge edge (cross-scheme mapping) breaks the forest fast
        # path; distances must fall back to Dijkstra rows and shorten.
        graph = ClassificationGraph.from_scheme(small_scheme(), base_weight=10)
        before = graph.distance("05C10", "03E20")
        graph.add_edge("05C", "03E", 1.0)
        after = graph.distance("05C10", "03E20")
        assert after < before
        assert after == pytest.approx(3.0)  # 05C10 -> 05C -> 03E -> 03E20
        reference = brute_force_all_pairs(graph)
        for a in graph.nodes():
            for b in graph.nodes():
                assert graph.distance(a, b) == pytest.approx(reference[a][b])


class TestNeighborsView:
    def test_view_is_read_only(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme())
        view = graph.neighbors("05C")
        with pytest.raises(TypeError):
            view["05C10"] = 0.0  # type: ignore[index]
        with pytest.raises(TypeError):
            del view["05C10"]  # type: ignore[attr-defined]

    def test_view_is_live(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme())
        view = graph.neighbors("05C")
        assert "42A" not in view
        graph.add_edge("05C", "42A", 5.0)
        assert view["42A"] == pytest.approx(5.0)

    def test_unknown_code_gives_empty_view(self) -> None:
        graph = ClassificationGraph.from_scheme(small_scheme())
        view = graph.neighbors("99Z99")
        assert len(view) == 0
        with pytest.raises(TypeError):
            view["x"] = 1.0  # type: ignore[index]
