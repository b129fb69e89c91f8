"""Tests for steering signatures and their class-pair distances.

Algorithm 1's distance between two class lists is the minimum over the
pairs of their interned signatures.  It must follow graph mutations and
stay exact under concurrent readers of a cold graph.
"""

import sys
import threading

import pytest

from repro.core.classification import (
    INFINITE_DISTANCE,
    ClassificationGraph,
    ClassificationSteering,
    UNKNOWN_CLASS_ID,
)
from repro.core.linker import NNexus
from repro.core.models import CorpusObject
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
    scheme.add_class("03E20", "Other set theory", parent="03E")
    return scheme


def steering() -> ClassificationSteering:
    return ClassificationSteering(ClassificationGraph.from_scheme(small_scheme()))


_CLASS_LISTS: list[list[str]] = [
    ["05C40"],
    ["05C10"],
    ["03E20"],
    ["05C10", "03E20"],
    ["05B", "05C40"],
    ["99Z99"],  # unknown to the graph
    [],
    ["05", "03"],
]


class TestSignatures:
    def test_signature_is_sorted_unique_ids(self) -> None:
        steerer = steering()
        signature = steerer.signature(["05C40", "05C10", "05C40"])
        assert len(signature) == 2
        assert list(signature) == sorted(signature)

    def test_unknown_codes_intern_to_sentinel(self) -> None:
        steerer = steering()
        assert steerer.signature(["99Z99"]) == (UNKNOWN_CLASS_ID,)
        # Unknown classes are infinitely far (not "unclassified"):
        assert steerer.pair_distance(["99Z99"], ["05C40"]) == INFINITE_DISTANCE

    def test_empty_classes_give_empty_signature(self) -> None:
        steerer = steering()
        assert steerer.signature([]) == ()
        assert steerer.signature_distance((), (1,)) == INFINITE_DISTANCE

    def test_signature_distance_matches_pair_distance(self) -> None:
        steerer = steering()
        for source in _CLASS_LISTS:
            for target in _CLASS_LISTS:
                assert steerer.signature_distance(
                    steerer.signature(source), steerer.signature(target)
                ) == steerer.pair_distance(source, target)


class TestInvalidation:
    def test_graph_mutation_invalidates_entries(self) -> None:
        steerer = steering()
        far = steerer.pair_distance(["05C40"], ["03E20"])
        # A zero-weight bridge collapses the cross-area distance; the
        # forest tables from_scheme built must not survive it.
        steerer.graph.add_edge("05C40", "03E20", 0.0)
        near = steerer.pair_distance(["05C40"], ["03E20"])
        assert near == 0.0
        assert near < far


def _bridged_scheme_graph() -> ClassificationGraph:
    """The small scheme plus a bridge edge: a cycle, so Dijkstra rows."""
    graph = ClassificationGraph.from_scheme(small_scheme())
    graph.add_edge("05C", "03E", 1.0)
    return graph


class TestConcurrency:
    @pytest.mark.parametrize(
        "build",
        [lambda: ClassificationGraph.from_scheme(small_scheme()), _bridged_scheme_graph],
        ids=["forest", "bridged"],
    )
    def test_concurrent_readers_on_a_cold_graph(self, build) -> None:
        """Eight readers probe one fresh graph at once; every probe
        equals a serial reference and none raises.

        Mutation happens only before a graph is shared (see the
        ClassificationGraph docstring), so readers are the real traffic.
        The bridge edge resets the tables ``from_scheme`` built, so the
        readers race to build the CSR arrays, the forest check and the
        Dijkstra rows; each round starts from a fresh graph.
        """
        reference = ClassificationSteering(build())
        pairs = [
            (source, target) for source in _CLASS_LISTS for target in _CLASS_LISTS
        ]
        expected = [reference.pair_distance(source, target) for source, target in pairs]
        errors: list[str] = []

        def reader(shared: ClassificationSteering, start: threading.Barrier) -> None:
            try:
                start.wait()
                for _ in range(3):
                    for index, (source, target) in enumerate(pairs):
                        got = shared.pair_distance(source, target)
                        if got != expected[index]:
                            errors.append(f"pair {index}: {got} != {expected[index]}")
                            return
            except Exception as error:  # a dead reader must fail the test
                errors.append(f"{type(error).__name__}: {error}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                shared = ClassificationSteering(build())
                start = threading.Barrier(8, timeout=30)
                threads = [
                    threading.Thread(target=reader, args=(shared, start))
                    for _ in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []


class TestLinkerIntegration:
    def _linker(self) -> NNexus:
        linker = NNexus(scheme=build_small_msc())
        linker.add_objects(
            [
                CorpusObject(
                    object_id=1,
                    title="connectivity",
                    text="An article about graphs.",
                    defines=["graph"],
                    classes=["05C40"],
                ),
                CorpusObject(
                    object_id=2,
                    title="graph of a function",
                    text="An article about plots.",
                    defines=["graph"],
                    classes=["03E20"],
                ),
                CorpusObject(
                    object_id=3,
                    title="source",
                    text="Every graph has vertices.",
                    classes=["05C10"],
                ),
            ]
        )
        return linker

    def test_reclassification_changes_the_link(self) -> None:
        linker = self._linker()
        before = linker.link_object(3)
        assert [link.target_id for link in before.links] == [1]
        # Reclassify the source next to the set-theory homonym: the
        # cached signature must be dropped and the link move to 2.
        source = linker.get_object(3)
        source.classes[:] = ["03E20"]
        linker.update_object(source)
        after = linker.link_object(3)
        assert [link.target_id for link in after.links] == [2]

    def test_set_base_weight_rebuild_stays_consistent(self) -> None:
        linker = self._linker()
        before = linker.link_object(3)
        # Rebuilding the graph re-interns every code: old signatures
        # would index into the wrong id space if they survived.
        linker.set_base_weight(2.0)
        after = linker.link_object(3)
        assert [link.target_id for link in after.links] == [
            link.target_id for link in before.links
        ]

    def test_steering_disabled_linker_has_no_signature_metrics(self) -> None:
        linker = NNexus(scheme=None)
        names = {series["name"] for series in linker.metrics_snapshot()["counters"]}
        assert "nnexus_steer_signature_cache_hits" not in names
