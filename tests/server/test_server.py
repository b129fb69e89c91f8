"""End-to-end tests for the socket server and client."""

import pytest

from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.server.client import NNexusClient, RemoteError
from repro.server.server import serve_forever


@pytest.fixture()
def server():
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())
    instance = serve_forever(linker)
    yield instance
    instance.shutdown()
    instance.server_close()


@pytest.fixture()
def client(server):
    with NNexusClient(*server.address) as instance:
        yield instance


class TestBasics:
    def test_ping(self, client) -> None:
        assert client.ping()

    def test_describe(self, client) -> None:
        info = client.describe()
        assert info["objects"] == 30
        assert info["concepts"] > 30

    def test_link_entry_html(self, client) -> None:
        body, links = client.link_entry(
            "every planar graph is sparse", classes=["05C10"]
        )
        assert "<a" in body
        assert links[0]["phrase"] == "planar graph"
        assert links[0]["target"] == "2"

    def test_link_offsets_index_the_clients_crlf_text(self, client) -> None:
        text = "notes\r\n\r\nevery planar graph\ris sparse,\r\nso a tree is planar"
        body, links = client.link_entry(text, classes=["05C10"])
        assert [link["phrase"] for link in links] == ["planar graph", "tree"]
        for link in links:
            assert text[int(link["start"]) : int(link["end"])] == link["phrase"]
        assert body.startswith("notes\r\n\r\nevery ")

    def test_link_entry_annotations(self, client) -> None:
        body, __ = client.link_entry("a tree here", classes=["05C05"],
                                     fmt="annotations")
        assert "tree[->11]" in body

    def test_steering_respected_over_wire(self, client) -> None:
        __, graph_links = client.link_entry("the graph", classes=["05C40"])
        assert graph_links[0]["target"] == "5"
        __, set_links = client.link_entry("the graph", classes=["03E20"])
        assert set_links[0]["target"] == "6"

    def test_unknown_format_is_remote_error(self, client) -> None:
        with pytest.raises(RemoteError):
            client.link_entry("x", fmt="docx")


class TestMutations:
    def test_add_then_link(self, client) -> None:
        client.add_object(
            CorpusObject(700, "spanning tree", defines=["spanning tree"],
                         classes=["05C05"], text="A tree touching every vertex.")
        )
        __, links = client.link_entry("take a spanning tree", classes=["05C05"])
        assert links[0]["target"] == "700"

    def test_add_duplicate_is_remote_error(self, client) -> None:
        with pytest.raises(RemoteError):
            client.add_object(CorpusObject(5, "dup", defines=["dup"]))

    def test_remove_object(self, client) -> None:
        client.remove_object(11)  # tree
        __, links = client.link_entry("a tree here", classes=["05C05"])
        assert all(link["phrase"] != "tree" for link in links)

    def test_remove_unknown_is_remote_error(self, client) -> None:
        with pytest.raises(RemoteError):
            client.remove_object(12345)

    def test_update_object(self, client) -> None:
        client.update_object(
            CorpusObject(11, "tree", defines=["rooted tree"], classes=["05C05"],
                         text="changed")
        )
        __, links = client.link_entry("a rooted tree", classes=["05C05"])
        assert links and links[0]["target"] == "11"

    def test_set_policy_over_wire(self, client) -> None:
        client.set_policy(11, "forbid tree\n")
        __, links = client.link_entry("a tree here", classes=["05C05"])
        assert all(link["phrase"] != "tree" for link in links)

    def test_invalidated_ids_returned(self, client) -> None:
        invalidated = client.add_object(
            CorpusObject(800, "subgraph", defines=["subgraph", "subgraphs"],
                         classes=["05C99"], text="Part of a graph.")
        )
        assert isinstance(invalidated, list)


class TestConcurrentClients:
    def test_two_clients_share_state(self, server) -> None:
        with NNexusClient(*server.address) as first:
            with NNexusClient(*server.address) as second:
                first.add_object(
                    CorpusObject(900, "clique", defines=["clique"],
                                 classes=["05C69"], text="Complete subgraph.")
                )
                __, links = second.link_entry("a clique", classes=["05C69"])
                assert links[0]["target"] == "900"
