"""Integration: sqlite storage + linker + server, the full deployment."""

from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.corpus.generator import GeneratorParams, generate_corpus
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.persistence import open_storage
from repro.server.client import NNexusClient
from repro.server.server import serve_forever


def durable_linker(data_dir, scheme=None) -> NNexus:
    return NNexus(
        scheme=scheme or build_small_msc(), storage=open_storage("sqlite", data_dir)
    )


class TestStoreBackedServer:
    def test_persist_restart_serve(self, tmp_path) -> None:
        # Phase 1: ingest a corpus and persist it.
        path = tmp_path / "db"
        linker = durable_linker(path)
        linker.add_objects(sample_corpus())
        linker.checkpoint_storage()
        linker.storage.close()

        # Phase 2: "restart" — cold-start the linker from disk and serve it.
        reopened = durable_linker(path)
        server = serve_forever(reopened)
        try:
            with NNexusClient(*server.address) as client:
                assert client.describe()["objects"] == 30
                body, links = client.link_entry(
                    "every planar graph has connected components",
                    classes=["05C10"],
                )
                targets = {l["phrase"]: l["target"] for l in links}
                assert targets["planar graph"] == "2"
                assert targets["connected components"] == "4"
        finally:
            server.shutdown()
            server.server_close()
            reopened.storage.close()

    def test_synthetic_corpus_via_store(self, tmp_path) -> None:
        corpus = generate_corpus(GeneratorParams(n_entries=60, seed=4))
        linker = durable_linker(tmp_path / "db", scheme=corpus.scheme)
        linker.add_objects(corpus.objects)
        linker.storage.close()

        restarted = durable_linker(tmp_path / "db", scheme=corpus.scheme)
        assert len(restarted) == 60
        # Spot check: linking a restored object still finds its invocations.
        first = corpus.objects[0]
        document = restarted.link_object(first.object_id)
        defined = [
            inv for inv in corpus.ground_truth[first.object_id]
            if inv.target_id is not None
        ]
        assert document.link_count >= len(defined)
        restarted.storage.close()

    def test_server_mutations_can_be_written_back(self, tmp_path) -> None:
        linker = durable_linker(tmp_path / "db")
        linker.add_objects(sample_corpus())
        server = serve_forever(linker)
        try:
            with NNexusClient(*server.address) as client:
                client.add_object(
                    CorpusObject(777, "girth", defines=["girth"],
                                 classes=["05C38"], text="Shortest cycle length.")
                )
        finally:
            server.shutdown()
            server.server_close()
            linker.storage.close()

        # The wire mutation reached disk through the linker's journal.
        restarted = durable_linker(tmp_path / "db")
        assert restarted.get_object(777).title == "girth"
        restarted.storage.close()
