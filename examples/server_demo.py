"""Deploying NNexus as a service (Fig. 7): XML requests over a socket.

Starts the threaded server on an ephemeral port, then acts as a client:
pings, inspects, links a blog paragraph, live-adds an object and links
again — demonstrating that third parties "link arbitrary documents to
particular corpora" without embedding the linker.

Run:  python examples/server_demo.py
"""

from repro import CorpusObject, NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.server import NNexusClient, serve_forever


def main() -> None:
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())
    server = serve_forever(linker)
    host, port = server.address
    print(f"server up on {host}:{port}\n")

    try:
        with NNexusClient(host, port) as client:
            print("ping ->", client.ping())
            print("describe ->", client.describe(), "\n")

            blog_post = (
                "Today I learned that every tree is a bipartite graph, and "
                "that the expectation of a random variable is linear."
            )
            body, links = client.link_entry(blog_post, classes=["05C05"], fmt="markdown")
            print("linked blog post:\n" + body + "\n")

            print("adding a new entry over the wire...")
            invalidated = client.add_object(
                CorpusObject(
                    object_id=600,
                    title="linearity of expectation",
                    defines=["linearity of expectation", "linear"],
                    classes=["60A05"],
                    text="Expectation distributes over sums of random variables.",
                )
            )
            print(f"server invalidated cached entries: {invalidated}")

            body, links = client.link_entry(blog_post, classes=["60A05"], fmt="markdown")
            print("\nsame post, after the corpus grew:\n" + body)
    finally:
        server.shutdown()
        server.server_close()
        print("\nserver stopped")


if __name__ == "__main__":
    main()
