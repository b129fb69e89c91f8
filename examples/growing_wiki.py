"""A growing wiki: invalidation keeps old entries linked to new concepts.

Section 1.2 warns that keeping an evolving corpus fully linked manually
is an O(n^2) re-inspection problem.  This example shows NNexus's answer
(Section 2.5): entries are rendered and cached; when a *new* concept is
defined, the invalidation index pinpoints exactly the entries whose
text contains its label, marks those dirty, and they get
fresh links on their next view — no corpus-wide rescan.

Run:  python examples/growing_wiki.py
"""

from repro import CorpusObject, NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc


def main() -> None:
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())

    # Render (and cache) every entry once: the steady state of a wiki.
    for object_id in linker.object_ids():
        linker.render_object(object_id)
    print(f"rendered and cached {len(linker)} entries")
    print(f"cache hits={linker.cache.hits} misses={linker.cache.misses}\n")

    # A contributor defines a brand-new concept: "Euler characteristic".
    # The plane-graph and Euler-path entries mention related phrasing;
    # the invalidation index finds which cached entries contain the label.
    new_entry = CorpusObject(
        object_id=500,
        title="face",
        defines=["face", "faces"],
        classes=["05C10"],
        text="A face of a plane graph is a connected component of the "
             "complement of the drawing.",
    )
    invalidated = linker.add_object(new_entry)
    print(f"added {new_entry.title!r}; invalidated entries: {sorted(invalidated)}")
    print(f"entries marked dirty in the cache: {linker.invalid_entries()}")
    print(f"(out of {len(linker)} — not a full rescan)\n")

    refreshed = linker.relink_invalidated()
    for object_id, html in refreshed.items():
        title = linker.get_object(object_id).title
        has_new_link = f"#object-{new_entry.object_id}" in html
        print(f"re-linked entry {object_id} ({title}): "
              f"{'now links to the new concept' if has_new_link else 'no new link needed'}")

    print(f"\ncache invalidations performed: {linker.cache.invalidations}")


if __name__ == "__main__":
    main()
