"""Collaborative editing: edits, vandalism rollback, standoff export.

Walks a small editing session on top of the sample corpus.  Every save
is an ``update_object``, which re-indexes the entry and returns the
other entries whose renderings it invalidated:

1. a contributor improves the text of the 'tree' entry, which changes
   no concept label and so invalidates no other entry;
2. a vandal blanks the entry, its concept labels included, so every
   entry that links 'tree' loses its target;
3. a moderator restores it by saving the earlier version again, which
   gives those entries their target back;
4. the final linked entry is exported as W3C Web Annotations so
   third-party tools can consume the links without re-running NNexus.

Run:  python examples/collaborative_editing.py
"""

from dataclasses import replace

from repro import NNexus
from repro.core.annotations import annotations_to_json
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc


def main() -> None:
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())
    print(f"imported {len(linker)} entries\n")

    tree = linker.get_object(11)
    improved = replace(
        tree,
        text=tree.text + " A spanning tree of a connected graph touches every vertex.",
    )
    invalidated = linker.update_object(improved)
    print(f"alice's edit invalidated {sorted(invalidated)}")

    vandalized = replace(
        improved, title="deleted lol", defines=[], synonyms=[], text="deleted lol"
    )
    invalidated = linker.update_object(vandalized)
    print(f"vandal's edit invalidated {sorted(invalidated)}")

    invalidated = linker.update_object(improved)
    print(f"moderator's restore invalidated {sorted(invalidated)}")

    document = linker.link_object(11)
    print(f"\nfinal entry carries {document.link_count} links; as Web Annotations:")
    print(annotations_to_json(document, source_iri="urn:planetsample:tree")[:400] + " ...")


if __name__ == "__main__":
    main()
