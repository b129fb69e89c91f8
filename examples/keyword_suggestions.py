"""Section 5 extension: keyword extraction proposes forgotten labels.

An author may forget to declare a concept label their entry defines.
The extractor learns phrase statistics from the whole corpus and
suggests, for one entry, the phrases that look like labels it could
declare.

Run:  python examples/keyword_suggestions.py
"""

from repro.core.keywords import KeywordExtractor
from repro.corpus.planetmath_sample import sample_corpus


def main() -> None:
    corpus = sample_corpus()
    extractor = KeywordExtractor()
    extractor.observe_corpus(corpus)
    markov = next(obj for obj in corpus if obj.object_id == 20)
    print(f"suggested extra labels for {markov.title!r}:")
    for candidate in extractor.suggest_labels(markov, top_k=4):
        print(f"  {candidate.text!r} (score {candidate.score:.1f})")


if __name__ == "__main__":
    main()
