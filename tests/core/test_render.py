"""Tests for link substitution/rendering."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.models import Link, LinkedDocument
from repro.core.render import (
    link_table,
    render_annotations,
    render_html,
    render_markdown,
    render_with,
    validate_spans,
)


def make_document() -> LinkedDocument:
    text = "a planar graph has connected components"
    return LinkedDocument(
        source_text=text,
        links=[
            Link("planar graph", 2, "pm", 2, 14, url="https://x/2"),
            Link("connected components", 4, "pm", 19, 39, url="https://x/4"),
        ],
    )


class TestHtml:
    def test_anchors_substituted(self) -> None:
        html = render_html(make_document())
        assert '<a class="nnexus-link" href="https://x/2">planar graph</a>' in html
        assert html.startswith("a ")
        assert html.count("<a ") == 2

    def test_offsets_preserved_for_unlinked_text(self) -> None:
        html = render_html(make_document())
        assert " has " in html

    def test_html_escaping(self) -> None:
        doc = LinkedDocument(
            source_text="x <b>graph</b>",
            links=[Link("graph", 5, "pm", 5, 10, url='u"&<>')],
        )
        html = render_html(doc)
        assert "&quot;" in html  # escaped quote in href
        assert ">graph</a>" in html

    def test_missing_url_falls_back_to_fragment(self) -> None:
        doc = LinkedDocument(
            source_text="a graph", links=[Link("graph", 5, "pm", 2, 7)]
        )
        assert 'href="#object-5"' in render_html(doc)

    def test_custom_css_class(self) -> None:
        assert 'class="mylink"' in render_html(make_document(), css_class="mylink")


class TestOtherFormats:
    def test_markdown(self) -> None:
        md = render_markdown(make_document())
        assert "[planar graph](https://x/2)" in md

    def test_annotations(self) -> None:
        annotated = render_annotations(make_document())
        assert "planar graph[->2]" in annotated
        assert "connected components[->4]" in annotated

    def test_link_table_in_text_order(self) -> None:
        table = link_table(make_document())
        assert table == [
            ("planar graph", 2, "https://x/2"),
            ("connected components", 4, "https://x/4"),
        ]

    def test_no_links_identity(self) -> None:
        doc = LinkedDocument(source_text="plain text")
        assert render_html(doc) == "plain text"
        assert render_markdown(doc) == "plain text"


class TestValidateSpans:
    def test_valid_document_passes(self) -> None:
        validate_spans(make_document())

    def test_out_of_range_span(self) -> None:
        doc = LinkedDocument(source_text="ab", links=[Link("x", 1, "d", 0, 5)])
        with pytest.raises(ValueError):
            validate_spans(doc)

    def test_overlapping_spans(self) -> None:
        doc = LinkedDocument(
            source_text="abcdefgh",
            links=[Link("x", 1, "d", 0, 4), Link("y", 2, "d", 2, 6)],
        )
        with pytest.raises(ValueError):
            validate_spans(doc)

    def test_empty_span_rejected(self) -> None:
        doc = LinkedDocument(source_text="abc", links=[Link("x", 1, "d", 1, 1)])
        with pytest.raises(ValueError):
            validate_spans(doc)


# ---------------------------------------------------------------------------
# The one-pass renderer against the back-to-front splice it replaced.
# ---------------------------------------------------------------------------


def reference_render(document: LinkedDocument, substitute) -> str:
    """Splice each link into the text, last link first."""
    text = document.source_text
    for link in sorted(document.links, key=lambda l: l.char_start, reverse=True):
        surface = text[link.char_start : link.char_end]
        text = text[: link.char_start] + substitute(link, surface) + text[link.char_end :]
    return text


@st.composite
def linked_documents(draw) -> LinkedDocument:
    """Texts with disjoint link spans, links listed in any order."""
    text = draw(st.text(alphabet="ab <&>\"\u00e9", max_size=60))
    cuts = sorted(draw(st.sets(st.integers(0, len(text)), max_size=12)))
    links = [
        Link(text[start:end], index, "d", start, end, url=f"u{index}")
        for index, (start, end) in enumerate(zip(cuts[::2], cuts[1::2]))
        if start < end
    ]
    return LinkedDocument(source_text=text, links=draw(st.permutations(links)))


@settings(max_examples=300, deadline=None)
@given(document=linked_documents())
def test_render_matches_back_to_front_splice(document: LinkedDocument) -> None:
    def substitute(link: Link, surface: str) -> str:
        return f"<{link.target_id}:{surface}>"

    assert render_with(document, substitute) == reference_render(document, substitute)


class TestLinearRendering:
    def test_many_links_render_in_linear_time(self) -> None:
        # Splicing each link into the whole string took ~3.4 s for 16,000
        # links; one forward pass and a single join takes milliseconds.
        count = 16_000
        text = "word graph " * count
        links = [
            Link("graph", 1, "d", index * 11 + 5, index * 11 + 10, url="u")
            for index in range(count)
        ]
        document = LinkedDocument(source_text=text, links=links)
        started = time.perf_counter()
        rendered = render_annotations(document)
        elapsed = time.perf_counter() - started
        assert rendered == "word graph[->1] " * count
        assert elapsed < 0.2
