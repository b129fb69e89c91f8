"""Rendering: substituting winning link candidates back into entry text.

The final step of Fig. 2 — "the winning candidate for each position is
then substituted into the original text and the linked document is then
returned".  Renderers work from character offsets recorded on each
:class:`~repro.core.models.Link`: one forward pass in ``char_start``
order collects the untouched text between links and each substitution,
and joins them once, so rendering is linear in the text length.
"""

from __future__ import annotations

import html
from typing import Callable, Sequence

from repro.core.models import Link, LinkedDocument

__all__ = [
    "RENDERERS",
    "renderer_for",
    "render_html",
    "render_markdown",
    "render_annotations",
    "render_with",
]


def render_with(document: LinkedDocument, substitute: Callable[[Link, str], str]) -> str:
    """Generic renderer: replace each linked span via ``substitute``.

    ``substitute`` receives the link and the exact surface text and
    returns the replacement.  Link spans are disjoint (see
    :func:`validate_spans`).
    """
    text = document.source_text
    pieces: list[str] = []
    copied_to = 0
    for link in sorted(document.links, key=lambda l: l.char_start):
        start = link.char_start
        end = link.char_end
        pieces.append(text[copied_to:start])
        pieces.append(substitute(link, text[start:end]))
        copied_to = end
    pieces.append(text[copied_to:])
    return "".join(pieces)


def render_html(document: LinkedDocument, css_class: str = "nnexus-link") -> str:
    """HTML anchors: ``<a class="nnexus-link" href="...">surface</a>``."""

    def substitute(link: Link, surface: str) -> str:
        href = html.escape(link.url or f"#object-{link.target_id}", quote=True)
        return f'<a class="{css_class}" href="{href}">{html.escape(surface)}</a>'

    return render_with(document, substitute)


def render_markdown(document: LinkedDocument) -> str:
    """Markdown links: ``[surface](url)``."""

    def substitute(link: Link, surface: str) -> str:
        url = link.url or f"#object-{link.target_id}"
        return f"[{surface}]({url})"

    return render_with(document, substitute)


def render_annotations(document: LinkedDocument) -> str:
    """Inline diagnostics: ``surface[->target_id]`` (used in tests/examples)."""

    def substitute(link: Link, surface: str) -> str:
        return f"{surface}[->{link.target_id}]"

    return render_with(document, substitute)


#: The render formats and their renderers: the cache, the wire, the
#: gateway, batch jobs and the CLI all look formats up here.
RENDERERS: dict[str, Callable[[LinkedDocument], str]] = {
    "html": render_html,
    "markdown": render_markdown,
    "annotations": render_annotations,
}


def renderer_for(fmt: str) -> Callable[[LinkedDocument], str]:
    """The renderer of ``fmt``; ``ValueError`` for an unknown format."""
    renderer = RENDERERS.get(fmt)
    if renderer is None:
        raise ValueError(f"unknown render format {fmt!r}")
    return renderer


def link_table(document: LinkedDocument) -> list[tuple[str, int, str]]:
    """A compact ``(phrase, target id, url)`` listing in text order."""
    return [
        (link.source_phrase, link.target_id, link.url)
        for link in sorted(document.links, key=lambda l: l.char_start)
    ]


def validate_spans(document: LinkedDocument) -> None:
    """Sanity-check that link spans are disjoint and inside the text.

    Raises ``ValueError`` on violation; linkers call this in tests and
    debug builds to guarantee render safety.
    """
    length = len(document.source_text)
    ordered: Sequence[Link] = sorted(document.links, key=lambda l: l.char_start)
    previous_end = -1
    for link in ordered:
        if not (0 <= link.char_start < link.char_end <= length):
            raise ValueError(f"link span {link.span} outside text of length {length}")
        if link.char_start < previous_end:
            raise ValueError(f"overlapping link spans near offset {link.char_start}")
        previous_end = link.char_end
