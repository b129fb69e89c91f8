"""Entry-text scanning: escaping unlinkable regions and tokenization.

Section 2.1 of the paper: before link-source identification, NNexus pulls
out unlinkable portions of text that need to be escaped (equations and the
like), replaces them with special tokens, and then breaks the remaining
text into a word/token array to iterate through.

The tokenizer keeps character offsets for every word so that the renderer
can substitute winning link candidates back into the *original* text
without a second scan.  One pass fills three parallel arrays (canonical
words, start offsets, end offsets); no per-word object is built.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.morphology import canonicalize_token

__all__ = ["Token", "TokenizedText", "EscapeRule", "Tokenizer", "DEFAULT_ESCAPE_RULES"]


@dataclass(frozen=True)
class Token:
    """One word occurrence in the source text.

    A view built on demand by :attr:`TokenizedText.tokens`; the scanner
    itself stores parallel arrays.  ``canonical`` is the
    morphology-folded form used for concept-map lookups; ``surface`` is
    the exact source spelling between ``char_start`` and ``char_end``.
    """

    surface: str
    canonical: str
    char_start: int
    char_end: int

    @property
    def span(self) -> tuple[int, int]:
        return (self.char_start, self.char_end)


@dataclass(frozen=True)
class EscapeRule:
    """A named regular expression delimiting an unlinkable text region."""

    name: str
    pattern: re.Pattern[str]


def _rule(name: str, pattern: str, flags: int = 0) -> EscapeRule:
    return EscapeRule(name, re.compile(pattern, flags))


#: Regions NNexus must never link inside: math, verbatim code, raw HTML
#: anchors (already-linked text) and URLs.  Every match of every rule is
#: escaped: the escaped regions are the merged union of all matches, so
#: the order of the rules does not matter.
DEFAULT_ESCAPE_RULES: tuple[EscapeRule, ...] = (
    _rule("display_math", r"\$\$.+?\$\$", re.DOTALL),
    _rule("inline_math", r"\$[^$\n]+\$"),
    _rule("latex_env", r"\\begin\{(\w+\*?)\}.*?\\end\{\1\}", re.DOTALL),
    _rule("latex_command", r"\\[A-Za-z]+(?:\{[^{}]*\})?"),
    _rule("anchor", r"<a\b[^>]*>.*?</a>", re.DOTALL | re.IGNORECASE),
    _rule("html_tag", r"</?\w+[^>]*>"),
    _rule("code_fence", r"```.*?```", re.DOTALL),
    _rule("inline_code", r"`[^`\n]+`"),
    _rule("url", r"https?://\S+"),
)

_WORD_RE = re.compile(r"[A-Za-zÀ-ɏ][A-Za-zÀ-ɏ0-9'’-]*")


#: Stands in for the region after the last escaped one: it starts and
#: ends past any text offset, so no word is inside it.
_PAST_LAST_REGION = (sys.maxsize, sys.maxsize)


@dataclass
class TokenizedText:
    """Result of scanning one entry: parallel word/offset arrays plus the
    escaped spans.

    Word ``i`` has canonical form ``words[i]`` and spans
    ``source[starts[i]:ends[i]]``.
    """

    source: str
    words: list[str] = field(default_factory=list)
    starts: list[int] = field(default_factory=list)
    ends: list[int] = field(default_factory=list)
    escaped_regions: list[tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    @property
    def tokens(self) -> list[Token]:
        """The words as :class:`Token` objects, built on each access."""
        source = self.source
        return [
            Token(source[start:end], word, start, end)
            for word, start, end in zip(self.words, self.starts, self.ends)
        ]

    def canonical_words(self) -> list[str]:
        """The canonical word array the matcher iterates over (not a copy)."""
        return self.words

    def surface_between(self, start: int, end: int) -> str:
        """Original text spanned by words ``start``..``end`` (exclusive)."""
        if start >= end:
            return ""
        return self.source[self.starts[start] : self.ends[end - 1]]


class Tokenizer:
    """Scanner that escapes unlinkable regions and emits word tokens.

    Parameters
    ----------
    escape_rules:
        Rules whose matches are excluded from linking.  Defaults to
        :data:`DEFAULT_ESCAPE_RULES`.
    """

    def __init__(self, escape_rules: tuple[EscapeRule, ...] = DEFAULT_ESCAPE_RULES) -> None:
        self._escape_rules = escape_rules

    def escape_spans(self, text: str) -> list[tuple[int, int]]:
        """Character spans claimed by escape rules, merged and sorted."""
        return _merge_spans(
            [match.span() for rule in self._escape_rules for match in rule.pattern.finditer(text)]
        )

    def tokenize(self, text: str) -> TokenizedText:
        """Scan ``text`` into the word arrays used by the matcher.

        A word overlapping an escaped region is dropped.  Words and the
        sorted, disjoint regions both advance left to right, so one
        forward-only pointer into the regions tests every word.
        """
        escaped = self.escape_spans(text)
        words: list[str] = []
        starts: list[int] = []
        ends: list[int] = []
        regions = iter(escaped)
        region_start, region_end = next(regions, _PAST_LAST_REGION)
        for match in _WORD_RE.finditer(text):
            start, end = match.span()
            # A region ending at or before this word's start overlaps
            # neither this word nor any later one.
            while region_end <= start:
                region_start, region_end = next(regions, _PAST_LAST_REGION)
            if region_start < end:
                continue
            canonical = canonicalize_token(match.group())
            if canonical:
                words.append(canonical)
                starts.append(start)
                ends.append(end)
        return TokenizedText(
            source=text, words=words, starts=starts, ends=ends, escaped_regions=escaped
        )


def _merge_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping or touching spans into a sorted, disjoint list."""
    if not spans:
        return []
    ordered = sorted(spans)
    merged = [ordered[0]]
    for start, end in ordered[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged
