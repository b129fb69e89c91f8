"""Entry-text scanning: escaping unlinkable regions and tokenization.

Section 2.1 of the paper: before link-source identification, NNexus pulls
out unlinkable portions of text that need to be escaped (equations and the
like), replaces them with special tokens, and then breaks the remaining
text into a word/token array to iterate through.

The tokenizer keeps character offsets for every word so that the renderer
can substitute winning link candidates back into the *original* text
without a second scan.  One capturing ``re.split`` cuts the text into
alternating gaps and words; the offsets are the running sum of the piece
lengths and the canonical words one ``map`` over the words, so no Python
code runs per word.  The result is three parallel arrays (canonical
words, start offsets, end offsets); no per-word object is built.  The
linker keeps the scan of every stored entry, so the offsets are packed
machine ints, not lists of boxed ones.

Every escape rule scans in linear time.  A lazy rule such as
``\\begin{x}.*?\\end{x}`` would otherwise rescan to the end of the text
for each opener that nothing closes: such rules name their opener and
closer, and only openers with a closer after them are tried.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, compress
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
    """A named regular expression delimiting an unlinkable text region.

    The rule escapes the non-overlapping matches of ``pattern``, found
    left to right.  A lazy opener...closer pattern also names its
    ``opener`` and ``closer``: every match is an opener, then text, then
    the first closer after the opener.  When the patterns have a group,
    the closer's group must equal the opener's (``\\begin{x}`` closes
    only at ``\\end{x}``).  :meth:`spans` then tries ``pattern`` only at
    openers with a matching closer after them, which keeps the scan
    linear where the bare regex is quadratic in unclosed openers.
    """

    name: str
    pattern: re.Pattern[str]
    opener: re.Pattern[str] | None = None
    closer: re.Pattern[str] | None = None

    def spans(self, text: str) -> list[tuple[int, int]]:
        """Spans of ``pattern.finditer(text)``, in linear time."""
        opener, closer = self.opener, self.closer
        if opener is None or closer is None:
            return [match.span() for match in self.pattern.finditer(text)]
        last_closer: dict[str, int] = {}
        limit = 0
        for match in closer.finditer(text):
            last_closer[_kind(match)] = match.start()
            limit = match.end()
        spans: list[tuple[int, int]] = []
        if not limit:
            return spans
        resume = 0
        # No match ends past the last closer, so openers are sought only
        # up to it.  That also bounds an opener's own scan: the anchor's
        # ``[^>]*`` stops at the last closer's ``>`` at the latest.
        for opened in opener.finditer(text, 0, limit):
            start = opened.start()
            if start < resume or last_closer.get(_kind(opened), -1) < opened.end():
                continue
            match = self.pattern.match(text, start)
            if match is not None:
                spans.append(match.span())
                resume = match.end()
        return spans


def _kind(match: re.Match[str]) -> str:
    """The region kind an opener or closer names: its group, if any."""
    return match.group(1) if match.re.groups else ""


def _rule(
    name: str,
    pattern: str,
    flags: int = 0,
    opener: str | None = None,
    closer: str | None = None,
) -> EscapeRule:
    return EscapeRule(
        name,
        re.compile(pattern, flags),
        opener=None if opener is None else re.compile(opener, flags),
        closer=None if closer is None else re.compile(closer, flags),
    )


#: Regions NNexus must never link inside: math, verbatim code, raw HTML
#: anchors (already-linked text) and URLs.  Every match of every rule is
#: escaped: the escaped regions are the merged union of all matches, so
#: the order of the rules does not matter.
DEFAULT_ESCAPE_RULES: tuple[EscapeRule, ...] = (
    _rule("display_math", r"\$\$.+?\$\$", re.DOTALL),
    _rule("inline_math", r"\$[^$\n]+\$"),
    _rule(
        "latex_env",
        r"\\begin\{(\w+\*?)\}.*?\\end\{\1\}",
        re.DOTALL,
        opener=r"\\begin\{(\w+\*?)\}",
        closer=r"\\end\{(\w+\*?)\}",
    ),
    _rule("latex_command", r"\\[A-Za-z]+(?:\{[^{}]*\})?"),
    _rule(
        "anchor",
        r"<a\b[^>]*>.*?</a>",
        re.DOTALL | re.IGNORECASE,
        opener=r"<a\b[^>]*>",
        closer="</a>",
    ),
    _rule("html_tag", r"</?\w+[^>]*>", opener=r"</?\w+", closer=">"),
    _rule("code_fence", r"```.*?```", re.DOTALL),
    _rule("inline_code", r"`[^`\n]+`"),
    _rule("url", r"https?://\S+"),
)

_WORD_RE = re.compile(r"[A-Za-zÀ-ɏ][A-Za-zÀ-ɏ0-9'’-]*")

#: Splits a text into gap, word, gap, ..., word, gap: the capturing group
#: keeps the words, at the odd positions.
_SPLIT_WORDS = re.compile(f"({_WORD_RE.pattern})").split


def _offsets() -> "array[int]":
    return array("I")


@dataclass(slots=True)
class TokenizedText:
    """Result of scanning one entry: parallel word/offset arrays plus the
    escaped spans.

    Word ``i`` has canonical form ``words[i]`` and spans
    ``source[starts[i]:ends[i]]``.  The words are the shared strings of
    the morphology cache; the offsets are packed unsigned ints.
    """

    source: str
    words: list[str] = field(default_factory=list)
    starts: "array[int]" = field(default_factory=_offsets)
    ends: "array[int]" = field(default_factory=_offsets)
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
        # Plain rules scan in one comprehension; opener...closer rules
        # run their own linear scan.
        self._plain_scans = tuple(
            rule.pattern.finditer for rule in escape_rules if rule.closer is None
        )
        self._paired_rules = tuple(rule for rule in escape_rules if rule.closer is not None)

    def escape_spans(self, text: str) -> list[tuple[int, int]]:
        """Character spans claimed by escape rules, merged and sorted."""
        spans = [match.span() for scan in self._plain_scans for match in scan(text)]
        for rule in self._paired_rules:
            spans += rule.spans(text)
        return _merge_spans(spans)

    def tokenize(self, text: str) -> TokenizedText:
        """Scan ``text`` into the word arrays used by the matcher.

        A word overlapping an escaped region is dropped, as is a word
        whose canonical form is empty.  The words of one region are a
        run of the sorted, disjoint word spans: the words ending after
        the region starts and starting before it ends, found by
        bisecting the region's edges into ``ends`` and ``starts``.
        """
        escaped = self.escape_spans(text)
        pieces = _SPLIT_WORDS(text)
        # Piece i ends at bounds[i]: word k (piece 2k+1) spans
        # bounds[2k]..bounds[2k+1].
        bounds = list(accumulate(map(len, pieces)))
        starts = bounds[0:-1:2]
        ends = bounds[1::2]
        words = list(map(canonicalize_token, pieces[1::2]))
        empty = "" in words
        if escaped or empty:
            keep = bytearray(b"\x01") * len(words)
            for region_start, region_end in escaped:
                first = bisect_right(ends, region_start)
                past = bisect_left(starts, region_end, first)
                keep[first:past] = bytes(past - first)
            if empty:
                for index, word in enumerate(words):
                    if not word:
                        keep[index] = 0
            words = list(compress(words, keep))
            starts = compress(starts, keep)
            ends = compress(ends, keep)
        return TokenizedText(
            source=text,
            words=words,
            starts=array("I", starts),
            ends=array("I", ends),
            escaped_regions=escaped,
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
