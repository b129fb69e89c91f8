"""Tests for text scanning: escaping and tokenization."""

import os
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.morphology import canonicalize_token
from repro.core.tokenizer import _WORD_RE, DEFAULT_ESCAPE_RULES, Tokenizer


def tokenize(text: str):
    return Tokenizer().tokenize(text)


class TestEscaping:
    def test_inline_math_not_tokenized(self) -> None:
        result = tokenize("the graph $G = (V, E)$ is planar")
        assert "g" not in result.canonical_words()
        assert result.canonical_words() == ["the", "graph", "is", "planar"]

    def test_display_math(self) -> None:
        result = tokenize("before $$x graphs y$$ after")
        assert result.canonical_words() == ["before", "after"]

    def test_latex_environment(self) -> None:
        text = "intro \\begin{align} graphs \\end{align} outro"
        assert tokenize(text).canonical_words() == ["intro", "outro"]

    def test_existing_anchor_escaped(self) -> None:
        text = 'see <a href="x">planar graph</a> here'
        assert tokenize(text).canonical_words() == ["see", "here"]

    def test_html_tag_escaped_but_content_kept(self) -> None:
        text = "<em>planar graph</em>"
        assert tokenize(text).canonical_words() == ["planar", "graph"]

    def test_code_fence(self) -> None:
        text = "code ```graph = {}``` end"
        assert tokenize(text).canonical_words() == ["code", "end"]

    def test_inline_code(self) -> None:
        assert tokenize("use `graph` here").canonical_words() == ["use", "here"]

    def test_url_escaped(self) -> None:
        result = tokenize("visit https://planetmath.org/graphs today")
        assert result.canonical_words() == ["visit", "today"]

    def test_escaped_regions_recorded(self) -> None:
        result = tokenize("a $x$ b $y$ c")
        assert len(result.escaped_regions) == 2

    def test_adjacent_math_merged_regions_ordered(self) -> None:
        result = tokenize("$a$$b$ word")
        spans = result.escaped_regions
        assert spans == sorted(spans)


class TestTokens:
    def test_offsets_recover_surface(self) -> None:
        text = "The Planar Graphs are nice."
        result = tokenize(text)
        for token in result.tokens:
            assert text[token.char_start : token.char_end] == token.surface

    def test_canonical_forms(self) -> None:
        result = tokenize("Graphs vertices Möbius's")
        assert result.canonical_words() == ["graph", "vertex", "mobius"]

    def test_surface_between(self) -> None:
        text = "a planar graph here"
        result = tokenize(text)
        assert result.surface_between(1, 3) == "planar graph"
        assert result.surface_between(2, 2) == ""

    def test_len_and_iter(self) -> None:
        result = tokenize("one two three")
        assert len(result) == 3
        assert [t.surface for t in result] == ["one", "two", "three"]

    def test_apostrophes_inside_words(self) -> None:
        result = tokenize("euler's formula")
        assert result.canonical_words() == ["euler", "formula"]

    def test_empty_text(self) -> None:
        result = tokenize("")
        assert len(result) == 0
        assert result.escaped_regions == []


class TestRegionEdges:
    """A word is dropped when it overlaps a region, kept when it only
    touches one: each region's words are found by bisecting its edges."""

    @pytest.mark.parametrize(
        "text, words, spans, regions",
        [
            ("see xhttps://a.b now", ["see", "now"], [(0, 3), (17, 20)], [(5, 16)]),
            ("foo`x`bar", ["foo", "bar"], [(0, 3), (6, 9)], [(3, 6)]),
            ("a$b$c", ["a", "c"], [(0, 1), (4, 5)], [(1, 4)]),
            ("\\alpha2x y", ["y"], [(9, 10)], [(0, 6)]),
            ("x$$a$$y", ["x", "y"], [(0, 1), (6, 7)], [(1, 6)]),
        ],
        ids=["straddles-start", "touches-both-edges", "between-words", "straddles-end",
             "display-math"],
    )
    def test_words_at_region_edges(self, text, words, spans, regions) -> None:
        result = tokenize(text)
        assert result.canonical_words() == words
        assert list(zip(result.starts, result.ends)) == spans
        assert result.escaped_regions == regions

    @pytest.mark.parametrize("text", ["$x + y$", "`graph`", "https://planetmath.org/graphs"])
    def test_text_that_is_one_region(self, text) -> None:
        result = tokenize(text)
        assert result.canonical_words() == []
        assert result.escaped_regions == [(0, len(text))]

    @pytest.mark.parametrize("text", ["123 ... !! 4", "   ", "\n\t", "-- ' 7"])
    def test_text_with_no_words(self, text) -> None:
        result = tokenize(text)
        assert len(result) == 0
        assert list(result.starts) == list(result.ends) == []
        assert result.escaped_regions == []


@given(st.text(max_size=300))
def test_token_spans_ordered_and_disjoint(text: str) -> None:
    result = tokenize(text)
    previous_end = -1
    for token in result.tokens:
        assert 0 <= token.char_start < token.char_end <= len(text)
        assert token.char_start >= previous_end
        previous_end = token.char_end


@given(st.text(max_size=300))
def test_tokens_never_inside_escaped_regions(text: str) -> None:
    result = tokenize(text)
    for token in result.tokens:
        for start, end in result.escaped_regions:
            assert token.char_end <= start or token.char_start >= end


@given(st.lists(st.sampled_from(["graph", "planar", "$x$", "the", "`c`"]), max_size=20))
def test_word_count_stable_under_spacing(parts: list[str]) -> None:
    single = Tokenizer().tokenize(" ".join(parts))
    double = Tokenizer().tokenize("  ".join(parts))
    assert single.canonical_words() == double.canonical_words()


class TestLinearEscapeScan:
    def test_many_escaped_regions_scan_in_linear_time(self) -> None:
        # 16,000 regions took ~45 s when every match was checked against
        # every span already claimed; a linear merge takes milliseconds.
        text = "word $x$ " * 16_000
        started = time.perf_counter()
        result = tokenize(text)
        elapsed = time.perf_counter() - started
        assert len(result) == 16_000
        assert len(result.escaped_regions) == 16_000
        assert elapsed < 2.0


# ---------------------------------------------------------------------------
# Differential property: the split scanner against a per-word loop.
# ``reference_scan`` is the per-token scanner the array scanner replaced,
# kept here as the oracle: it claims spans rule by rule, skipping a match
# contained in a claimed span, walks the words one ``finditer`` match at a
# time and tests each against every escaped region.  It runs the live
# escape rules and word pattern, so the property pins the scan, not the
# patterns.
# ---------------------------------------------------------------------------


def reference_scan(text: str) -> tuple[list[tuple[str, str, int, int]], list[tuple[int, int]]]:
    """(surface, canonical, start, end) per word, plus the escaped regions."""
    claimed: list[tuple[int, int]] = []
    for rule in DEFAULT_ESCAPE_RULES:
        for match in rule.pattern.finditer(text):
            span = match.span()
            if not any(outer[0] <= span[0] and span[1] <= outer[1] for outer in claimed):
                claimed.append(span)
    escaped: list[tuple[int, int]] = []
    for start, end in sorted(claimed):
        if escaped and start <= escaped[-1][1]:
            escaped[-1] = (escaped[-1][0], max(escaped[-1][1], end))
        else:
            escaped.append((start, end))
    tokens = []
    for match in _WORD_RE.finditer(text):
        start, end = match.span()
        if any(region[0] < end and start < region[1] for region in escaped):
            continue
        canonical = canonicalize_token(match.group())
        if canonical:
            tokens.append((match.group(), canonical, start, end))
    return tokens, escaped


#: Pieces dense in escape delimiters, so random joins open, close, nest
#: and overlap regions of every rule.
ESCAPE_DENSE_PIECES = (
    "$", "$$", "$x$", "$$y$$",
    "\\begin{align}", "\\end{align}", "\\begin{eq*}", "\\end{eq*}",
    "\\frac{a}{b}", "\\alpha", "\\", "{", "}",
    '<a href="x">', "<A>", "</a>", "<em>", "</em>", "<br/>", "<", ">",
    "`", "```", "http://", "https://x.org/graphs", "'", "\u2019", "-",
    "graph", "Graphs", "planar", "vertices", "euler's", "x", "a",
    "M\u00f6bius", "\u00e9", "\u00df", "\u0245", "\u03a9", "7",
    " ", "  ", "\n", ".",
)

escape_dense_texts = st.lists(
    st.one_of(st.sampled_from(ESCAPE_DENSE_PIECES), st.text(max_size=3)),
    max_size=40,
).map("".join)

#: The large-budget CI step sets ``NNEXUS_MODEL_PROFILE=ci``.
DIFFERENTIAL_EXAMPLES = 10_000 if os.environ.get("NNEXUS_MODEL_PROFILE") == "ci" else 300


@settings(
    max_examples=DIFFERENTIAL_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(escape_dense_texts)
def test_array_scanner_matches_reference_scanner(text: str) -> None:
    expected_tokens, expected_regions = reference_scan(text)
    result = tokenize(text)
    assert result.escaped_regions == expected_regions
    assert result.canonical_words() == [canonical for _, canonical, _, _ in expected_tokens]
    assert list(zip(result.starts, result.ends)) == [
        (start, end) for _, _, start, end in expected_tokens
    ]
    assert [(t.surface, t.canonical, t.char_start, t.char_end) for t in result] == expected_tokens


# ---------------------------------------------------------------------------
# Opener...closer rules.  ``latex_env``, ``anchor`` and ``html_tag`` try
# their pattern only at openers with a closer after them; the property
# pins their spans to the plain regexes they replaced, which rescan the
# rest of the text for every unclosed opener.
# ---------------------------------------------------------------------------

REGEX_ORACLE = {
    "latex_env": re.compile(r"\\begin\{(\w+\*?)\}.*?\\end\{\1\}", re.DOTALL),
    "anchor": re.compile(r"<a\b[^>]*>.*?</a>", re.DOTALL | re.IGNORECASE),
    "html_tag": re.compile(r"</?\w+[^>]*>"),
}
PAIRED_RULES = [rule for rule in DEFAULT_ESCAPE_RULES if rule.name in REGEX_ORACLE]

#: Openers and closers of every paired rule, half-open delimiters and
#: filler, so random joins nest, interleave and leave openers unclosed.
PAIRED_PIECES = (
    "\\begin{a}", "\\end{a}", "\\begin{a*}", "\\end{a*}", "\\begin{bb}", "\\end{bb}",
    "\\begin{", "\\end{a", "\\", "{", "}", "*",
    "<a>", '<a href="x">', "<A\nhref=y>", "<a ", "<ab>", "</a>", "</A>", "</a",
    "<b>", "</b>", "<br/>", "<", ">", "/",
    "a", "b", "w", " ", "\n",
)
paired_texts = st.lists(st.sampled_from(PAIRED_PIECES), max_size=30).map("".join)


def test_paired_rules_cover_the_lazy_rules() -> None:
    assert sorted(rule.name for rule in PAIRED_RULES) == sorted(REGEX_ORACLE)
    assert all(rule.opener is not None and rule.closer is not None for rule in PAIRED_RULES)


@settings(
    max_examples=DIFFERENTIAL_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(paired_texts)
def test_paired_rules_match_their_regexes(text: str) -> None:
    for rule in PAIRED_RULES:
        expected = [match.span() for match in REGEX_ORACLE[rule.name].finditer(text)]
        assert rule.spans(text) == expected, rule.name


@pytest.mark.parametrize(
    "piece", ["\\begin{a} w ", "<a> w ", "<a w ", "<b w "], ids=["env", "anchor", "a", "tag"]
)
def test_unclosed_openers_scan_in_linear_time(piece: str) -> None:
    # 4,000 unclosed openers (~48 KB) took 0.5-1.4 s when every opener
    # rescanned the rest of the text for its closer.
    text = piece * 4_000
    started = time.perf_counter()
    result = tokenize(text)
    elapsed = time.perf_counter() - started
    assert "w" in result.canonical_words()
    assert elapsed < 0.2
