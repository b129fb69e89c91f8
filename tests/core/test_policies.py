"""Tests for linking policies (Section 2.4, Fig. 5)."""

import pytest
from hypothesis import given, strategies as st

import repro.core.policies as policies_module
from repro.core.errors import PolicyParseError
from repro.core.policies import LinkingPolicy, LinkingPolicyTable, SourceScope, parse_policy
from repro.ontology.msc import build_small_msc
from repro.ontology.scheme import normalize_code


class TestParsing:
    def test_simple_directives(self) -> None:
        directives = parse_policy("forbid even\npermit even 11\n")
        assert len(directives) == 2
        assert directives[0].action == "forbid"
        assert directives[0].concept == ("even",)
        assert directives[0].classes == ()
        assert directives[1].action == "permit"
        assert directives[1].classes == ("11",)

    def test_wildcard(self) -> None:
        directives = parse_policy("forbid * 03E")
        assert directives[0].concept is None
        assert directives[0].is_wildcard

    def test_comments_and_blanks_ignored(self) -> None:
        directives = parse_policy("# a comment\n\nforbid even  # trailing\n")
        assert len(directives) == 1

    def test_quoted_multiword_concept(self) -> None:
        directives = parse_policy('forbid "even number" 11 26')
        assert directives[0].concept == ("even", "number")
        assert directives[0].classes == ("11", "26")

    def test_concept_canonicalized(self) -> None:
        directives = parse_policy("forbid Graphs")
        assert directives[0].concept == ("graph",)

    def test_class_codes_normalized(self) -> None:
        directives = parse_policy("permit even 11-XX")
        assert directives[0].classes == ("11",)

    def test_unknown_action_raises(self) -> None:
        with pytest.raises(PolicyParseError):
            parse_policy("deny even")

    def test_missing_concept_raises(self) -> None:
        with pytest.raises(PolicyParseError):
            parse_policy("forbid")

    def test_unterminated_quote_raises(self) -> None:
        with pytest.raises(PolicyParseError):
            parse_policy('forbid "even number')

    def test_empty_quoted_concept_raises(self) -> None:
        with pytest.raises(PolicyParseError):
            parse_policy('forbid ""')


class TestEvaluation:
    def test_forbid_then_permit_for_category(self) -> None:
        """The paper's canonical example: 'even' only from number theory."""
        policy = LinkingPolicy.from_text("forbid even\npermit even 11\n")
        scheme = build_small_msc()
        assert not policy.allows(("even",), ["05C40"], scheme)
        assert policy.allows(("even",), ["11A05"], scheme)
        assert policy.allows(("even",), ["05C40", "11A41"], scheme)

    def test_default_permit(self) -> None:
        policy = LinkingPolicy.from_text("forbid even\n")
        assert policy.allows(("odd",), ["05C40"])

    def test_last_match_wins(self) -> None:
        policy = LinkingPolicy.from_text("permit even\nforbid even\n")
        assert not policy.allows(("even",), ["11A05"])

    def test_wildcard_applies_to_all_concepts(self) -> None:
        policy = LinkingPolicy.from_text("forbid * 03E\n")
        assert not policy.allows(("anything",), ["03E20"], build_small_msc())
        assert policy.allows(("anything",), ["05C40"], build_small_msc())

    def test_prefix_fallback_without_scheme(self) -> None:
        policy = LinkingPolicy.from_text("forbid even\npermit even 11\n")
        assert policy.allows(("even",), ["11A05"], None)
        assert not policy.allows(("even",), ["05C40"], None)

    def test_unclassified_source_hits_unscoped_directives_only(self) -> None:
        policy = LinkingPolicy.from_text("forbid even\npermit even 11\n")
        # No classes: the permit (scoped to 11) cannot match; forbid does.
        assert not policy.allows(("even",), [])


class TestPolicyTable:
    def test_set_and_filter(self) -> None:
        scheme = build_small_msc()
        table = LinkingPolicyTable(scheme=scheme)
        table.set_policy(7, "forbid even\npermit even 11\n")
        assert table.allows(7, ("even",), ["11A05"])
        assert not table.allows(7, ("even",), ["05C40"])
        # Unpolicied targets always allow.
        assert table.allows(8, ("even",), ["05C40"])

    def test_filter_candidates(self) -> None:
        table = LinkingPolicyTable()
        table.set_policy(7, "forbid even\n")
        assert table.filter_candidates([7, 8], ("even",), table.scope(["05C40"])) == (8,)

    def test_empty_policy_removes(self) -> None:
        table = LinkingPolicyTable()
        table.set_policy(7, "forbid even\n")
        table.set_policy(7, "   ")
        assert table.policy_for(7) is None
        assert len(table) == 0

    def test_raw_policy_round_trip(self) -> None:
        table = LinkingPolicyTable()
        text = "forbid even\npermit even 11\n"
        table.set_policy(7, text)
        assert table.raw_policy(7) == text
        assert table.raw_policy(99) == ""

    def test_remove(self) -> None:
        table = LinkingPolicyTable()
        table.set_policy(7, "forbid even\n")
        table.remove(7)
        assert table.object_ids() == []

    def test_bad_policy_raises_at_set_time(self) -> None:
        table = LinkingPolicyTable()
        with pytest.raises(PolicyParseError):
            table.set_policy(7, "frobnicate everything")


# ---------------------------------------------------------------------------
# Source scopes.  A source's codes are normalized once per scope; the
# verdicts must equal the per-directive containment test they replaced,
# which normalized both codes and walked the scheme for every directive.
# ---------------------------------------------------------------------------

SMALL_MSC = build_small_msc()


def reference_within(source_class: str, policy_class: str, scheme) -> bool:
    source = normalize_code(source_class)
    target = normalize_code(policy_class)
    if source == target:
        return True
    if scheme is not None and source in scheme and target in scheme:
        return target in scheme.path_to_root(source)
    return source.startswith(target)


def reference_allows(policy: LinkingPolicy, concept, source_classes, scheme) -> bool:
    verdict = True
    for directive in policy.directives:
        if directive.concept is not None and tuple(concept) != directive.concept:
            continue
        if directive.classes and not any(
            reference_within(source, target, scheme)
            for source in source_classes
            for target in directive.classes
        ):
            continue
        verdict = directive.action == "permit"
    return verdict


CLASS_CODES = st.sampled_from(
    ["05", "05C", "05C40", "05cxx", "05-XX", "11", "11A", "11A41", "03E", "03E20",
     "5", "05C4", "99Z99", " 11a05 ", "XX", "05XXXX"]
)


@given(
    st.lists(st.tuples(st.sampled_from(["permit", "forbid"]), st.lists(CLASS_CODES, max_size=3)),
             max_size=5),
    st.lists(CLASS_CODES, max_size=3),
    st.booleans(),
)
def test_scoped_verdicts_match_per_directive_containment(directives, source_classes, with_scheme):
    scheme = SMALL_MSC if with_scheme else None
    text = "\n".join(f"{action} even {' '.join(codes)}" for action, codes in directives)
    policy = LinkingPolicy.from_text(text)
    expected = reference_allows(policy, ("even",), source_classes, scheme)
    assert policy.allows(("even",), source_classes, scheme) == expected
    assert policy.permits(("even",), SourceScope(source_classes, scheme)) == expected


def test_scope_normalizes_each_source_code_once(monkeypatch) -> None:
    seen: list[str] = []

    def counting(code: str) -> str:
        seen.append(code)
        return normalize_code(code)

    monkeypatch.setattr(policies_module, "normalize_code", counting)
    table = LinkingPolicyTable(scheme=SMALL_MSC)
    for target in range(5):
        table.set_policy(target, "forbid even\npermit even 11\npermit even 05C\n")
    scope = table.scope(["05c40", "11A05"])
    for _ in range(3):
        assert table.filter_candidates(range(5), ("even",), scope) == (0, 1, 2, 3, 4)
    assert seen.count("05c40") == 1
    assert seen.count("11A05") == 1
