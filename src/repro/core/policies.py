"""Entry filtering by linking policies (Section 2.4, Fig. 5).

A *linking policy* is a user-supplied text chunk attached to a link
*target* object.  It describes, in terms of subject classes, from where
links to that object's concepts may be made or are prohibited.  The
paper's canonical example: the entry defining "even number" forbids all
articles from linking to the concept "even" unless they are in the number
theory category.

Policy language (one directive per line, ``#`` comments)::

    forbid even                 # nobody may link "even" to this entry
    permit even 11              # ...except sources classified under 11-XX
    forbid *    03E             # set-theory sources may link nothing here
    permit *                    # (default) everything else is allowed

Directives are evaluated in order and the *last* matching directive wins;
when nothing matches, linking is permitted.  A directive matches a
``(concept, source classes)`` query when its concept field equals the
queried concept (or is ``*``) and, if class codes are listed, at least
one source class lies in the subtree of one of them.

Only targets that carry a policy can be filtered out, so
:meth:`LinkingPolicyTable.filter_candidates` hands a match's candidates
back untouched when none of them has one — most matches, in practice —
and evaluates directives only otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, KeysView, Sequence

from repro.core.errors import PolicyParseError
from repro.core.morphology import canonicalize_phrase
from repro.ontology.scheme import ClassificationScheme, normalize_code

__all__ = [
    "PolicyDirective",
    "LinkingPolicy",
    "LinkingPolicyTable",
    "SourceScope",
    "parse_policy",
]

_ACTIONS = ("permit", "forbid")


@dataclass(frozen=True)
class PolicyDirective:
    """One parsed policy line.

    ``concept`` is the canonical word tuple, or ``None`` for the ``*``
    wildcard.  ``classes`` are normalized class codes scoping the
    directive to sources classified under those subtrees (empty = all
    sources).
    """

    action: str
    concept: tuple[str, ...] | None
    classes: tuple[str, ...] = ()

    @property
    def is_wildcard(self) -> bool:
        return self.concept is None

    def matches(self, concept: Sequence[str], source: SourceScope) -> bool:
        """Does this directive apply to the queried link?"""
        if self.concept is not None and tuple(concept) != self.concept:
            return False
        if not self.classes:
            return True
        scheme = source.scheme
        return any(
            _class_within(code, path, policy_class, scheme)
            for code, path in source.codes
            for policy_class in self.classes
        )


class SourceScope:
    """A source's classes as the scoped directives compare them.

    Each class code is normalized once, when the first scoped directive
    is evaluated for the source, and paired with the codes on its path
    to the scheme's root (``None`` when the scheme does not hold it).
    The linker keeps one per stored entry, so an entry's codes are
    normalized once per stored version, not once per directive.  The
    classes are read, not copied: they must not change while the scope
    is in use.
    """

    __slots__ = ("_classes", "scheme", "_codes")

    def __init__(
        self, source_classes: Sequence[str], scheme: ClassificationScheme | None
    ) -> None:
        self._classes = source_classes
        self.scheme = scheme
        self._codes: tuple[tuple[str, tuple[str, ...] | None], ...] | None = None

    @property
    def codes(self) -> tuple[tuple[str, tuple[str, ...] | None], ...]:
        """``(normalized code, codes on its path to the root)`` per class."""
        codes = self._codes
        if codes is None:
            scheme = self.scheme
            codes = self._codes = tuple(
                (
                    code,
                    tuple(scheme.path_to_root(code))
                    if scheme is not None and code in scheme
                    else None,
                )
                for code in map(normalize_code, self._classes)
            )
        return codes


def _class_within(
    source: str,
    path: tuple[str, ...] | None,
    policy_class: str,
    scheme: ClassificationScheme | None,
) -> bool:
    """Is the normalized ``source`` code inside ``policy_class``'s subtree?

    ``path`` holds the codes from ``source`` up to the scheme's root, or
    is ``None`` when the scheme does not hold ``source``.  With a scheme
    we follow real parent pointers; without one we fall back to
    code-prefix containment (``05C40`` is within ``05C`` and ``05``),
    which matches MSC-style hierarchical codes.
    """
    target = normalize_code(policy_class)
    if source == target:
        return True
    if path is not None and target in scheme:
        return target in path
    return source.startswith(target)


def parse_policy(text: str) -> list[PolicyDirective]:
    """Parse a policy text chunk into ordered directives.

    Raises :class:`~repro.core.errors.PolicyParseError` on malformed
    lines so bad policies fail loudly at save time, not at link time.
    """
    directives: list[PolicyDirective] = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        action = parts[0].lower()
        if action not in _ACTIONS:
            raise PolicyParseError(line_number, raw_line, "unknown action")
        if len(parts) < 2:
            raise PolicyParseError(line_number, raw_line, "missing concept")
        # The concept may be a quoted multi-word phrase.
        concept_token, classes_tokens = _split_concept(parts[1:], line_number, raw_line)
        if concept_token == "*":
            concept: tuple[str, ...] | None = None
        else:
            concept = canonicalize_phrase(concept_token)
            if not concept:
                raise PolicyParseError(line_number, raw_line, "empty concept")
        classes = tuple(normalize_code(code) for code in classes_tokens)
        directives.append(PolicyDirective(action=action, concept=concept, classes=classes))
    return directives


def _split_concept(
    tokens: list[str], line_number: int, raw_line: str
) -> tuple[str, list[str]]:
    """Separate the (possibly quoted) concept token from class codes."""
    first = tokens[0]
    if not first.startswith('"'):
        return first, tokens[1:]
    # Re-join quoted phrase: forbid "even number" 11
    joined: list[str] = []
    for index, token in enumerate(tokens):
        joined.append(token)
        if token.endswith('"') and (index > 0 or len(token) > 1):
            phrase = " ".join(joined)[1:-1]
            if not phrase:
                raise PolicyParseError(line_number, raw_line, "empty quoted concept")
            return phrase, tokens[index + 1 :]
    raise PolicyParseError(line_number, raw_line, "unterminated quote")


@dataclass
class LinkingPolicy:
    """Parsed policy plus the raw text chunk it came from."""

    raw: str
    directives: list[PolicyDirective] = field(default_factory=list)

    @classmethod
    def from_text(cls, text: str) -> "LinkingPolicy":
        return cls(raw=text, directives=parse_policy(text))

    def allows(
        self,
        concept: Sequence[str],
        source_classes: Sequence[str],
        scheme: ClassificationScheme | None = None,
    ) -> bool:
        """Evaluate the directives; last match wins; default permit."""
        return self.permits(concept, SourceScope(source_classes, scheme))

    def permits(self, concept: Sequence[str], source: SourceScope) -> bool:
        """:meth:`allows` for a source whose scope is already built."""
        verdict = True
        for directive in self.directives:
            if directive.matches(concept, source):
                verdict = directive.action == "permit"
        return verdict


class LinkingPolicyTable:
    """The per-object policy store of Fig. 5 (object id -> text chunk)."""

    def __init__(self, scheme: ClassificationScheme | None = None) -> None:
        self._policies: dict[int, LinkingPolicy] = {}
        self._scheme = scheme

    def set_policy(self, object_id: int, text: str) -> None:
        """Attach (or replace) the policy text for ``object_id``.

        An empty text removes the policy.
        """
        if text.strip():
            self._policies[object_id] = LinkingPolicy.from_text(text)
        else:
            self._policies.pop(object_id, None)

    def policy_for(self, object_id: int) -> LinkingPolicy | None:
        """The parsed policy of an object, or None."""
        return self._policies.get(object_id)

    def raw_policy(self, object_id: int) -> str:
        """The stored policy text chunk (empty when none)."""
        policy = self._policies.get(object_id)
        return policy.raw if policy else ""

    def remove(self, object_id: int) -> None:
        """Delete an object's policy if present."""
        self._policies.pop(object_id, None)

    def holders(self) -> KeysView[int]:
        """Live view of the ids that carry a policy, for O(1) membership.

        Only these can be dropped by :meth:`filter_candidates`.
        """
        return self._policies.keys()

    def allows(
        self,
        target_id: int,
        concept: Sequence[str],
        source_classes: Sequence[str],
    ) -> bool:
        """May a source with ``source_classes`` link ``concept`` to target?"""
        policy = self._policies.get(target_id)
        if policy is None:
            return True
        return policy.allows(concept, source_classes, self._scheme)

    def scope(self, source_classes: Sequence[str]) -> SourceScope:
        """The scope of a source with ``source_classes`` under this scheme."""
        return SourceScope(source_classes, self._scheme)

    def filter_candidates(
        self,
        candidates: Iterable[int],
        concept: Sequence[str],
        source: SourceScope,
    ) -> tuple[int, ...]:
        """Drop candidates whose policies reject this link.

        ``source`` is the linking entry's :meth:`scope`.  Only a target
        that carries a policy can be dropped, so when none of the
        candidates has one they come back unchanged, without evaluating
        a directive.
        """
        candidates = tuple(candidates)
        if self.holders().isdisjoint(candidates):
            return candidates
        policies = self._policies
        return tuple(
            target_id
            for target_id in candidates
            if (policy := policies.get(target_id)) is None or policy.permits(concept, source)
        )

    def __len__(self) -> int:
        return len(self._policies)

    def object_ids(self) -> list[int]:
        """Ids of all objects that carry a policy."""
        return sorted(self._policies)
