"""Domain configuration (Section 3.1).

NNexus is configured with the set of *domains* (corpora) it may link
into: for each domain, how to build a URL to one of its entries, which
classification scheme its classes come from, and a *collection priority*
used to break ties when several domains define the same concept (the
Fig. 9 deployment links lecture notes against both PlanetMath and
MathWorld, "a collection priority configuration option determined the
outcome" when both defined a concept).

The paper's Perl implementation reads XML configuration files; we accept
the same shape through :func:`NNexusConfig.from_xml` and also plain
constructor calls.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import lru_cache
from string import Formatter

from repro.core.errors import ProtocolError, UnknownDomainError

__all__ = ["DomainConfig", "NNexusConfig"]


@dataclass(frozen=True)
class DomainConfig:
    """One linkable corpus.

    ``url_template`` may reference ``{object_id}`` and ``{title}``;
    lower ``priority`` numbers win ties (priority 1 beats priority 2).
    """

    name: str
    url_template: str = "#object-{object_id}"
    scheme: str = "msc"
    priority: int = 1

    def url_for(self, object_id: int, title: str = "") -> str:
        """Render this domain's URL template for one entry.

        The title is slugified only when the template names ``{title}``.
        """
        slug = _slugify(title) if _names_title(self.url_template) else ""
        return self.url_template.format(object_id=object_id, title=slug)


@lru_cache(maxsize=None)
def _names_title(template: str) -> bool:
    """True when a replacement field of ``template`` reads ``title``.

    Parsed the way ``str.format`` parses it, so ``{title!s}``,
    ``{title[0]}`` and a field nested in a format spec count, and a
    literal ``title`` or an escaped ``{{title}}`` does not.
    """
    for _, name, spec, _ in Formatter().parse(template):
        if name is not None and re.split(r"[.\[]", name, maxsplit=1)[0] == "title":
            return True
        if spec and _names_title(spec):
            return True
    return False


def _slugify(title: str) -> str:
    keep = [ch if (ch.isalnum()) else "-" for ch in title.strip()]
    slug = "".join(keep)
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-") or "entry"


@dataclass
class NNexusConfig:
    """Linker-wide settings.

    ``extra_escape_patterns`` extends the tokenizer's unlinkable-region
    rules — ``(name, regex)`` pairs for site-specific markup the default
    rules don't know (e.g. a wiki's ``{{templates}}``).
    """

    domains: dict[str, DomainConfig] = field(default_factory=dict)
    default_domain: str = "default"
    base_weight: float = 10.0
    link_first_occurrence_only: bool = True
    allow_self_links: bool = False
    extra_escape_patterns: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.default_domain not in self.domains:
            self.domains[self.default_domain] = DomainConfig(name=self.default_domain)

    def add_domain(self, domain: DomainConfig) -> None:
        """Register (or replace) a linkable domain."""
        self.domains[domain.name] = domain

    def domain(self, name: str) -> DomainConfig:
        """Look up a domain; raises UnknownDomainError when absent."""
        found = self.domains.get(name)
        if found is None:
            raise UnknownDomainError(name)
        return found

    def priority_of(self, name: str) -> int:
        """Collection priority of a domain (lower wins ties)."""
        return self.domain(name).priority

    # ------------------------------------------------------------------
    # Paper-compatible XML configuration files
    # ------------------------------------------------------------------
    @classmethod
    def from_xml(cls, xml_text: str) -> "NNexusConfig":
        """Parse a configuration document::

            <nnexus defaultdomain="planetmath" baseweight="10">
              <domain name="planetmath" priority="1" scheme="msc"
                      urltemplate="https://planetmath.org/{title}"/>
              <domain name="mathworld" priority="2" scheme="msc"
                      urltemplate="https://mathworld.wolfram.com/{title}.html"/>
            </nnexus>

        Unknown attributes are ignored, so documents that still carry the
        retired ``maxphraselength`` / ``phrasethreshold`` settings load.
        """
        try:
            root = ET.fromstring(xml_text)
        except ET.ParseError as exc:
            raise ProtocolError(f"bad configuration XML: {exc}") from exc
        if root.tag != "nnexus":
            raise ProtocolError(f"expected <nnexus> root, got <{root.tag}>")
        escapes: list[tuple[str, str]] = []
        for element in root.findall("escape"):
            name = element.get("name", "custom")
            pattern = element.get("pattern")
            if not pattern:
                raise ProtocolError("<escape> requires a pattern attribute")
            escapes.append((name, pattern))
        domains: dict[str, DomainConfig] = {}
        for element in root.findall("domain"):
            name = element.get("name")
            if not name:
                raise ProtocolError("<domain> requires a name attribute")
            domains[name] = DomainConfig(
                name=name,
                url_template=element.get("urltemplate", "#object-{object_id}"),
                scheme=element.get("scheme", "msc"),
                priority=int(element.get("priority", "1")),
            )
        default_domain = root.get("defaultdomain") or next(iter(domains), "default")
        return cls(
            domains=domains,
            default_domain=default_domain,
            base_weight=float(root.get("baseweight", "10")),
            link_first_occurrence_only=root.get("firstoccurrence", "1") != "0",
            allow_self_links=root.get("selflinks", "0") == "1",
            extra_escape_patterns=escapes,
        )
