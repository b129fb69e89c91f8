"""Tests for domain configuration and its XML round trip."""

import xml.etree.ElementTree as ET

import pytest

from repro.core.config import DomainConfig, NNexusConfig
from repro.core.errors import ProtocolError, UnknownDomainError


def to_xml(config: NNexusConfig) -> str:
    """Serialize the configuration as the paper-style XML document."""
    root = ET.Element(
        "nnexus",
        {
            "defaultdomain": config.default_domain,
            "baseweight": repr(config.base_weight),
            "firstoccurrence": "1" if config.link_first_occurrence_only else "0",
            "selflinks": "1" if config.allow_self_links else "0",
        },
    )
    for name, pattern in config.extra_escape_patterns:
        ET.SubElement(root, "escape", {"name": name, "pattern": pattern})
    for domain in config.domains.values():
        ET.SubElement(
            root,
            "domain",
            {
                "name": domain.name,
                "urltemplate": domain.url_template,
                "scheme": domain.scheme,
                "priority": str(domain.priority),
            },
        )
    return ET.tostring(root, encoding="unicode")


class TestDomainConfig:
    def test_url_template(self) -> None:
        domain = DomainConfig(
            name="planetmath",
            url_template="https://planetmath.org/{title}?id={object_id}",
        )
        assert domain.url_for(7, "Planar Graph") == (
            "https://planetmath.org/Planar-Graph?id=7"
        )

    def test_slug_collapses_punctuation(self) -> None:
        domain = DomainConfig(name="d", url_template="{title}")
        assert domain.url_for(1, "graph (set theory)") == "graph-set-theory"

    def test_empty_title_slug(self) -> None:
        domain = DomainConfig(name="d", url_template="{title}")
        assert domain.url_for(1, "") == "entry"

    @pytest.mark.parametrize(
        "template, slugged",
        [
            ("#object-{object_id}", False),
            ("https://x.org/{{title}}/{object_id}", False),
            ("https://x.org/title/{object_id:05d}", False),
            ("https://x.org/{title}", True),
            ("https://x.org/{title!s}?id={object_id}", True),
            ("https://x.org/{title[0]}/{title}", True),
            ("https://x.org/{object_id:>{title}}", True),
        ],
    )
    def test_slug_only_when_the_template_names_title(
        self, template, slugged, monkeypatch
    ) -> None:
        import repro.core.config as config

        # "7." slugs to "7", which the nested case reads as a width.
        expected = template.format(object_id=42, title=config._slugify("7."))
        calls = []
        original = config._slugify
        monkeypatch.setattr(
            config, "_slugify", lambda title: calls.append(title) or original(title)
        )
        domain = DomainConfig(name="d", url_template=template)
        assert domain.url_for(42, "7.") == expected
        assert bool(calls) is slugged


class TestNNexusConfig:
    def test_default_domain_created(self) -> None:
        config = NNexusConfig()
        assert config.domain("default").name == "default"

    def test_unknown_domain_raises(self) -> None:
        with pytest.raises(UnknownDomainError):
            NNexusConfig().domain("nope")

    def test_add_domain_and_priority(self) -> None:
        config = NNexusConfig()
        config.add_domain(DomainConfig(name="mw", priority=2))
        assert config.priority_of("mw") == 2


class TestXmlRoundTrip:
    def test_round_trip(self) -> None:
        config = NNexusConfig(
            domains={
                "planetmath": DomainConfig(
                    "planetmath", "https://planetmath.org/{title}", "msc", 1
                ),
                "mathworld": DomainConfig(
                    "mathworld", "https://mathworld.wolfram.com/{title}.html", "msc", 2
                ),
            },
            default_domain="planetmath",
            base_weight=5.0,
            allow_self_links=True,
        )
        parsed = NNexusConfig.from_xml(to_xml(config))
        assert parsed.default_domain == "planetmath"
        assert parsed.base_weight == 5.0
        assert parsed.allow_self_links
        assert parsed.domains["mathworld"].priority == 2
        assert parsed.domains["planetmath"].url_template == (
            "https://planetmath.org/{title}"
        )

    def test_parse_example_document(self) -> None:
        xml = (
            '<nnexus defaultdomain="planetmath" baseweight="10">'
            '<domain name="planetmath" priority="1" scheme="msc" '
            'urltemplate="https://planetmath.org/{title}"/>'
            "</nnexus>"
        )
        config = NNexusConfig.from_xml(xml)
        assert config.default_domain == "planetmath"
        assert config.domains["planetmath"].scheme == "msc"

    def test_bad_xml_raises(self) -> None:
        with pytest.raises(ProtocolError):
            NNexusConfig.from_xml("<nnexus")

    def test_wrong_root_raises(self) -> None:
        with pytest.raises(ProtocolError):
            NNexusConfig.from_xml("<other/>")

    def test_domain_without_name_raises(self) -> None:
        with pytest.raises(ProtocolError):
            NNexusConfig.from_xml("<nnexus><domain priority='1'/></nnexus>")

    def test_escape_patterns_round_trip(self) -> None:
        config = NNexusConfig(
            extra_escape_patterns=[("template", r"\{\{[^}]*\}\}")]
        )
        parsed = NNexusConfig.from_xml(to_xml(config))
        assert parsed.extra_escape_patterns == [("template", r"\{\{[^}]*\}\}")]

    def test_retired_phrase_index_attributes_ignored(self) -> None:
        xml = (
            '<nnexus defaultdomain="planetmath" baseweight="7" '
            'maxphraselength="3" phrasethreshold="5">'
            '<domain name="planetmath"/></nnexus>'
        )
        config = NNexusConfig.from_xml(xml)
        assert config.default_domain == "planetmath"
        assert config.base_weight == 7.0
        assert not hasattr(config, "max_phrase_length")
        assert not hasattr(config, "phrase_threshold")
        written = to_xml(config)
        assert "maxphraselength" not in written
        assert "phrasethreshold" not in written

    def test_escape_without_pattern_raises(self) -> None:
        with pytest.raises(ProtocolError):
            NNexusConfig.from_xml("<nnexus><escape name='x'/></nnexus>")


class TestCustomEscapeRules:
    def test_linker_honours_extra_escapes(self) -> None:
        from repro.core.linker import NNexus
        from repro.core.models import CorpusObject
        from repro.ontology.msc import build_small_msc

        config = NNexusConfig(
            extra_escape_patterns=[("template", r"\{\{[^}]*\}\}")]
        )
        linker = NNexus(scheme=build_small_msc(), config=config)
        linker.add_object(
            CorpusObject(5, "graph", defines=["graph"], classes=["05C99"], text="")
        )
        doc = linker.link_text(
            "a {{infobox graph}} but the graph itself links",
            source_classes=["05C99"],
        )
        assert doc.link_count == 1
        assert doc.links[0].char_start > 20  # the templated one was skipped
