"""The NNexus core: automatic invocation linking.

Public surface re-exported here; see :class:`repro.core.linker.NNexus`
for the main entry point.
"""

from repro.core.cache import RenderCache
from repro.core.classification import (
    ClassificationGraph,
    ClassificationSteering,
    SteeringResult,
    INFINITE_DISTANCE,
)
from repro.core.concept_map import ConceptMap
from repro.core.config import DomainConfig, NNexusConfig
from repro.core.errors import (
    DuplicateObjectError,
    NNexusError,
    PolicyParseError,
    UnknownObjectError,
)
from repro.core.invalidation import InvalidationIndex
from repro.core.keywords import KeywordCandidate, KeywordExtractor, extract_keywords
from repro.core.linker import NNexus
from repro.core.annotations import (
    annotations_to_json,
    document_to_annotations,
    links_from_annotations,
)
from repro.core.batch import BatchLinker, BatchReport
from repro.core.suggest import PolicySuggester, PolicySuggestion
from repro.core.models import (
    Candidate,
    ConceptLabel,
    CorpusObject,
    Link,
    LinkedDocument,
    Match,
)
from repro.core.policies import LinkingPolicy, LinkingPolicyTable, parse_policy
from repro.core.render import (
    link_table,
    render_annotations,
    render_html,
    render_markdown,
)
from repro.core.tokenizer import Tokenizer, TokenizedText

__all__ = [
    "NNexus",
    "NNexusConfig",
    "DomainConfig",
    "CorpusObject",
    "ConceptLabel",
    "Candidate",
    "Link",
    "LinkedDocument",
    "Match",
    "ConceptMap",
    "InvalidationIndex",
    "RenderCache",
    "ClassificationGraph",
    "ClassificationSteering",
    "SteeringResult",
    "INFINITE_DISTANCE",
    "LinkingPolicy",
    "LinkingPolicyTable",
    "parse_policy",
    "Tokenizer",
    "TokenizedText",
    "KeywordExtractor",
    "KeywordCandidate",
    "extract_keywords",
    "PolicySuggester",
    "PolicySuggestion",
    "BatchLinker",
    "BatchReport",
    "document_to_annotations",
    "annotations_to_json",
    "links_from_annotations",
    "render_html",
    "render_markdown",
    "render_annotations",
    "link_table",
    "NNexusError",
    "DuplicateObjectError",
    "UnknownObjectError",
    "PolicyParseError",
]
