"""Tests for the XML wire protocol and framing."""

import io
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.errors import ProtocolError
from repro.core.models import CorpusObject
from repro.server.protocol import (
    MAX_REQUEST_TAGS,
    METHODS,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    frame,
    read_frame,
)


#: The large-budget CI step sets ``NNEXUS_MODEL_PROFILE=ci``.
ROUND_TRIP_EXAMPLES = 5_000 if os.environ.get("NNEXUS_MODEL_PROFILE") == "ci" else 150

#: Valid names (the protocol's own and made-up ones) and arbitrary text,
#: which is mostly not a valid element name.
field_names = st.one_of(
    st.sampled_from(("text", "classes", "format", "objectid", "policy", "limit")),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,8}", fullmatch=True),
    st.text(max_size=6),
)
#: Any text, control characters included, and line-ending-dense text.
phrases = st.one_of(
    st.text(st.characters(exclude_categories=("Cc", "Cs")), max_size=12),
    st.text(max_size=12),
    st.text(st.sampled_from("a <&>\"'\r\n\t"), max_size=12),
)


@st.composite
def corpus_objects(draw) -> CorpusObject:
    """Objects of any size up to a few entries past the tag cap."""
    near_cap = draw(st.booleans())
    if near_cap:
        # Every concept, synonym and class costs two '<'; the rest of the
        # request five to fifteen.  This straddles the cap.
        total = draw(st.integers(MAX_REQUEST_TAGS // 2 - 14, MAX_REQUEST_TAGS // 2))
        split = draw(st.integers(0, total))
        defines = [f"concept {i}" for i in range(split)]
        classes = [f"05C{i:04d}" for i in range(total - split)]
    else:
        defines = draw(st.lists(phrases, max_size=4))
        classes = draw(st.lists(phrases, max_size=3))
    return CorpusObject(
        object_id=draw(st.integers(-(2**63), 2**63)),
        title=draw(phrases),
        defines=defines,
        synonyms=draw(st.lists(phrases, max_size=3)),
        classes=classes,
        text=draw(phrases),
        domain=draw(phrases),
        linking_policy=draw(phrases),
    )


requests = st.builds(
    Request,
    method=st.sampled_from(METHODS),
    fields=st.dictionaries(field_names, phrases, max_size=4),
    obj=st.none() | corpus_objects(),
)


def sample_object() -> CorpusObject:
    return CorpusObject(
        object_id=7,
        title="even number",
        defines=["even number", "even"],
        synonyms=["even integer"],
        classes=["11A05"],
        text="An even number is divisible by two & more.",
        domain="planetmath",
        linking_policy="forbid even\npermit even 11\n",
    )


class TestRequestRoundTrip:
    def test_link_entry(self) -> None:
        request = Request(
            "linkEntry",
            fields={"text": "a planar graph", "classes": "05C10", "format": "html"},
        )
        decoded = decode_request(encode_request(request))
        assert decoded.method == "linkEntry"
        assert decoded.fields == request.fields
        assert decoded.obj is None

    def test_add_object(self) -> None:
        request = Request("addObject", obj=sample_object())
        decoded = decode_request(encode_request(request))
        assert decoded.obj == sample_object()

    def test_special_characters_survive(self) -> None:
        request = Request("linkEntry", fields={"text": 'x < y & "z" $a_1$'})
        decoded = decode_request(encode_request(request))
        assert decoded.fields["text"] == 'x < y & "z" $a_1$'

    def test_unknown_method_rejected_on_encode(self) -> None:
        with pytest.raises(ProtocolError):
            encode_request(Request("frobnicate"))

    def test_unknown_method_rejected_on_decode(self) -> None:
        with pytest.raises(ProtocolError):
            decode_request('<request method="frobnicate"/>')

    def test_wrong_root_rejected(self) -> None:
        with pytest.raises(ProtocolError):
            decode_request("<other/>")

    def test_bad_xml_rejected(self) -> None:
        with pytest.raises(ProtocolError):
            decode_request("<request")

    def test_object_requires_id(self) -> None:
        with pytest.raises(ProtocolError):
            decode_request('<request method="addObject"><object/></request>')

    @settings(
        max_examples=ROUND_TRIP_EXAMPLES,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(requests)
    def test_every_encodable_request_decodes(self, request: Request) -> None:
        """``encode_request`` refuses what ``decode_request`` would: a
        server cannot tag its reply to a request it cannot decode."""
        try:
            encoded = encode_request(request)
        except ProtocolError:
            return
        decoded = decode_request(encoded)
        assert decoded.method == request.method
        assert decoded.fields == request.fields
        assert decoded.obj == request.obj

    def test_carriage_returns_survive(self) -> None:
        request = Request("linkEntry", fields={"text": "a\r\nb\rc"})
        encoded = encode_request(request)
        assert "\r" not in encoded
        assert decode_request(encoded).fields["text"] == "a\r\nb\rc"

    @pytest.mark.parametrize(
        "request_",
        [
            Request("linkEntry", fields={"text": "nul \x00 byte"}),
            Request("linkEntry", fields={"text": "lone \ud800 surrogate"}),
            Request("linkEntry", fields={"two words": "x"}),
            Request("linkEntry", fields={"object": "x"}),
        ],
        ids=["control-char", "surrogate", "bad-name", "object-field"],
    )
    def test_undecodable_request_rejected_on_encode(self, request_: Request) -> None:
        with pytest.raises(ProtocolError):
            encode_request(request_)


class TestResponseRoundTrip:
    def test_ok_with_links(self) -> None:
        response = Response(
            status="ok",
            method="linkEntry",
            fields={"body": "<a>x</a>", "linkcount": "1"},
            links=[{"phrase": "graph", "target": "5", "domain": "pm", "url": "u"}],
        )
        decoded = decode_response(encode_response(response))
        assert decoded.ok
        assert decoded.fields["linkcount"] == "1"
        assert decoded.links[0]["target"] == "5"

    def test_error_response(self) -> None:
        response = Response(status="error", method="addObject", error="duplicate")
        decoded = decode_response(encode_response(response))
        assert not decoded.ok
        assert decoded.error == "duplicate"

    def test_error_code_and_retryable_round_trip(self) -> None:
        response = Response(
            status="error",
            method="ping",
            error="at capacity",
            code="overloaded",
            retryable=True,
        )
        decoded = decode_response(encode_response(response))
        assert decoded.code == "overloaded"
        assert decoded.retryable
        assert decoded.error == "at capacity"

    def test_nonretryable_code_round_trip(self) -> None:
        response = Response(
            status="error", method="ping", error="nope", code="bad-request"
        )
        decoded = decode_response(encode_response(response))
        assert decoded.code == "bad-request"
        assert not decoded.retryable

    def test_legacy_response_without_code_decodes(self) -> None:
        """Responses from pre-code servers default to no-code/non-retryable."""
        legacy = '<response status="error" method="ping"><error>x</error></response>'
        decoded = decode_response(legacy)
        assert decoded.code == ""
        assert not decoded.retryable

    @settings(max_examples=ROUND_TRIP_EXAMPLES, deadline=None)
    @given(st.text(st.sampled_from("ab <&>\"'\r\n\t\u00e9"), max_size=20))
    def test_text_round_trips_exactly(self, text: str) -> None:
        response = Response(
            status="ok", method="linkEntry", fields={"body": text}, links=[{"phrase": text}]
        )
        decoded = decode_response(encode_response(response))
        assert decoded.fields == {"body": text}
        assert decoded.links == [{"phrase": text}]

    def test_default_response_emits_no_new_attributes(self) -> None:
        """Old-shape responses encode byte-identically (wire compatibility)."""
        encoded = encode_response(Response(status="ok", method="ping"))
        assert "code" not in encoded
        assert "retryable" not in encoded


class TestHostileXml:
    ENTITY_BOMB = (
        '<!DOCTYPE r [<!ENTITY a "AAAA">]>'
        '<request method="linkEntry"><text>&a;&a;</text></request>'
    )

    def test_request_with_doctype_is_rejected(self) -> None:
        with pytest.raises(ProtocolError, match="DOCTYPE"):
            decode_request(self.ENTITY_BOMB)

    def test_response_with_doctype_is_rejected(self) -> None:
        hostile = (
            '<!DOCTYPE r [<!ENTITY a "AAAA">]>'
            '<response status="ok" method="ping"><pong>&a;</pong></response>'
        )
        with pytest.raises(ProtocolError, match="DOCTYPE"):
            decode_response(hostile)

    def test_request_with_too_many_tags_is_rejected(self) -> None:
        flood = '<request method="ping">' + "<f/>" * MAX_REQUEST_TAGS + "</request>"
        with pytest.raises(ProtocolError, match="tags"):
            decode_request(flood)

    def test_large_legitimate_request_is_under_the_tag_cap(self) -> None:
        # 8 '<' for the envelope, <object>, <title> and <body>, then 2 per
        # concept, synonym and class: the documented 4,996 entries fill
        # the cap exactly, and one more is refused.
        entries = (MAX_REQUEST_TAGS - 8) // 2
        assert entries == 4996

        def add_object(total: int) -> Request:
            return Request(
                "addObject",
                obj=CorpusObject(
                    object_id=1,
                    title="t",
                    defines=[f"concept {i}" for i in range(2000)],
                    synonyms=[f"synonym {i}" for i in range(2000)],
                    classes=[f"05C{i:04d}" for i in range(total - 4000)],
                    text="<" * 100_000,
                ),
            )

        at_cap = add_object(entries)
        encoded = encode_request(at_cap)
        assert encoded.count("<") == MAX_REQUEST_TAGS
        assert decode_request(encoded).obj == at_cap.obj
        # One more is refused by the encoder, before it can be sent.
        with pytest.raises(ProtocolError, match="tags"):
            encode_request(add_object(entries + 1))

    def test_doctype_text_in_a_field_still_round_trips(self) -> None:
        request = Request("linkEntry", fields={"text": "<!DOCTYPE html> page"})
        assert decode_request(encode_request(request)).fields["text"] == (
            "<!DOCTYPE html> page"
        )


class TestFraming:
    def test_frame_read_frame(self) -> None:
        payload = frame("hello ünïcode")
        stream = io.BytesIO(payload)
        assert read_frame(stream.read) == "hello ünïcode"

    def test_eof_between_messages_is_none(self) -> None:
        stream = io.BytesIO(b"")
        assert read_frame(stream.read) is None

    def test_eof_mid_frame_raises(self) -> None:
        payload = frame("hello")[:-2]
        stream = io.BytesIO(payload)
        with pytest.raises(ProtocolError):
            read_frame(stream.read)

    def test_bad_header_raises(self) -> None:
        stream = io.BytesIO(b"helloworld" + b"x" * 5)
        with pytest.raises(ProtocolError):
            read_frame(stream.read)

    def test_non_utf8_payload_raises_protocol_error(self) -> None:
        stream = io.BytesIO(b"0000000002\xff\xfe")
        with pytest.raises(ProtocolError, match="UTF-8"):
            read_frame(stream.read)

    def test_multiple_frames_sequential(self) -> None:
        stream = io.BytesIO(frame("one") + frame("two"))
        assert read_frame(stream.read) == "one"
        assert read_frame(stream.read) == "two"
        assert read_frame(stream.read) is None

    @given(st.text(max_size=500))
    def test_any_text_survives_framing(self, message: str) -> None:
        stream = io.BytesIO(frame(message))
        assert read_frame(stream.read) == message

    @given(st.lists(st.text(max_size=50), max_size=10))
    def test_frame_stream_round_trip(self, messages: list[str]) -> None:
        stream = io.BytesIO(b"".join(frame(m) for m in messages))
        decoded = []
        while True:
            message = read_frame(stream.read)
            if message is None:
                break
            decoded.append(message)
        assert decoded == messages
