"""The direct SOAP encoder writes the bytes ElementTree would.

``soap.encode_request`` and ``soap.encode_response`` write XML text
without building a tree.  The reference below is the tree-building encoder
they replaced: ``ET.SubElement`` per value, then ``ET.tostring``.  For any
payload, valid or not, both must produce the same bytes or raise the same
:class:`WsdlError` with the same message.
"""

import pickle
import xml.etree.ElementTree as ET
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fdb.types import AtomicType, BOOLEAN, CHARSTRING, INTEGER, REAL
from repro.services import soap
from repro.services.providers import ALL_PROVIDERS
from repro.services.wsdl import WsdlOperation, XsdComplex, XsdElement, parse_wsdl
from repro.util.errors import WsdlError

# -- reference encoder --------------------------------------------------------


def reference_atom_to_text(atom: AtomicType, value: Any) -> str:
    if not atom.accepts(value):
        raise WsdlError(f"value {value!r} does not match schema type {atom}")
    if atom is BOOLEAN:
        return "true" if value else "false"
    return str(value)


def reference_build(schema: XsdElement, data: Any, parent: ET.Element) -> None:
    node = ET.SubElement(parent, schema.name)
    if schema.is_atomic:
        node.text = reference_atom_to_text(schema.atom, data)
        return
    if not isinstance(data, dict):
        raise WsdlError(
            f"element {schema.name!r} is complex; expected a dict payload, "
            f"got {type(data).__name__}"
        )
    unknown = set(data) - {child.name for child in schema.complex.children}
    if unknown:
        raise WsdlError(
            f"payload for {schema.name!r} has keys not in schema: {sorted(unknown)}"
        )
    for child in schema.complex.children:
        if child.repeated:
            instances = data.get(child.name, [])
            if not isinstance(instances, list):
                raise WsdlError(
                    f"repeated element {child.name!r} expects a list payload"
                )
            for instance in instances:
                reference_build(child, instance, node)
        else:
            if child.name not in data:
                raise WsdlError(
                    f"payload for {schema.name!r} is missing {child.name!r}"
                )
            reference_build(child, data[child.name], node)


def reference_encode_response(operation: WsdlOperation, payload: Any) -> bytes:
    holder = ET.Element("soap-body")
    reference_build(operation.output_element, payload, holder)
    return ET.tostring(holder[0], encoding="utf-8")


def reference_encode_request(operation: WsdlOperation, arguments: list) -> bytes:
    parameters = operation.input_parameters()
    if len(arguments) != len(parameters):
        raise WsdlError(
            f"operation {operation.name!r} takes {len(parameters)} arguments, "
            f"got {len(arguments)}"
        )
    payload = {name: value for (name, _), value in zip(parameters, arguments)}
    holder = ET.Element("soap-body")
    reference_build(operation.input_element, payload, holder)
    return ET.tostring(holder[0], encoding="utf-8")


def outcome(encode, *args):
    """Encoded bytes, or the type and message of the error raised."""
    try:
        return "ok", encode(*args)
    except (WsdlError, TypeError) as error:
        return type(error).__name__, str(error)


# -- schemas ------------------------------------------------------------------

PROVIDER_OPERATIONS = [
    operation
    for provider in ALL_PROVIDERS
    for operation in parse_wsdl(provider.wsdl, provider.uri).operations.values()
]

ROW = XsdElement(
    name="Row",
    repeated=True,
    complex=XsdComplex(
        (
            XsdElement(name="text", atom=CHARSTRING),
            XsdElement(name="count", atom=INTEGER),
            XsdElement(name="score", atom=REAL),
            XsdElement(name="flag", atom=BOOLEAN),
            XsdElement(name="tags", atom=CHARSTRING, repeated=True),
            XsdElement(name="Empty", complex=XsdComplex(())),
        )
    ),
)
PROBE = WsdlOperation(
    name="Probe",
    input_element=XsdElement(
        name="Probe",
        complex=XsdComplex(
            (
                XsdElement(name="q", atom=CHARSTRING),
                XsdElement(name="n", atom=INTEGER),
                XsdElement(name="x", atom=REAL),
                XsdElement(name="b", atom=BOOLEAN),
            )
        ),
    ),
    output_element=XsdElement(
        name="ProbeResponse",
        complex=XsdComplex(
            (
                XsdElement(name="Result", complex=XsdComplex((ROW,))),
                XsdElement(name="note", atom=CHARSTRING),
            )
        ),
    ),
)
OPERATIONS = PROVIDER_OPERATIONS + [PROBE]

# -- payload strategies -------------------------------------------------------

texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "&", "<>", "a&b<c>d", "\"quoted\" 'single'", "Zürich",
                     "東京", "tab\there", "line\nbreak", "\ud800", "&amp;"]),
)
ATOM_VALUES = {
    CHARSTRING: texts,
    INTEGER: st.integers(min_value=-(10**12), max_value=10**12),
    REAL: st.one_of(st.floats(), st.integers(min_value=-1000, max_value=1000)),
    BOOLEAN: st.booleans(),
}
# Values of the wrong shape for some schema position.
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False),
    texts,
    st.tuples(st.integers()),
    st.just({}),
)


def valid_payload(schema: XsdElement):
    """Payloads that match ``schema``."""
    if schema.is_atomic:
        return ATOM_VALUES[schema.atom]
    fields = {}
    for child in schema.complex.children:
        one = valid_payload(_single(child))
        fields[child.name] = st.lists(one, max_size=3) if child.repeated else one
    return st.fixed_dictionaries(fields)


def loose_payload(schema: XsdElement):
    """Payloads that mostly match ``schema`` but may break it anywhere:
    wrong atom types, missing or unknown keys, non-list repeated parts,
    non-dict complex parts."""
    if schema.is_atomic:
        return st.one_of(ATOM_VALUES[schema.atom], junk)
    fields = {}
    for child in schema.complex.children:
        one = loose_payload(_single(child))
        fields[child.name] = (
            st.one_of(st.lists(one, max_size=2), st.tuples(one), junk)
            if child.repeated
            else one
        )
    return st.one_of(
        st.fixed_dictionaries(
            {},
            optional={
                **fields,
                "Bogus": st.integers(),
                "zz_extra": st.none(),
            },
        ),
        st.fixed_dictionaries(fields),
        junk,
    )


def _single(schema: XsdElement) -> XsdElement:
    """The same element, not repeated (one instance of a repeated one)."""
    if not schema.repeated:
        return schema
    return XsdElement(name=schema.name, atom=schema.atom, complex=schema.complex)


# -- byte identity ------------------------------------------------------------


@given(data=st.data(), operation=st.sampled_from(OPERATIONS))
@settings(max_examples=150, deadline=None)
def test_encode_response_bytes_equal_elementtree(data, operation) -> None:
    payload = data.draw(valid_payload(operation.output_element))
    encoded = soap.encode_response(operation, payload)
    assert encoded == reference_encode_response(operation, payload)


@given(data=st.data(), operation=st.sampled_from(OPERATIONS))
@settings(max_examples=150, deadline=None)
def test_encode_request_bytes_equal_elementtree(data, operation) -> None:
    arguments = [
        data.draw(ATOM_VALUES[atom]) for _, atom in operation.input_parameters()
    ]
    encoded = soap.encode_request(operation, arguments)
    assert encoded == reference_encode_request(operation, arguments)


@example(text="")
@example(text="a&b<c>d\"e'f")
@example(text="\ud800 lone surrogate")
@given(text=texts)
@settings(max_examples=60, deadline=None)
def test_text_escaping_equals_elementtree(text) -> None:
    arguments = [text, 0, 0.5, False]
    assert soap.encode_request(PROBE, arguments) == reference_encode_request(
        PROBE, arguments
    )


def test_empty_elements_are_self_closed() -> None:
    payload = {"Result": {"Row": []}, "note": ""}
    encoded = soap.encode_response(PROBE, payload)
    assert encoded == b"<ProbeResponse><Result /><note /></ProbeResponse>"
    assert encoded == reference_encode_response(PROBE, payload)


# -- error parity -------------------------------------------------------------


@given(data=st.data(), operation=st.sampled_from(OPERATIONS))
@settings(max_examples=300, deadline=None)
def test_encode_response_errors_equal_elementtree(data, operation) -> None:
    payload = data.draw(loose_payload(operation.output_element))
    assert outcome(soap.encode_response, operation, payload) == outcome(
        reference_encode_response, operation, payload
    )


@given(
    data=st.data(),
    operation=st.sampled_from(OPERATIONS),
    extra=st.integers(min_value=-1, max_value=1),
)
@settings(max_examples=150, deadline=None)
def test_encode_request_errors_equal_elementtree(data, operation, extra) -> None:
    parameters = operation.input_parameters()
    arguments = [
        data.draw(st.one_of(ATOM_VALUES[atom], junk)) for _, atom in parameters
    ]
    if extra > 0:
        arguments.append("surplus")
    elif extra < 0 and arguments:
        arguments.pop()
    assert outcome(soap.encode_request, operation, arguments) == outcome(
        reference_encode_request, operation, arguments
    )


@pytest.mark.parametrize(
    "payload",
    [
        {"Result": {"Row": []}, "note": "x", "Bogus": 1},  # unknown key
        {"Result": {"Row": []}},  # missing key
        {"Result": {"Row": ()}, "note": "x"},  # repeated part not a list
        {"Result": [], "note": "x"},  # complex part not a dict
        {"Result": {"Row": []}, "note": 3},  # wrong atom type
        {"Result": {"Row": [{"text": "t", "count": True, "score": 1.0,
                             "flag": True, "tags": [], "Empty": {}}]},
         "note": "x"},  # bool is not an Integer
    ],
)
def test_each_bad_payload_raises_the_same_wsdl_error(payload) -> None:
    kind, message = outcome(soap.encode_response, PROBE, payload)
    assert kind == "WsdlError"
    assert (kind, message) == outcome(reference_encode_response, PROBE, payload)


# -- cached schema facts ------------------------------------------------------


def test_schema_facts_survive_pickling() -> None:
    # ProcessKernel ships operations to workers, so an element whose
    # derived facts are already cached must still pickle and compare equal.
    assert ROW.child_names == {"text", "count", "score", "flag", "tags", "Empty"}
    assert PROBE.output_element.has_repeated
    assert not PROBE.input_element.has_repeated
    clone = pickle.loads(pickle.dumps(PROBE))
    assert clone == PROBE
    assert clone.output_element.has_repeated
    payload = {"Result": {"Row": []}, "note": "n"}
    assert soap.encode_response(clone, payload) == soap.encode_response(
        PROBE, payload
    )
