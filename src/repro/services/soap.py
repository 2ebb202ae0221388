"""SOAP-style encoding and decoding of operation payloads.

Providers return plain Python data (dicts / lists / atoms).  The broker
encodes that into a response XML document guided by the operation's WSDL
output schema, and the client side (``cwo``) decodes the XML back into the
functional DBMS value model (:class:`Record` / :class:`Sequence`) — the
structures the paper's generated OWFs navigate in Fig 2.  Round-tripping
through real XML text keeps the substrate honest: a schema mismatch fails
the same way a real doc/literal endpoint would.

Encoding writes the XML text directly rather than building an ElementTree;
its output is byte for byte what ``ET.tostring`` writes for that tree.
Decoding always parses the text with ``ET.fromstring``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any

from repro.fdb.types import AtomicType, BOOLEAN, INTEGER, REAL
from repro.fdb.values import Record, Sequence
from repro.services.wsdl import WsdlOperation, XsdElement
from repro.util.errors import WsdlError


def _atom_to_text(atom: AtomicType, value: Any) -> str:
    if not atom.accepts(value):
        raise WsdlError(f"value {value!r} does not match schema type {atom}")
    if atom is BOOLEAN:
        return "true" if value else "false"
    return str(value)


def _text_to_atom(atom: AtomicType, text: str) -> Any:
    if atom is BOOLEAN:
        if text not in ("true", "false", "1", "0"):
            raise WsdlError(f"invalid boolean literal {text!r}")
        return text in ("true", "1")
    if atom is INTEGER:
        return int(text)
    if atom is REAL:
        return float(text)
    return text


def _escape(text: str) -> str:
    """Escape character data exactly as ElementTree's serializer does."""
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _write(schema: XsdElement, data: Any, out: list[str]) -> None:
    """Append the XML text of one instance of ``schema`` holding ``data``.

    The text is byte for byte what ``ET.tostring`` writes for the same
    tree: children in schema order, ``&<>`` escaped in character data and
    ``<name />`` for an element with neither text nor children.  Payload
    checks run in the same order as building that tree would, so a bad
    payload raises the same :class:`WsdlError`.
    """
    name = schema.name
    atom = schema.atom
    if atom is not None:
        text = _atom_to_text(atom, data)
        out.append(f"<{name}>{_escape(text)}</{name}>" if text else f"<{name} />")
        return
    if not isinstance(data, dict):
        raise WsdlError(
            f"element {name!r} is complex; expected a dict payload, "
            f"got {type(data).__name__}"
        )
    unknown = set(data) - schema.child_names
    if unknown:
        raise WsdlError(
            f"payload for {name!r} has keys not in schema: {sorted(unknown)}"
        )
    opened = len(out)
    out.append(f"<{name}>")
    for child in schema.complex.children:
        if child.repeated:
            instances = data.get(child.name, [])
            if not isinstance(instances, list):
                raise WsdlError(
                    f"repeated element {child.name!r} expects a list payload"
                )
            for instance in instances:
                _write(child, instance, out)
        else:
            if child.name not in data:
                raise WsdlError(
                    f"payload for {name!r} is missing {child.name!r}"
                )
            _write(child, data[child.name], out)
    if len(out) == opened + 1:
        out[opened] = f"<{name} />"
    else:
        out.append(f"</{name}>")


def _encode(schema: XsdElement, data: Any) -> bytes:
    out: list[str] = []
    _write(schema, data, out)
    # ElementTree encodes with "xmlcharrefreplace"; so must we, for the
    # code points UTF-8 cannot carry (lone surrogates).
    return "".join(out).encode("utf-8", "xmlcharrefreplace")


def encode_response(operation: WsdlOperation, payload: Any) -> bytes:
    """Encode a provider payload as response XML per the output schema."""
    return _encode(operation.output_element, payload)


def encode_request(operation: WsdlOperation, arguments: list[Any]) -> bytes:
    """Encode positional call arguments as a request document."""
    parameters = operation.input_parameters()
    if len(arguments) != len(parameters):
        raise WsdlError(
            f"operation {operation.name!r} takes {len(parameters)} arguments, "
            f"got {len(arguments)}"
        )
    payload = {name: value for (name, _), value in zip(parameters, arguments)}
    return _encode(operation.input_element, payload)


def decode_request(operation: WsdlOperation, text: bytes) -> list[Any]:
    """Decode a request document back to positional arguments."""
    record = _element_to_value(ET.fromstring(text), operation.input_element)
    return [record[name] for name, _ in operation.input_parameters()]


def _element_to_value(node: ET.Element, schema: XsdElement) -> Any:
    atom = schema.atom
    if atom is not None:
        return _text_to_atom(atom, node.text or "")
    attrs: dict[str, Any] = {}
    instances: dict[str, list[ET.Element]] = {}
    for child_node in node:
        instances.setdefault(child_node.tag, []).append(child_node)
    for child in schema.complex.children:
        nodes = instances.get(child.name, [])
        if child.repeated:
            attrs[child.name] = Sequence(
                [_element_to_value(n, child) for n in nodes]
            )
        elif nodes:
            attrs[child.name] = _element_to_value(nodes[0], child)
        else:
            raise WsdlError(
                f"response element {node.tag!r} is missing child {child.name!r}"
            )
    return Record(attrs)


def decode_response(operation: WsdlOperation, text: bytes) -> Sequence:
    """Decode response XML into the value model.

    The result is a :class:`Sequence` holding the converted response
    record, matching the paper's Fig 2 where the output of ``cwo`` is a
    sequence the OWF iterates with the ``in`` operator.
    """
    root = ET.fromstring(text)
    if root.tag != operation.output_element.name:
        raise WsdlError(
            f"expected response element {operation.output_element.name!r}, "
            f"got {root.tag!r}"
        )
    return Sequence([_element_to_value(root, operation.output_element)])


def count_rows(schema: XsdElement, payload: Any) -> int:
    """Number of result rows in a payload: instances of the innermost
    repeated element (1 when the schema has no repeated part).

    The broker uses this for the per-row component of the service time.
    """
    if not schema.has_repeated:
        return 1
    total = 0
    for child in schema.complex.children:
        if child.repeated:
            instances = payload.get(child.name, []) if isinstance(payload, dict) else []
            total += sum(count_rows(child, instance) for instance in instances)
        elif child.has_repeated and isinstance(payload, dict):
            total += count_rows(child, payload.get(child.name, {}))
    return total
