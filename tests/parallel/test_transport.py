"""Pickle round-trips for everything that crosses an OS pipe.

The multi-process kernel ships two protocol layers between the
coordinator and its workers: the query protocol of ``FF_APPLYP``
(:mod:`repro.parallel.messages`, wrapped in ``ToChild``/``FromChild``)
and the transport envelopes (:mod:`repro.runtime.wire`).  These tests
lock the wire format down: every message type must survive
``pickle.dumps``/``loads`` unchanged — including serialized plan
functions, whose dict form is what makes code shipping real.
"""

import pickle

import pytest

from repro import QUERY1_SQL, QUERY2_SQL, QueryOptions, WSMED
from repro.algebra.plan import PlanFunction
from repro.fdb.types import BOOLEAN, CHARSTRING, INTEGER, REAL, AtomicType
from repro.parallel import messages
from repro.runtime import wire


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


END = messages.EndOfCall(child="q3", seq=7, rows=15, service_time=0.82)

QUERY_MESSAGES = [
    messages.ShipPlanFunction({"name": "pf1", "param_schema": [], "body": {}}, span=4),
    messages.ParamTuple(seq=3, row=("Georgia", 15.0), span=9),
    messages.ParamBatch(seq_start=4, rows=(("a",), ("b",)), span=-1),
    messages.Shutdown(reason="query finished"),
    messages.ReadyToReceive(),
    messages.ResultTuple(child="q2", row=("Atlanta", "GA"), seq=5),
    messages.ResultBatch(child="q2", rows=(("x",), ("y",)), end_of_calls=(END,)),
    END,
    messages.ChildError(child="q4", message="boom"),
    messages.CallFailed(child="q4", seq=2, row=("AL",), message="timeout"),
    messages.ChildDied(child="q5", reason="worker died"),
    messages.InputAvailable(row=(1, 2), epoch=3),
    messages.InputExhausted(epoch=3),
    messages.InputFailed(message="upstream failed", epoch=1),
]

WIRE_ENVELOPES = [
    wire.AnchorClock(model_now=12.5, time_scale=0.001),
    wire.RegisterFunctions(payload=b"\x80\x04]", stubs=("getallstates",)),
    wire.RegisterServices(payload=b"\x80\x04N.", seed=2009, fault_rate=0.05),
    wire.SpawnChild(
        child_id=3,
        name="q7",
        costs=None,
        cache_config=None,
        retries=2,
        retry_backoff=0.25,
        tracing=True,
        span_base=3_000_000,
    ),
    wire.RebindChild(child_id=3, retries=1, tracing=False, span_base=0),
    wire.ToChild(child_id=3, payload=messages.ParamTuple(seq=0, row=("GA",))),
    wire.CancelChild(child_id=3),
    wire.Ping(seq=41),
    wire.BrokerResponse(request_id=17, payload=("rows",), error=None),
    wire.BrokerResponse(request_id=18, payload=None, error=("fault", "down", True)),
    wire.ShutdownWorker(reason="kernel shutdown"),
    wire.WorkerReady(worker_id=1, pid=4242),
    wire.FromChild(child_id=3, payload=messages.ResultTuple(child="q7", row=(1,))),
    wire.ChildExited(child_id=3, error=None),
    wire.ChildExited(child_id=4, error="ValueError: bad row"),
    wire.BrokerRequest(
        request_id=17,
        child_id=3,
        uri="geo.wsdl",
        service="GeoPlaces",
        operation="GetPlaceList",
        arguments=("Decatur, GA", 100, "true"),
        obs_span=3_000_017,
    ),
    wire.TraceEvents(child_id=3, events=((1.5, "service_call", (("calls", 1),)),)),
    wire.SpanBatch(child_id=3, payload=b"\x80\x04]."),
    wire.CacheSnapshot(child_id=3, counters=(("hits", 4), ("misses", 2))),
    wire.Pong(seq=41, worker_id=1),
]


@pytest.mark.parametrize(
    "message", QUERY_MESSAGES, ids=lambda m: type(m).__name__
)
def test_query_protocol_message_roundtrips(message) -> None:
    assert roundtrip(message) == message


@pytest.mark.parametrize(
    "envelope", WIRE_ENVELOPES, ids=lambda e: type(e).__name__
)
def test_wire_envelope_roundtrips(envelope) -> None:
    assert roundtrip(envelope) == envelope


def test_wire_module_exports_are_covered() -> None:
    """Adding an envelope without a round-trip test should fail here."""
    from dataclasses import is_dataclass

    declared = {
        name
        for name, value in vars(wire).items()
        if is_dataclass(value) and not name.startswith("_")
    }
    covered = {type(envelope).__name__ for envelope in WIRE_ENVELOPES}
    assert declared == covered


def test_messages_module_exports_are_covered() -> None:
    from dataclasses import is_dataclass

    declared = {
        name
        for name, value in vars(messages).items()
        if is_dataclass(value) and not name.startswith("_")
    }
    covered = {type(message).__name__ for message in QUERY_MESSAGES}
    assert declared == covered


# -- serialized plan functions ------------------------------------------------


@pytest.fixture(scope="module")
def wsmed() -> WSMED:
    system = WSMED(profile="fast")
    system.import_all()
    return system


def _plan_functions(wsmed, sql, **kwargs) -> list[PlanFunction]:
    plan = wsmed.plan(sql, options=QueryOptions(**kwargs))
    found = []

    def walk(node) -> None:
        plan_function = getattr(node, "plan_function", None)
        if isinstance(plan_function, PlanFunction):
            found.append(plan_function)
        for attribute in ("child", "left", "right"):
            sub = getattr(node, attribute, None)
            if sub is not None:
                walk(sub)
        if isinstance(plan_function, PlanFunction):
            walk(plan_function.body)

    walk(plan)
    return found


@pytest.mark.parametrize(
    "sql", [QUERY1_SQL, QUERY2_SQL], ids=["query1", "query2"]
)
def test_serialized_plan_functions_roundtrip(wsmed, sql) -> None:
    functions = _plan_functions(wsmed, sql, mode="parallel", fanouts=[3, 2])
    assert functions, "parallel plans must contain plan functions"
    for function in functions:
        data = function.to_dict()
        assert roundtrip(data) == data
        rebuilt = PlanFunction.from_dict(roundtrip(data))
        assert rebuilt.to_dict() == data
        assert rebuilt.name == function.name
        assert rebuilt.param_schema == function.param_schema


def test_ship_plan_function_message_roundtrips_with_real_payload(wsmed) -> None:
    function = _plan_functions(wsmed, QUERY1_SQL, mode="parallel", fanouts=[5, 4])[0]
    message = messages.ShipPlanFunction(function.to_dict(), span=12)
    assert roundtrip(message) == message


# -- type-system singletons ---------------------------------------------------


@pytest.mark.parametrize(
    "atomic", [INTEGER, REAL, CHARSTRING, BOOLEAN], ids=lambda t: t.name
)
def test_atomic_types_stay_singletons_across_pickling(atomic) -> None:
    """Type objects are compared by identity throughout the interpreter;
    a worker process unpickling a FunctionDef must get the *same*
    AtomicType objects, not equal copies."""
    restored = roundtrip(atomic)
    assert restored is atomic
    assert roundtrip((atomic, atomic))[0] is atomic


def test_unknown_atomic_type_roundtrips_by_value() -> None:
    """Non-singleton atoms (none exist today) still travel correctly."""
    original = AtomicType("Datetime")
    assert roundtrip(original) == original
