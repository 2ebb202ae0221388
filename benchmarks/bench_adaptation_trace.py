"""Figs 18-20 — the adaptation dynamics of one AFF_APPLYP run.

The paper illustrates the operator's life cycle: the init stage builds a
binary tree (Fig 18), after the first monitoring cycle each non-leaf
process adds p children (Fig 19), and with the drop stage enabled a
process that observes a slowdown drops a child and its subtree (Fig 20).
This bench replays a drop-enabled run and prints the decision timeline
reconstructed from the execution trace.
"""

from repro import AdaptationParams, QueryOptions

from benchmarks.harness import QUERY1_SQL, wsmed

TRACE_KINDS = ("init_stage", "add_stage", "drop_stage", "adapt_stop")


def _run():
    adaptation = AdaptationParams(p=1, drop_stage=True, max_fanout=10)
    result = wsmed().sql(
        QUERY1_SQL, options=QueryOptions(mode="adaptive", adaptation=adaptation)
    )
    events = [e for e in result.trace if e.kind in TRACE_KINDS]
    return result, events


def _format(events):
    lines = ["Adaptation timeline (Figs 18-20)"]
    for event in events:
        details = ", ".join(
            f"{key}={value}" for key, value in sorted(event.data.items())
        )
        lines.append(f"  t={event.time:8.2f}  {event.kind:<11} {details}")
    return "\n".join(lines)


def test_adaptation_trace(benchmark) -> None:
    result, events = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(_format(events))

    kinds = [event.kind for event in events]
    # Fig 18: every pool starts with an init stage building a binary tree.
    assert kinds[0] == "init_stage"
    init_events = [e for e in events if e.kind == "init_stage"]
    assert all(e.data["children"] == 2 for e in init_events)
    # Fig 19: add stages follow (p=1 -> one child per stage).
    add_events = [e for e in events if e.kind == "add_stage"]
    assert add_events
    assert all(e.data["added"] == 1 for e in add_events)
    # The coordinator's first add stage comes after its init stage.
    q0_init = next(e for e in init_events if e.data["process"] == "q0")
    q0_adds = [e for e in add_events if e.data["process"] == "q0"]
    assert not q0_adds or q0_adds[0].time >= q0_init.time
    # Fig 20 / stop: every adapting pool eventually drops or stops.
    assert any(e.kind in ("drop_stage", "adapt_stop") for e in events)
    # The query still returns the right answer while adapting.
    assert len(result) == 360


def main() -> None:
    _, events = _run()
    print(_format(events))


if __name__ == "__main__":
    main()
