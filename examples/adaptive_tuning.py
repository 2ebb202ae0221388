"""AFF_APPLYP in action: adaptive process trees (paper Sec. V.A).

Runs Query1 with the adaptive operator, prints the add/drop timeline each
non-leaf process decided locally, and compares the result to manual trees
— no fanout vector had to be chosen.
"""

from repro import QUERY1_SQL, AdaptationParams, QueryOptions, WSMED


def main() -> None:
    wsmed = WSMED(profile="paper")
    wsmed.import_all()

    adaptive = wsmed.sql(
        QUERY1_SQL,
        options=QueryOptions(
            mode="adaptive",
            adaptation=AdaptationParams(p=2, threshold=0.25, drop_stage=False),
            name="Query1",
        ),
    )
    print("adaptive run:")
    print(adaptive.summary())
    print()

    print("adaptation decisions (cf. paper Figs 18-19):")
    for event in adaptive.trace:
        if event.kind in ("init_stage", "add_stage", "drop_stage", "adapt_stop"):
            details = ", ".join(
                f"{key}={value}" for key, value in sorted(event.data.items())
            )
            print(f"  t={event.time:8.2f}  {event.kind:<11} {details}")
    print()

    print("monitoring cycles of the coordinator (avg time per tuple):")
    for event in adaptive.trace.events("cycle"):
        if event.data["process"] == "q0":
            print(f"  t={event.time:8.2f}  children={event.data['children']}  "
                  f"t_i={event.data['time_per_tuple']:.3f} s/tuple")
    print()

    # How close did adaptation get to hand-tuned trees?
    print("comparison against manual FF_APPLYP trees:")
    for fanouts in ([2, 2], [5, 4], [7, 7]):
        manual = wsmed.sql(
            QUERY1_SQL, options=QueryOptions(mode="parallel", fanouts=fanouts)
        )
        marker = " <- paper's best" if fanouts == [5, 4] else ""
        print(f"  manual {{{fanouts[0]},{fanouts[1]}}}: {manual.elapsed:7.1f} s{marker}")
    print(f"  adaptive     : {adaptive.elapsed:7.1f} s "
          f"(avg fanouts {[round(f, 1) for f in adaptive.tree.average_fanouts()]})")


if __name__ == "__main__":
    main()
