"""The paper's motivating Query2 (Secs. I and II.B).

Finds the zip code and state of 'USAF Academy' by composing GetAllStates,
GetInfoByState, the getzipcode helping function and GetPlacesInside.  The
naive plan makes more than 5000 dependent web-service calls sequentially
(~2400 model seconds); the parallel plan roughly halves that — the ceiling
the paper observed, caused by the USZip/Zipcodes endpoints degrading under
concurrent load.
"""

from repro import QUERY2_SQL, QueryOptions, WSMED


def main() -> None:
    wsmed = WSMED(profile="paper")
    wsmed.import_all()

    print("query:")
    print(QUERY2_SQL)

    query2 = QueryOptions(mode="central", name="Query2")
    central = wsmed.sql(QUERY2_SQL, options=query2)
    print(f"answer: {central.as_dicts()}  "
          f"(the US Air Force Academy is in Colorado, zip 80840)")
    print()
    print("central execution:")
    print(central.summary())
    print()

    best = wsmed.sql(
        QUERY2_SQL, options=query2.replace(mode="parallel", fanouts=[4, 3])
    )
    print("parallel execution with the paper's best tree {4,3}:")
    print(best.summary())
    print()
    print(f"speed-up: {central.elapsed / best.elapsed:.2f}x "
          f"(paper: 2412.95 s -> 1243.89 s, ~1.94x)")

    # Where did the time go?  Per-operation broker statistics show the
    # bottleneck: GetInfoByState's huge responses and the Zipcodes
    # endpoint's thrashing under parallel load.
    print()
    print("per-operation profile of the parallel run:")
    for operation in ("GetInfoByState", "GetPlacesInside"):
        stats = best.call_stats[operation]
        print(f"  {operation:<16} calls={stats.calls:>5}  "
              f"mean server time={stats.server_time.mean:6.2f} s  "
              f"rows={stats.rows}")

    assert central.rows == best.rows == [("CO", "80840")]


if __name__ == "__main__":
    main()
