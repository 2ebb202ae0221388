"""The paper's Query1 scenario end to end (Sec. II.A).

Shows the whole compilation pipeline for the dependent-join query over
GetAllStates -> GetPlacesWithin -> GetPlaceList: the generated OWF source
(like the paper's Fig 2), the Datalog-dialect calculus, the central plan
(Fig 6) and the parallel plan with FF_APPLYP operators (Fig 9), then runs
a small fanout sweep.
"""

from repro import QUERY1_SQL, QueryOptions, WSMED
from repro.wsmed import view_columns


def main() -> None:
    wsmed = WSMED(profile="paper")
    wsmed.import_all()

    print("=== generated OWF (cf. paper Fig 2) ===")
    print(wsmed.owf_source("GetAllStates"))
    print()

    print("=== view of GetPlacesWithin ===")
    for name, type_name, role in view_columns(
        wsmed.functions.resolve("GetPlacesWithin")
    ):
        print(f"  {name:<16} {type_name:<12} {role}")
    print()

    print("=== central compilation (cf. Figs 6/7/8) ===")
    query1 = QueryOptions(mode="central", name="Query1")
    print(wsmed.explain(QUERY1_SQL, options=query1))
    print()

    print("=== parallel plan (cf. Fig 9) ===")
    parallel = query1.replace(mode="parallel", fanouts=[5, 4])
    print(wsmed.explain(QUERY1_SQL, options=parallel)
          .split("-- plan --")[1].split("-- estimate --")[0])

    print("=== fanout sweep ===")
    central = wsmed.sql(QUERY1_SQL, options=query1)
    print(f"central: {central.elapsed:7.1f} s  ({central.total_calls} calls)")
    for fanouts in ([2, 2], [4, 3], [5, 4], [7, 7]):
        result = wsmed.sql(QUERY1_SQL, options=parallel.replace(fanouts=fanouts))
        n = fanouts[0] + fanouts[0] * fanouts[1]
        print(f"{{{fanouts[0]},{fanouts[1]}}} (N={n:>2}): {result.elapsed:7.1f} s  "
              f"speed-up {central.elapsed / result.elapsed:4.1f}x")

    print()
    sample = central.as_dicts()[:5]
    print(f"first rows of {len(central)}:", sample)


if __name__ == "__main__":
    main()
