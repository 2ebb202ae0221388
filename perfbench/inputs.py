"""Seeded input generation for the benchmark workloads.

Everything the program under test receives is built here from the
workload seed: SQL text, ``QueryOptions`` and (for the HTTP workload) the
send schedule.  The same seed always yields the same inputs; the program
never sees the seed itself.

Mixes are *stratified*: every block of a stream holds a fixed multiset of
query kinds (and, for the engine stream, of Zipf-weighted variants), and
the seed only shuffles order and picks arrival times.  Two seeds therefore
exercise the same amount of work per block, which keeps the run-to-run
spread of the end-to-end metrics small without making the inputs equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import QUERY1_SQL, QueryOptions

#: Query1's shape with the place and radius as parameters.
Q1_FAMILY = (
    "Select {select} From GetAllStates gs, GetPlacesWithin gp, GetPlaceList gl"
    " Where gs.State = gp.state and gp.distance = {distance}"
    " and gp.placeTypeToFind = 'City' and gp.place = '{place}'"
    " and gl.placeName = gp.ToCity + ', ' + gp.ToState"
    " and gl.MaxItems = 100 and gl.imagePresence = 'true'{tail}"
)
ROWS = "gl.placename, gl.state"
GROUPED = "gl.state, COUNT(*)"

#: "Atlanta" (the paper's place) plus synthetic town names of the
#: simulated geodata, hottest first.  The 12 (place, radius) variants make
#: about 3,660 distinct web-service calls, which fit in the shared cache's
#: 4,096 entries: with a working set larger than the cache the order of
#: LRU evictions made the miss count differ by up to 16% between seeds.
ENGINE_PLACES = ("Atlanta", "Madison", "Arlington", "Dover", "Milton", "Troy")
ENGINE_DISTANCES = (15.0, 30.0)
ENGINE_LIMITS = (5, 10, 20)
ZIPF_S = 1.1
#: One block of the engine stream: a WSDL re-import, then 64 queries as 8
#: batches of one query per client (the re-import is 1 step in 65, 1.5%).
#: Re-importing at the block start keeps the cost of refilling the cache
#: inside the same block on every seed.
ENGINE_CLIENTS = 8
ENGINE_BLOCK = 64
#: Kinds of the 8 queries of every batch: 6 plain, 1 LIMIT, 1 GROUP BY.
ENGINE_BATCH_KINDS = ("rows",) * 6 + ("limit", "group")
#: GetAllStates + GetPlacesWithin: re-importing it invalidates every cached
#: plan, condemns every warm pool and evicts the shared GetPlacesWithin
#: entries.
REIMPORT_URI = "http://sim.codebump.com/services/PlaceLookup.wsdl"

PAPER_MODES = (
    QueryOptions(mode="central", name="Query1"),
    QueryOptions(mode="parallel", fanouts=[5, 4], name="Query1"),
    QueryOptions(mode="adaptive", name="Query1"),
)
PARALLEL_54 = QueryOptions(mode="parallel", fanouts=[5, 4])


def q1_family(place: str, distance: float, select: str = ROWS, tail: str = "") -> str:
    return Q1_FAMILY.format(select=select, distance=distance, place=place, tail=tail)


def paper_rotation(seed: int, index: int) -> list[QueryOptions]:
    """The ``index``-th rotation of the paper workload: all three modes of
    Figs 1, 16 and 21, in a seeded order."""
    modes = list(PAPER_MODES)
    random.Random(f"paper:{seed}:{index}").shuffle(modes)
    return modes


# -- engine stream -------------------------------------------------------------


@dataclass(frozen=True)
class EngineStep:
    """One step of the engine stream: a query, or a WSDL re-import."""

    kind: str  # "rows" | "limit" | "group" | "reimport"
    place: str = ""
    distance: float = 0.0
    limit: int = 0
    uri: str = ""

    @property
    def variant(self) -> tuple[str, float]:
        return (self.place, self.distance)

    def sql(self) -> str:
        if self.kind == "rows":
            return q1_family(self.place, self.distance)
        if self.kind == "limit":
            return q1_family(self.place, self.distance, tail=f" LIMIT {self.limit}")
        if self.kind == "group":
            return q1_family(
                self.place, self.distance, select=GROUPED, tail=" Group By gl.state"
            )
        raise ValueError(f"step {self.kind!r} is not a query")


def engine_variants() -> list[tuple[str, float]]:
    """(place, radius) variants in Zipf rank order, hottest first."""
    return [(place, d) for place in ENGINE_PLACES for d in ENGINE_DISTANCES]


def _zipf_counts(total: int, ranks: int, s: float) -> list[int]:
    """Largest-remainder split of ``total`` draws over Zipf(s) ranks."""
    weights = [1.0 / (rank + 1) ** s for rank in range(ranks)]
    norm = sum(weights)
    exact = [total * w / norm for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(ranks), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def engine_block(seed: int, index: int) -> list[EngineStep]:
    """Block ``index`` of the engine stream for ``seed``.

    The block opens with a WSDL re-import and its 64 variants follow the
    Zipf skew exactly.  The variants are cut by rank into 8 strata of 8,
    and every batch of 8 takes one variant from each stratum and the kinds
    of ``ENGINE_BATCH_KINDS``, so all batches carry the same mix of hot and
    cold, plain, LIMIT and GROUP BY queries.  The seed decides which
    variant of each stratum lands in which batch, the kind each query gets
    and the LIMIT values.
    """
    rng = random.Random(f"engine:{seed}:{index}")
    variants = engine_variants()
    pool = [
        variant
        for variant, count in zip(
            variants, _zipf_counts(ENGINE_BLOCK, len(variants), ZIPF_S)
        )
        for _ in range(count)
    ]
    strata = [pool[k : k + ENGINE_CLIENTS] for k in range(0, ENGINE_BLOCK, ENGINE_CLIENTS)]
    for stratum in strata:
        rng.shuffle(stratum)
    steps = [EngineStep("reimport", uri=REIMPORT_URI)]
    for batch in range(ENGINE_BLOCK // ENGINE_CLIENTS):
        kinds = list(ENGINE_BATCH_KINDS)
        rng.shuffle(kinds)
        for kind, stratum in zip(kinds, strata):
            place, distance = stratum[batch]
            steps.append(
                EngineStep(
                    kind,
                    place=place,
                    distance=distance,
                    limit=rng.choice(ENGINE_LIMITS) if kind == "limit" else 0,
                )
            )
    return steps


# -- HTTP request mix ----------------------------------------------------------

#: (kind, SQL, options, requests per 40-request block).  The shares put
#: the p50 inside the small classes and the p90 inside the LIMIT class,
#: away from the class boundaries where a percentile would jump.
SERVE_KINDS = (
    ("catalog", "Select o.service, o.operation From ws_operations o", {"mode": "central"}, 10),
    ("count", "Select COUNT(*) From GetAllStates gs", {"mode": "central"}, 20),
    ("q1_limit", QUERY1_SQL.strip() + " LIMIT 10", {"mode": "parallel", "fanouts": [5, 4]}, 9),
    ("q1_full", QUERY1_SQL.strip(), {"mode": "parallel", "fanouts": [5, 4]}, 1),
)
SERVE_BLOCK = sum(share for *_, share in SERVE_KINDS)


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the phase starts
    kind: str
    sql: str
    options: dict

    def body(self) -> dict:
        return {"sql": self.sql, "options": dict(self.options)}


def serve_schedule(seed: int, rate: float, seconds: float) -> list[Request]:
    """A Poisson arrival schedule at ``rate`` requests/s lasting about
    ``seconds``.

    The request count is rounded to whole blocks of the mix, so every seed
    sends the same number of requests of each kind, and the arrival times
    are sorted uniform draws over ``count / rate`` seconds — a Poisson
    process conditioned on its count.
    """
    rng = random.Random(f"serve:{seed}:{rate}")
    blocks = max(1, round(rate * seconds / SERVE_BLOCK))
    kinds = []
    for _ in range(blocks):
        block = [k for k in SERVE_KINDS for _ in range(k[3])]
        rng.shuffle(block)
        kinds.extend(block)
    span = len(kinds) / rate
    times = sorted(rng.uniform(0.0, span) for _ in kinds)
    return [Request(due, kind, sql, options) for due, (kind, sql, options, _) in zip(times, kinds)]
