"""Linear-scan reference implementations of the indexed geodata lookups.

These are the lookups as first written: every call scans the full place or
state list.  ``test_geodata_index.py`` checks the indexed versions in
:class:`~repro.services.geodata.GeoDatabase` against them.
"""

from __future__ import annotations

from repro.services.geodata import GeoDatabase, Place, State, haversine_km


def state_named(db: GeoDatabase, name: str) -> State:
    for state in db._states:
        if state.name == name or state.abbreviation == name:
            return state
    raise KeyError(f"unknown state {name!r}")


def places_within(
    db: GeoDatabase,
    place_prefix: str,
    state: str,
    distance_km: float,
    place_type: str,
) -> list[tuple[Place, float]]:
    in_state = [place for place in db._places if place.state == state]
    anchors = [
        p for p in in_state
        if p.name.startswith(place_prefix) and p.place_type == "City"
    ]
    results: dict[tuple[str, str], tuple[Place, float]] = {}
    for candidate in in_state:
        if candidate.place_type != place_type:
            continue
        for anchor in anchors:
            distance = haversine_km(
                anchor.lat, anchor.lon, candidate.lat, candidate.lon
            )
            if distance <= distance_km:
                key = (candidate.name, candidate.place_type)
                best = results.get(key)
                if best is None or distance < best[1]:
                    results[key] = (candidate, distance)
                break
    return sorted(results.values(), key=lambda pair: (pair[1], pair[0].name))


def place_list(
    db: GeoDatabase, specification: str, max_items: int, image_presence: bool
) -> list[Place]:
    name, _, state_part = specification.partition(",")
    name = name.strip()
    state_part = state_part.strip()
    matches = [
        place
        for place in db._places
        if place.name == name and (not state_part or place.state == state_part)
    ]
    matches.sort(key=lambda place: (place.state, place.place_type))
    return matches[: max_items if max_items > 0 else len(matches)]
