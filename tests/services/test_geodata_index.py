"""The indexed geodata lookups equal the linear scans they replace.

``GeoDatabase`` answers ``places_within``, ``place_list`` and
``state_named`` through indexes built at construction, and
``places_within`` skips candidates outside a latitude band around its
anchors.  Each lookup must return exactly what a full scan returns: the
same places in the same order, the same distance floats, the same errors.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.geodata import (
    GeoConfig,
    GeoDatabase,
    Place,
    US_STATES,
    haversine_km,
)
from tests.services import geodata_reference as reference

ABBREVIATIONS = [abbreviation for _, abbreviation in US_STATES]
PREFIXES = ["", "Atlanta", "Spring", "Atlanta Heights", "Atlantis", "springfield"]
PLACE_TYPES = ["City", "Locale"]

seeds = st.one_of(st.just(2009), st.integers(min_value=0, max_value=10_000))
distances = st.one_of(
    st.sampled_from([0.0, 15.0, 500.0]),
    st.floats(min_value=0.0, max_value=600.0),
)


@lru_cache(maxsize=4)
def database(seed: int) -> GeoDatabase:
    return GeoDatabase(GeoConfig(seed=seed))


def outcome(lookup, *args):
    """A lookup's result, or the type and message of what it raised."""
    try:
        return "ok", lookup(*args)
    except KeyError as error:
        return "KeyError", str(error)


@given(
    seed=seeds,
    prefix=st.sampled_from(PREFIXES),
    distance_km=distances,
    place_type=st.sampled_from(PLACE_TYPES),
    states=st.lists(st.sampled_from(ABBREVIATIONS + ["XX"]), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_places_within_matches_linear_scan(
    seed, prefix, distance_km, place_type, states
) -> None:
    db = database(seed)
    for state in [db.atlanta_states[0], *states]:
        assert db.places_within(
            prefix, state, distance_km, place_type
        ) == reference.places_within(db, prefix, state, distance_km, place_type)


@given(seed=seeds, data=st.data())
@settings(max_examples=40, deadline=None)
def test_places_within_keeps_a_candidate_at_exactly_the_radius(seed, data) -> None:
    # The latitude band must never drop a candidate whose distance equals
    # the radius bit for bit: that is where float rounding would show.
    db = database(seed)
    state = data.draw(st.sampled_from(db.atlanta_states))
    cities = [p for p in db.places_in_state(state) if p.place_type == "City"]
    anchor = data.draw(st.sampled_from(cities))
    candidate = data.draw(st.sampled_from(cities))
    radius = haversine_km(anchor.lat, anchor.lon, candidate.lat, candidate.lon)
    found = db.places_within(anchor.name, state, radius, "City")
    assert found == reference.places_within(db, anchor.name, state, radius, "City")
    assert candidate.name in {place.name for place, _ in found}


def tiny_world(*places: Place) -> GeoDatabase:
    """A one-zip-per-state world plus ``places`` in an extra state "ZZ"."""
    db = GeoDatabase(
        GeoConfig(
            atlanta_state_count=1,
            neighbors_per_atlanta=0,
            locale_twin_total=0,
            zipcodes_per_state=1,
        )
    )
    for place in places:
        db._places.append(place)
        db._places_by_state.setdefault(place.state, []).append(place)
    return db


@given(
    lat=st.floats(min_value=-85.0, max_value=85.0),
    lon=st.floats(min_value=-179.0, max_value=179.0),
    dlat=st.floats(min_value=-2.0, max_value=2.0),
    dlon=st.one_of(st.just(0.0), st.floats(min_value=-1e-6, max_value=1e-6)),
)
@settings(max_examples=100, deadline=None)
def test_latitude_band_keeps_a_point_due_north_at_the_radius(
    lat, lon, dlat, dlon
) -> None:
    # Along a meridian the distance equals the band's bound, so a band
    # even slightly too narrow would drop this point.
    anchor = Place("Anchor", "ZZ", "City", lat, lon, 1, "00000")
    other = Place("Other", "ZZ", "City", lat + dlat, lon + dlon, 1, "00000")
    radius = haversine_km(anchor.lat, anchor.lon, other.lat, other.lon)
    db = tiny_world(anchor, other)
    found = db.places_within("Anchor", "ZZ", radius, "City")
    assert found == reference.places_within(db, "Anchor", "ZZ", radius, "City")
    assert [place.name for place, _ in found][-1:] == ["Other"] or dlat == 0.0


def test_query1_lookups_match_linear_scan_in_every_state() -> None:
    db = database(2009)
    for state in ABBREVIATIONS:
        for place_type in PLACE_TYPES:
            found = db.places_within("Atlanta", state, 15.0, place_type)
            assert found == reference.places_within(
                db, "Atlanta", state, 15.0, place_type
            )
            for place, _ in found:
                spec = f"{place.name}, {place.state}"
                assert db.place_list(spec, 100, True) == reference.place_list(
                    db, spec, 100, True
                )


@given(
    seed=seeds,
    data=st.data(),
    with_state=st.sampled_from(["none", "own", "other", "padded"]),
    max_items=st.sampled_from([0, 1, 100, -1]),
    image_presence=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_place_list_matches_linear_scan(
    seed, data, with_state, max_items, image_presence
) -> None:
    db = database(seed)
    place = data.draw(st.sampled_from(db._places))
    name = data.draw(
        st.sampled_from([place.name, "Atlanta", "Springfield", "Nowhere", ""])
    )
    if with_state == "none":
        spec = name
    elif with_state == "own":
        spec = f"{name}, {place.state}"
    elif with_state == "other":
        spec = f"{name}, {data.draw(st.sampled_from(ABBREVIATIONS + ['XX']))}"
    else:
        spec = f"  {name} ,{place.state}  "
    assert db.place_list(spec, max_items, image_presence) == reference.place_list(
        db, spec, max_items, image_presence
    )


@given(
    seed=seeds,
    key=st.one_of(
        st.sampled_from([name for name, _ in US_STATES] + ABBREVIATIONS),
        st.sampled_from(["", "Atlantis", "ga", "georgia", "XX"]),
        st.text(max_size=6),
    ),
)
@settings(max_examples=80, deadline=None)
def test_state_named_matches_linear_scan(seed, key) -> None:
    db = database(seed)
    indexed = outcome(db.state_named, key)
    scanned = outcome(reference.state_named, db, key)
    assert indexed == scanned
    if indexed[0] == "ok":
        assert indexed[1] is scanned[1]

