"""One record representation, whichever way a record is made.

A ``TraceRecord`` is a tuple of values laid out by its category's
``TRACE_SCHEMA`` row (DESIGN.md §11.3).  Emitters pass the row
positionally; fixtures and ``load_trace`` pass a dict.  Hypothesis draws
rows and value tuples and holds the two forms — and a JSONL round trip —
to the same record: equal, field for field, ``None`` absent in both,
ints still ints and floats still floats (ISSUE 7's timestamp rule).
"""

import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from repro.netreal.trace_io import dump_trace, load_trace
from repro.sim.tracing import TRACE_SCHEMA, TraceRecord, Tracer

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
times = st.one_of(
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0, max_value=1e9, allow_nan=False),
)


@st.composite
def tabled(draw):
    category = draw(st.sampled_from(sorted(TRACE_SCHEMA)))
    row = TRACE_SCHEMA[category]
    values = draw(st.tuples(*[scalars] * len(row)))
    return draw(times), category, row, values


def same_record(a, b):
    assert a == b and b == a
    assert a.fields == b.fields
    assert type(a.time) is type(b.time)
    for name in set(a.index) | set(b.index):
        assert a.get(name, "dflt") == b.get(name, "dflt")
        assert type(a.get(name)) is type(b.get(name))


@given(tabled())
def test_positional_and_keyword_emission_build_the_same_record(drawn):
    time, category, row, values = drawn
    tracer = Tracer()
    tracer.record(time, category, *values)
    tracer.record(time, category, **dict(zip(row, values)))
    present = {k: v for k, v in zip(row, values) if v is not None}
    positional, keyword = tracer.records
    for other in (keyword, TraceRecord(time, category, present)):
        same_record(positional, other)
        assert other.index is positional.index  # the row's one dict
        for name, value in zip(row, values):
            assert other[name] == value and type(other[name]) is type(value)
            assert other.get(name, "dflt") == ("dflt" if value is None else value)
    assert positional.fields == present
    assert positional.values == values


@given(
    st.lists(
        st.one_of(
            tabled().map(lambda d: TraceRecord(d[0], d[1], dict(zip(d[2], d[3])))),
            st.builds(
                TraceRecord,
                times,
                st.sampled_from(["x", "pkt"]),  # outside the table
                st.dictionaries(st.text(min_size=1, max_size=4), scalars, max_size=4),
            ),
        ),
        max_size=6,
    )
)
def test_jsonl_round_trip_keeps_records_and_their_types(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = dump_trace(
            Path(tmp) / "t.jsonl", records, meta={"records": len(records)}
        )
        meta, loaded = load_trace(path)
    assert "torn" not in meta
    assert len(loaded) == len(records)
    for before, after in zip(records, loaded):
        same_record(before, after)
