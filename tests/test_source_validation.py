"""Ingest guard: poison records never reach (or corrupt) the detector.

Unit tests pin every rejection reason; hypothesis property tests assert
the two contracts that matter:

* admitting a poisoned interleaving yields exactly the clean subsequence
  (so detector state -- and therefore every outlier verdict -- is what a
  clean stream would have produced);
* nothing is silently dropped: the quarantine counter equals the number
  of injected poison records, per reason.
"""

import math
from collections import namedtuple
from types import MappingProxyType

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import (
    DetectorConfig,
    IngestGuard,
    OutlierQuery,
    Point,
    QueryGroup,
    Runtime,
    WindowSpec,
    compare_outputs,
)

NAN = float("nan")
INF = float("inf")


def clean_points(n, start_seq=0):
    return [Point(seq=start_seq + i, values=(float(i % 7), float(i % 3)))
            for i in range(n)]


# ---------------------------------------------------------------- unit tests


class TestReasons:
    def test_non_finite_values(self):
        guard = IngestGuard()
        assert guard.admit({"seq": 0, "values": (NAN, 1.0)}) is None
        assert guard.admit((1, (INF,))) is None
        assert guard.admit((2, (-INF,))) is None
        assert guard.counts == {"non-finite": 3}

    def test_non_finite_time(self):
        guard = IngestGuard()
        assert guard.admit({"seq": 0, "values": (1.0,), "time": NAN}) is None
        assert guard.counts == {"non-finite": 1}

    def test_seq_regression(self):
        guard = IngestGuard()
        assert guard.admit((5, (1.0,))) is not None
        assert guard.admit((5, (1.0,))) is None   # duplicate
        assert guard.admit((3, (1.0,))) is None   # backwards
        assert guard.admit((6, (1.0,))) is not None
        assert guard.counts == {"seq-regression": 2}

    def test_time_regression(self):
        guard = IngestGuard()
        assert guard.admit((0, (1.0,), 100.0)) is not None
        assert guard.admit((1, (1.0,), 99.0)) is None
        assert guard.admit((2, (1.0,), 100.0)) is not None  # equal stamps ok
        assert guard.counts == {"time-regression": 1}

    def test_dim_mismatch_learned_from_first(self):
        guard = IngestGuard()
        assert guard.admit((0, (1.0, 2.0))) is not None
        assert guard.admit((1, (1.0,))) is None
        assert guard.expect_dim == 2
        assert guard.counts == {"dim-mismatch": 1}

    def test_dim_mismatch_explicit(self):
        guard = IngestGuard(expect_dim=3)
        assert guard.admit((0, (1.0, 2.0))) is None
        assert guard.counts == {"dim-mismatch": 1}
        with pytest.raises(ValueError):
            IngestGuard(expect_dim=0)

    def test_malformed(self):
        guard = IngestGuard()
        for garbage in ("junk", None, {"seq": 1}, {"values": (1.0,)},
                        (1,), (1, 2, 3, 4), {"seq": "x", "values": (1.0,)},
                        (0, ())):
            assert guard.admit(garbage) is None
        assert guard.counts == {"malformed": 8}

    def test_quarantine_keeps_originals(self):
        guard = IngestGuard()
        guard.admit("junk")
        guard.admit({"seq": 0, "values": (NAN,)})
        assert [reason for _, reason in guard.quarantined] == \
            ["malformed", "non-finite"]
        assert guard.quarantined[0][0] == "junk"
        assert guard.total_quarantined == 2


class TestShapesAndState:
    def test_all_record_shapes_admitted(self):
        guard = IngestGuard()
        p = guard.admit(Point(seq=0, values=(1.0,)))
        d = guard.admit({"seq": 1, "values": [2.0], "time": 1.5})
        t2 = guard.admit((2, (3.0,)))
        t3 = guard.admit((3, [4.0], 3.0))
        assert all(isinstance(x, Point) for x in (p, d, t2, t3))
        assert d.time == 1.5 and t3.time == 3.0

    def test_shape_branches(self):
        """Each record shape takes its own branch with exact values: a
        non-dict Mapping, a namedtuple (read positionally), a
        ``[seq, values, time]`` list, integer coordinates, bool and
        numeric-string seqs; a non-iterable ``values`` is malformed."""
        Rec = namedtuple("Rec", "seq values time")
        guard = IngestGuard()
        proxy = guard.admit(MappingProxyType({"seq": 0, "values": (1, 2)}))
        named = guard.admit(Rec(1, [3.0, 4.0], 1.5))
        listed = guard.admit([2, [5, 6.5], 2.0])
        boolean = IngestGuard().admit((True, (1.0, 2.0)))
        text = guard.admit(("3", ("7", 8)))
        assert (proxy.seq, proxy.values, proxy.time) == (0, (1.0, 2.0), 0.0)
        assert (named.seq, named.values, named.time) == (1, (3.0, 4.0), 1.5)
        assert (listed.seq, listed.values, listed.time) == (2, (5.0, 6.5), 2.0)
        assert (boolean.seq, boolean.values) == (1, (1.0, 2.0))
        assert (text.seq, text.values, text.time) == (3, (7.0, 8.0), 3.0)
        for p in (proxy, named, listed, boolean, text):
            assert all(type(v) is float for v in p.values)
            assert type(p.seq) is int
        assert guard.admit((4, 5)) is None                # values not iterable
        assert guard.admit({"seq": 5, "values": 1.0}) is None
        assert guard.admit(Rec("x", [1.0, 2.0], 6.0)) is None
        assert guard.counts == {"malformed": 3}

    def test_quarantine_log_is_capped_counters_exact(self):
        guard = IngestGuard(expect_dim=2)
        poison = ["garbage", {"seq": 10**9, "values": (NAN, 0.0)},
                  (10**9, (1.0,)), {"seq": 10**9}]
        records = [poison[i % 4] for i in range(5000)]
        assert guard.filter(records) == []
        assert guard.total_quarantined == 5000
        assert guard.counts == {"malformed": 2500, "non-finite": 1250,
                                "dim-mismatch": 1250}
        assert len(guard.quarantined) == 1024
        # the newest offenders are the ones kept
        assert [r for r, _ in guard.quarantined] == records[-1024:]

    def test_state_persists_across_filter_calls(self):
        """Record-at-a-time operation on an infinite stream: the second
        batch is validated against the first batch's high-water marks."""
        guard = IngestGuard()
        first = guard.filter(clean_points(5))
        second = guard.filter([(2, (1.0, 1.0)),   # regresses into batch 1
                               (7, (1.0, 1.0))])
        assert [p.seq for p in first] == [0, 1, 2, 3, 4]
        assert [p.seq for p in second] == [7]
        assert guard.counts == {"seq-regression": 1}


# ------------------------------------------------------------ property tests

#: poison that is invalid at *any* position in a 2-D stream (so an
#: interleaving cannot accidentally legalize it)
poison_records = st.one_of(
    st.sampled_from([
        {"seq": 10**9, "values": (NAN, 0.0)},
        {"seq": 10**9, "values": (0.0, INF)},
        {"seq": 10**9, "values": (1.0,)},         # dim-mismatch vs 2-D
        {"seq": 10**9, "values": (1.0, 2.0, 3.0)},
        "garbage",
        {"seq": 10**9},
        (10**9,),
    ]),
    st.builds(lambda v: {"seq": 10**9, "values": (v, NAN)},
              st.floats(allow_nan=False, allow_infinity=False,
                        min_value=-1e3, max_value=1e3)),
)


@st.composite
def poisoned_streams(draw):
    """(interleaved records, clean subsequence, poison count)."""
    n = draw(st.integers(min_value=5, max_value=60))
    clean = clean_points(n)
    poison = draw(st.lists(poison_records, min_size=0, max_size=10))
    slots = draw(st.lists(st.integers(min_value=0, max_value=n),
                          min_size=len(poison), max_size=len(poison)))
    interleaved = list(clean)
    for record, slot in sorted(zip(poison, slots), key=lambda e: -e[1]):
        interleaved.insert(slot, record)
    return interleaved, clean, len(poison)


@given(poisoned_streams())
@settings(max_examples=50, deadline=None)
def test_filter_recovers_exactly_the_clean_subsequence(case):
    interleaved, clean, n_poison = case
    guard = IngestGuard(expect_dim=2)
    admitted = guard.filter(interleaved)
    assert admitted == clean
    assert guard.total_quarantined == n_poison
    assert sum(guard.counts.values()) == n_poison


@given(poisoned_streams())
@example(([{"seq": 10**9, "values": (1.0,)}] + clean_points(12),
          clean_points(12), 1))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_poison_never_changes_outlier_sets(case):
    """End to end: a validated run over the poisoned stream answers
    exactly what the clean stream answers, and counts the quarantine.

    The stream is declared 2-D (``ingest_dim``), as the poison's own
    definition assumes: a wrong-arity record drawn into slot 0 is then
    refused instead of fixing the arity and seq high-water mark."""
    interleaved, clean, n_poison = case
    group = QueryGroup([OutlierQuery(r=2.0, k=2,
                                     window=WindowSpec(win=8, slide=4))])
    ref = Runtime(group).run(clean)
    rt = Runtime(group, config=DetectorConfig(validate_ingest=True,
                                              ingest_dim=2))
    res = rt.run(interleaved)
    assert not compare_outputs(ref.outputs, res.outputs)
    assert res.work.get("records_quarantined", 0) == n_poison


# ------------------------------------------------------------ runtime wiring


class TestRuntimeWiring:
    def group(self):
        return QueryGroup([OutlierQuery(r=3.0, k=2,
                                        window=WindowSpec(win=10, slide=5))])

    def test_counters_surface_per_reason(self):
        stream = list(clean_points(30))
        stream.insert(4, {"seq": 10**9, "values": (NAN, 0.0)})
        stream.insert(11, "garbage")
        rt = Runtime(self.group(),
                     config=DetectorConfig(validate_ingest=True, shards=2))
        result = rt.run(stream)
        assert result.work["records_quarantined"] == 2
        assert result.work["quarantined_non_finite"] == 1
        assert result.work["quarantined_malformed"] == 1

    def test_ingest_dim_is_the_guards_expect_dim(self):
        """``ingest_dim`` declares the arity up front.  Learned instead,
        a wrong-arity record arriving first at a far-ahead seq fixes the
        arity and the seq high-water mark, and every clean record after
        it is refused (the property test above pins the declared case)."""
        rt = Runtime(self.group(),
                     config=DetectorConfig(validate_ingest=True,
                                           ingest_dim=2))
        assert rt.guard.expect_dim == 2
        learned = IngestGuard()
        first = {"seq": 10**9, "values": (1.0,)}
        assert learned.filter([first] + clean_points(30))[0].seq == 10**9
        assert learned.counts == {"dim-mismatch": 30}
        with pytest.raises(ValueError):
            DetectorConfig(validate_ingest=True, ingest_dim=0)

    def test_off_by_default(self):
        rt = Runtime(self.group())
        assert rt.guard is None
        with pytest.raises((TypeError, AttributeError)):
            rt.run(list(clean_points(10)) + ["garbage"])

    def test_step_path_validates(self):
        rt = Runtime(self.group(), config=DetectorConfig(validate_ingest=True))
        batch = list(clean_points(5)) + [{"seq": 2, "values": (0.0, 0.0)}]
        rt.step(5, batch)
        rt.step(10, [])
        result = rt.finish()
        assert result.work["records_quarantined"] == 1
        assert result.work["quarantined_seq_regression"] == 1

    def test_guarded_points_stay_finite(self):
        """Whatever the guard admits constructs a valid Point -- the
        Point invariant (finite coordinates) can no longer raise deep
        inside a shard."""
        guard = IngestGuard()
        admitted = guard.filter([
            (0, (1.0, 2.0)), {"seq": 1, "values": (NAN, 0.0)},
            (2, (3.0, 4.0)), "junk",
        ])
        assert all(math.isfinite(v) for p in admitted for v in p.values)
