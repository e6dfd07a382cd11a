"""The ``/metrics`` contract: pinned schema, monotone additive counters.

Dashboards and the CI smoke job parse this document, so its shape is
part of the public API: the key sets below are asserted exactly, every
counter only ever grows, and the ``work`` block is the merged per-shard
``work_stats`` (so it stays additive across shards and across workload
rebuilds).
"""

from __future__ import annotations

import asyncio

import pytest

from repro import OutlierQuery, WindowSpec, make_synthetic_points
from repro.engine.config import DetectorConfig

from helpers import ServiceClient, http_get, run_async, running_server

pytestmark = pytest.mark.serving

QUERY = OutlierQuery(r=500.0, k=4, window=WindowSpec(win=80, slide=20))
POINTS = make_synthetic_points(300, dim=2, outlier_rate=0.05, seed=9)

SERVICE_KEYS = {
    "draining", "admitting", "sessions", "queue", "records",
    "quarantined_reasons", "queries", "boundaries", "checkpoints_written",
}
RECORD_KEYS = {"admitted", "rejected", "quarantined", "replay_skipped"}
#: ``depth``: queued in sessions; ``pending``: drained into the engine,
#: waiting for the watermark
QUEUE_KEYS = {"bound", "depth", "pending"}

#: counters that must never decrease between two polls
MONOTONE = [
    ("service", "sessions", "total"),
    ("service", "records", "admitted"),
    ("service", "records", "rejected"),
    ("service", "records", "quarantined"),
    ("service", "queries", "registered_total"),
    ("service", "boundaries", "processed"),
    ("service", "boundaries", "last"),
    ("service", "checkpoints_written"),
]


def dig(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_metrics_schema_and_monotonicity():
    async def scenario():
        async with running_server(DetectorConfig(shards=4)) as server:
            status, first = await http_get(server.http_address, "/metrics")
            assert status == 200
            assert set(first) == {"service", "work", "config", "shards"}
            assert set(first["service"]) == SERVICE_KEYS
            assert set(first["service"]["records"]) == RECORD_KEYS
            assert set(first["service"]["queue"]) == QUEUE_KEYS
            assert first["shards"] == 4
            assert first["config"]["shards"] == 4

            client = await ServiceClient.connect(server.address)
            await client.register(QUERY)
            await client.subscribe()
            await client.stream(POINTS, chunk=50)
            await client.end()
            await asyncio.wait_for(client.stream_end.wait(), 60)

            snapshots = [first]
            for _ in range(3):
                status, doc = await http_get(server.http_address,
                                             "/metrics")
                assert status == 200
                snapshots.append(doc)
                await asyncio.sleep(0.01)
            for a, b in zip(snapshots, snapshots[1:]):
                for path in MONOTONE:
                    assert dig(a, path) <= dig(b, path), path
                for key, value in a["work"].items():
                    assert b["work"].get(key, 0) >= value, key

            last = snapshots[-1]
            assert last["service"]["records"]["admitted"] == len(POINTS)
            assert last["service"]["queue"]["depth"] == 0
            assert last["service"]["queue"]["pending"] == 0
            assert last["service"]["boundaries"]["processed"] > 0
            # the work block is the merged per-shard counters of the
            # runtime -- additive across the 4 shards, not per-shard
            engine_work = server.engine.work_stats_snapshot()
            assert last["work"] == engine_work
            assert engine_work["distance_rows"] > 0
            # the scan engine's resolve counters ride the same block:
            # every committed entry was a near tile cell, every near cell
            # a computed one
            assert 0 < engine_work["soa_insert_rows"] <= (
                engine_work["near_candidates"]) <= engine_work["distance_rows"]
            assert engine_work["distance_rows"] <= engine_work["kernel_cells"]
            await client.close()

    run_async(scenario())


def test_queue_pending_counts_records_held_by_the_watermark():
    """A silent producer pins the watermark: the other session's records
    leave its queue (``depth``) but wait in the engine (``pending``)."""
    async def scenario():
        async with running_server(DetectorConfig()) as server:
            active = await ServiceClient.connect(server.address)
            silent = await ServiceClient.connect(server.address)
            await active.register(QUERY)
            await active.stream(POINTS[:50], chunk=25)
            while (await active.stat())["records_ingested"] < 50:
                await asyncio.sleep(0.01)
            _, doc = await http_get(server.http_address, "/metrics")
            assert doc["service"]["queue"]["depth"] == 0
            assert doc["service"]["queue"]["pending"] == 50
            assert doc["service"]["boundaries"]["processed"] == 0
            # the silent session ends: boundaries up to 40 (slide 20)
            # are complete, records 40..49 still wait
            await silent.end()
            while (await active.stat())["last_boundary"] < 40:
                await asyncio.sleep(0.01)
            _, doc = await http_get(server.http_address, "/metrics")
            assert doc["service"]["queue"]["pending"] == 10
            await active.close()
            await silent.close()

    run_async(scenario())


def test_work_counters_survive_workload_rebuild():
    """Deregistering a query rebuilds the runtime; merged work counters
    must not go backwards (the retired runtime folds into the base)."""
    other = OutlierQuery(r=900.0, k=3, window=WindowSpec(win=80, slide=20))

    async def scenario():
        async with running_server(DetectorConfig()) as server:
            client = await ServiceClient.connect(server.address)
            h0 = await client.register(QUERY)
            await client.register(other)
            await client.subscribe()
            await client.stream(POINTS[:150], chunk=50)
            while (await client.stat())["last_boundary"] < 100:
                await asyncio.sleep(0.01)
            _, before = await http_get(server.http_address, "/metrics")
            await client.ok("deregister", handle=h0)
            await client.stream(POINTS[150:], chunk=50)
            await client.end()
            await asyncio.wait_for(client.stream_end.wait(), 60)
            _, after = await http_get(server.http_address, "/metrics")
            for key, value in before["work"].items():
                assert after["work"].get(key, 0) >= value, key
            assert after["service"]["queries"]["active"] == 1
            assert after["service"]["queries"]["registered_total"] == 2
            await client.close()

    run_async(scenario())


def test_healthz_reports_draining():
    async def scenario():
        async with running_server(DetectorConfig()) as server:
            status, body = await http_get(server.http_address, "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body = await http_get(server.http_address, "/nope")
            assert status == 404
            # the draining health answer (503) -- checked at the handler
            # level, since shutdown also closes the control plane
            server.draining = True
            status, body = server._health()
            assert status == 503 and body["status"] == "draining"
            server.draining = False

    run_async(scenario())
