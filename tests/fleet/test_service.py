"""End-to-end service tests: real sockets, real shard children.

pytest-asyncio is not available here, so every test is a sync function
wrapping its scenario in ``asyncio.run``.  Jobs are fast TV boots varied
through the fault-plan seed, and every service binds port 0.
"""

import asyncio
import time

from repro.fleet import FleetClient, FleetService
from repro.fleet.protocol import encode_frame, job_from_spec
from repro.fleet.resources import ResourcePolicy
from repro.runner import BranchRunner, execute_job
from repro.runner.branch import canonical_bytes
from repro.runner.oracle import SerialReplay


def _spec(seed=1, **extra):
    """A cheap boot spec; distinct seeds give distinct fingerprints."""
    spec = {"kind": "boot", "workload": "tv", "bb": "full",
            "fault": {"preset": "flaky-services", "seed": seed}}
    spec.update(extra)
    return spec


def _policy(**overrides):
    defaults = dict(min_workers=1, max_workers=2)
    defaults.update(overrides)
    return ResourcePolicy(**defaults)


async def _with_service(scenario, **service_kwargs):
    service_kwargs.setdefault("policy", _policy())
    service_kwargs.setdefault("port", 0)
    service = FleetService(**service_kwargs)
    host, port = await service.start()
    drained = False
    try:
        result = await scenario(service, host, port)
        await service.drain()
        drained = True
        return result
    finally:
        if not drained:
            await service.stop()


class TestSubmitStream:
    def test_submission_streams_ack_results_done(self):
        async def scenario(service, host, port):
            async with FleetClient(host, port) as client:
                events = []
                async for event in client.stream([_spec(seed=0)]):
                    events.append(event["event"])
                return events

        events = asyncio.run(_with_service(scenario))
        assert events[0] == "ack"
        assert events[-1] == "done"
        assert "result" in events

    def test_payloads_match_serial_execution(self):
        async def scenario(service, host, port):
            async with FleetClient(host, port) as client:
                return await client.submit(
                    [_spec(seed=seed) for seed in range(3)])

        outcome = asyncio.run(_with_service(scenario))
        assert outcome.ok and outcome.total == 3
        for seed, payload in enumerate(outcome.payloads):
            job, _ = job_from_spec(_spec(seed=seed))
            assert payload == canonical_bytes(execute_job(job))

    def test_repeat_expansion_and_payload_ref_dedup(self):
        async def scenario(service, host, port):
            async with FleetClient(host, port) as client:
                raw = []
                async for event in client.stream([_spec(seed=0, repeat=5)]):
                    raw.append(event)
                return raw

        raw = asyncio.run(_with_service(scenario))
        results = [e for e in raw if e["event"] == "result"]
        assert len(results) == 5
        # One identical boot -> one payload on the wire, four references.
        assert len([e for e in results if "payload" in e]) == 1
        assert len([e for e in results if "payload_ref" in e]) == 4
        assert len({e["fingerprint"] for e in results}) == 1

    def test_resubmission_hits_the_cache(self):
        async def scenario(service, host, port):
            async with FleetClient(host, port) as client:
                first = await client.submit([_spec(seed=0)])
                second = await client.submit([_spec(seed=0)])
                return first, second

        first, second = asyncio.run(_with_service(scenario))
        assert first.ok and second.ok
        assert first.cached == [False]
        assert second.cached == [True]
        assert first.payloads == second.payloads

    def test_two_clients_get_identical_bytes(self):
        async def scenario(service, host, port):
            async with FleetClient(host, port) as a:
                async with FleetClient(host, port) as b:
                    one, two = await asyncio.gather(
                        a.submit([_spec(seed=0)]),
                        b.submit([_spec(seed=0)]))
                    return one, two

        one, two = asyncio.run(_with_service(scenario))
        assert one.ok and two.ok
        assert one.payloads == two.payloads


class TestBranchedShards:
    def test_branched_batch_matches_the_serial_replay(self, tmp_path,
                                                      monkeypatch):
        # ``fleet serve --branch``: five what-if cells on one camera/full
        # prefix land in one shard batch and run as forked branches.
        specs = [{"kind": "boot", "workload": "camera", "bb": "full",
                  "fault": {"preset": "flaky-services", "seed": seed}}
                 for seed in range(1, 6)]
        cache_dir = tmp_path / "cache"
        # The shard's executor forks from this process, so its child runs
        # this wrapper: the marker records each group the shard branched.
        marker = tmp_path / "branched-groups"
        run_group = BranchRunner.run_group

        def marking_run_group(runner, group):
            with marker.open("a") as out:
                out.write(f"{len(group)}\n")
            return run_group(runner, group)

        monkeypatch.setattr(BranchRunner, "run_group", marking_run_group)

        async def scenario(service, host, port):
            async with FleetClient(host, port) as client:
                return await client.submit(specs)

        outcome = asyncio.run(_with_service(
            scenario, branch=True, batch_size=16, cache_dir=str(cache_dir),
            policy=_policy(max_workers=1)))
        assert outcome.ok and outcome.total == 5
        replay = SerialReplay([job_from_spec(spec) for spec in specs])
        assert replay.compare(zip(outcome.fingerprints, outcome.payloads),
                              "fleet") == []
        # The shard branched: all five cells ran as one group.
        assert marker.read_text() == "5\n"


class TestProtocolErrors:
    def test_bad_spec_streams_an_error_event(self):
        async def scenario(service, host, port):
            async with FleetClient(host, port) as client:
                return await client.submit([{"workload": "toaster"}])

        outcome = asyncio.run(_with_service(scenario))
        assert not outcome.ok
        assert any("unknown workload" in err
                   for err in outcome.errors.values())

    def test_unknown_op_is_reported_not_fatal(self):
        async def scenario(service, host, port):
            async with FleetClient(host, port) as client:
                await client._send({"op": "teleport", "id": "x"})
                event = await client._read_event()
                # The connection survives for real work afterwards.
                outcome = await client.submit([_spec(seed=0)])
                return event, outcome

        event, outcome = asyncio.run(_with_service(scenario))
        assert event["event"] == "error"
        assert "unknown op" in event["message"]
        assert outcome.ok

    def test_hostile_frames_get_error_events_and_the_connection_survives(
            self):
        frames = [
            b"[" * 100_000 + b"\n",
            encode_frame({"op": "submit", "id": "unhashable",
                          "jobs": [{"workload": ["tv"]}]}),
            encode_frame({"op": "submit", "id": "bool-priority",
                          "priority": True, "jobs": [_spec(seed=0)]}),
            encode_frame({"op": "submit", "id": "huge",
                          "jobs": [{"repeat": 1_000_000_000}]}),
        ]

        async def scenario(service, host, port):
            async with FleetClient(host, port) as client:
                events = []
                for frame in frames:
                    client._writer.write(frame)
                    await client._writer.drain()
                    events.append(await client._read_event())
                outcome = await client.submit([_spec(seed=0)])
                return events, outcome

        events, outcome = asyncio.run(_with_service(scenario))
        assert [event["event"] for event in events] == ["error"] * 4
        assert [event["id"] for event in events] == [
            None, "unhashable", "bool-priority", "huge"]
        assert "nests too deeply" in events[0]["message"]
        assert "unknown workload" in events[1]["message"]
        assert "'priority' must be an int" in events[2]["message"]
        assert "1000000000 tickets" in events[3]["message"]
        assert "1000000-ticket limit" in events[3]["message"]
        assert outcome.ok


class TestDispatch:
    def test_scale_down_never_retires_a_shard_holding_a_dispatched_batch(
            self):
        # Unstarted service: no supervisor, so this drives one dispatch
        # and the autoscale pass that may follow it, nothing else.
        async def scenario():
            service = FleetService(port=0, batch_size=1,
                                   policy=_policy(max_workers=2))
            pool = service.pool
            try:
                pool.scale_to(2)
                for seed in range(2):
                    job, _ = job_from_spec(_spec(seed=seed))
                    service.scheduler.submit("probe", job)
                service._dispatch()  # two batches handed over, not run yet
                pool.scale_to(1)
                retired = pool.scaled_down
                await asyncio.gather(*service._batch_tasks)
                return retired, pool.replaced, dict(service._retry_counts)
            finally:
                await service.stop()

        retired, replaced, retries = asyncio.run(scenario())
        assert retired == 0
        assert replaced == 0 and retries == {}


class TestStatusAndDrain:
    def test_status_reports_scheduler_and_pool(self):
        async def scenario(service, host, port):
            async with FleetClient(host, port) as client:
                await client.submit([_spec(seed=0, repeat=3)])
                return await client.status()

        status = asyncio.run(_with_service(scenario))
        assert status["event"] == "status"
        assert status["scheduler"]["submitted"] == 3
        assert status["scheduler"]["delivered"] == 3
        assert status["pool"]["workers"] >= 1
        assert status["workers"]  # at least one shard row

    def test_drain_rejects_new_submissions(self):
        async def scenario():
            service = FleetService(port=0, policy=_policy())
            host, port = await service.start()
            try:
                async with FleetClient(host, port) as client:
                    service.draining = True  # a drain is in progress
                    return await client.submit([_spec(seed=0)])
            finally:
                await service.stop()

        outcome = asyncio.run(scenario())
        assert not outcome.ok
        assert any("draining" in err for err in outcome.errors.values())

    def test_drain_straight_after_the_last_batch_completes(self):
        # The last batch sets the supervisor's wake-up event; a drain in
        # the same loop iteration must still stop the supervisor.  The
        # drain is awaited directly (not under wait_for, which would move
        # it to another task); the outer timeout turns a hang into a
        # failure.
        async def scenario():
            service = FleetService(port=0, policy=_policy(max_workers=1))
            await service.start()
            try:
                job, _ = job_from_spec({"workload": "camera"})
                service.scheduler.submit("probe", job)
                service._work_available.set()
                while not service._batch_tasks:
                    await asyncio.sleep(0.01)
                await asyncio.gather(*service._batch_tasks)
                start = time.monotonic()
                await service.drain()
                return time.monotonic() - start, service._supervisor.done()
            finally:
                if not service.draining:
                    await service.stop()

        elapsed, stopped = asyncio.run(asyncio.wait_for(scenario(), 20))
        assert stopped
        assert elapsed < 10

    def test_remote_drain_op(self):
        async def scenario():
            service = FleetService(port=0, policy=_policy())
            host, port = await service.start()
            try:
                async with FleetClient(host, port) as client:
                    await client.submit([_spec(seed=0)])
                    ack = await client.request_drain()
                await service.serve_forever()  # returns once drained
                return ack, service.draining
            finally:
                if not service.draining:
                    await service.stop()

        ack, draining = asyncio.run(scenario())
        assert ack["event"] == "draining"
        assert draining
