"""The live asyncio runtime over real localhost sockets.

These tests run real servers, links, heartbeats and instances.  Timeouts are
kept tight (fault-free rounds complete in milliseconds) but every assertion
is on *structure* — outcomes, views, audit verdicts — never on wall-clock
numbers, so a loaded CI machine cannot flake them.
"""

import asyncio

import pytest

from repro.core.replay import verify_trace_consistency
from repro.service.runtime import (
    InstanceOutcome,
    InstanceSpec,
    ServiceConfig,
    ServiceRuntime,
    audit_instance,
    resolve_protocol,
    run_service,
)
from repro.service.transport import FrameError, encode_frame
from repro.substrates.messaging.chaos import (
    CrashWindow,
    FaultPlan,
    LinkFaults,
    Partition,
)


class TestResolveProtocol:
    def test_catalog(self):
        protocol, rounds = resolve_protocol("consensus", f=2)
        assert rounds == 3
        assert protocol.name.startswith("floodset")
        _, rounds = resolve_protocol("kset", f=4, k=2)
        assert rounds == 3
        _, rounds = resolve_protocol("adopt-commit", f=1)
        assert rounds == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            resolve_protocol("paxos", f=1)


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(n=3, f=3)
        with pytest.raises(ValueError):
            ServiceConfig(n=3, f=-1)
        with pytest.raises(ValueError):
            ServiceConfig(n=3, f=1, heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(n=3, f=1, round_deadline=-1.0)


class TestFaultFreeRun:
    def test_consensus_decides_and_certifies(self):
        """The headline acceptance check: a fault-free live run must decide,
        and its projected trace must pass the simulator-grade audit —
        communication closure included — plus replay consistency."""
        config = ServiceConfig(n=4, f=1, seed=7)
        stats, degradations, (result,) = run_service(
            config, [InstanceSpec("c0", "consensus", inputs=(1, 0, 1, 1))]
        )
        assert result.outcome is InstanceOutcome.DECIDED
        assert len(set(result.decisions)) == 1
        assert len(degradations) == 0

        report = audit_instance(result)
        assert report.ok, report.violations
        assert report.views_checked == 4 * 2  # n=4, f+1=2 rounds

        trace = result.to_trace()
        assert len(trace.rounds) == 2
        verify_trace_consistency(trace)

        assert stats.instances_decided == 4

    def test_adopt_commit_unanimous_commits(self):
        _, _, (result,) = run_service(
            ServiceConfig(n=3, f=1),
            [InstanceSpec("ac", "adopt-commit", inputs=(5, 5, 5))],
        )
        assert result.outcome is InstanceOutcome.DECIDED
        for decision in result.decisions:
            assert decision.committed
            assert decision.value == 5
        assert audit_instance(result).ok

    def test_kset_respects_k(self):
        _, _, (result,) = run_service(
            ServiceConfig(n=5, f=2),
            [InstanceSpec("k0", "kset", inputs=(4, 2, 3, 1, 0), k=2)],
        )
        assert result.outcome is InstanceOutcome.DECIDED
        assert len(set(result.decisions)) <= 2
        assert audit_instance(result).ok

    def test_concurrent_instances_multiplex_one_runtime(self):
        specs = [
            InstanceSpec(f"c{i}", "consensus", inputs=(i % 2, 1, 0, 1))
            for i in range(10)
        ]
        stats, _, results = run_service(ServiceConfig(n=4, f=1), specs)
        assert all(r.outcome is InstanceOutcome.DECIDED for r in results)
        for result in results:
            assert audit_instance(result).ok
        assert stats.instances_decided == 40

    def test_input_arity_checked(self):
        with pytest.raises(ValueError):
            run_service(
                ServiceConfig(n=4, f=1),
                [InstanceSpec("bad", "consensus", inputs=(1, 2))],
            )


class TestChaosRuns:
    def test_lossy_links_still_decide(self):
        """Retransmission + acks mask a 20% loss rate completely."""
        config = ServiceConfig(
            n=4, f=1, seed=3,
            plan=FaultPlan(default=LinkFaults(drop_prob=0.2, dup_prob=0.1)),
        )
        stats, _, results = run_service(
            config,
            [
                InstanceSpec(f"c{i}", "consensus", inputs=(1, 0, 1, 0))
                for i in range(5)
            ],
        )
        for result in results:
            assert result.outcome in (
                InstanceOutcome.DECIDED, InstanceOutcome.DEGRADED
            )
            assert audit_instance(result).ok
        assert stats.messages_dropped_chaos > 0

    def test_crash_window_process_reported_crashed_not_parked(self):
        """A plan-crashed process that misses a round is recorded as
        crashed — parking it would misreport downtime as degradation."""
        config = ServiceConfig(
            n=4, f=1, seed=1,
            round_deadline=0.6,
            initial_timeout=0.15,
            timeout_bump=0.1,
            heartbeat_interval=0.03,
            plan=FaultPlan(crashes={2: [CrashWindow(down=0.0, up=30.0)]}),
        )
        _, _, results = run_service(
            config, [InstanceSpec("c0", "consensus", inputs=(0, 1, 1, 1))]
        )
        (result,) = results
        assert 2 in result.crashed
        assert not result.records[2].parked
        # The survivors close their rounds with 2 in D and still agree.
        live = [r for r in result.records if r.pid != 2]
        assert all(r.process.decided for r in live)
        assert len({r.process.decision for r in live}) == 1
        assert audit_instance(result).ok

    def test_partition_beyond_budget_parks_honestly(self):
        """A 2|2 split exceeds f=1: advancing would break |D| ≤ f, so
        participants park (structured, audited) instead of hanging."""
        config = ServiceConfig(
            n=4, f=1, seed=5,
            round_deadline=0.4,
            retransmit_retries=3,
            retransmit_cap=0.2,
            plan=FaultPlan(partitions=[
                Partition(start=0.0, end=30.0,
                          groups=(frozenset({0, 1}), frozenset({2, 3})))
            ]),
        )
        _, degradations, (result,) = run_service(
            config, [InstanceSpec("c0", "consensus", inputs=(0, 1, 1, 1))]
        )
        assert result.outcome is InstanceOutcome.PARKED
        assert degradations.parks > 0
        # Parked views that were recorded still satisfy the predicates.
        assert audit_instance(result).ok


class TestKillMidRun:
    def test_kill_yields_suspicion_then_decision(self):
        """Killing a process mid-run: survivors suspect it (it lands in D)
        and still decide — the acceptance scenario, as a test."""

        async def scenario():
            config = ServiceConfig(
                n=4, f=1, seed=2,
                round_deadline=1.5,
                initial_timeout=0.12,
                timeout_bump=0.08,
                heartbeat_interval=0.025,
                # Loss slows the rounds enough that the kill lands mid-run.
                plan=FaultPlan(default=LinkFaults(drop_prob=0.4)),
            )
            async with ServiceRuntime(config) as runtime:
                task = asyncio.get_running_loop().create_task(
                    runtime.run_instance(
                        InstanceSpec("c0", "consensus", inputs=(1, 1, 1, 0))
                    )
                )
                await asyncio.sleep(0.02)
                await runtime.kill(3)
                return await task, runtime.stats

        result, stats = asyncio.run(scenario())
        assert 3 in result.crashed
        survivors = [r for r in result.records if r.pid != 3]
        for record in survivors:
            assert record.process.decided
            # The kill happened before round 1 could complete cleanly, so
            # the dead peer must appear in some survivor's suspicion set.
            assert any(3 in view.suspected for view in record.views)
        assert len({r.process.decision for r in survivors}) == 1
        assert stats.suspicions_raised >= 1
        assert audit_instance(result).ok

    def test_kill_mid_round_keeps_survivor_rounds_in_trace(self):
        """Regression: ``to_overlay_result().to_trace()`` used to truncate
        to the common prefix over *all* records — a kill() during round r
        silently dropped the survivors' completed round r (and a process
        killed before the instance started zeroed the whole trace).  The
        projection must keep the live common prefix, crash-pad the victim,
        and still satisfy the replay-consistency and core.audit checks."""

        async def scenario():
            config = ServiceConfig(
                n=4, f=1, seed=5,
                round_deadline=1.5,
                initial_timeout=0.12,
                timeout_bump=0.08,
                heartbeat_interval=0.025,
                plan=FaultPlan(default=LinkFaults(drop_prob=0.4)),
            )
            async with ServiceRuntime(config) as runtime:
                task = asyncio.get_running_loop().create_task(
                    runtime.run_instance(
                        InstanceSpec("k1", "consensus", inputs=(2, 0, 1, 3))
                    )
                )
                await asyncio.sleep(0.02)
                await runtime.kill(3)
                return await task

        result = asyncio.run(scenario())
        assert 3 in result.crashed
        survivors = [r for r in result.records if r.pid != 3]
        live_depth = min(len(r.views) for r in survivors)
        assert live_depth >= 1  # survivors completed rounds after the kill
        trace = result.to_trace()
        # The survivors' completed rounds are all present, not silently
        # dropped down to the victim's (possibly empty) view count.
        assert trace.num_rounds == live_depth
        assert live_depth > len(result.records[3].views)
        verify_trace_consistency(trace)
        # The victim's padded rows attribute the crash rounds explicitly.
        for r in range(len(result.records[3].views), live_depth):
            padded = trace.rounds[r].views[3]
            assert padded.suspected == frozenset({0, 1, 2})
            assert set(padded.messages) == {3}
        # Survivor decisions survive the projection, and the audited views
        # (the *real* recorded ones, not the padding) stay clean.
        for record in survivors:
            assert trace.decisions[record.pid] == record.process.decision
        assert audit_instance(result).ok


class TestRuntimeLifecycle:
    def test_double_instance_name_rejected(self):
        async def scenario():
            async with ServiceRuntime(ServiceConfig(n=3, f=1)) as runtime:
                spec = InstanceSpec("dup", "consensus", inputs=(1, 2, 3))
                task = asyncio.get_running_loop().create_task(
                    runtime.run_instance(spec)
                )
                await asyncio.sleep(0)  # let it register
                with pytest.raises(ValueError):
                    await runtime.run_instance(spec)
                await task

        asyncio.run(scenario())

    def test_stats_rollup_merges_endpoints(self):
        stats, _, _ = run_service(
            ServiceConfig(n=3, f=1),
            [InstanceSpec("c0", "consensus", inputs=(1, 2, 3))],
        )
        snap = stats.snapshot()
        assert snap["frames_sent"] > 0
        assert snap["messages_delivered"] > 0
        assert snap["queue_high_water"] >= 1


class TestMalformedFrames:
    def test_wrong_shaped_frames_are_counted_and_never_escape(self):
        """Each wrong-shaped frame closes its link with a counted rejection;
        none reaches the loop's exception handler, and the runtime that
        received them still decides an instance."""
        hello = {"kind": "hello", "src": 1}
        connections = [
            [hello, {"kind": "data"}],  # no "m"
            [hello, {"kind": "single", "m": 7}],  # message not an object
            [hello, {"kind": "single",
                     "m": {"t": "data", "i": "c0", "r": "nan", "p": 1}}],
            [{"kind": "hello", "src": "zz"}],
        ]

        async def scenario():
            escaped = []
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: escaped.append(context)
            )
            config = ServiceConfig(n=4, f=1, seed=3)
            async with ServiceRuntime(config) as runtime:
                target = runtime.endpoints[0]
                for frames in connections:
                    reader, writer = await asyncio.open_connection(
                        config.host, target.port
                    )
                    writer.write(b"".join(encode_frame(doc) for doc in frames))
                    await writer.drain()
                    assert await reader.read() == b""  # the link is closed
                    writer.close()
                    await writer.wait_closed()
                result = await runtime.run_instance(
                    InstanceSpec("c0", "consensus", inputs=(1, 0, 1, 1))
                )
                return escaped, target.stats.frames_rejected, result

        escaped, rejected, result = asyncio.run(scenario())
        assert result.outcome is InstanceOutcome.DECIDED
        assert rejected == 4
        assert escaped == []

    def test_non_json_and_oversized_frames_are_counted(self):
        async def scenario():
            config = ServiceConfig(n=3, f=1, max_frame=64)
            async with ServiceRuntime(config) as runtime:
                target = runtime.endpoints[0]
                hello = encode_frame({"kind": "hello", "src": 1})
                for body in (b"not json", b"x" * 65):
                    reader, writer = await asyncio.open_connection(
                        config.host, target.port
                    )
                    writer.write(hello + len(body).to_bytes(4, "big") + body)
                    await writer.drain()
                    assert await reader.read() == b""
                    writer.close()
                    await writer.wait_closed()
                return target.stats.frames_rejected, runtime.stats

        rejected, stats = asyncio.run(scenario())
        assert rejected == 2
        assert stats.snapshot()["frames_rejected"] == 2

    def test_only_parsing_is_guarded(self):
        """A fault while applying a well-formed message propagates as
        itself; only a message that does not parse is a FrameError."""

        class Faulty:
            def on_data(self, src, round_number, payload):
                raise TypeError("participant fault")

        async def scenario():
            async with ServiceRuntime(ServiceConfig(n=3, f=1)) as runtime:
                endpoint = runtime.endpoints[0]
                endpoint.participants["c0"] = Faulty()
                try:
                    message = {"t": "data", "i": "c0", "r": 1, "p": 5}
                    with pytest.raises(TypeError, match="participant fault"):
                        await endpoint._dispatch(1, message)
                    for bad in (
                        dict(message, r="nan"),  # non-integer round
                        dict(message, i=["c0"]),  # unhashable instance
                        {"t": "data", "i": "c0", "r": 1},  # no payload
                        [message],  # not an object
                    ):
                        with pytest.raises(FrameError):
                            await endpoint._dispatch(1, bad)
                finally:
                    del endpoint.participants["c0"]
                return endpoint.stats.messages_delivered

        # Nothing that failed to parse was counted as delivered.
        assert asyncio.run(scenario()) == 1
