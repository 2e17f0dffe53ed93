"""Integration tests for the asyncio real-time runtime (localhost UDP)."""

import asyncio

import pytest

from repro.runtime import LocalAsyncCluster
from repro.statemachine.kvstore import GetCommand, PutCommand


def run_async(coro, timeout=30.0):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestLiveCluster:
    def test_escape_cluster_elects_leader_and_replicates(self):
        async def scenario():
            cluster = LocalAsyncCluster(protocol="escape", size=5, base_port=29600, seed=1)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout_ms=10_000.0)
                assert leader.node_id in cluster.nodes
                previous = await cluster.propose_and_wait(PutCommand("k", "v1"))
                assert previous is None
                value = await cluster.propose_and_wait(GetCommand("k"))
                assert value == "v1"
            finally:
                await cluster.shutdown()

        run_async(scenario())

    def test_failover_on_live_sockets(self):
        async def scenario():
            cluster = LocalAsyncCluster(protocol="escape", size=5, base_port=29620, seed=2)
            await cluster.start()
            try:
                await cluster.wait_for_leader(timeout_ms=10_000.0)
                await cluster.propose_and_wait(PutCommand("before", 1))
                crashed, new_leader, failover_ms = await cluster.crash_leader_and_wait(
                    timeout_ms=15_000.0
                )
                assert new_leader.node_id != crashed
                assert failover_ms < 10_000.0
                value = await cluster.propose_and_wait(GetCommand("before"))
                assert value == 1
            finally:
                await cluster.shutdown()

        run_async(scenario())

    def test_raft_protocol_also_runs_live(self):
        async def scenario():
            cluster = LocalAsyncCluster(protocol="raft", size=3, base_port=29640, seed=3)
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout_ms=10_000.0)
                assert leader.current_term >= 1
                await cluster.propose_and_wait(PutCommand("x", 1))
            finally:
                await cluster.shutdown()

        run_async(scenario())

    def test_transport_loss_injection_does_not_block_progress(self):
        async def scenario():
            cluster = LocalAsyncCluster(
                protocol="escape", size=3, base_port=29660, seed=4, loss_rate=0.1
            )
            await cluster.start()
            try:
                leader = await cluster.wait_for_leader(timeout_ms=15_000.0)
                assert leader is not None
            finally:
                await cluster.shutdown()

        run_async(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            cluster = LocalAsyncCluster(protocol="escape", size=3, base_port=29680, seed=5)
            await cluster.start()
            try:
                with pytest.raises(Exception):
                    await cluster.start()
            finally:
                await cluster.shutdown()

        run_async(scenario())


class TestInertSendsStillGoOnTheWire:
    """``inert`` is a licence for a *simulated* transport to skip a delivery;
    the real runtime cannot see its receivers and sends everything."""

    def test_a_same_term_refusal_reaches_the_candidates_socket(self):
        from repro.common.config import ClusterConfig
        from repro.raft.messages import RequestVoteRequest, RequestVoteResponse
        from repro.raft.node import RaftNode
        from repro.runtime.environment import AsyncNodeEnvironment
        from repro.runtime.transport import UdpJsonTransport

        async def scenario():
            # S3 has an address and no socket: its grant goes nowhere.
            book = {n: ("127.0.0.1", 29699 + n) for n in (1, 2, 3)}
            heard: list = []
            arrived = asyncio.Event()

            def candidate_hears(src, message):
                heard.append((src, message))
                arrived.set()

            candidate = UdpJsonTransport(1, book, candidate_hears)
            voter_socket = UdpJsonTransport(2, book, lambda src, message: None)
            await candidate.start()
            await voter_socket.start()
            voter = RaftNode(
                2, ClusterConfig.of_size(3), AsyncNodeEnvironment(2, voter_socket)
            )
            try:
                voter.start()
                # S2 votes for S3 in term 1, then refuses S1 in the same term:
                # the one reply RaftNode flags inert.
                voter.on_message(3, RequestVoteRequest(term=1, candidate_id=3))
                voter.on_message(1, RequestVoteRequest(term=1, candidate_id=1))
                await asyncio.wait_for(arrived.wait(), 5.0)
            finally:
                voter.stop()
                candidate.close()
                voter_socket.close()
                await asyncio.sleep(0)
            assert heard == [
                (2, RequestVoteResponse(term=1, voter_id=2, vote_granted=False))
            ]

        run_async(scenario())
