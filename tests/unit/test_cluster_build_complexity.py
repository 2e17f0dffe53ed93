"""Cluster construction is linear in the cluster size, and SCA is unchanged by it.

The pins count work (constructions, interpreter call events), never time, so
they read the same on any machine.
"""

import sys

import pytest

from helpers import FakeEnvironment

from repro import protocols
from repro.cluster.builder import build_cluster
from repro.common.config import ClusterConfig, ProtocolConfig, ScaParameters
from repro.common.errors import ConfigurationError
from repro.escape.configuration import Configuration
from repro.escape.node import EscapeNode
from repro.escape.sca import assign_initial_configurations

ESCAPE_FAMILY = ("escape", "zraft")


def count_calls(action) -> int:
    """Python and C call events (generator resumptions included) in *action*."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls


class TestLinearConstruction:
    @pytest.mark.parametrize("protocol", ESCAPE_FAMILY)
    def test_each_configuration_is_built_once(self, protocol, monkeypatch):
        # Parameters no other test uses, so no earlier build shares them.
        sca = ScaParameters(
            base_time_ms=1000.0 + 0.25 * ESCAPE_FAMILY.index(protocol), k_ms=37.0
        )
        built = []
        validate = Configuration.__post_init__

        def counting_post_init(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(Configuration, "__post_init__", counting_post_init)
        config = ProtocolConfig(sca=sca)
        build_cluster(protocol, 64, trace=False, protocol_config=config)
        assert len(built) == 64  # one per node, not one per node per node
        build_cluster(protocol, 64, trace=False, protocol_config=config)
        assert len(built) == 64  # the same values again: shared, not rebuilt

    @pytest.mark.parametrize("protocol", protocols.names())
    def test_build_work_grows_linearly_with_cluster_size(self, protocol):
        build_cluster(protocol, 4, trace=False)  # lazy engine imports, once
        small = count_calls(lambda: build_cluster(protocol, 64, trace=False))
        large = count_calls(lambda: build_cluster(protocol, 256, trace=False))
        # 4x the nodes; a per-node scan of the membership would read ~10x.
        assert large <= 4.5 * small


class TestScaEquivalence:
    SCA = ScaParameters(base_time_ms=700.0, k_ms=35.0)

    @pytest.mark.parametrize("protocol", ESCAPE_FAMILY)
    @pytest.mark.parametrize("size", (1, 2, 5, 128))
    def test_built_nodes_hold_the_whole_cluster_assignment(self, protocol, size):
        cluster = build_cluster(
            protocol, size, trace=False, protocol_config=ProtocolConfig(sca=self.SCA)
        )
        expected = assign_initial_configurations(cluster.config.server_ids, self.SCA)
        assert {
            server_id: node.configuration for server_id, node in cluster.nodes.items()
        } == expected

    @pytest.mark.parametrize("node_id", (5, 9))
    def test_id_beyond_the_cluster_size_is_still_rejected(self, node_id):
        membership = ClusterConfig(server_ids=(2, 5, 9))
        with pytest.raises(ConfigurationError) as error:
            EscapeNode(node_id, membership, FakeEnvironment(node_id=node_id))
        assert str(error.value) == (
            f"server id {node_id} is outside [1, 3]; SCA uses ids as priorities"
        )

    def test_explicit_initial_configuration_is_honoured_untouched(self):
        # Not an SCA value for this membership, and not re-derived or checked.
        given = Configuration(priority=40, timer_period_ms=1.0, conf_clock=7)
        node = EscapeNode(
            9,
            ClusterConfig(server_ids=(2, 5, 9)),
            FakeEnvironment(node_id=9),
            initial_configuration=given,
        )
        assert node.configuration is given
