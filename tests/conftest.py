"""Shared fixtures: small FUSEE clusters sized for fast tests.

Also pins the Hypothesis profile for the whole suite.  CI runs must not
flake on a slow runner or an unlucky draw, so the default ``ci`` profile
is derandomized (the seed is fixed per test body) and has no deadline;
``HYPOTHESIS_PROFILE=dev`` restores randomized exploration for local
bug-hunting sessions.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.core import ClusterConfig, FuseeCluster
from repro.core.addressing import RegionConfig
from repro.core.race import RaceConfig

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.register_profile(
    "dev",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def small_config(**overrides) -> ClusterConfig:
    """A cluster small enough for unit tests but fully featured."""
    defaults = dict(
        n_memory_nodes=3,
        replication_factor=2,
        regions_per_mn=2,
        max_clients=32,
        region=RegionConfig(region_size=1 << 18, block_size=1 << 13,
                            min_object_size=64),
        race=RaceConfig(n_subtables=4, n_groups=16, slots_per_bucket=7),
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


@pytest.fixture
def cluster():
    return FuseeCluster(small_config())


@pytest.fixture
def client(cluster):
    return cluster.new_client()


def run(cluster, generator):
    """Drive a client operation generator to completion."""
    return cluster.run_op(generator)


def backlog_ports(fabric, for_us: float) -> None:
    """Queue ``for_us`` of service on every NIC port of every node.
    Doorbell coalescing widens only a backlogged port, so while the
    backlog lasts every slot that may widen does."""
    for node in fabric.nodes.values():
        for port in (*node.rx_ports, *node.tx_ports):
            port.finish_time(for_us)
