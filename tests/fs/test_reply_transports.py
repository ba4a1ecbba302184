"""Every server port a builder wires up can reply to every client node.

``RpcServerPort.reply`` routes through the transport the client's
``RpcClient`` registered as it was built; there is no other route, so
a client node missing from any port's ``transports`` would fail with a
``KeyError`` on its first reply.
"""

import pytest

from repro.fs import build_cluster

CLUSTERS = {
    "redbud-1-shard": dict(system="redbud-delayed", num_clients=3),
    "redbud-2-shards": dict(system="redbud-delayed", num_clients=3, shards=2),
    "redbud-aggregated": dict(
        system="redbud-delayed", num_clients=12, client_processes=3
    ),
    "nfs3": dict(system="nfs3", num_clients=3),
    "pvfs2": dict(system="pvfs2", num_clients=3),
}


def _server_ports(cluster):
    if cluster.system_name == "redbud":
        return list(cluster.ports)
    if cluster.system_name == "nfs3":
        return [cluster.port]
    return [cluster.meta.port] + [server.port for server in cluster.servers]


@pytest.mark.parametrize("name", sorted(CLUSTERS))
def test_every_port_has_a_transport_for_every_client_node(name):
    cluster = build_cluster(**CLUSTERS[name])
    nodes = set(range(cluster.config.client_nodes))
    ports = _server_ports(cluster)
    assert ports
    for port in ports:
        assert set(port.transports) == nodes
