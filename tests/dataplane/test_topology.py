"""Unit tests for topology declaration and the N_D export."""

import pytest

from repro.dataplane import Topology, TopologyError


def test_defaults_assign_addresses():
    topo = Topology()
    h1 = topo.add_host("h1")
    h2 = topo.add_host("h2")
    assert str(h1.ip) == "10.0.0.1"
    assert str(h2.ip) == "10.0.0.2"
    assert h1.mac != h2.mac


def test_explicit_addresses():
    topo = Topology()
    host = topo.add_host("web", mac="00:11:22:33:44:55", ip="192.168.0.10")
    assert str(host.mac) == "00:11:22:33:44:55"
    assert str(host.ip) == "192.168.0.10"


def test_switch_dpid_defaults_to_order():
    topo = Topology()
    assert topo.add_switch("s1").datapath_id == 1
    assert topo.add_switch("s2").datapath_id == 2


def test_duplicate_names_rejected():
    topo = Topology()
    topo.add_host("x")
    with pytest.raises(TopologyError):
        topo.add_host("x")
    with pytest.raises(TopologyError):
        topo.add_switch("x")


def test_auto_port_assignment():
    topo = Topology()
    topo.add_switch("s1")
    topo.add_host("h1")
    topo.add_host("h2")
    link1 = topo.add_link("h1", "s1")
    link2 = topo.add_link("h2", "s1")
    assert link1.b_port == 1
    assert link2.b_port == 2


def test_explicit_port_assignment():
    topo = Topology()
    topo.add_switch("s1")
    topo.add_host("h1")
    link = topo.add_link("h1", ("s1", 7))
    assert link.b_port == 7
    # Auto-assignment continues above explicit ports.
    topo.add_host("h2")
    assert topo.add_link("h2", "s1").b_port == 8


def test_port_reuse_rejected():
    topo = Topology()
    topo.add_switch("s1")
    topo.add_host("h1")
    topo.add_host("h2")
    topo.add_link("h1", ("s1", 1))
    with pytest.raises(TopologyError):
        topo.add_link("h2", ("s1", 1))


def test_host_endpoints_have_no_port():
    topo = Topology()
    topo.add_switch("s1")
    topo.add_host("h1")
    link = topo.add_link("h1", "s1")
    assert link.a_port is None  # NULL ingress port (Fig. 3)


def test_explicit_port_on_host_rejected():
    topo = Topology()
    topo.add_host("h1")
    topo.add_switch("s1")
    with pytest.raises(TopologyError):
        topo.add_link(("h1", 1), "s1")


def test_self_loop_rejected():
    topo = Topology()
    topo.add_switch("s1")
    with pytest.raises(TopologyError):
        topo.add_link("s1", "s1")


def test_second_link_on_a_host_rejected():
    topo = Topology()
    topo.add_host("h1")
    topo.add_switch("s1")
    topo.add_switch("s2")
    topo.add_link("h1", "s1")
    for a, b in (("h1", "s2"), ("s2", "h1")):
        with pytest.raises(TopologyError, match="already has a link"):
            topo.add_link(a, b)
    # Switches take any number of links; the rejected ones left no trace.
    topo.add_link("s1", "s2")
    assert [(link.a, link.b) for link in topo.links] == [("h1", "s1"), ("s1", "s2")]
    assert topo.switch_ports("s2") == [1]


def test_unknown_device_rejected():
    topo = Topology()
    topo.add_switch("s1")
    with pytest.raises(TopologyError):
        topo.add_link("ghost", "s1")


def test_bad_link_parameters_rejected():
    topo = Topology()
    topo.add_switch("s1")
    topo.add_switch("s2")
    with pytest.raises(TopologyError):
        topo.add_link("s1", "s2", bandwidth_bps=0)
    with pytest.raises(TopologyError):
        topo.add_link("s1", "s2", latency_s=-1)


def test_validate_requires_minimums(small_topology):
    small_topology.validate()  # fine
    empty = Topology()
    empty.add_switch("s1")
    empty.add_host("h1")
    with pytest.raises(TopologyError):
        empty.validate()  # |H| < 2


def test_validate_rejects_unattached_devices():
    topo = Topology()
    topo.add_switch("s1")
    topo.add_host("h1")
    topo.add_host("h2")
    topo.add_link("h1", "s1")
    with pytest.raises(TopologyError):
        topo.validate()  # h2 has no links


def test_data_plane_graph_export(small_topology):
    graph = small_topology.data_plane_graph()
    assert graph["vertices"] == {"h1", "h2", "s1", "s2"}
    assert ("h1", "s1") in graph["edges"]
    assert ("s1", "h1") in graph["edges"]  # both directions
    ingress, egress = graph["attributes"][("h1", "s1")]
    assert ingress is None  # NULL host port
    assert egress == 1


def test_switch_ports_query(small_topology):
    assert small_topology.switch_ports("s1") == [1, 2]
    assert small_topology.switch_ports("s2") == [1, 2]
