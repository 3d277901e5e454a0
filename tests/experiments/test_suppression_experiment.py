"""Integration tests for the Fig. 11 suppression experiment driver.

Scaled-down workloads keep runtime low; the full-scale reproduction lives
in benchmarks/test_fig11_*.py.
"""

import pytest

from repro.experiments import run_suppression_experiment

FAST = dict(ping_trials=8, iperf_trials=1, iperf_duration_s=1.0,
            iperf_gap_s=1.0, warmup_s=5.0)


@pytest.fixture(scope="module")
def results():
    out = {}
    for controller in ("floodlight", "pox", "ryu"):
        for attacked in (False, True):
            out[(controller, attacked)] = run_suppression_experiment(
                controller, attacked, **FAST
            )
    return out


def test_baselines_are_healthy(results):
    for controller in ("floodlight", "pox", "ryu"):
        baseline = results[(controller, False)]
        assert baseline.ping_loss_rate == 0.0
        assert baseline.mean_throughput_mbps > 60.0
        assert baseline.flow_mods_dropped == 0
        assert not baseline.denial_of_service


def test_baselines_statistically_similar(results):
    rtts = [results[(c, False)].median_rtt_s for c in ("floodlight", "pox", "ryu")]
    assert max(rtts) < 0.01  # all in the low-millisecond regime


def test_pox_suppression_is_denial_of_service(results):
    """The Fig. 11 asterisk."""
    attacked = results[("pox", True)]
    assert attacked.denial_of_service
    assert attacked.ping_received == 0
    assert attacked.mean_throughput_mbps == 0.0
    assert attacked.median_rtt_s is None  # "latency is infinite"


@pytest.mark.parametrize("controller", ["floodlight", "ryu"])
def test_degradation_without_dos(results, controller):
    baseline = results[(controller, False)]
    attacked = results[(controller, True)]
    assert not attacked.denial_of_service
    assert attacked.ping_loss_rate == 0.0
    # Latency rises by a clear factor (every packet -> controller RTT).
    assert attacked.median_rtt_s > 2 * baseline.median_rtt_s
    # Throughput collapses by at least ~5x.
    assert attacked.mean_throughput_mbps < baseline.mean_throughput_mbps / 5


def test_control_plane_amplification(results):
    """Section VII-B: up to n PACKET_INs for n data packets."""
    for controller in ("floodlight", "ryu"):
        baseline = results[(controller, False)]
        attacked = results[(controller, True)]
        assert attacked.packet_ins > 10 * max(baseline.packet_ins, 1)
        assert attacked.flow_mods_dropped > 0


def test_flow_mods_all_dropped_under_attack(results):
    for controller in ("floodlight", "pox", "ryu"):
        attacked = results[(controller, True)]
        assert attacked.flow_mods_dropped == attacked.flow_mods_seen


def test_result_row_shape(results):
    row = results[("floodlight", True)].row()
    assert set(row) == {
        "controller", "attacked", "throughput_mbps", "median_rtt_ms",
        "ping_loss", "packet_ins", "flow_mods_dropped", "dos",
    }


@pytest.mark.parametrize("name", ["ping_trials", "iperf_trials"])
@pytest.mark.parametrize("trials", [0, -1])
def test_trial_counts_below_one_are_refused(name, trials):
    """No trials would read as a 0 Mbps baseline or an infinite RTT (the
    table's denial-of-service mark), and a negative ping count scheduled
    the iperf phase into the past."""
    with pytest.raises(ValueError, match=name):
        run_suppression_experiment("pox", False, **dict(FAST, **{name: trials}))
