"""Detector registry, built-ins, and ground-truth scoring guards."""

import pytest

from repro.defense import (
    Detector,
    attack_window,
    build_detector,
    detector_info,
    evaluate_detectors,
    feature_windows,
    list_detectors,
    register_detector,
    score_flags,
    truth_labels,
)
from repro.defense.tap import SketchTap


def make_payload(window_s=0.05):
    """A tap payload with frames in windows 0-1 and PACKET_INs in 1."""
    tap = SketchTap(window_s=window_s)
    key = (1, 2, 3, None, 0, 0x0800, 0, 17, 4, 5, 6, 7)
    for k in range(20):
        tap.on_frame("s1", 1, key, 0.001 * k)  # window 0
    flood = (2, 9, 9, None, 0, 0x0800, 0, 17, 1, 1, 1, 1)
    for k in range(20):
        tap.on_frame("s1", 2, flood, 0.05 + 0.002 * k)  # window 1
        tap.on_packet_in(0.05 + 0.002 * k)
    return tap.collect()


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

def test_registry_lists_builtins_with_availability():
    names = {d["name"] for d in list_detectors()}
    assert {"pktin-rate", "newkey-ratio", "iforest"} <= names
    iforest = next(d for d in list_detectors() if d["name"] == "iforest")
    assert iforest["requires"] == "sklearn"
    assert isinstance(iforest["available"], bool)


def test_unknown_and_duplicate_detectors_rejected():
    with pytest.raises(KeyError, match="unknown detector"):
        detector_info("nope")
    with pytest.raises(ValueError, match="already registered"):
        register_detector("pktin-rate")(lambda params: Detector())


def test_import_guarded_detector_without_dependency():
    info = detector_info("iforest")
    if not info.available:
        with pytest.raises(RuntimeError, match="sklearn"):
            build_detector("iforest")


def test_builtin_param_validation():
    with pytest.raises(ValueError):
        build_detector("pktin-rate", {"threshold_pps": 0})
    with pytest.raises(ValueError):
        build_detector("newkey-ratio", {"ratio": 1.5})
    with pytest.raises(ValueError):
        build_detector("newkey-ratio", {"min_frames": 0})


# --------------------------------------------------------------------- #
# Feature windows + built-in behaviour
# --------------------------------------------------------------------- #

def test_feature_windows_zero_fill_the_horizon():
    windows = feature_windows(make_payload(), horizon_s=0.2)
    assert len(windows) == 4
    assert windows[0]["frames"] == 20 and windows[0]["packet_ins"] == 0
    assert windows[1]["packet_ins"] == 20
    assert windows[2]["frames"] == 0 and windows[2]["newkey_ratio"] == 0.0


def test_pktin_rate_flags_only_storm_windows():
    windows = feature_windows(make_payload(), horizon_s=0.2)
    detector = build_detector("pktin-rate", {"threshold_pps": 200})
    assert detector.flags(windows) == [False, True, False, False]


def test_newkey_ratio_flags_fresh_key_windows():
    windows = feature_windows(make_payload(), horizon_s=0.2)
    # Window 0: one distinct key over 20 frames -> ratio 1/20.  Window 1
    # repeats a single flood key -> also low.  Use a low bar to catch
    # window 0's first-sight spike only when ratio <= 1/20.
    detector = build_detector("newkey-ratio",
                              {"ratio": 0.05, "min_frames": 10})
    assert detector.flags(windows) == [True, True, False, False]


# --------------------------------------------------------------------- #
# Ground truth + scoring
# --------------------------------------------------------------------- #

def test_attack_window_only_for_adversarial_sources():
    params = {"start_s": 0.25, "duration_s": 0.3}
    assert attack_window(params, adversarial=True) == (0.25, 0.55)
    assert attack_window(params, adversarial=False) is None


def test_truth_labels_overlap_semantics():
    windows = feature_windows(make_payload(), horizon_s=0.2)
    labels = truth_labels(windows, (0.06, 0.11))
    assert labels == [False, True, True, False]
    assert truth_labels(windows, None) == [False] * 4


def test_score_flags_counts_and_latency():
    windows = feature_windows(make_payload(), horizon_s=0.2)
    span = (0.05, 0.15)
    labels = truth_labels(windows, span)  # windows 1 and 2 active
    scores = score_flags([False, True, False, True], labels, windows, span)
    assert (scores["tp"], scores["fp"], scores["fn"], scores["tn"]) == (1, 1, 1, 1)
    assert scores["precision"] == 0.5
    assert scores["recall"] == 0.5
    # Alarm at the first flagged active window's close: t1 of window 1.
    assert scores["detection_latency_s"] == pytest.approx(0.05)


def test_score_flags_guards_undefined_ratios():
    windows = feature_windows(make_payload(), horizon_s=0.2)
    # No active windows: recall undefined, not ZeroDivisionError.
    quiet = score_flags([False] * 4, [False] * 4, windows, None)
    assert quiet["precision"] is None and quiet["recall"] is None
    assert quiet["detection_latency_s"] is None
    # Attack present but detector never fires: unbounded latency as None.
    missed = score_flags([False] * 4, [False, True, True, False],
                         windows, (0.05, 0.15))
    assert missed["recall"] == 0.0
    assert missed["precision"] is None
    assert missed["detection_latency_s"] is None
    with pytest.raises(ValueError, match="length mismatch"):
        score_flags([True], [True, False], windows, None)


def test_evaluate_detectors_handles_missing_payload():
    results = evaluate_detectors(None, horizon_s=1.0,
                                 detectors=["pktin-rate"])
    assert results[0]["precision"] is None
    assert results[0]["recall"] is None
    assert evaluate_detectors(make_payload(), horizon_s=0.2,
                              detectors=[]) == []


def test_evaluate_detectors_scores_each_detector():
    results = evaluate_detectors(
        make_payload(), horizon_s=0.2,
        detectors=["pktin-rate"],
        detector_params={"threshold_pps": 200},
        attack_span=(0.05, 0.1),
    )
    assert results[0]["detector"] == "pktin-rate"
    assert results[0]["precision"] == 1.0
    assert results[0]["recall"] == 1.0
    assert results[0]["detection_latency_s"] == pytest.approx(0.05)
