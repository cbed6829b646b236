"""MOS model, agreement rules and admission prediction."""

from random import Random

import pytest
from hypothesis import given, strategies as st

from qoechain import (
    Controller,
    Ela,
    FlowSample,
    estimate_mos,
    parse_scenario,
    path_metrics,
    predict_mos,
    run,
)
from qoechain.errors import InvalidRange

from generators import (
    SCENARIOS,
    breach_trail,
    line_network,
    make_profile,
    make_request,
    random_doc,
    series_rows,
    small_catalog,
)


def _sample(thr=4.0, delay=100.0, jitter=25.0, loss=1.0, stall=0.05):
    return FlowSample(0, thr, delay, jitter, loss, stall)


def test_mos_worked_example():
    profile = make_profile()  # bw 4, delay 50..400, loss_max 5, stall_max 0.2
    scored = estimate_mos(_sample(), profile)
    # d_eff 150, q_delay 250/350, q_loss 0.8, q_stall 0.75 -> 1 + 12/7
    assert scored.mos == pytest.approx(2.7142857142857144, abs=1e-9)
    assert scored.q_bw == pytest.approx(1.0)
    assert scored.q_delay == pytest.approx(250.0 / 350.0, abs=1e-12)
    assert scored.q_loss == pytest.approx(0.8, abs=1e-12)
    assert scored.q_stall == pytest.approx(0.75, abs=1e-12)


def test_perfect_sample_scores_five():
    profile = make_profile()
    scored = estimate_mos(_sample(thr=10.0, delay=10.0, jitter=0.0, loss=0.0, stall=0.0), profile)
    assert scored.mos == 5.0


def test_one_exhausted_factor_pins_mos_at_one():
    profile = make_profile()
    scored = estimate_mos(_sample(loss=5.0), profile)
    assert scored.q_loss == 0.0
    assert scored.mos == 1.0


def test_delay_boundaries():
    profile = make_profile()
    at_opt = estimate_mos(_sample(delay=50.0, jitter=0.0), profile)
    assert at_opt.q_delay == 1.0
    at_max = estimate_mos(_sample(delay=400.0, jitter=0.0), profile)
    assert at_max.q_delay == 0.0
    beyond = estimate_mos(_sample(delay=1000.0, jitter=0.0), profile)
    assert beyond.q_delay == 0.0


def test_jitter_counts_double():
    profile = make_profile()
    with_jitter = estimate_mos(_sample(delay=100.0, jitter=25.0), profile)
    flat = estimate_mos(_sample(delay=150.0, jitter=0.0), profile)
    assert with_jitter.q_delay == flat.q_delay


def test_throughput_above_requirement_does_not_overshoot():
    profile = make_profile()
    assert estimate_mos(_sample(thr=400.0), profile).q_bw == 1.0
    assert estimate_mos(_sample(thr=2.0), profile).q_bw == pytest.approx(0.5)
    assert estimate_mos(_sample(thr=0.0), profile).q_bw == 0.0


# A sample's figures after its flow id: four non-negative, then a stall level.
figures = st.tuples(*[st.floats(0.0, 1e12)] * 4, st.floats(0.0, 1.0))


@given(figures, figures, st.floats(0.0, 1.0, exclude_min=True))
def test_smoothing_keeps_figures_in_range(prev, raw, alpha):
    # The EWMA of non-negative figures is non-negative, and of two stall
    # levels in [0, 1] is in [0, 1], exactly in floats: nothing re-checks it.
    smoothed, _ = Controller._smooth(FlowSample(0, *prev), FlowSample(0, *raw), alpha)
    assert all(figure >= 0.0 for figure in smoothed[1:])
    assert smoothed.stall_ratio <= 1.0


@given(
    figures,
    figures,
    st.tuples(*[st.booleans()] * 5),
    st.sampled_from((0.3, 0.5, 1.0)) | st.floats(0.0, 1.0, exclude_min=True),
)
def test_smoothing_folds_each_figure_by_the_ewma(prev, raw, repeat, alpha):
    # Each figure after the flow id is alpha * raw + (1 - alpha) * prev, and
    # the smoothed figures are held (still) exactly when folding raw into
    # them again would leave every one unchanged: the fold's fixed point,
    # audit_measurement's rule. A raw figure may repeat prev's, which is
    # where the EWMA can reach it. With no prev, raw is taken as it is.
    raw = tuple(p if same else r for p, r, same in zip(prev, raw, repeat))
    prev, raw = FlowSample(7, *prev), FlowSample(8, *raw)

    def fixed_point(carry):
        names = FlowSample._fields[1:]
        fold = [alpha * getattr(raw, n) + (1 - alpha) * getattr(carry, n) for n in names]
        return fold == [getattr(carry, n) for n in names]

    smoothed, still = Controller._smooth(prev, raw, alpha)
    assert type(smoothed) is FlowSample and smoothed.flow_id == 8
    for name in FlowSample._fields[1:]:
        expected = alpha * getattr(raw, name) + (1 - alpha) * getattr(prev, name)
        assert getattr(smoothed, name) == expected, name
    assert still == fixed_point(smoothed)
    first, still = Controller._smooth(None, raw, alpha)
    assert first is raw and still == fixed_point(raw)


def test_every_scored_window_is_in_range():
    # What a run writes is in range by construction: each factor in [0, 1]
    # and the MOS exactly the model's value of them, so within [1, 5].
    rng = Random(7171)
    docs = [parse_scenario(path.read_text())[0] for path in sorted(SCENARIOS.glob("*.json"))]
    docs += [random_doc(rng, index) for index in range(40)]
    scored = 0
    for doc in docs:
        for _, sample in series_rows(run(doc)):
            factors = sample[2:]
            assert all(0.0 <= factor <= 1.0 for factor in factors), sample
            assert 1.0 <= sample.mos <= 5.0, sample
            q_bw, q_delay, q_loss, q_stall = factors
            assert sample.mos == 1.0 + 4.0 * q_bw * q_delay * q_loss * q_stall, sample
            scored += 1
    assert scored > 100


def test_ela_validation():
    with pytest.raises(InvalidRange):
        Ela(0.5, 1, 1.0)
    with pytest.raises(InvalidRange):
        Ela(3.0, 0, 1.0)
    with pytest.raises(InvalidRange):
        Ela(3.0, 1, 1.5)


def test_breach_needs_k_consecutive_strictly_below():
    # Stall 0.0 scores 5.0, 0.1 exactly the target 3.0, 0.2 scores 1.0.
    assert breach_trail(2, [0.0, 0.1, 0.2]) == ([5.0, 3.0, 1.0], [])
    # Fewer than K windows below the target cannot breach.
    assert breach_trail(2, [0.2])[1] == []
    assert breach_trail(2, [0.0, 0.2, 0.2])[1] == [2]
    # A window exactly at the target does not breach and ends the run.
    assert breach_trail(2, [0.2, 0.1])[1] == []
    assert breach_trail(2, [0.1, 0.1])[1] == []
    assert breach_trail(2, [0.2, 0.1, 0.2])[1] == []
    assert breach_trail(2, [0.2, 0.1, 0.2, 0.2])[1] == [3]


def test_breach_window_of_one():
    # K = 1: every window below the target breaches on its own.
    assert breach_trail(1, [0.0, 0.2])[1] == [1]
    assert breach_trail(1, [0.2, 0.1])[1] == [0]
    assert breach_trail(1, [0.2, 0.2, 0.0, 0.2])[1] == [0, 1, 3]


def test_predict_mos_scores_the_path_figures():
    net = line_network()
    catalog = small_catalog()
    request = make_request()
    predicted, metrics = predict_mos(request, ((0,), (1,)), net, catalog)
    # 11 ms effective delay against delay_opt 50 -> every factor is 1.
    assert predicted.mos == 5.0
    assert metrics == path_metrics(((0,), (1,)), net, catalog.proc_latencies(request.vnf_sequence))


def test_predict_mos_without_links_assumes_requirement_met():
    net = line_network()
    catalog = small_catalog()
    request = make_request(vnfs=())
    predicted, _ = predict_mos(request, ((),), net, catalog)
    assert predicted.q_bw == 1.0


profiles = st.builds(
    make_profile,
    bw_kbps=st.integers(100, 10_000),
    delay_opt=st.floats(0.0, 100.0),
    delay_max=st.floats(101.0, 800.0),
    loss_max=st.floats(0.5, 100.0),
    stall_max=st.floats(0.05, 1.0),
)
samples = st.builds(
    _sample,
    thr=st.floats(0.0, 20.0),
    delay=st.floats(0.0, 1000.0),
    jitter=st.floats(0.0, 100.0),
    loss=st.floats(0.0, 100.0),
    stall=st.floats(0.0, 1.0),
)


@given(profiles, samples)
def test_mos_bounds_and_consistency(profile, sample):
    scored = estimate_mos(sample, profile)
    assert 1.0 <= scored.mos <= 5.0
    for factor in (scored.q_bw, scored.q_delay, scored.q_loss, scored.q_stall):
        assert 0.0 <= factor <= 1.0
    product = scored.q_bw * scored.q_delay * scored.q_loss * scored.q_stall
    assert scored.mos == pytest.approx(1.0 + 4.0 * product, abs=1e-9)


@given(profiles, samples, st.floats(0.1, 200.0))
def test_more_delay_never_helps(profile, sample, extra):
    base = estimate_mos(sample, profile)
    worse = estimate_mos(
        FlowSample(
            sample.flow_id,
            sample.throughput_mbps,
            sample.delay_ms + extra,
            sample.jitter_ms,
            sample.loss_pct,
            sample.stall_ratio,
        ),
        profile,
    )
    assert worse.mos <= base.mos + 1e-9
