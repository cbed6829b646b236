"""QoE engine: the MOS model, experience agreements and admission prediction.

MOS is modeled as 1 + 4 * q_bw * q_delay * q_loss * q_stall with each factor
in [0, 1], so one exhausted dimension pins the score at 1 and a sample that
meets every optimum scores 5. Jitter enters through an effective delay of
delay + 2 * jitter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .errors import InvalidRange
from .units import KBPS_PER_MBPS
from .service import (
    AppProfile,
    ChainRequest,
    LinkPath,
    check_mos_target,
    path_metrics,
)

if TYPE_CHECKING:
    from .service import ServiceCatalog


def check_stall_ratio(stall_ratio: float) -> None:
    """A stall ratio is the share of a window a flow spends stalled."""
    if not 0 <= stall_ratio <= 1:
        raise InvalidRange("stall_ratio must be within [0, 1]", field="stall_ratio")


@dataclass(frozen=True)
class FlowSample:
    """One measurement window's raw figures for a flow."""

    flow_id: int
    throughput_mbps: float
    delay_ms: float
    jitter_ms: float
    loss_pct: float
    stall_ratio: float

    def __post_init__(self):
        if self.throughput_mbps < 0:
            raise InvalidRange("throughput_mbps must be non-negative")
        if self.delay_ms < 0:
            raise InvalidRange("delay_ms must be non-negative")
        if self.jitter_ms < 0:
            raise InvalidRange("jitter_ms must be non-negative")
        if self.loss_pct < 0:
            raise InvalidRange("loss_pct must be non-negative")
        check_stall_ratio(self.stall_ratio)


@dataclass(frozen=True)
class QoeSample:
    """A scored window: the MOS plus its four quality factors.

    Which window it scored is the series' business, not the sample's: a
    settled flow's sample stands for every window it is reused in.
    """

    flow_id: int
    mos: float
    q_bw: float
    q_delay: float
    q_loss: float
    q_stall: float

    def __post_init__(self):
        if not 0 <= self.q_bw <= 1:
            raise InvalidRange("q_bw must be within [0, 1]")
        if not 0 <= self.q_delay <= 1:
            raise InvalidRange("q_delay must be within [0, 1]")
        if not 0 <= self.q_loss <= 1:
            raise InvalidRange("q_loss must be within [0, 1]")
        if not 0 <= self.q_stall <= 1:
            raise InvalidRange("q_stall must be within [0, 1]")
        expected = 1.0 + 4.0 * self.q_bw * self.q_delay * self.q_loss * self.q_stall
        if abs(self.mos - expected) > 1e-9:
            raise InvalidRange("mos does not match its factors")


@dataclass(frozen=True)
class Ela:
    """Experience level agreement for one flow."""

    target_mos: float
    breach_windows: int
    compliance_budget: float

    def __post_init__(self):
        check_mos_target(self.target_mos, "target_mos")
        if self.breach_windows < 1:
            msg = "breach_windows must be at least 1"
            raise InvalidRange(msg, field="breach_windows")
        if not 0 <= self.compliance_budget <= 1:
            msg = "compliance_budget must be within [0, 1]"
            raise InvalidRange(msg, field="compliance_budget")


def _clamp01(value: float) -> float:
    return 0.0 if value < 0.0 else 1.0 if value > 1.0 else value


def estimate_mos(sample: FlowSample, profile: AppProfile) -> QoeSample:
    """Score one window against a profile.

    d_eff = delay + 2 * jitter
    q_bw = min(1, throughput / bw_req)
    q_delay = 1 if d_eff <= delay_opt,
              else clamp((delay_max - d_eff) / (delay_max - delay_opt), 0, 1)
    q_loss = max(0, 1 - loss / loss_max)
    q_stall = max(0, 1 - stall_ratio / stall_max)
    mos = 1 + 4 * q_bw * q_delay * q_loss * q_stall
    """
    d_eff = sample.delay_ms + 2.0 * sample.jitter_ms
    q_bw = min(1.0, sample.throughput_mbps / profile.bw_req_mbps)
    if d_eff <= profile.delay_opt_ms:
        q_delay = 1.0
    else:
        span = profile.delay_max_ms - profile.delay_opt_ms
        q_delay = _clamp01((profile.delay_max_ms - d_eff) / span)
    q_loss = max(0.0, 1.0 - sample.loss_pct / profile.loss_max_pct)
    q_stall = max(0.0, 1.0 - sample.stall_ratio / profile.stall_max)
    mos = 1.0 + 4.0 * q_bw * q_delay * q_loss * q_stall
    return QoeSample(
        flow_id=sample.flow_id,
        mos=mos,
        q_bw=q_bw,
        q_delay=q_delay,
        q_loss=q_loss,
        q_stall=q_stall,
    )


def predict_mos(
    request: ChainRequest,
    segments: Iterable[LinkPath],
    net,
    catalog: "ServiceCatalog",
) -> QoeSample:
    """Admission-time MOS prediction for a candidate embedding.

    Builds a synthetic sample from the candidate's path metrics. Throughput
    is the profile requirement, the rate admission reserves on every link
    of the path, and stalling is assumed absent at admission time. `net` is
    anything with the NetworkState read interface, including planning views.
    """
    profile = catalog.profile(request.profile)
    metrics = path_metrics(
        segments, net, catalog.proc_latencies(request.vnf_sequence)
    )
    sample = FlowSample(
        flow_id=request.id,
        throughput_mbps=profile.bw_req_kbps / KBPS_PER_MBPS,
        delay_ms=metrics.latency_ms,
        jitter_ms=metrics.jitter_ms,
        loss_pct=metrics.loss_pct,
        stall_ratio=0.0,
    )
    return estimate_mos(sample, profile)
