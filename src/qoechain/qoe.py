"""QoE engine: the MOS model, experience agreements and admission prediction.

MOS is modeled as 1 + 4 * q_bw * q_delay * q_loss * q_stall with each factor
in [0, 1], so one exhausted dimension pins the score at 1 and a sample that
meets every optimum scores 5. Jitter enters through an effective delay of
delay + 2 * jitter.

FlowSample and QoeSample are plain tuples that check nothing, because every
figure they carry is in range by construction, floats included:
- A raw sample's delay, jitter and loss are sums, and one compounded
  product, of link and VNF figures that check_link_quality and VnfType
  hold within [0, MAX_DELAY_MS], loss within [0, 100], so every sum is
  finite. Its throughput is a reservation of 0 kbps or more, and its stall
  level passed check_stall_ratio in the parser and in set_stall.
- Smoothing takes a * r + (1 - a) * p with a in (0, 1] and finite r, p >=
  0, which is exactly non-negative and finite in IEEE floats. With an
  infinite figure, 0 * inf would be NaN at a = 1, and the carry would
  never decay at a < 1.
- estimate_mos maps any non-negative figures into factors in [0, 1]: q_bw
  by min, q_delay by _clamp01, and q_loss and q_stall by max(0, 1 - x /
  limit) with a limit AppProfile holds positive, so even a stall above 1
  gives a q_stall in [0, 1]. The MOS is computed from those factors, so it
  lies in [1, 5] and matches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import InvalidRange
from .network import PathMetrics
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


class FlowSample(NamedTuple):
    """One measurement window's raw figures for a flow."""

    flow_id: int
    throughput_mbps: float
    delay_ms: float
    jitter_ms: float
    loss_pct: float
    stall_ratio: float


class QoeSample(NamedTuple):
    """A scored window: the MOS plus its four quality factors.

    Which window it scored is the series' business, not the sample's: a
    settled flow's sample stands for every window it is reused in. Its
    fields after flow_id are the series' columns, in order.
    """

    flow_id: int
    mos: float
    q_bw: float
    q_delay: float
    q_loss: float
    q_stall: float


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
    flow_id, throughput, delay, jitter, loss, stall = sample
    d_eff = delay + 2.0 * jitter
    q_bw = min(1.0, throughput / profile.bw_req_mbps)
    if d_eff <= profile.delay_opt_ms:
        q_delay = 1.0
    else:
        span = profile.delay_max_ms - profile.delay_opt_ms
        q_delay = _clamp01((profile.delay_max_ms - d_eff) / span)
    q_loss = max(0.0, 1.0 - loss / profile.loss_max_pct)
    q_stall = max(0.0, 1.0 - stall / profile.stall_max)
    mos = 1.0 + 4.0 * q_bw * q_delay * q_loss * q_stall
    return QoeSample(flow_id, mos, q_bw, q_delay, q_loss, q_stall)


def predict_mos(
    request: ChainRequest,
    segments: Iterable[LinkPath],
    net,
    catalog: "ServiceCatalog",
) -> tuple[QoeSample, PathMetrics]:
    """Admission-time MOS prediction for a candidate embedding.

    Builds a synthetic sample from the candidate's path metrics, and returns
    its score with those metrics. Throughput is the profile requirement, the
    rate admission reserves on every link of the path, and stalling is
    assumed absent at admission time. `net` is anything with the
    NetworkState read interface, including planning views.
    """
    profile = catalog.profile(request.profile)
    metrics = path_metrics(
        segments, net, catalog.proc_latencies(request.vnf_sequence)
    )
    sample = FlowSample(request.id, profile.bw_req_mbps, *metrics, 0.0)
    return estimate_mos(sample, profile), metrics
