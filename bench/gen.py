"""Seeded synthetic scenarios for the benchmark workloads.

Stdlib only, and independent of the simulator: it writes scenario JSON and
the program under test only ever sees the files. The substrate is built the
way ``tests/generators.py::random_network`` builds one, a random spanning
tree plus extra links, at benchmark size.

A workload run simulates a small seed sweep, as a researcher would: a
workload's "sweep" scenarios, each with its own substrate, requests and
faults, all drawn from (workload, seed, index). Summing over the sweep keeps
one unlucky substrate or fault placement from deciding the run's host time.
The same (workload, seed) always yields the same bytes.
"""

from __future__ import annotations

import json
from random import Random

WORKLOADS: dict[str, dict] = {
    # Short-lived chains arriving all through the horizon, hosts sized so
    # that rejections come from routing and the QoE gate rather than from
    # a lack of CPU (a NoHost rejection skips routing altogether).
    "admission_churn": {
        "sweep": 8,
        "endpoints": 6,
        "hosts": 12,
        "switches": 6,
        "extra_links": 18,
        "host_capacity": (12, 24),
        "link_mbps": (40, 100),
        "link_latency_ms": (1.0, 15.0),
        "ela_target": (2.5, 3.8),
        "requests": 90,
        "chain": (1, 3),
        "holding_ms": (2_000, 8_000),
        "windows": 20,
        "window_ms": 1_000,
        "host_failures": 1,
        "degradations": 0,
        "stalls": 0,
    },
    # Long-lived flows that all arrive in the first window and outlive the
    # horizon; short links and lenient targets so nearly all are admitted.
    "steady_monitoring": {
        "sweep": 8,
        "endpoints": 4,
        "hosts": 8,
        "switches": 4,
        "extra_links": 10,
        "host_capacity": (200, 200),
        "link_mbps": (2_000, 4_000),
        "link_latency_ms": (1.0, 5.0),
        "ela_target": (2.0, 3.0),
        "requests": 50,
        "chain": (1, 3),
        "holding_ms": (150_000, 150_000),
        "windows": 150,
        "window_ms": 1_000,
        "host_failures": 0,
        "degradations": 0,
        "stalls": 0,
    },
    # Many short fault episodes: each link degradation and stall is undone
    # after 3-6 windows, so repair work is a sum of many bounded episodes.
    # Few, long-lived flows, so that breach repair outweighs admission. The
    # repair work of one scenario varies most from seed to seed (how many
    # flows a degraded link carries), so the sweep holds four times as many
    # scenarios, each half as long: 16 scenarios of 75 windows gave a
    # seed-to-seed spread (IQR over median, seeds 1-10) of
    # shortest_feasible_path calls of 0.13, these 0.07.
    "fault_storm": {
        "sweep": 32,
        "endpoints": 4,
        "hosts": 10,
        "switches": 6,
        "extra_links": 16,
        "host_capacity": (10, 20),
        "link_mbps": (40, 100),
        "link_latency_ms": (1.0, 15.0),
        "ela_target": (2.5, 3.8),
        "requests": 30,
        "chain": (1, 3),
        "holding_ms": (10_000, 30_000),
        "windows": 38,
        "window_ms": 1_000,
        "host_failures": 1,
        "degradations": 55,
        "stalls": 25,
    },
}

# Overrides for the one long-horizon scenario a workload adds to its
# peak-memory run: per-flow state grows with a flow's lifetime, so only a
# long horizon shows it. Workloads of short-lived flows have none.
LONG_HORIZON: dict[str, dict] = {
    "steady_monitoring": {
        "host_capacity": (300, 300),
        "requests": 200,
        "holding_ms": (300_000, 300_000),
        "windows": 300,
    },
}

VNF_TYPES = [
    {"name": "fw", "cpu_demand": 2, "mem_demand": 2, "proc_latency_ms": 1.0},
    {"name": "nat", "cpu_demand": 1, "mem_demand": 1, "proc_latency_ms": 0.5},
    {"name": "ids", "cpu_demand": 3, "mem_demand": 2, "proc_latency_ms": 2.5},
    {"name": "lb", "cpu_demand": 1, "mem_demand": 2, "proc_latency_ms": 0.8},
    {"name": "cache", "cpu_demand": 2, "mem_demand": 3, "proc_latency_ms": 1.5},
]

PROFILES = [
    {"name": "video", "bw_mbps": 4.0, "delay_opt_ms": 40.0, "delay_max_ms": 300.0,
     "loss_max_pct": 5.0, "stall_max": 0.2},
    {"name": "voip", "bw_mbps": 0.5, "delay_opt_ms": 20.0, "delay_max_ms": 150.0,
     "loss_max_pct": 3.0, "stall_max": 0.5},
    {"name": "web", "bw_mbps": 2.0, "delay_opt_ms": 60.0, "delay_max_ms": 500.0,
     "loss_max_pct": 8.0, "stall_max": 0.4},
]


def generate(workload: str, seed: int, index: int | str) -> dict:
    """Scenario `index` of the sweep for (workload, seed), as a JSON object.

    The index "long" names the workload's long-horizon scenario instead.
    """
    params = WORKLOADS[workload]
    if index == "long":
        params = {**params, **LONG_HORIZON[workload]}
    rng = Random(f"{workload}:{seed}:{index}")
    duration = params["windows"] * params["window_ms"]
    window = params["window_ms"]

    nodes = [{"id": i, "kind": "endpoint"} for i in range(params["endpoints"])]
    endpoint_ids = [node["id"] for node in nodes]
    low, high = params["host_capacity"]
    for _ in range(params["hosts"]):
        nodes.append(
            {
                "id": len(nodes),
                "kind": "host",
                "cpu_capacity": rng.randint(low, high),
                "mem_capacity": rng.randint(low, high),
            }
        )
    host_ids = [node["id"] for node in nodes if node["kind"] == "host"]
    for _ in range(params["switches"]):
        nodes.append({"id": len(nodes), "kind": "switch"})

    order = [node["id"] for node in nodes]
    rng.shuffle(order)
    links = []

    def add_link(a: int, b: int) -> None:
        links.append(
            {
                "id": len(links),
                "a": a,
                "b": b,
                "bandwidth_mbps": rng.randint(*params["link_mbps"]),
                "latency_ms": round(rng.uniform(*params["link_latency_ms"]), 1),
                "jitter_ms": round(rng.uniform(0.0, 3.0), 1),
                "loss_pct": round(rng.uniform(0.0, 0.5), 2),
            }
        )

    for position in range(1, len(order)):
        add_link(order[position], rng.choice(order[:position]))
    for _ in range(params["extra_links"]):
        a, b = rng.sample(order, 2)
        add_link(a, b)

    long_lived = params["holding_ms"][0] >= duration
    requests = []
    for request_id in range(params["requests"]):
        ingress, egress = rng.sample(endpoint_ids, 2)
        length = rng.randint(*params["chain"])
        requests.append(
            {
                "id": request_id,
                "ingress": ingress,
                "egress": egress,
                "vnfs": [rng.choice(VNF_TYPES)["name"] for _ in range(length)],
                "profile": rng.choice(PROFILES)["name"],
                "ela_target": round(rng.uniform(*params["ela_target"]), 2),
                "arrival_ms": rng.randrange(0, window if long_lived else duration),
                "holding_ms": rng.randint(*params["holding_ms"]),
            }
        )

    host_failures = [
        {"time_ms": rng.randrange(duration // 4, duration), "host": host}
        for host in rng.sample(host_ids, params["host_failures"])
    ]
    # Each episode is undone by a second entry that restores the link's base
    # figures, or a stall ratio of 0, a few windows later.
    degradations = []
    for _ in range(params["degradations"]):
        link = rng.choice(links)
        start = rng.randrange(0, duration)
        degradations.append(
            {
                "time_ms": start,
                "link": link["id"],
                "latency_ms": round(rng.uniform(50.0, 300.0), 1),
                "loss_pct": round(rng.uniform(2.0, 10.0), 2),
            }
        )
        degradations.append(
            {
                "time_ms": min(duration, start + rng.randint(3, 6) * window),
                "link": link["id"],
                "latency_ms": link["latency_ms"],
                "loss_pct": link["loss_pct"],
            }
        )
    stalls = []
    for _ in range(params["stalls"]):
        request = rng.choice(requests)
        start = min(duration, request["arrival_ms"] + rng.randrange(request["holding_ms"]))
        ratio = round(rng.uniform(0.1, 0.6), 3)
        stalls.append({"time_ms": start, "flow": request["id"], "stall_ratio": ratio})
        end = min(duration, start + rng.randint(3, 6) * window)
        stalls.append({"time_ms": end, "flow": request["id"], "stall_ratio": 0.0})

    def by_time(items):
        return sorted(items, key=lambda item: item["time_ms"])

    return {
        "meta": {
            "name": f"{workload}-{seed}-{index}",
            "seed": seed,
            "duration_ms": duration,
            "window_ms": window,
        },
        "network": {"nodes": nodes, "links": links},
        "catalog": {"vnf_types": VNF_TYPES},
        "profiles": {"app_profiles": PROFILES},
        "ela": {"target_mos": 3.0, "breach_windows": 2, "compliance_budget": 0.8},
        "workload": {"requests": requests},
        "faults": {
            "host_failures": by_time(host_failures),
            "link_degradations": by_time(degradations),
            "stall_injections": by_time(stalls),
        },
    }


def render(workload: str, seed: int, index: int | str) -> bytes:
    """Canonical bytes of one generated scenario file."""
    doc = generate(workload, seed, index)
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
