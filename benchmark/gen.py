"""Seeded input generators for the three benchmark workloads.

Every input the program sees comes from here and is a pure function of the
workload seed: the same seed gives byte-identical spec files and request
lines. The program never sees the seed itself, only what it generates.
"""

import json
import random

SPEC_SCHEMA = "hotnoc-campaign-spec-v1"

# The five Figure-1 migration schemes, by their spec-file names.
FIGURE1 = ["rotation", "x-mirror", "xy-mirror", "right-shift", "xy-shift"]

# Offered loads (packets per node per cycle) of the traffic-load workload:
# two well below saturation, one near it and two past it on both meshes.
TRAFFIC_LOADS = [0.02, 0.08, 0.15, 0.25, 0.4]
TRAFFIC_CYCLES = 2000

# Requests per client per serve-mix pass: each client submits this many
# distinct specs once fresh and once as a repeat.
SERVE_SPECS_PER_CLIENT = 50
SERVE_CLIENTS = 2


def _custom_chip(side, weights):
    return {"custom": {"mesh_side": side, "tile_weights": weights, "base_peak_celsius": 85.0}}


def _seeded_chip(rng, side):
    """A custom square die whose tile weights vary in [0.6, 1.4], with two
    hot tiles of weight 2-3 at seed-chosen positions."""
    weights = [round(rng.uniform(0.6, 1.4), 4) for _ in range(side * side)]
    for tile in rng.sample(range(side * side), 2):
        weights[tile] = round(rng.uniform(2.0, 3.0), 4)
    return _custom_chip(side, weights)


def cosim_spec(seed):
    """LDPC co-simulation campaign: configs A-E plus two seeded 8x8 chips,
    under the five Figure-1 schemes and the adaptive policy (42 jobs)."""
    rng = random.Random(f"cosim/{seed}")
    configs = [{"config": c} for c in "ABCDE"]
    configs += [_seeded_chip(rng, 8), _seeded_chip(rng, 8)]
    return {
        "schema": SPEC_SCHEMA,
        "name": "bench-cosim",
        "seed": seed % (1 << 53),
        "fidelity": "full",
        "mode": "cosim",
        "configs": configs,
        "workloads": [{"kind": "ldpc"}],
        "policies": ["periodic", "adaptive"],
        "schemes": FIGURE1,
        "periods": [1],
        "seeds": [0],
    }


def cosim_jobs(spec):
    return len(spec["configs"]) * (len(spec["schemes"]) + 1)


def traffic_spec(seed):
    """Synthetic traffic on the NoC only: config A (4x4) and an 8x8 mesh,
    uniform / transpose / hotspot traffic, five offered loads, healthy and
    with two failed routers (60 jobs).

    A campaign's offered loads must be strictly increasing, so the seed sets
    the job order through the pattern and chip axes instead, and jitters
    every load level by up to 5 %. The hotspot node is seed-chosen inside
    the 4x4 corner both meshes share.
    """
    rng = random.Random(f"traffic-load/{seed}")
    hotspot = {"kind": "hotspot", "nodes": [[rng.randrange(4), rng.randrange(4)]], "fraction": 0.3}
    patterns = ["uniform", "transpose", hotspot]
    rng.shuffle(patterns)
    # Traffic jobs read only the mesh size of a chip, never its weights.
    configs = [{"config": "A"}, _custom_chip(8, [1.0] * 64)]
    rng.shuffle(configs)
    loads = [round(load * rng.uniform(0.95, 1.05), 4) for load in TRAFFIC_LOADS]
    workloads = [
        {"kind": "traffic", "pattern": p, "rate": 0.05, "packet_len": 4, "cycles": TRAFFIC_CYCLES}
        for p in patterns
    ]
    return {
        "schema": SPEC_SCHEMA,
        "name": "bench-traffic",
        "seed": seed % (1 << 53),
        "fidelity": "full",
        "mode": "cosim",
        "configs": configs,
        "workloads": workloads,
        "policies": ["baseline"],
        "schemes": [],
        "periods": [],
        "offered_loads": loads,
        "failed_routers": [0, 2],
        "seeds": [0],
    }


def traffic_jobs(spec):
    return (
        len(spec["configs"])
        * len(spec["workloads"])
        * len(spec["offered_loads"])
        * len(spec["failed_routers"])
    )


def serve_streams(seed):
    """The serve-mix request streams, one per client.

    Returns (specs, streams): specs[i] is a small quick-fidelity traffic
    scenario; streams[c] is client c's ordered list of (spec index, is
    repeat). Client c owns the specs with i % SERVE_CLIENTS == c and
    submits each once fresh and once later as a repeat, so a repeat always
    follows its fresh submission's reply (the loop is closed) and hits the
    cache whatever the other client does.
    """
    rng = random.Random(f"serve-mix/{seed}")
    n = SERVE_SPECS_PER_CLIENT * SERVE_CLIENTS
    specs = []
    for i in range(n):
        if rng.random() < 0.3:
            pattern = {
                "kind": "hotspot",
                "nodes": [[rng.randrange(4), rng.randrange(4)]],
                "fraction": 0.3,
            }
        else:
            pattern = rng.choice(["uniform", "transpose"])
        specs.append({
            "name": f"mix{i}",
            "chip": {"config": rng.choice("AB")},
            "workload": {
                "kind": "traffic",
                "pattern": pattern,
                "rate": round(rng.uniform(0.02, 0.1), 4),
                "packet_len": 4,
                "cycles": rng.choice([200, 300, 400]),
            },
            "policy": {"kind": "baseline"},
            "mode": "cosim",
            "fidelity": "quick",
            "seed": rng.randrange(1 << 32),
        })
    streams = []
    for c in range(SERVE_CLIENTS):
        stream, pending = [], []
        for i in range(c, n, SERVE_CLIENTS):
            stream.append((i, False))
            pending.append(i)
            if rng.random() < 0.5:
                stream.append((pending.pop(rng.randrange(len(pending))), True))
        rng.shuffle(pending)
        stream.extend((i, True) for i in pending)
        streams.append(stream)
    return specs, streams


def request_line(spec):
    """The submit line `hotnoc submit` would send, with the spec name as id
    so a repeat's reply is byte-identical to the first."""
    return json.dumps({"id": spec["name"], "submit": spec})
