"""Percentiles and the metric catalogue.

Percentiles are taken from the raw samples by nearest rank, never from a
bucketed histogram: the program's own `LatencyHistogram` rounds up to
powers of two, so its p95 can exceed the largest sample.
"""

import json
import math
import re
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A percentile is reported only when at least this many samples lie beyond
# it, so a p95 needs 200 samples.
MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-th percentile of the raw samples.

    Raises ValueError unless at least MIN_BEYOND samples lie above the
    chosen rank, so a tail figure never rests on a handful of points.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    xs = sorted(samples)
    rank = math.ceil(q / 100 * len(xs))
    if rank < 1 or len(xs) - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q} of {len(xs)} samples has {len(xs) - rank} beyond it; need {MIN_BEYOND}"
        )
    return xs[rank - 1]


def load_catalogue(path):
    """Reads BENCHMARK.json and checks what this benchmark relies on: the
    metric names and units are well formed and unique, and the file
    round-trips through JSON unchanged."""
    text = Path(path).read_text()
    doc = json.loads(text)
    if json.loads(json.dumps(doc)) != doc:
        raise ValueError("BENCHMARK.json does not round-trip")
    seen = set()
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in doc[section]:
            name = entry["name"]
            if not NAME_RE.fullmatch(name) or name in seen:
                raise ValueError(f"bad or duplicate name {name!r}")
            seen.add(name)
            if "unit" in entry and not UNIT_RE.fullmatch(entry["unit"]):
                raise ValueError(f"bad unit {entry['unit']!r} of {name}")
    return doc
