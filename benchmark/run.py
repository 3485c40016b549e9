#!/usr/bin/env python3
"""The hotnoc benchmark: one workload per run, against the release binary.

    python3 benchmark/run.py --workload {cosim,traffic-load,serve-mix}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; it builds the
`hotnoc` binary and the in-process harness (`benchmark/harness`) with
cargo, in `$CARGO_TARGET_DIR` (default `target`), and keeps its scratch
files under `.bench_run/`. With `--trace 0` it measures the end-to-end
metrics of BENCHMARK.json for `--seconds`; with `--trace 1` it makes a
traced replay and reports the per-layer metrics. Diagnostics and the run's
provenance go to stderr; the last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 1 without a result when it cannot run (no sources to build, a
build or harness failure). See benchmark/README.md for what each workload
and metric means.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import serve_load
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".bench_run")
DEFAULT_SEED = 1
WORKLOADS = ("cosim", "traffic-load", "serve-mix")

# The system under test: two campaign workers (or daemon pool threads) to
# match the two cores of the reference machine, and no nested NoC
# parallelism inside a job, so two busy threads never oversubscribe it.
THREADS = 2
ENV = dict(os.environ, HOTNOC_THREADS="1")

# Every untraced run measures at least this many passes, so each reported
# figure is a median even when --seconds is short.
MIN_PASSES = 3
# Set-up repetitions: chip build + calibration (cosim), per-job network
# construction (traffic-load, at least 0.5 s of them), daemon restarts
# (serve-mix).
SETUP_REPS = {"cosim": 3, "traffic-load": 5, "serve-mix": 15}
SETUP_MIN_S = {"cosim": 0.0, "traffic-load": 0.5}
# Pings on fresh connections after the traced serve-mix load.
PINGS = 30
# Simulated horizon of a full-fidelity co-simulation job (the program's
# default, 0.05 s): the numerator of e2e.cosim_sim_ms_per_s.
FULL_HORIZON_MS = 50.0


class Unusable(Exception):
    """The benchmark cannot produce a result (exit 1, nothing printed)."""


def log(msg):
    print(f"bench: {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the release `hotnoc` binary and the harness; returns both
    executables."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise Unusable("no hotnoc sources next to the benchmark")
    # One target directory for both builds (the harness is a workspace of
    # its own, whose default would be benchmark/harness/target).
    target = os.environ.get("CARGO_TARGET_DIR") or "target"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "hotnoc-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE.relative_to(ROOT) / "harness" / "Cargo.toml")],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            raise Unusable(f"build failed: {' '.join(cmd)}")
    release = Path(target) / "release"
    return str(release / "hotnoc"), str(release / "hotnoc-benchmark-harness")


def harness_json(harness, *args):
    r = subprocess.run([harness, *map(str, args)], stdout=subprocess.PIPE, env=ENV, text=True)
    if r.returncode != 0:
        raise Unusable(f"harness {args[0]} exited {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def spawn_wait(argv, stdout, stderr):
    """Runs argv to completion; returns (exit code, wall s, peak RSS MiB).
    The peak resident set is the child's ru_maxrss (its VmHWM)."""
    t0 = time.perf_counter()
    with open(stdout, "w") as out, open(stderr, "w") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV)
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def recorded_digest(workload, seed):
    """The artifact digest recorded for the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads((HERE / "digests.json").read_text())[workload]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# --- campaign workloads ---------------------------------------------------


def bad_record(outcome):
    """True when a job's outcome is not a plausible result of its kind."""
    kind = outcome.get("kind")
    if kind in ("cosim", "adaptive"):
        ok = math.isfinite(outcome["peak"]) and outcome["peak"] < 200.0
        return not ok or (kind == "adaptive" and not outcome["schedule"])
    if kind == "traffic":
        dropped = outcome.get("packets_dropped", 0)
        return not outcome["drained"] or outcome["offered"] != outcome["delivered"] + dropped
    return True


class CampaignPass:
    """One `hotnoc campaign run --fresh` of the workload's spec, checked."""

    def __init__(self, hotnoc, spec_path, name, jobs, out):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rc, self.wall, self.rss = spawn_wait(
            [hotnoc, "campaign", "run", "--spec", str(spec_path), "--out-dir", str(out),
             "--threads", str(THREADS), "--fresh", "--quiet"],
            out / "stdout.txt", out / "stderr.txt",
        )
        self.path = out / f"CAMPAIGN_{name}.json"
        self.bytes = self.path.read_bytes() if rc == 0 and self.path.exists() else b""
        self.failed = jobs
        self.records = []
        if not self.bytes:
            log(f"campaign run exited {rc}")
            return
        check = subprocess.run([hotnoc, "campaign", "check", str(self.path)],
                               stdout=subprocess.DEVNULL, stderr=sys.stderr)
        self.records = json.loads(self.bytes)["results"]
        if check.returncode != 0 or len(self.records) != jobs:
            log(f"campaign check exited {check.returncode}; {len(self.records)}/{jobs} records")
            return
        self.failed = sum(bad_record(r["outcome"]) for r in self.records)


def campaign_workload(args, hotnoc, harness, rundir, spec, jobs):
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    digest = recorded_digest(args.workload, args.seed)

    def checked_pass(reference):
        p = CampaignPass(hotnoc, spec_path, spec["name"], jobs, rundir / "out")
        if p.bytes and p.failed == 0:
            if reference is not None and p.bytes != reference:
                log("artifact bytes differ from the first pass")
                p.failed = jobs
            elif digest is not None and sha256(p.bytes) != digest:
                log(f"artifact digest {sha256(p.bytes)} != recorded {digest}")
                p.failed = jobs
        return p

    if args.trace:
        return campaign_traced(args, harness, rundir, jobs, checked_pass(None))

    setup = harness_json(harness, "setup", spec_path, SETUP_REPS[args.workload],
                         SETUP_MIN_S[args.workload])["setup_s"]
    passes = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(checked_pass(passes[0].bytes if passes else None))
    log("pass walls: " + " ".join(f"{p.wall:.3f}" for p in passes))
    return {
        "attempted": jobs * len(passes),
        "failed": sum(p.failed for p in passes),
        "diverged": 0,
        "metrics": {
            "wall_s": statistics.median([p.wall for p in passes]),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median([p.rss for p in passes]),
        },
    }


def campaign_traced(args, harness, rundir, jobs, first):
    if not first.bytes:
        return {"attempted": jobs, "failed": jobs, "diverged": 0, "metrics": {}}
    rep = harness_json(harness, "replay", first.path, rundir / "replay")
    m = replay_metrics(rep)
    outcomes = [r["outcome"] for r in first.records]
    if args.workload == "cosim":
        m["e2e.cosim_sim_ms_per_s"] = FULL_HORIZON_MS * len(outcomes) / first.wall
    else:
        m["e2e.noc_mflit_hops_per_s"] = sum(o["flit_hops"] for o in outcomes) / first.wall / 1e6
    return {
        "attempted": jobs,
        "failed": first.failed + len(rep["mismatched"]),
        "diverged": len(rep["diverged"]),
        "metrics": m,
    }


def replay_metrics(rep, client_self_s=0.0, client_wall_s=0.0):
    """The harness's per-layer metrics, with trace.coverage over the
    harness replay plus any client-side spans."""
    m = dict(rep["metrics"])
    layer_self = m.pop("trace.layer_self_s") + client_self_s
    wall = m.pop("trace.wall_s") + client_wall_s
    m["trace.coverage"] = layer_self / wall if wall else 0.0
    m["trace.diverged_jobs"] = len(rep["diverged"])
    if rep["diverged"]:
        log(f"replay diverged on {len(rep['diverged'])} job(s): {rep['diverged'][:5]}")
    if rep["mismatched"]:
        log(f"library run differs from the binary on: {rep['mismatched'][:5]}")
    return m


# --- serve-mix ------------------------------------------------------------


def serve_pass(hotnoc, d, lines, streams, pings):
    """Starts a daemon with an empty journal, runs the closed loop over
    every stream, optionally pings it, drains it."""
    d.mkdir(parents=True)
    sock, journal = str(d / "s.sock"), d / "journal.jsonl"
    daemon = serve_load.Daemon(hotnoc, sock, str(journal), str(d / "spool"), d / "serve.log", ENV)
    try:
        daemon.wait_ready()
        j0 = journal.stat().st_size
        results = serve_load.closed_loop(sock, lines, streams)
        rss = daemon.peak_rss_mib()
        ping_ms = [1e3 * (t2 - t0) for t0, _, t2, _ in
                   (serve_load.round_trip(sock, b'{"op": "ping"}\n') for _ in range(pings))]
        requests, computed, hits = daemon.shutdown()
    finally:
        daemon.kill()
    flat = [r for client in results for r in client]
    return {
        "results": flat,
        "wall": max(r[4] for r in flat) - min(r[2] for r in flat),
        "rss": rss,
        "ping_ms": ping_ms,
        "requests": requests,
        "computed": computed,
        "hits": hits,
        "journal_growth": journal.stat().st_size - j0,
        "journal": journal,
    }


def bad_reply(reply, name):
    try:
        j = json.loads(reply)
    except ValueError:
        return True
    return j.get("status") != 0 or j.get("id") != name or bad_record(j.get("outcome", {}))


def serve_workload(args, hotnoc, harness, rundir):
    specs, streams = gen.serve_streams(args.seed)
    lines = [(gen.request_line(s) + "\n").encode() for s in specs]
    digest = recorded_digest(args.workload, args.seed)
    first = {}  # spec index -> first reply of the first pass
    passes, attempted, failed = [], 0, 0
    min_passes = 2 if args.trace else MIN_PASSES  # 2 x 100 samples per class = a p95
    deadline = time.perf_counter() + args.seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        p = serve_pass(hotnoc, rundir / f"pass{len(passes)}", lines, streams,
                       PINGS if args.trace and len(passes) + 1 >= min_passes else 0)
        for i, repeat, _, _, _, reply in p["results"]:
            attempted += 1
            ref = first.setdefault(i, reply)
            if bad_reply(reply, specs[i]["name"]) or reply != ref:
                failed += 1
        passes.append(p)
    replies = b"".join(first[i] for i in sorted(first))
    (rundir / "replies.jsonl").write_bytes(replies)
    if digest is not None:
        got = sha256(replies)
        if got != digest:
            log(f"reply digest {got} != recorded {digest}")
            failed = attempted
    log("pass walls: " + " ".join(f"{p['wall']:.3f}" for p in passes))

    if args.trace:
        return serve_traced(harness, rundir, specs, lines, passes, first, attempted, failed)

    setup, journal = [], passes[-1]["journal"]
    for k in range(SETUP_REPS[args.workload]):
        d = rundir / f"restart{k}"
        d.mkdir()
        attempted += 1
        daemon = serve_load.Daemon(hotnoc, str(d / "s.sock"), str(journal), str(d / "spool"),
                                   d / "serve.log", ENV)
        try:
            setup.append(daemon.wait_ready())
            daemon.shutdown()
        finally:
            daemon.kill()
        if f"{len(specs)} journaled results warm" not in (d / "serve.log").read_text():
            log("restarted daemon did not warm-load every journaled result")
            failed += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "diverged": 0,
        "metrics": {
            "wall_s": statistics.median([p["wall"] for p in passes]),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": statistics.median([p["rss"] for p in passes]),
        },
    }


def serve_traced(harness, rundir, specs, lines, passes, first, attempted, failed):
    rtt = {False: [], True: []}  # is repeat -> round trips, ms
    connect, compute, spans = [], [], []
    for p in passes:
        per_spec = {}
        for i, repeat, t0, t1, t2, _ in p["results"]:
            rtt[repeat].append(1e3 * (t2 - t0))
            connect.append(1e3 * (t1 - t0))
            per_spec.setdefault(i, {})[repeat] = 1e3 * (t2 - t0)
            root = len(spans)
            spans.append({"name": "bench.request", "start": t0, "end": t2, "parent": None,
                          "job": specs[i]["name"]})
            spans.append({"name": "serve.connect", "start": t0, "end": t1, "parent": root,
                          "job": specs[i]["name"]})
            spans.append({"name": "serve.exchange", "start": t1, "end": t2, "parent": root,
                          "job": specs[i]["name"]})
        compute += [t[False] - t[True] for t in per_spec.values()]
    with open(rundir / "spans.client.jsonl", "w") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")
    client_self = sum(s["end"] - s["start"] for s in spans if s["parent"] is not None)
    walls = sum(p["wall"] for p in passes)
    # The clients run concurrently: each spends the whole pass in requests.
    client_wall = walls * gen.SERVE_CLIENTS

    doc = {
        "results": [{"spec": specs[i], "outcome": json.loads(first[i])["outcome"]}
                    for i in sorted(first)],
        "requests": [line.decode().strip() for line in lines],
    }
    doc_path = rundir / "replay-input.json"
    doc_path.write_text(json.dumps(doc))
    rep = harness_json(harness, "replay", doc_path, rundir / "replay")
    m = replay_metrics(rep, client_self, client_wall)
    requests = sum(p["requests"] for p in passes)
    m.update({
        "serve.connect_ms": stats.percentile(connect, 50),
        "serve.ping_ms": stats.percentile(passes[-1]["ping_ms"], 50),
        "serve.compute_ms": statistics.median(compute),
        "serve.cache_hit_ratio": sum(p["hits"] for p in passes) / requests,
        "serve.journal_bytes_per_miss":
            sum(p["journal_growth"] for p in passes) / sum(p["computed"] for p in passes),
        "e2e.hit_p50_ms": stats.percentile(rtt[True], 50),
        "e2e.hit_p95_ms": stats.percentile(rtt[True], 95),
        "e2e.miss_p50_ms": stats.percentile(rtt[False], 50),
        "e2e.miss_p95_ms": stats.percentile(rtt[False], 95),
        "e2e.requests_per_s": requests / walls,
    })
    return {
        "attempted": attempted,
        "failed": failed + len(rep["mismatched"]),
        "diverged": len(rep["diverged"]),
        "metrics": m,
    }


# --- command line ---------------------------------------------------------


def provenance(args):
    def out(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "workers": THREADS,
        "HOTNOC_THREADS": ENV["HOTNOC_THREADS"],
        "toolchain": out(["rustc", "--version"]),
        "commit": out(["git", "rev-parse", "HEAD"]),
        "profile": "release",
        "os": platform.platform(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    try:
        catalogue = stats.load_catalogue(ROOT / "BENCHMARK.json")
        hotnoc, harness = build()
        rundir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        if args.workload == "cosim":
            spec = gen.cosim_spec(args.seed)
            res = campaign_workload(args, hotnoc, harness, rundir, spec, gen.cosim_jobs(spec))
        elif args.workload == "traffic-load":
            spec = gen.traffic_spec(args.seed)
            res = campaign_workload(args, hotnoc, harness, rundir, spec, gen.traffic_jobs(spec))
        else:
            res = serve_workload(args, hotnoc, harness, rundir)
    except (Unusable, OSError, RuntimeError, ValueError, KeyError) as e:
        log(f"cannot run: {e}")
        return 1

    section = catalogue["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in section:
        value = res["metrics"].get(entry["name"])
        if value is None and not args.trace:
            log(f"end-to-end metric {entry['name']} was not measured")
            return 1
        metrics[entry["name"]] = {"value": value or 0.0, "unit": entry["unit"]}
    unknown = set(res["metrics"]) - {e["name"] for e in section}
    if unknown:
        log(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        return 1
    result = {
        "correct": res["failed"] == 0 and res["diverged"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    prov = provenance(args)
    (rundir / "result.json").write_text(json.dumps({"provenance": prov, **result}, indent=1))
    log("provenance " + json.dumps(prov))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
