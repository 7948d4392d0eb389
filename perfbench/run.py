#!/usr/bin/env python3
"""RichNote benchmark: live wire serving and a million-broker fleet.

Run from the repository root:

    python3 perfbench/run.py --workload serve_live|serve_fleet \
        --seed N --seconds S --trace 0|1

The first run configures and builds the program in Release under
.bench_build/ (perfbench/CMakeLists.txt compiles the repository's own
sources); later runs only re-check the build. Every run prints a host probe,
a table of its metrics, and as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see perfbench/README.md).

Both workloads drive the unmodified `richnote serve` binary over loopback
HTTP from this single process, one connection at a time. Load is open loop
in simulated time (before POST /round for round r the client POSTs exactly
the NDJSON lines created in r's window) and closed loop in wall time (it
waits for every reply). All inputs are rendered before any timed phase.
"""
import argparse
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
RICHNOTE = os.path.join(BUILD, "richnote_tools", "richnote")
HARNESS = os.path.join(BUILD, "perfbench_harness")

# Workload inputs. `users` is the trace (and training) population; `fleet`
# the number of brokers `richnote serve` hosts (0 = the trace's users).
# `rounds` is how many hourly rounds go over the wire: serve_live sends the
# whole week, serve_fleet a few dozen rounds.
WORKLOADS = {
    "serve_live": dict(users=5000, trees=20, hours=168, budget_mb=20, fleet=0,
                       workers=2, rounds=169),
    "serve_fleet": dict(users=2000, trees=10, hours=168, budget_mb=20,
                        fleet=1_000_000, workers=2, rounds=34),
}

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    _BENCH = json.load(f)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _BENCH["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _BENCH["per_layer"]}

MAX_BODY = 512 * 1024  # `richnote serve` refuses bodies above 1 MiB
# Serve passes per run, at least: setup_s is the median of the launches,
# and serve_fleet's pooled rounds leave at least 10 samples beyond p90.
MIN_SERVE_PASSES = 3


class CheckFailed(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def expect(ok, name, detail=""):
    if not ok:
        raise CheckFailed(f"{name}{': ' + detail if detail else ''}")


def build():
    # Configuring every time is cheap once cached, and keeps a stale tree honest.
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "richnote", "perfbench_harness",
                    "-j", jobs], check=True, stdout=sys.stderr)


def spec_args(spec, seed, **extra):
    args = {"users": spec["users"], "seed": seed, "trees": spec["trees"],
            "hours": spec["hours"], "budget_mb": spec["budget_mb"],
            "fleet": spec["fleet"], "workers": spec["workers"], **extra}
    return [f"{k}={v}" for k, v in args.items()]


def harness(mode, args):
    proc = subprocess.run([HARNESS, mode, *args], stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise CheckFailed(f"perfbench_harness {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe():
    host = harness("probe", [])
    print(f"host: nproc={host['nproc']} uarch={host['uarch']} "
          f"effective_cpus={host['effective_cpus']:.2f}", flush=True)
    return host


# ------------------------------------------------------------- wire inputs

def render(spec, seed, work, reference, rounds):
    """Renders the wire lines of `rounds` round windows; returns (info, blocks).

    blocks[r] is the list of (body, line_count) POSTs that carry round r's
    lines, each body at most MAX_BODY bytes.
    """
    path = os.path.join(work, "lines.ndjson")
    info = harness("render", spec_args(spec, seed, rounds=rounds, out=path,
                                       reference=reference))
    expect(info["checks_ok"], "render_checks")
    blocks = []
    with open(path, "rb") as f:
        header = f.readline().split()
        expect(header[0] == b"R" and int(header[1]) == rounds, "lines_file_header")
        for r in range(rounds):
            head = f.readline().split()
            expect(head[0] == b"r" and int(head[1]) == r, "lines_file_round")
            chunks, body, n = [], [], 0
            size = 0
            for _ in range(int(head[2])):
                line = f.readline()
                if size + len(line) > MAX_BODY and body:
                    chunks.append((b"".join(body), n))
                    body, n, size = [], 0, 0
                body.append(line)
                n += 1
                size += len(line)
            if body:
                chunks.append((b"".join(body), n))
            blocks.append(chunks)
    os.remove(path)
    expect(sum(n for chunks in blocks for _, n in chunks) == info["lines"], "lines_file_count")
    return info, blocks


# ------------------------------------------------------------- HTTP client

def request(port, method, path, body=b""):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path, body=body if method == "POST" else None)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def prometheus(text):
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name] = float(value)
    return values


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed("no VmHWM for the server process")


def serve_pass(spec, seed, work, blocks, info):
    """Launches `richnote serve`, drives every rendered round, checks, stops it."""
    port_file = os.path.join(work, "serve.port")
    if os.path.exists(port_file):
        os.remove(port_file)
    args = [RICHNOTE, "serve", f"users={spec['users']}", f"seed={seed}",
            f"trees={spec['trees']}", f"budget_mb={spec['budget_mb']}",
            f"threads={spec['workers']}", "port=0", f"port_file={port_file}"]
    if spec["fleet"]:
        args.append(f"fleet_users={spec['fleet']}")
    with open(os.path.join(work, "serve.log"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=err, cwd=work)
        try:
            return drive(proc, start, port_file, spec, blocks, info)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def drive(proc, start, port_file, spec, blocks, info):
    while True:
        if os.path.exists(port_file):
            with open(port_file) as f:
                text = f.read()
            if text.endswith("\n"):
                break
        expect(proc.poll() is None, "server_started", f"exit code {proc.returncode}")
        expect(time.perf_counter() - start < 150, "server_started", "timeout")
        time.sleep(0.005)
    setup_s = time.perf_counter() - start
    port = int(text)

    ingest_lat, round_lat, sent, requests = [], [], 0, 0
    for r, chunks in enumerate(blocks):
        for body, n in chunks:
            t0 = time.perf_counter()
            status, reply = request(port, "POST", "/ingest", body)
            ingest_lat.append(time.perf_counter() - t0)
            requests += 1
            expect(status == 200, "ingest_status_200", f"round {r}: {status} {reply!r}")
            counts = json.loads(reply)
            expect(counts["accepted"] == n, "ingest_accepted_equals_sent",
                   f"round {r}: {counts} vs {n}")
            sent += n
        t0 = time.perf_counter()
        status, reply = request(port, "POST", "/round")
        round_lat.append(time.perf_counter() - t0)
        requests += 1
        expect(status == 200 and json.loads(reply)["rounds_run"] == r + 1,
               "round_status_200", f"round {r}: {status} {reply!r}")

    status, text = request(port, "GET", "/metrics")
    expect(status == 200, "metrics_status_200")
    m = prometheus(text.decode())
    rss = vm_hwm_mb(proc.pid)
    status, _ = request(port, "POST", "/shutdown")
    expect(status == 200, "shutdown_status_200")
    proc.wait(timeout=120)
    expect(proc.returncode == 0, "server_clean_exit", f"exit code {proc.returncode}")

    rounds = len(blocks)
    arrived = m["richnote_delivery_arrived_total"]
    delivered = m["richnote_delivery_delivered_total"]
    expect(sent == info["lines"], "every_line_sent")
    expect(m["richnote_service_ingest_accepted_total"] == sent, "server_counted_every_line")
    expect(m["richnote_service_admitted_total"] == sent, "admitted_equals_sent")
    expect(m["richnote_service_pending_items"] == 0, "nothing_pending")
    expect(arrived == sent, "arrived_equals_sent")
    expect(delivered <= arrived, "delivered_le_arrived")
    budget = info["active_users"] * info["theta_bytes"] * rounds
    expect(m["richnote_delivery_metered_bytes_total"] <= budget * (1 + 1e-12),
           "metered_within_accrued_budget")
    expect(abs(m["richnote_run_delivery_ratio"] - delivered / arrived) <= 1e-12,
           "delivery_ratio_consistent")
    for name in ("richnote_run_precision", "richnote_run_recall"):
        expect(0.0 <= m[name] <= 1.0, f"{name}_in_unit_interval")
    ref = info.get("reference")
    if ref is not None:
        # Bit-identity with the in-process single-worker reference
        # (%.17g on both sides, so equal doubles print equal).
        expect(m["richnote_run_utility_total"] == ref["utility_total"],
               "utility_matches_inprocess_reference",
               f"{m['richnote_run_utility_total']!r} vs {ref['utility_total']!r}")
        expect(delivered == ref["delivered_total"], "delivered_matches_inprocess_reference")

    return {"setup_s": setup_s, "ingest_lat": ingest_lat, "round_lat": round_lat,
            "lines": sent, "delivered": delivered, "rss_mb": rss,
            "fleet": spec["fleet"] or spec["users"], "requests": requests}


# ------------------------------------------------------------- workloads

def percentile(xs, q):
    """Nearest-rank percentile."""
    ordered = sorted(xs)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def reference_for(spec):
    """The in-process computation the served totals must equal bit for bit."""
    return "batch" if spec["fleet"] == 0 else "service"


def run_serve(spec, seed, seconds, work):
    info, blocks = render(spec, seed, work, reference_for(spec), spec["rounds"])
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(serve_pass(spec, seed, work, blocks, info))
        elapsed = time.perf_counter() - started
        # Whole passes only: stop at the pass boundary nearest to `seconds`.
        if len(passes) >= MIN_SERVE_PASSES and elapsed + elapsed / len(passes) / 2 >= seconds:
            break
    rounds = len(blocks)

    def summed(key):
        # Every pass sends the same requests, so request i's latency is the
        # median over passes: host stalls that hit a minority of passes drop out.
        return sum(statistics.median(lat) for lat in zip(*(p[key] for p in passes)))

    ingest_s, round_s = summed("ingest_lat"), summed("round_lat")
    latencies = [x for p in passes for x in p["round_lat"]]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "user_rounds_per_s": passes[0]["fleet"] * rounds / round_s,
        "delivered_per_s": passes[0]["delivered"] / (ingest_s + round_s),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ingest_msgs_per_s": passes[0]["lines"] / ingest_s,
        "round_ms_p50": percentile(latencies, 50) * 1e3,
        "round_ms_p90": percentile(latencies, 90) * 1e3,
    }
    return metrics, sum(p["requests"] for p in passes)


def run_traced(spec, seed, work, host):
    """Per-layer numbers: one untraced HTTP pass plus the in-process layers."""
    info, blocks = render(spec, seed, work, reference_for(spec), spec["rounds"])
    http = serve_pass(spec, seed, work, blocks, info)
    layers = harness("layers", spec_args(spec, seed, rounds=spec["rounds"],
                                         cpus=host["effective_cpus"]))
    expect(layers["checks_ok"], "layer_checks")
    metrics = {k: v for k, v in layers.items() if k in LAYER_UNITS}
    rounds = len(http["round_lat"])
    # HTTP latency minus the matching in-process call (with the tracker on,
    # as `richnote serve` runs).
    metrics["http.round_overhead_ms"] = (
        sum(http["round_lat"]) / rounds * 1e3 - layers["service.round_ms"])
    metrics["http.ingest_overhead_ns"] = (
        sum(http["ingest_lat"]) / http["lines"] * 1e9 - layers["service.ingest_ns"])
    metrics["host.effective_cpus"] = host["effective_cpus"]
    expect(set(metrics) == set(LAYER_UNITS), "every_layer_reported",
           str(set(LAYER_UNITS) ^ set(metrics)))
    return metrics, http["requests"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        build()
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 1
    host = probe()
    spec = WORKLOADS[a.workload]
    work = os.path.join(BUILD, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if a.trace:
            metrics, attempted = run_traced(spec, a.seed, work, host)
            units = LAYER_UNITS
        else:
            metrics, attempted = run_serve(spec, a.seed, a.seconds, work)
            units = END_TO_END_UNITS
    except CheckFailed as e:
        log(f"CHECK FAILED: {e}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name in units:
        print(f"{a.workload:12s} {name:26s} {metrics[name]:>18.6f} {units[name]}")
    print(f"{a.workload:12s} attempted={attempted} failed=0")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
