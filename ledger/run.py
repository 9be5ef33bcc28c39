#!/usr/bin/env python3
"""End-to-end benchmark for batch and served estimate/label, with a ledger.

    python3 ledger/run.py --workload batch-incore --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds fgr_ledger and fgrd into .bench_build/,
generates the workload's fixtures from --seed (untimed), runs the workload,
and prints the ledger on stderr. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"} — end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. --workload all runs the three
workloads in turn, one JSON line each. Exits non-zero when an output check
fails. See README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import ledger_math as lm  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
LEDGER = os.path.join(CMAKE_DIR, "fgr_ledger")
# Compiler and child temp files stay inside the checkout too.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
FGRD = os.path.join(CMAKE_DIR, "fgr", "fgrd")
CHILD_TIMEOUT_S = 150

# Fixture scale (see README.md for why these differ from the paper's 1M).
BATCH = dict(nodes=200_000, edges=2_000_000, classes=5, fraction=0.01)
SERVE_NODES, SERVE_EDGES, SERVE_FRACTION = 30_000, 300_000, 0.05
# Labeled sample of every dataset the timed calls query, whatever --seed is:
# the optimizer's cost swings 2x between samples, and a run-to-run swing of
# that size would drown any change a commit makes. --seed draws the quality
# samples behind h_l2_to_gold and serve-mixed's refresh versions.
QUERIED_SAMPLE_SEED = 7
STREAM_BUDGET_MB = 32

WORKLOADS = ("batch-incore", "batch-streamed", "serve-mixed")

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("estimate_s", "s"), ("label_s", "s"),
    ("accuracy", "frac"), ("h_l2_to_gold", "frobenius"),
    ("peak_rss_mb", "MB"), ("qps", "1/s"),
    ("estimate_p50_ms", "ms"), ("estimate_p99_ms", "ms"),
    ("label_p50_ms", "ms"), ("label_p90_ms", "ms"),
    ("cold_estimate_p50_ms", "ms"),
]

PER_LAYER = [  # name, unit — every workload's traced run reports all of them
    ("graph.parse_s", "s"), ("data.write_fgrbin_s", "s"),
    ("data.load_s", "s"), ("data.load_gbps", "GB/s"),
    ("core.summarize_s", "s"), ("core.summarize_bw_frac", "frac"),
    ("data.stream_summarize_s", "s"),
    ("core.optimize_s", "s"), ("opt.iterations", "count"), ("opt.restarts", "count"),
    ("matrix.spectral_s", "s"), ("matrix.spectral_bw_frac", "frac"),
    ("matrix.spmv_calls", "count"), ("matrix.spmm_calls", "count"),
    ("prop.linbp_s", "s"), ("prop.linbp_bw_frac", "frac"),
    ("prop.linbp_streaming_s", "s"),
    ("data.prefetch_read_s", "s"), ("data.prefetch_consumer_stall_s", "s"),
    ("data.prefetch_producer_stall_s", "s"), ("data.prefetch_panels", "count"),
    ("data.overlap_frac", "frac"),
    ("fgr.unaccounted_s", "s"), ("obs.tracing_overhead_frac", "frac"),
    ("data.load_speedup", "x"), ("core.summarize_speedup", "x"),
    ("matrix.spectral_speedup", "x"), ("prop.linbp_speedup", "x"),
    ("matrix.stream_triad_gbps", "GB/s"), ("error_rate", "frac"),
]


def log(message=""):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise SystemExit("ledger: run from a full fgr checkout "
                         "(CMakeLists.txt and src/ missing)")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=subprocess.STDOUT, check=True, env=ENV)
        subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", str(threads()),
                        "--target", "fgr_ledger", "fgrd"],
                       stdout=out, stderr=subprocess.STDOUT, check=True, env=ENV)


def threads():
    return max(1, min(4, os.cpu_count() or 1))


def run_ledger(args, timeout=CHILD_TIMEOUT_S):
    """Runs fgr_ledger; returns its parsed JSON (stdout) or raises.

    fgr_ledger leads its own process group, so an fgrd it could not stop
    (it timed out or died) is killed with it, and waited for.
    """
    proc = subprocess.Popen([LEDGER] + [str(a) for a in args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=ENV,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = "", f"timed out after {timeout} s"
    finally:
        stop_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"fgr_ledger {args[0]} exited {proc.returncode}: "
                           f"{err.strip()[-400:]}")
    return json.loads(out) if out.strip() else None


def stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def fixture(run_dir, name, seed, nodes, edges, classes, fraction, text=0, versions=0):
    run_ledger(["fixture", "--dir", run_dir, "--name", name, "--nodes", nodes,
                "--edges", edges, "--classes", classes, "--fraction", fraction,
                "--seed", seed, "--text", text, "--versions", versions])


def machine(raw, kernel_threads, worker_threads):
    def git(*cmd):
        try:
            return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""
    sha = git("rev-parse", "HEAD")
    l3 = raw["scalars"].get("l3_bytes") or read_l3_bytes()
    return {
        "nproc": os.cpu_count(),
        "l3_bytes": l3,
        "kernels": raw["strings"].get("kernels", "?"),
        "kernel_threads": kernel_threads,
        "worker_threads": worker_threads,
        "git_sha": sha or "none (not a git checkout)",
        "git_dirty": (git("status", "--porcelain") != "") if sha else None,
    }


def read_l3_bytes():
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            text = f.read().strip()
        scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
        return int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Reduction: raw samples → ledger rows {name: (value, samples, supported)}
# ---------------------------------------------------------------------------

def end_to_end(raw, serve):
    s, c = raw["samples"], raw["scalars"]
    rows = {}

    def put(name, value, samples=1, supported=True):
        rows[name] = (value, samples, supported)

    def pct(name, values, q):
        value, count, ok = lm.percentile(values, q)
        put(name, value, count, ok)

    for name in ("setup_s", "estimate_s", "label_s"):
        put(name, lm.median(s[name]), len(s[name]))
    for name in ("accuracy", "h_l2_to_gold"):
        put(name, c[name])
    if serve:
        put("peak_rss_mb", c["peak_rss_mb"])
        served = len(s["warm_estimate_ms"]) + len(s["label_ms"]) + len(s["cold_estimate_ms"])
        put("qps", served / c["window_s"], served)
        labels, colds = s["label_ms"], s["cold_estimate_ms"]
    else:
        put("peak_rss_mb", lm.median(s["peak_rss_mb"]), len(s["peak_rss_mb"]))
        put("qps", c["cold_calls"] / c["cold_time_s"], int(c["cold_calls"]))
        labels = [v * 1e3 for v in s["label_s"]]
        colds = [v * 1e3 for v in s["estimate_s"]]
    pct("estimate_p50_ms", s["warm_estimate_ms"], 0.50)
    pct("estimate_p99_ms", s["warm_estimate_ms"], 0.99)
    pct("label_p50_ms", labels, 0.50)
    pct("label_p90_ms", labels, 0.90)
    pct("cold_estimate_p50_ms", colds, 0.50)
    # Ledger-only rows: each knob set's median warm latency.
    for name, values in s.items():
        if name.startswith("warm_estimate_ms:"):
            pct("estimate_p50_ms:" + name.partition(":")[2], values, 0.50)
    return rows


def per_layer(raw, streamed_route):
    s, c = raw["samples"], raw["scalars"]
    med = {name: lm.median(values) for name, values in s.items()}
    n, nnz, k, lmax = c["n"], c["nnz"], c["k"], c["lmax"]
    triad = max(s["matrix.stream_triad_gbps"])
    rows = {name: (med[name], len(s[name]), True) for name in (
        "graph.parse_s", "data.write_fgrbin_s", "data.load_s", "core.summarize_s",
        "data.stream_summarize_s", "core.optimize_s", "opt.iterations", "opt.restarts",
        "matrix.spectral_s", "matrix.spmv_calls", "matrix.spmm_calls", "prop.linbp_s",
        "prop.linbp_streaming_s", "data.prefetch_read_s",
        "data.prefetch_consumer_stall_s", "data.prefetch_producer_stall_s",
        "data.prefetch_panels")}

    def put(name, value):
        rows[name] = (value, 1, True)

    put("data.load_gbps", c["file_bytes"] / med["data.load_s"] / 1e9)
    put("core.summarize_bw_frac", lm.bw_frac(
        lmax * lm.spmm_pass_bytes(n, nnz, k), med["core.summarize_s"], triad))
    put("matrix.spectral_bw_frac", lm.bw_frac(
        med["matrix.spectral_spmv_calls"] * lm.spmv_bytes(n, nnz),
        med["matrix.spectral_s"], triad))
    put("prop.linbp_bw_frac", lm.bw_frac(
        med["prop.linbp_iterations"] * lm.spmm_pass_bytes(n, nnz, k),
        med["prop.linbp_s"], triad))
    put("data.overlap_frac",
        1.0 - med["data.prefetch_consumer_stall_s"] / med["data.prefetch_read_s"])
    if streamed_route:
        wall = med["fgr.label_streamed_s"]
        parts = [med["data.stream_summarize_s"], med["core.optimize_streamed_s"],
                 med["prop.linbp_streaming_s"]]
    else:
        wall = med["fgr.label_s"]
        parts = [med[n_] for n_ in ("data.load_s", "core.summarize_s", "core.optimize_s",
                                    "matrix.spectral_s", "prop.linbp_s")]
    put("fgr.unaccounted_s", lm.unaccounted(wall, parts))
    warning = lm.unaccounted_warning(wall, parts)
    put("obs.tracing_overhead_frac", wall / med["untraced_label_s"] - 1.0)
    for layer, name in (("data.load_s", "data.load_speedup"),
                        ("core.summarize_s", "core.summarize_speedup"),
                        ("matrix.spectral_s", "matrix.spectral_speedup"),
                        ("prop.linbp_s", "prop.linbp_speedup")):
        put(name, med["1t:" + layer] / med[layer])
    put("matrix.stream_triad_gbps", triad)
    return rows, warning


def serve_layers(raw):
    """The serve-mixed layer rows (ledger only; batch runs have no daemon)."""
    s, c = raw["samples"], raw["scalars"]
    rows = {}
    for stage in ("queue_wait", "compute", "write"):
        for q in ("p50", "p99"):
            rows[f"serve.{stage}_{q}_ms"] = (c[f"stage.{stage}.{q}_ms"],
                                             int(c[f"stage.{stage}.count"]), True)
    for name in ("serve.acquire_warm_ms", "serve.acquire_cold_ms", "serve.summarize_cold_ms",
                 "serve.optimize_ms", "serve.propagate_ms", "serve.label_response_bytes",
                 "opt.iterations_served", "opt.restarts_served"):
        rows[name] = (lm.median(s[name]), len(s[name]), True)
    stages = sum(c[f"stage.{stage}.p50_ms"] for stage in ("queue_wait", "compute", "write"))
    rows["serve.transport_ms"] = (lm.median(s["warm_estimate_ms"]) - stages,
                                  len(s["warm_estimate_ms"]), True)
    hits = c["summary.memory_hits"] + c["summary.disk_hits"]
    rows["serve.summary_hit_frac"] = (hits / max(1.0, hits + c["summary.computed"]), 1, True)
    looked_up = c["datasets.hits"] + c["datasets.misses"]
    rows["serve.dataset_hit_frac"] = (c["datasets.hits"] / max(1.0, looked_up), 1, True)
    rows["serve.stale_reopens"] = (c["datasets.stale_reopens"], 1, True)
    rows["serve.summary_invalidations"] = (c["summary.invalidations"], 1, True)
    return rows


def print_ledger(title, rows, units):
    log(f"== {title} ==")
    log(f"{'metric':34} {'value':>14} {'unit':>10} {'samples':>8}")
    for name, (value, count, ok) in rows.items():
        shown = f"{value:14.6g}" if ok else f"{'unsupported':>14}"
        unit = units.get(name, units.get(name.partition(":")[0], ""))
        log(f"{name:34} {shown} {unit:>10} {count:8d}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def run_batch(run_dir, seed, seconds, trace, streamed):
    fixture(run_dir, "big", QUERIED_SAMPLE_SEED, BATCH["nodes"], BATCH["edges"],
            BATCH["classes"], BATCH["fraction"], text=1)
    return run_ledger(["batch", "--dir", run_dir, "--name", "big", "--seed", seed,
                       "--seconds", seconds,
                       "--threads", threads(), "--budget-mb", STREAM_BUDGET_MB,
                       "--streamed", int(streamed), "--trace", trace])


def run_serve(run_dir, seed, seconds, trace):
    for name, classes, text, versions, sample_seed in (
            ("warm3", 3, 1, 1, QUERIED_SAMPLE_SEED),
            ("warm7", 7, 0, 1, QUERIED_SAMPLE_SEED),
            ("refresh", 5, 0, 2, seed)):
        fixture(run_dir, name, sample_seed, SERVE_NODES, SERVE_EDGES, classes,
                SERVE_FRACTION, text=text, versions=versions)
    return run_ledger(["serve", "--dir", run_dir, "--fgrd", FGRD, "--seed", seed,
                       "--seconds", seconds,
                       "--threads", threads(), "--trace", trace])


def run_workload(workload, seed, seconds, trace):
    """Runs one workload, prints its ledger and JSON line; True when correct."""
    serve = workload == "serve-mixed"
    streamed = workload == "batch-streamed"
    run_dir = os.path.join(BUILD, "runs", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    failures = lm.Failures()
    try:
        if serve:
            raw = run_serve(run_dir, seed, seconds, trace)
        else:
            raw = run_batch(run_dir, seed, seconds, trace, streamed)
        if raw is None:
            raise RuntimeError("fgr_ledger printed no result")
    except (RuntimeError, ValueError) as error:  # ValueError: unparsable output
        failures.fail(f"{workload}: {error}")
        log(f"== {workload} seed={seed} seconds={seconds:g} trace={trace} ==")
        log("FAILED: " + failures.reasons[0])
        print(json.dumps({"correct": False, "attempted": failures.attempted,
                          "failed": failures.failed, "metrics": {}}), flush=True)
        return False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures.add(raw["attempted"], raw["failed"], raw["failures"])
    record = machine(raw, 1 if serve else threads(), 4 if serve else 0)
    log(f"== {workload} seed={seed} seconds={seconds:g} trace={trace} ==")
    log("machine: " + json.dumps(record))
    log(f"fixture: n={raw['scalars']['n']:.0f} nnz={raw['scalars']['nnz']:.0f} "
        f"k={raw['scalars']['k']:.0f} labeled={raw['scalars']['labeled']:.0f}")

    if trace:
        rows, warning = per_layer(raw, streamed)
        rows["error_rate"] = (failures.error_rate, failures.attempted, True)
        units = dict(PER_LAYER)
        print_ledger("per-layer (traced run; *_bw_frac are computed bytes / time "
                     "/ measured triad)", rows, units)
        log(f"triad arrays: 3 x {raw['scalars']['triad_array_bytes'] / 2**20:.0f} MiB, "
            f"L3 {raw['scalars']['l3_bytes'] / 2**20:.0f} MiB")
        if warning:
            log("WARNING: " + warning)
        if serve:
            print_ledger("serve-mixed layers", serve_layers(raw), {})
        names = [name for name, _ in PER_LAYER]
    else:
        rows = end_to_end(raw, serve)
        units = dict(END_TO_END)
        print_ledger("end-to-end (untraced run)", rows, units)
        log(f"error_rate: {failures.failed}/{failures.attempted} = {failures.error_rate:.4g}")
        names = [name for name, _ in END_TO_END]
    for reason in failures.reasons[:10]:
        log("FAILED: " + reason)

    os.makedirs(os.path.join(BUILD, "ledger"), exist_ok=True)
    with open(os.path.join(BUILD, "ledger", f"{workload}-seed{seed}-trace{trace}.json"),
              "w") as f:
        json.dump({"machine": record, "rows": rows, "raw": raw}, f)

    correct = failures.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": rows[name][0], "unit": units[name]} for name in names},
    }), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs the three workloads in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise SystemExit("ledger: --seed must be >= 0 and --seconds > 0")

    build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [run_workload(w, args.seed, args.seconds, args.trace) for w in workloads]
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
