#!/usr/bin/env python3
"""Repository benchmark: `bigfish run table1_fingerprinting`, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload table1_cold --seed 2022 \
        --seconds 5 --trace 0

Builds the repository and the layer tracer from source into
$CARGO_TARGET_DIR (default .bench_build), then:

  --trace 0  untimed setup (repeated, median reported as setup_s), then a
             closed loop of `bigfish run` invocations at --threads=4 for
             at least --seconds seconds; every run's artifact is checked.
             Prints the end-to-end metrics.
  --trace 1  one untraced run plus one traced run (perfbench/layer_trace.cc)
             of the same pipeline; prints the per-layer metrics and writes
             the Chrome trace-event file under .bench_out/.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
perfbench/README.md explains the workloads, metrics and checks.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BIGFISH = os.path.join(BUILD, "bigfish")
TRACER = os.path.join(BUILD, "bf_layer_trace")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 2022

THREADS = 4
# About a sixth of table1's default trace count (20x20 sites x traces +
# 60 open world), so that one benchmark run, setup included, stays well
# inside its time budget on a loaded 4-core host; see README.md.
SCALE = ["--sites=8", "--traces=8", "--open=24"]
RUN_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 850
# One benchmark seed stands for several bigfish master seeds (the first
# is the seed itself). Timed runs cycle through them, so the reported
# medians cover several datasets instead of one (training length depends
# on the data through early stopping), and the cycle comes back to the
# first seed at least once, which is what the determinism check compares.
SUBSEED_STRIDE = 100003
SETUP_REPS = 3

WORKLOADS = {
    # name: (extra bigfish flags, cache mode, bigfish seeds per seed)
    "table1_cold": ([], "none", 4),
    "table1_collect": (["--features=32", "--folds=2"], "fresh", 4),
    # Each of its seeds costs a cache-filling cold run in setup.
    "table1_warm": ([], "warm", SETUP_REPS),
}

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("paper_err_pp", "pp")]

PER_LAYER = [
    ("sim.busy_s", "s"), ("sim.events_per_s", "1/s"),
    ("attack.busy_s", "s"), ("attack.periods_per_s", "1/s"),
    ("nn.conv1d.fwd_us", "us"), ("nn.conv1d.bwd_us", "us"),
    ("nn.relu.fwd_us", "us"), ("nn.relu.bwd_us", "us"),
    ("nn.maxpool.fwd_us", "us"), ("nn.maxpool.bwd_us", "us"),
    ("nn.lstm.fwd_us", "us"), ("nn.lstm.bwd_us", "us"),
    ("nn.dropout.fwd_us", "us"), ("nn.dropout.bwd_us", "us"),
    ("nn.dense.fwd_us", "us"), ("nn.dense.bwd_us", "us"),
    ("nn.adam.step_us", "us"), ("nn.softmax_xent.step_us", "us"),
    ("cache.encode_mb_per_s", "MB/s"), ("cache.decode_mb_per_s", "MB/s"),
    ("sched.utilization", "ratio"), ("sched.fold_idle_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]

# Units of the traced run's full layer table (printed, and written to
# .bench_out/), by name suffix, first match wins; the rest are counts.
TABLE_UNITS = [("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_us", "us"),
               ("_mb", "MB"), ("_frac", "ratio"), ("utilization", "ratio"),
               ("coverage", "ratio"), ("share", "ratio"), ("_s", "s")]


def log(msg):
    print(msg, flush=True)


def fail_hard(msg):
    """Unusable environment (no sources, build failure): no result line."""
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(1)


# ---------------------------------------------------------------- build

def build():
    os.makedirs(OUT, exist_ok=True)
    # Compiler temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = fresh_dir(os.path.join(OUT, "tmp"))
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail_hard("no CMakeLists.txt at the repository root; "
                  "run from a checkout of the repository")
    build_log = os.path.join(OUT, "build.log")
    with open(build_log, "ab") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail_hard("cmake configure failed; see " + build_log)
        cmd = ["cmake", "--build", BUILD, "--target", "bigfish",
               "bf_layer_trace", "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail_hard("build failed; see " + build_log)


# ----------------------------------------------------------------- host

def host_block():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    simd = "unknown"
    probe = subprocess.run([TRACER, "--host"], capture_output=True,
                           text=True, timeout=30)
    for line in probe.stdout.splitlines():
        if line.startswith("simd="):
            simd = line[5:]
    compiler, flags = "unknown", "unknown"
    try:
        with open(os.path.join(BUILD, "compile_commands.json")) as f:
            for entry in json.load(f):
                if entry["file"].endswith("src/core/pipeline.cc"):
                    words = entry["command"].split()
                    compiler = words[0]
                    flags = " ".join(
                        w for w in words[1:]
                        if w.startswith(("-O", "-m", "-f", "-std", "-W",
                                         "-D")))
                    break
    except (OSError, ValueError, KeyError):
        pass
    version = []
    if shutil.which(compiler):
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "simd": simd,
            "bf_simd_env": os.environ.get("BF_SIMD", ""),
            "compiler": compiler + (" (" + version[0] + ")" if version else ""),
            "flags": flags, "git": sha}


def loadavg():
    return round(os.getloadavg()[0], 2)


# ------------------------------------------------------------- children

def run_child(argv, log_path):
    """Runs one child to completion: (exit code, wall s, cpu s, rss MB)."""
    with open(log_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def bigfish_argv(extra, seed, artifact, cache_dir=None):
    argv = [BIGFISH, "run", "table1_fingerprinting", "--threads=%d" % THREADS,
            "--seed=%d" % seed, "--json=" + artifact] + SCALE + extra
    if cache_dir:
        argv.append("--cache-dir=" + cache_dir)
    return argv


def smoke_argv(artifact):
    return [BIGFISH, "run", "table1_fingerprinting", "--smoke",
            "--threads=%d" % THREADS, "--seed=%d" % REFERENCE_SEED,
            "--json=" + artifact]


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ------------------------------------------------------------- checking

def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def sub_seeds(workload, seed):
    return [seed + k * SUBSEED_STRIDE for k in range(WORKLOADS[workload][2])]


def check_artifact(path, code, expect, cache_mode):
    """Returns (problems, artifact). `expect` holds the metrics and
    simulated-event total every run of this (configuration, seed) must
    match; `cache_mode` is the stage-cache provenance the run must show."""
    problems = []
    if code != 0:
        return ["exit code %d" % code], None
    try:
        with open(path) as f:
            art = json.load(f)
        metrics = art["metrics"]
        stages = art["stages"]
        dropped = art["traces"]["dropped"]
    except (OSError, ValueError, KeyError, TypeError) as err:
        return ["unparsable artifact: %s" % err], None
    if not metrics or any(not isinstance(v, (int, float))
                          for v in metrics.values()):
        problems.append("missing or non-numeric metrics")
    if dropped != 0:
        problems.append("%d dropped traces" % dropped)
    sim_events = sum(s.get("simEvents", 0) for s in stages)
    states = {}
    for s in stages:
        kind = s["name"].split("/")[1] if "/" in s["name"] else s["name"]
        states.setdefault(kind, set()).add(s["cache"])
    if cache_mode == "warm":
        for kind in ("featurize", "score"):
            if states.get(kind) != {"hit"}:
                problems.append("%s stages not all hit: %s"
                                % (kind, sorted(states.get(kind, []))))
        if sim_events != 0:
            problems.append("warm run simulated %d events" % sim_events)
    elif cache_mode == "fresh":
        for kind in ("featurize", "train", "score"):
            if states.get(kind) != {"stored"}:
                problems.append("%s stages not all stored: %s"
                                % (kind, sorted(states.get(kind, []))))
    else:
        used = set().union(*states.values()) & {"hit", "miss", "stored",
                                                "store-failed"}
        if used:
            problems.append("uncached run touched a cache: %s" % sorted(used))
    if cache_mode != "warm" and sim_events <= 0:
        problems.append("no simulated events")
    if "metrics" in expect and metrics != expect["metrics"]:
        diff = sorted(k for k in set(metrics) | set(expect["metrics"])
                      if metrics.get(k) != expect["metrics"].get(k))
        problems.append("metrics differ from %s: %s"
                        % (expect["source"], ", ".join(diff[:4])))
    if cache_mode != "warm" and "simEvents" in expect and \
            sim_events != expect["simEvents"]:
        problems.append("simulated %d events, %s says %d"
                        % (sim_events, expect["source"], expect["simEvents"]))
    art["_simEvents"] = sim_events
    return problems, art


def paper_err_pp(art):
    expected = art.get("expected", {})
    errs = [abs(art["metrics"][k] - v) for k, v in expected.items()
            if k in art["metrics"]]
    return 100.0 * statistics.fmean(errs) if errs else float("nan")


class Checker:
    """Checks every run of one benchmark invocation: the artifacts of each
    (configuration, bigfish seed) must equal the reference recorded for it
    at this commit (perfbench/reference.json) when there is one, else the
    first artifact of that pair in this invocation."""

    def __init__(self, workload, cache_mode):
        self.workload, self.cache_mode = workload, cache_mode
        self.reference = load_reference()
        self.expect = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, path, code, seed, what, config=None, cache_mode=None):
        self.attempted += 1
        key = (config or self.workload, seed)
        expect = self.expect.get(key)
        ref = self.reference.get(key[0], {}).get(str(seed))
        if expect is None and ref:
            expect = self.expect[key] = {
                "metrics": ref["metrics"], "simEvents": ref["simEvents"],
                "source": "perfbench/reference.json"}
        problems, art = check_artifact(path, code, expect or {},
                                       cache_mode or self.cache_mode)
        if art is not None and expect is None:
            self.expect[key] = {"metrics": art["metrics"],
                                "simEvents": art["_simEvents"],
                                "source": "the first run of seed %d (%s)"
                                % (seed, what)}
        if problems:
            self.failed += 1
            self.problems.append("%s (seed %d): %s"
                                 % (what, seed, "; ".join(problems)))
        return art


# ------------------------------------------------------------ workloads

def setup(workload, seed, rep, checker):
    """One untimed preparation of the workload for bigfish seed @p seed;
    returns the cache directory a timed run of that seed replays (warm
    workload only)."""
    extra, cache_mode, _ = WORKLOADS[workload]
    work = fresh_dir(os.path.join(OUT, workload, "setup%d" % rep))
    # Warm-up: a smoke-scale run of the same binary at the reference
    # seed. It loads the binary and its pages, and its artifact is
    # checked against perfbench/reference.json on every invocation, so
    # changed program output shows whatever seed the timed runs use.
    smoke = os.path.join(work, "smoke.json")
    code, _, _, _ = run_child(smoke_argv(smoke),
                              os.path.join(work, "smoke.log"))
    checker.check(smoke, code, REFERENCE_SEED, "smoke warm-up",
                  config="smoke", cache_mode="none")
    if cache_mode != "warm":
        return None
    # The warm workload's state: a cold run filling a fresh stage cache.
    cache = fresh_dir(os.path.join(work, "cache"))
    artifact = os.path.join(work, "fill.json")
    code, _, _, _ = run_child(bigfish_argv(extra, seed, artifact, cache),
                              os.path.join(work, "fill.log"))
    checker.check(artifact, code, seed, "setup fill", cache_mode="fresh")
    return cache


def prepare(workload, seeds, checker, reps):
    """Sets up @p reps times, cycling through @p seeds; returns (setup
    seconds, cache directory per seed)."""
    setups, caches = [], {seed: None for seed in seeds}
    for rep in range(reps):
        seed = seeds[rep % len(seeds)]
        t0 = time.perf_counter()
        caches[seed] = setup(workload, seed, rep, checker)
        setups.append(time.perf_counter() - t0)
    return setups, caches


def timed_run(workload, seed, index, cache):
    extra, cache_mode, _ = WORKLOADS[workload]
    work = os.path.join(OUT, workload, "runs")
    os.makedirs(work, exist_ok=True)
    artifact = os.path.join(work, "run%d.json" % index)
    if os.path.exists(artifact):
        os.remove(artifact)
    if cache_mode == "fresh":
        cache = fresh_dir(os.path.join(work, "cache"))
    code, wall, cpu, rss = run_child(
        bigfish_argv(extra, seed, artifact, cache),
        os.path.join(work, "run%d.log" % index))
    return artifact, code, wall, cpu, rss, cache


def measure(args):
    workload = args.workload
    seeds = sub_seeds(workload, args.seed)
    checker = Checker(workload, WORKLOADS[workload][1])
    host = host_block()
    load = {"before_setup": loadavg()}
    setups, caches = prepare(workload, seeds, checker, SETUP_REPS)
    load["before_runs"] = loadavg()

    walls, cpus, rsss, first_art = [], [], [], {}
    start = time.perf_counter()
    min_runs = len(seeds) + 1
    while len(walls) < min_runs or time.perf_counter() - start < args.seconds:
        seed = seeds[len(walls) % len(seeds)]
        artifact, code, wall, cpu, rss, _ = timed_run(
            workload, seed, len(walls), caches[seed])
        art = checker.check(artifact, code, seed, "run %d" % len(walls))
        if art is not None:
            first_art.setdefault(seed, art)
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
    load["after_runs"] = loadavg()

    errs = [paper_err_pp(art) for art in first_art.values()]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setups),
        "paper_err_pp": statistics.fmean(errs) if errs else float("nan"),
    }
    fail_frac = checker.failed / checker.attempted
    detail = {"workload": workload, "seed": args.seed, "bigfish_seeds": seeds,
              "host": host, "loadavg_1m": load, "walls": walls, "cpus": cpus,
              "rss_mb": rsss, "setups": setups, "fail_frac": fail_frac,
              "problems": checker.problems, "metrics": metrics}
    write_json(os.path.join(OUT, "%s-seed%d.json" % (workload, args.seed)),
               detail)

    print_host(host, load)
    log("workload %s seed %d (bigfish seeds %s): %d timed runs, %d setups, "
        "%d checks" % (workload, args.seed, seeds, len(walls), len(setups),
                       checker.attempted))
    for name, unit in END_TO_END:
        log("  %-14s %12.4f %s" % (name, metrics[name], unit))
    log("  %-14s %12.4f (%d of %d failed)"
        % ("fail_frac", fail_frac, checker.failed, checker.attempted))
    log("  %-14s %12.4f (cpu_s / (wall_s x %d threads))"
        % ("utilization", metrics["cpu_s"] / (metrics["wall_s"] * THREADS),
           THREADS))
    for problem in checker.problems:
        log("  FAILED " + problem)
    return checker, {n: {"value": metrics[n], "unit": u}
                     for n, u in END_TO_END}


# ---------------------------------------------------------------- trace

def layer_unit(name):
    return next((unit for suffix, unit in TABLE_UNITS
                 if name.endswith(suffix)), "count")


NN_LAYERS = ["conv1d", "relu", "maxpool", "lstm", "dropout", "dense"]


def trace(args):
    workload, seed = args.workload, args.seed
    extra, cache_mode, _ = WORKLOADS[workload]
    checker = Checker(workload, cache_mode)
    host = host_block()
    load = {"before_setup": loadavg()}
    _, caches = prepare(workload, [seed], checker, 1)
    load["before_runs"] = loadavg()

    artifact, code, wall, cpu, _, run_cache = timed_run(workload, seed, 0,
                                                        caches[seed])
    art = checker.check(artifact, code, seed, "untraced run")

    work = fresh_dir(os.path.join(OUT, workload, "trace"))
    layers_path = os.path.join(work, "layers.json")
    chrome_path = os.path.join(OUT, "%s-seed%d.trace.json" % (workload, seed))
    argv = [TRACER, "--threads=%d" % THREADS, "--seed=%d" % seed,
            "--out=" + layers_path, "--chrome-trace=" + chrome_path]
    argv += SCALE + extra
    if cache_mode == "warm":
        argv.append("--cache-dir=" + caches[seed])
    elif cache_mode == "fresh":
        argv += ["--cache-dir=" + fresh_dir(os.path.join(work, "cache")),
                 "--reference-cache=" + run_cache]
    tcode, twall, _, _ = run_child(argv, os.path.join(work, "trace.log"))
    load["after_runs"] = loadavg()

    checker.attempted += 1
    problems, table, self_s = [], {}, {}
    try:
        with open(layers_path) as f:
            traced = json.load(f)
        table, self_s = traced["metrics"], traced["self_s"]
        checks = traced["checks"]
    except (OSError, ValueError, KeyError):
        problems.append("traced run failed (exit %d)" % tcode)
        traced = None
    if traced is not None:
        problems += compare_traced(traced, art, cache_mode)
        table["sched.utilization"] = cpu / (wall * THREADS)
        table["trace.overhead_s"] = table["trace.pipeline_wall_s"] - wall
        table["untraced.wall_s"] = wall
        if table["trace.wall_s"] > 0:
            for layer, seconds in self_s.items():
                if seconds > table["trace.wall_s"]:
                    problems.append("layer %s self time %.3f s exceeds the "
                                    "traced wall %.3f s"
                                    % (layer, seconds, table["trace.wall_s"]))
    if problems:
        checker.failed += 1
        checker.problems.append("traced run: " + "; ".join(problems))

    print_host(host, load)
    log("workload %s seed %d: traced run %.3f s (untraced %.3f s)"
        % (workload, seed, twall, wall))
    for name in sorted(table):
        log("  %-28s %16.6g %s" % (name, table[name], layer_unit(name)))
    if self_s:
        log("  self time on the timeline (span minus child spans, union):")
        for layer in sorted(self_s):
            log("    %-12s %10.4f s" % (layer, self_s[layer]))
    if traced is not None:
        report_coverage(table)
        log("  fold scores compared bit for bit: %d (mismatches %d); "
            "featurized datasets: %d (mismatches %d)"
            % (checks["folds_compared"], checks["fold_mismatches"],
               checks["featurized_compared"],
               checks["featurized_mismatches"]))
        if cache_mode == "none":
            log("  note: an uncached bigfish artifact records only each "
                "result's fold mean, to 6 decimals, so per-fold top-1 is "
                "compared through it; table1_collect compares every "
                "fold's scores bit for bit.")
    for problem in checker.problems:
        log("  FAILED " + problem)
    log("  chrome trace: " + os.path.relpath(chrome_path, ROOT))
    write_json(os.path.join(OUT, "%s-seed%d-layers.json" % (workload, seed)),
               {"host": host, "loadavg_1m": load, "metrics": table,
                "self_s": self_s, "problems": checker.problems})

    return checker, {n: {"value": table.get(n), "unit": u}
                     for n, u in PER_LAYER}


def compare_traced(traced, art, cache_mode):
    problems = []
    if art is None:
        return ["no untraced artifact to compare with"]
    results, checks, table = (traced["results"], traced["checks"],
                              traced["metrics"])
    for label, got in results.items():
        want = "%.6f" % art["metrics"].get(label + "_top1", float("nan"))
        if got["top1"] != want:
            problems.append("%s top-1 %s != artifact %s"
                            % (label, got["top1"], want))
        key = label + "_open_combined"
        if "open_combined" in got and key in art["metrics"] and \
                got["open_combined"] != "%.6f" % art["metrics"][key]:
            problems.append("%s open combined differs" % label)
    if len(results) * 2 != len(art["metrics"]):
        problems.append("traced %d results, artifact has %d metrics"
                        % (len(results), len(art["metrics"])))
    if table["sim.events"] != art["_simEvents"]:
        problems.append("sim.events %d != artifact simEvents %d"
                        % (table["sim.events"], art["_simEvents"]))
    if checks["fold_mismatches"] or checks["featurized_mismatches"]:
        problems.append("fold scores or featurized data differ from the "
                        "untraced run's cache entries")
    if cache_mode == "fresh" and checks["folds_compared"] == 0:
        problems.append("no fold compared against the untraced cache")
    if cache_mode == "warm" and (table["cache.misses"] or
                                 table["train.folds"]):
        problems.append("warm traced run missed the cache")
    return problems


def report_coverage(table):
    share = table.get("collect.sim_attack_share", 0.0)
    if share:
        log("  sim.busy_s + attack.busy_s = %.3f of the sampled cell's "
            "collect CPU" % share)
    else:
        log("  sim/attack share of collect: no collection in this workload")
    coverage = table.get("nn.coverage", 0.0)
    if table.get("train.busy_s", 0.0) <= 0:
        log("  nn.coverage: no training in this workload")
        return
    log("  nn.coverage = %.3f of train.busy_s (computed: per-call probe x "
        "calls)" % coverage)
    if coverage < 0.9:
        parts = sorted(((table.get("nn.%s.fwd_s" % l, 0.0) +
                         table.get("nn.%s.bwd_s" % l, 0.0)), l)
                       for l in NN_LAYERS)
        log("  nn.coverage below 0.9: not timed per layer are minibatch "
            "packing (CnnLstmClassifier::toInput/packBatch), the shuffle, "
            "per-sample validation bookkeeping and the last partial "
            "batch; and the probes run alone on one core while training "
            "shares four. Timed layers, largest first: "
            + ", ".join("%s %.2f s" % (l, s) for s, l in reversed(parts)))


# ------------------------------------------------------------------ main

def print_host(host, load):
    log("host: nproc=%s cpu=%s simd=%s%s" % (
        host["nproc"], host["cpu"], host["simd"],
        " (BF_SIMD=%s)" % host["bf_simd_env"] if host["bf_simd_env"] else ""))
    log("host: compiler=%s" % host["compiler"])
    log("host: flags=%s" % host["flags"])
    log("host: git=%s loadavg_1m=%s" % (host["git"], load))


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)


def record_reference(seed):
    """Re-baseline: records every workload's untraced metrics for the
    bigfish seeds of benchmark seed @p seed into perfbench/reference.json.
    Only a declared re-baseline runs it."""
    ref = load_reference()
    work = fresh_dir(os.path.join(OUT, "reference"))
    artifact = os.path.join(work, "smoke.json")
    code, _, _, _ = run_child(smoke_argv(artifact),
                              os.path.join(work, "smoke.log"))
    problems, art = check_artifact(artifact, code, {}, "none")
    if problems:
        fail_hard("smoke reference run failed: " + "; ".join(problems))
    ref["smoke"] = {str(REFERENCE_SEED): {"metrics": art["metrics"],
                                          "simEvents": art["_simEvents"]}}
    for workload, (extra, cache_mode, _) in WORKLOADS.items():
        if cache_mode == "warm":
            continue  # replays table1_cold's configuration
        for sub in sub_seeds(workload, seed):
            work = fresh_dir(os.path.join(OUT, "reference"))
            artifact = os.path.join(work, "ref.json")
            cache = fresh_dir(os.path.join(work, "cache")) \
                if cache_mode == "fresh" else None
            code, _, _, _ = run_child(
                bigfish_argv(extra, sub, artifact, cache),
                os.path.join(work, "ref.log"))
            problems, art = check_artifact(artifact, code, {}, cache_mode)
            if problems:
                fail_hard("reference run failed: " + "; ".join(problems))
            entry = {"metrics": art["metrics"],
                     "simEvents": art["_simEvents"]}
            ref.setdefault(workload, {})[str(sub)] = entry
            if workload == "table1_cold":
                ref.setdefault("table1_warm", {})[str(sub)] = entry
    write_json(REFERENCE, ref)
    log("recorded %s" % os.path.relpath(REFERENCE, ROOT))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-baseline perfbench/reference.json at --seed")
    args = parser.parse_args()
    os.chdir(ROOT)
    build()
    if args.record_reference:
        record_reference(args.seed)
        return
    if not args.workload:
        parser.error("--workload is required")
    checker, metrics = trace(args) if args.trace else measure(args)
    for metric in metrics.values():
        value = metric["value"]
        if value is None or not math.isfinite(value):
            metric["value"] = None  # only when a check failed
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
