"""Benchmark of the qheis engine: one closed-loop client in one process.

    python3 perfbench/run.py --workload nf-words --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each is there): `nf-words`,
`ideal-catalog`, `verify-suites`.  The client sends each request only
after the previous one returned, runs whole rounds of requests (see
workloads.py) until `--seconds` have passed, and then checks every output
outside the timed section.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the lines before it
record the environment and print every metric with its unit, `fail_ratio`
included.

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json, their
times scaled to a reference host speed measured alongside the requests
(calibrate.py), so that the drift of a shared host's speed cancels.
`--trace 1` reports the per-layer metrics instead: it runs the first
`min_rounds` rounds with span wrappers installed around the qheis modules
(tracer.py), then the same requests again without them from emptied
caches, compares the two output digests and reports the tracing overhead.
The spans are written to `.perfbench_out/` at the root of the checkout.

At the default seed 0 every output of the first `min_rounds` rounds is
also compared with `expected_seed0.json`, so the engine's output bytes
stay identical from one version to the next; `--record-expected` rewrites
that file from the current engine.

The program runs with PYTHONHASHSEED=0 (it re-executes itself to set it)
and imports qheis from `src/` of the checkout; without it, it exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"
DEFAULT_SEED = 0
EXPECTED_FILE = os.path.join(HERE, "expected_seed0.json")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")
# no request of the engine should run for minutes; one that reaches the
# cap counts as failed and the run goes on
REQUEST_CAP_S = 10.0
SETUP_SAMPLES = 9
SETUP_SLICES = 100
PERCENTILE_STEPS = 8
# Times are CPU seconds of the (single-threaded) benchmark process.  The
# engine does no I/O, so on an idle machine they equal wall time; on a
# shared host they leave out the multi-second phases in which other
# tenants hold the CPU, which otherwise swing wall time by tens of percent.
# The end-to-end times are then scaled to a reference host speed
# (calibrate.py), which takes out the drift of the host's speed itself.
CLOCK = time.process_time
# cold start of the CLI: import the package and build the first preset,
# as `qheis nf` does before its first reduction; then, outside the timed
# part, the host speed in the same process
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.process_time()\n"
    "import qheis\n"
    "from qheis.expr import context_for\n"
    "context_for('Dq', qheis.params(1, 1))\n"
    "setup = time.process_time() - t0\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calibrate\n"
    "print(setup, calibrate.slice_time(int(sys.argv[2])))\n"
)


class RequestTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RequestTimeout(f"request exceeded {REQUEST_CAP_S} s")


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


# ---------------------------------------------------------------------------
# measurement


def measure_setup():
    """Median over fresh interpreters of import plus first preset build,
    each scaled by the host speed its interpreter measured afterwards;
    one discarded start first writes the bytecode caches."""
    from calibrate import REFERENCE_SLICE_S

    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=HASH_SEED)
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, HERE, str(SETUP_SLICES)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        if k:
            setup_s, slice_s = map(float, proc.stdout.split())
            samples.append(setup_s * REFERENCE_SLICE_S / slice_s)
    return statistics.median(samples)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, seconds=None, rounds=None, tracer=None, host=None):
    """Closed loop over whole rounds: stop after `rounds` rounds, after
    the first round boundary past `seconds` (never before min_rounds), or
    at the round boundary where the workload runs out of fresh inputs.
    With a `host` (calibrate.HostSpeed), slices of the reference
    computation run between requests, outside their latencies.

    Returns a dict with per-request results, the elapsed time of the timed
    section, the time spent in requests, and the peak RSS and request
    count when min_rounds had completed."""
    from workloads import InputsExhausted

    results = []        # [request, output or None, latency_s, error or None]
    busy = 0.0          # CPU time spent in requests
    rss_mb = prefix = None
    done = 0
    batches = workload.rounds()
    start = CLOCK()
    try:
        while True:
            try:
                batch = next(batches)
            except InputsExhausted as exc:
                print(f"inputs: ran out after round {done}: {exc}")
                break
            done += 1
            for req in batch:
                if tracer is not None:
                    tracer.request = len(results)
                t0 = CLOCK()
                signal.setitimer(signal.ITIMER_REAL, REQUEST_CAP_S)
                try:
                    out, err = req.run(), None
                except Exception as exc:  # a failed request is counted, the run goes on
                    out, err = None, f"{type(exc).__name__}: {exc}"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                latency = CLOCK() - t0
                results.append([req, out, latency, err])
                busy += latency
                if host is not None:
                    host.keep_up(busy)
            if done == workload.min_rounds:
                rss_mb = _peak_rss_mb()
                prefix = len(results)
            if rounds is not None and done >= rounds:
                break
            if seconds is not None and done >= workload.min_rounds:
                if CLOCK() - start >= seconds:
                    break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = CLOCK() - start
    if done < workload.min_rounds:
        raise SystemExit(f"{workload.name}: fresh inputs ran out after {done} rounds")
    return {
        "results": results,
        "elapsed": elapsed,
        "rounds": done,
        "busy": busy,
        "rss_mb": rss_mb,
        "prefix": prefix,
    }


def check_outputs(results):
    """Run every request's check outside the timed section; record the
    first problem of each request in its error slot."""
    for row in results:
        req, out, _, err = row
        if err is not None:
            continue
        signal.setitimer(signal.ITIMER_REAL, REQUEST_CAP_S * 6)
        try:
            req.check(out)
        except Exception as exc:  # a wrong output fails its request
            row[3] = f"check: {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def output_digest(out):
    return hashlib.sha256((out or "").encode()).hexdigest()[:16]


def compare_expected(name, results, count):
    """Fail each of the first `count` requests whose output digest differs
    from the recorded one for the default seed."""
    with open(EXPECTED_FILE) as fh:
        expected = json.load(fh)["workloads"][name]
    if len(expected) != count:
        raise SystemExit(f"{EXPECTED_FILE}: {len(expected)} digests for {name}, expected {count}")
    for row, digest in zip(results[:count], expected):
        if row[3] is None and output_digest(row[1]) != digest:
            row[3] = "output differs from the recorded default-seed output"


def record_expected(name, results, count):
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(EXPECTED_FILE):
        with open(EXPECTED_FILE) as fh:
            doc = json.load(fh)
    doc["workloads"][name] = [output_digest(row[1]) for row in results[:count]]
    with open(EXPECTED_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def percentile(sorted_values, fraction):
    """Harrell-Davis estimate of a percentile of an ascending list: the mean
    of the order statistics, the i-th weighted by the mass that the
    Beta(f(n+1), (1-f)(n+1)) distribution puts on [(i-1)/n, i/n]
    (midpoint rule, PERCENTILE_STEPS points an interval).  The latencies of a
    workload form clusters, one per kind of request, and a single order
    statistic jumps from run to run wherever the percentile falls near the
    edge of a cluster; this weighted mean moves smoothly."""
    n = len(sorted_values)
    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    total = acc = 0.0
    for i, value in enumerate(sorted_values):
        weight = 0.0
        for j in range(PERCENTILE_STEPS):
            x = (i + (j + 0.5) / PERCENTILE_STEPS) / n
            weight += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        total += weight
        acc += weight * value
    return acc / total


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass


def layer_metrics(tracer, cache_info):
    from qheis import qfield, suites

    agg = tracer.agg

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    v = {}
    for name in ("rewrite.reduce", "rewrite.normal_form", "rewrite.multiply"):
        v[f"{name}.calls"] = calls(name)
        v[f"{name}.self_s"] = self_s(name)
    v["rewrite.confluence.self_s"] = self_s("rewrite.confluence")
    # lookups are operand-size products in multiply; misses are the
    # _reduce calls multiply makes; 0 when multiply is not called
    lookups = tracer.pair_lookups
    v["rewrite.pair_cache.hit_ratio"] = 1.0 - tracer.pair_misses / lookups if lookups else 0.0
    v["rewrite.pair_cache.entries"] = tracer.live_pair_cache_entries()
    for op in ("mul", "add", "canon"):
        v[f"qfield.{op}.calls"] = tracer.counts.get(f"qfield.{op}", [0])[0]
    v["qfield.pgcd_memo.entries"] = len(qfield._PGCD_MEMO)
    v["ideals.span.self_s"] = self_s("ideals.span")
    v["ideals.span.dim_sum"] = tracer.span_dims
    v["ideals.insert.useful_ratio"] = ratio(tracer.insert_pivots, tracer.insert_attempts)
    for op in ("member", "containment", "certificate", "diagram"):
        v[f"ideals.{op}.self_s"] = self_s(f"ideals.{op}")
    v["presets.build.calls"] = calls("presets.build")
    v["presets.build.self_s"] = self_s("presets.build")
    hits = sum(c.hits for c in cache_info)
    v["presets.cache.hit_ratio"] = ratio(hits, hits + sum(c.misses for c in cache_info))
    for op in ("coproduct", "pair", "act", "axioms", "smash"):
        v[f"hopf.{op}.calls"] = calls(f"hopf.{op}")
        v[f"hopf.{op}.self_s"] = self_s(f"hopf.{op}")
    for op in ("act", "probe", "growth"):
        v[f"smodules.{op}.self_s"] = self_s(f"smodules.{op}")
    v["smodules.probe.cyclic_ratio"] = ratio(tracer.probe_cyclic, tracer.probe_calls)
    for op in ("check", "apply", "compose"):
        v[f"morphisms.{op}.self_s"] = self_s(f"morphisms.{op}")
    v["expr.elaborate.self_s"] = self_s("expr.elaborate")
    v["cli.main.self_s"] = self_s("cli.main")
    for suite in suites.SUITE_NAMES:
        if suite != "ideals":
            v[f"suites.{suite}.s"] = agg.get(f"suites.{suite}", (0, 0.0, 0.0))[2]
    return v


def traced_run(workload_cls, seed, env):
    from tracer import Tracer
    from workloads import PRESET_CACHES, reset_caches
    from qheis import presets

    tracer = Tracer()
    reset_caches()
    tracer.install()
    try:
        traced = run_rounds(workload_cls(seed), rounds=workload_cls.min_rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    cache_info = [getattr(presets, name).cache_info() for name in PRESET_CACHES]
    values = layer_metrics(tracer, cache_info)
    reset_caches()
    plain = run_rounds(workload_cls(seed), rounds=workload_cls.min_rounds)

    def rate(run):
        return sum(1 for r in run["results"] if r[3] is None) / run["elapsed"]

    values["trace.throughput_traced_rps"] = rate(traced)
    values["trace.throughput_untraced_rps"] = rate(plain)
    values["trace.overhead_ratio"] = traced["elapsed"] / plain["elapsed"]
    values["trace.spans"] = len(tracer.s_name)
    for row, other in zip(traced["results"], plain["results"]):
        if row[3] is None and (other[3] is not None or row[1] != other[1]):
            row[3] = "traced output differs from the untraced one"

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{workload_cls.name}-seed{seed}.json")
    tracer.dump(
        path,
        {
            "workload": workload_cls.name,
            "seed": seed,
            "environment": env,
            "requests": [list(map(str, r[0].key)) for r in traced["results"]],
            "metrics": values,
        },
    )
    print(f"trace: {len(tracer.s_name)} spans written to {os.path.relpath(path, ROOT)}")
    return traced, values


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help="rewrite the default-seed output digests from this engine")
    args = ap.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:], env)

    if not os.path.isfile(os.path.join(SRC, "qheis", "__init__.py")):
        print(f"error: no qheis package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    import qheis
    from workloads import WORKLOADS

    if not os.path.abspath(qheis.__file__).startswith(SRC + os.sep):
        print(f"error: qheis was imported from {qheis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    if args.trace:
        run, values = traced_run(workload_cls, args.seed, env)
        declared = spec["per_layer"]
    else:
        from calibrate import REFERENCE_SLICE_S, HostSpeed

        setup_s = measure_setup()
        host = HostSpeed()
        run = run_rounds(workload_cls(args.seed), seconds=args.seconds, host=host)
        # CPU seconds to reference seconds, each request by the slices run
        # around it
        lat, busy = [], 0.0
        for row in run["results"]:
            lat.append(row[2] * host.scale(busy, busy + row[2]))
            busy += row[2]
        ok = sum(1 for r in run["results"] if r[3] is None)
        ordered = sorted(lat)
        values = {
            "throughput_rps": ok / sum(lat),
            "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
            "latency_p90_ms": percentile(ordered, 0.90) * 1e3,
            "peak_rss_mb": run["rss_mb"],
            "setup_s": setup_s,
        }
        print(
            f"host: {len(host.at)} reference slices, mean {host.slice_s() * 1e3:.4f} ms "
            f"(reference {REFERENCE_SLICE_S * 1e3:g} ms); unscaled throughput "
            f"{ok / run['busy']:.6g} 1/s"
        )
        declared = spec["end_to_end"]

    results = run["results"]
    check_outputs(results)
    count = run["prefix"]
    if args.record_expected:
        record_expected(workload_cls.name, results, count)
    elif args.seed == DEFAULT_SEED:
        compare_expected(workload_cls.name, results, count)

    attempted = len(results)
    failed = sum(1 for r in results if r[3] is not None)
    for row in results:
        if row[3] is not None:
            print(f"failed: {row[0].key}: {row[3]}")
    print(
        f"run: workload={workload_cls.name} seed={args.seed} rounds={run['rounds']} "
        f"samples={attempted} elapsed_s={run['elapsed']:.3f}"
    )
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
