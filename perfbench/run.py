"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload segmap --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Each run points the native kernel cache (and the compiler's scratch
files) at a fresh directory under ``.perfbench/`` and removes it at the
end, so set-up always builds its kernels.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.
"""

import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
NAMES = ("segmap", "qsort", "serve")
#: set-up is measured this many times per run (this process plus fresh
#: child processes) and reported as the median
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (tests use a tiny one)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {\"setup_s\": ...} and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="native-", dir=WORK)
    os.environ["REPRO_NATIVE_CACHE"] = cache
    os.environ["TMPDIR"] = cache       # the C compiler's scratch files too
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        return run(args)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def child_setup_s(args) -> float:
    """Set-up time of one fresh process with its own fresh kernel cache."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0",
           "--scale", str(args.scale), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run(args) -> int:
    import workloads as W
    wl = W.WORKLOADS[args.workload](args.seed, args.scale)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
    wl.setup()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        if args.trace:
            result = traced(wl, tracer, args)
        else:
            result = untraced(wl, args, setup_s)
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


def measure(wl, seconds):
    import workloads as W
    s = W.Samples()
    summary = W.run_rounds(wl, s, seconds)
    return s, summary


def cpu_steal():
    """(steal, total) jiffies of all CPUs so far, from /proc/stat: time a
    virtual machine's CPUs waited for the host, a source of run-to-run
    spread the benchmark cannot control (None where unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def untraced(wl, args, setup_s):
    steal0 = cpu_steal()
    s, summary = measure(wl, args.seconds)
    steal1 = cpu_steal()
    if steal0 and steal1:
        summary["steal_pct"] = round(
            100.0 * (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]), 2)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [child_setup_s(args)
                          for _ in range(SETUP_REPEATS - 1)]
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (rss_mb, "MB"),
               "round_ms": (summary.pop("round_ms"), "ms")}
    info = {k: round(v, 3) if isinstance(v, float) else v
            for k, v in summary.items()}
    print(f"# {wl.name}: seed={args.seed} {info} "
          f"setups_s={[round(x, 3) for x in setups]}")
    for e in s.errors:
        print(f"# check failed: {e}")
    return result_json(s, metrics)


def result_json(s, metrics):
    return {"correct": not s.errors, "attempted": s.attempted,
            "failed": s.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced(wl, tracer, args):
    """Half the time untraced, half traced; per-layer metrics from the
    traced half, and the difference of the two halves as the overhead."""
    import layers as L
    import workloads as W
    from repro.obs import profiling
    half = args.seconds / 2.0
    tracer.uninstall()
    wl.tracer = None
    s_plain, plain = measure(wl, half)
    tracer.install()
    wl.tracer = tracer
    serve = isinstance(wl, W.Serve)
    if serve:
        wl.served = []
        stats0 = wl.ex.stats.snapshot()
    since = time.perf_counter()
    # the program's counters only: the span stacks are the tracer's own,
    # since the profiler's span depth is process-global
    with profiling() as prof:
        s_traced, traced_ = measure(wl, half)
    tracer.uninstall()
    serve_stats = extra = None
    if serve:
        stats1 = wl.ex.stats.snapshot()
        serve_stats = {k: stats1[k] - stats0[k]
                       for k in ("batches", "batched_requests")}
        serve_stats["promotions"] = stats1["promotions"]
        extra = L.serve_details(tracer, since, wl.served, stats0, stats1,
                                wl.ex.cache.stats())
    metrics = L.per_layer(tracer, since, traced_["rounds"], prof,
                          serve_stats)
    for k, v in L.details(tracer, since, wl.name, extra).items():
        print(f"# layer {k}: {v:.4g}")
    for m in plain:
        if not m.endswith("_ms") or m == "p50_ms":
            continue
        over = traced_[m] / plain[m] - 1.0
        print(f"# tracing overhead {m}: untraced {plain[m]:.3f} "
              f"traced {traced_[m]:.3f} ({100 * over:+.1f}%)")
    if wl.name == "segmap":
        call_ms, parts_ms, spans = L.coverage(
            tracer, "native", ("api.entry_types", "vector.ingest", "exec",
                               "vector.egress"), since)
        rest = call_ms - parts_ms
        # the halves' difference is the overhead as measured, but between
        # two halves of one run it is mostly noise of either sign, so its
        # size is what the unattributed rest is held against
        diff = traced_["native_ms"] - plain["native_ms"]
        cost = spans * tracer.span_cost_s() * 1000.0
        print(f"# segmap native, per traced call: entry_types + ingest + "
              f"exec + egress = {parts_ms:.3f} of {call_ms:.3f} ms; "
              f"unattributed {rest:.3f} ms, "
              f"{'within' if rest <= max(abs(diff), cost) else 'above'} the "
              f"tracing overhead (traced - untraced median {diff:+.3f} ms; "
              f"{spans:.0f} spans per call, {cost:.3f} ms at the measured "
              f"cost of a span)")
    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{wl.name}-{args.seed}.json"
    tracer.write(out)
    print(f"# spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    s = W.Samples()
    s.attempted = s_plain.attempted + s_traced.attempted
    s.failed = s_plain.failed + s_traced.failed
    s.errors = s_plain.errors + s_traced.errors
    for e in s.errors:
        print(f"# check failed: {e}")
    gc.collect()
    return result_json(s, metrics)


if __name__ == "__main__":
    sys.exit(main())
