"""Per-layer metrics of a traced run, read from the benchmark's spans and
from the program's own ``repro.obs`` counters and serving statistics.

:func:`per_layer` gives every metric of the ``per_layer`` list of
``BENCHMARK.json``, on every workload: the layers every workload goes
through (entry validation, ingest, egress, the segmented gather, the
vector evaluator, the kernel counters) per round of the traced timed
phase, and the front end, transformation and analysis as totals over
set-up.  A metric of a layer a workload does not reach (the ``serve``
counters off ``serve``, the VCODE counters on ``serve``) reads 0.

:func:`details` gives the figures of layers that only some workloads
reach (per backend, per request); ``run.py`` prints them on
``#`` lines.  See README.md for which end-to-end metric each one should
move.
"""

from __future__ import annotations

from tracing import Tracer

RUN_KINDS = ("vector", "native", "parallel", "vcode")
TRANSFORM = ("transform.vector", "transform.native", "transform.batched")
ANALYSIS = ("analysis.shapes", "analysis.vlint", "analysis.cost",
            "analysis.predict")


def _top(tr: Tracer, names, since=None, until=None):
    """Spans named in ``names`` with no ancestor named in ``names`` (so a
    transform that calls another is counted once), started in
    ``[since, until)``."""
    names = set(names)
    out = []
    for sp in tr.spans:
        if sp.name not in names:
            continue
        if since is not None and sp.start < since:
            continue
        if until is not None and sp.start >= until:
            continue
        p = sp.parent
        while p is not None and p.name not in names:
            p = p.parent
        if p is None:
            out.append(sp)
    return out


def _ms(spans, per=1, self_time=False) -> float:
    total = sum(sp.self_time if self_time else sp.duration for sp in spans)
    return 1000.0 * total / max(1, per)


def _under(tr: Tracer, spans, kind: str):
    root = "sample:" + kind
    return [sp for sp in spans if tr.root(sp).name == root]


def _vm_instructions(prof) -> float:
    return float(sum(c.calls for (lay, op), c in prof.counters.items()
                     if lay == "vm" and op.startswith("instr:")))


def per_layer(tr: Tracer, since: float, rounds: int, prof,
              serve=None) -> dict:
    """Every per-layer metric: ``name -> (value, unit)``.  ``prof`` is the
    ``repro.obs`` profiler of the traced timed phase; ``serve`` holds the
    serving statistics of that phase on ``serve`` (None elsewhere)."""
    n = max(1, rounds)
    res = {}
    for name in ("api.entry_types", "vector.ingest", "vector.egress",
                 "vector.gather"):
        res[f"{name}_ms"] = (_ms(_top(tr, (name,), since), n), "ms")
    res["vexec.exec_ms"] = (_ms(_top(tr, ("exec",), since), n), "ms")
    res["setup.front_ms"] = (_ms(_top(tr, ("lang.front",), until=since)),
                             "ms")
    res["setup.transform_ms"] = (_ms(_top(tr, TRANSFORM, until=since)), "ms")
    res["setup.analysis_ms"] = (_ms(_top(tr, ANALYSIS, until=since)), "ms")
    res["api.entry_types_calls"] = (
        len(_top(tr, ("api.entry_types",), since)) / n, "count")
    for key, layer, field in (("kernel.calls", "kernel", "calls"),
                              ("kernel.elements", "kernel", "elements"),
                              ("segment.calls", "segment", "calls"),
                              ("native.calls", "native", "calls"),
                              ("native.elements", "native", "elements")):
        res[key] = (prof.total(layer, field) / n, "count")
    res["vm.instructions"] = (_vm_instructions(prof) / n, "count")
    res["native.kernels_built"] = (
        float(sum(k for sp, k in tr.builds if sp.start < since)), "count")
    batches = serve["batches"] if serve else 0
    res["serve.batches"] = (batches / n, "count")
    res["serve.mean_batch"] = (
        serve["batched_requests"] / batches if batches else 0.0, "count")
    res["serve.promotions"] = (float(serve["promotions"]) if serve else 0.0,
                               "count")
    return res


def details(tr: Tracer, since: float, workload: str, extra=None) -> dict:
    """Figures of the layers this workload reaches beyond
    :func:`per_layer`: per ``run`` call of a backend on ``segmap`` and
    ``qsort``, per request on ``serve`` (``extra``)."""
    out = {"native.build_ms": _ms([sp for sp, _ in tr.builds
                                   if sp.start < since])}
    if workload == "serve":
        out.update(extra or {})
        return out
    samples = {k: sum(1 for sp in tr.spans
                      if sp.name == "sample:" + k and sp.start >= since)
               for k in RUN_KINDS}
    execs = _top(tr, ("exec",), since)
    for k in ("vector", "native", "parallel"):
        out[f"exec_ms.{k}"] = _ms(_under(tr, execs, k), samples[k])
    vm = _under(tr, _top(tr, ("vcode.vm",), since), "vcode")
    out["vcode.vm_ms"] = _ms(vm, samples["vcode"], self_time=True)
    out["vcode.compile_ms"] = _ms(
        _under(tr, _top(tr, ("vcode.compile",), since), "vcode"),
        samples["vcode"])
    return out


def serve_details(tr: Tracer, since: float, served: list, stats0: dict,
                  stats1: dict, cache_stats: dict) -> dict:
    """``serve`` per request over the traced timed phase.  ``served`` holds
    (payload id, submit, observed done) per request; each is matched to
    the dispatcher call that executed it to split its latency into
    execution and waiting."""
    nreq = max(1, len(served))

    def per_req(name):
        return _ms(_top(tr, (name,), since), nreq)

    # payload ids are reused once a request is done, so match each
    # request to the latest exec call that started before it completed
    calls = {}
    for sp, ids in tr.exec_calls:
        if sp.start >= since:
            for i in ids:
                calls.setdefault(i, []).append(sp)
    exec_ms = wait_ms = 0.0
    matched = 0
    for pid, t_sub, t_done in served:
        cands = [sp for sp in calls.get(pid, ())
                 if sp.start >= t_sub and sp.end <= t_done]
        if not cands:
            continue
        sp = cands[-1]
        matched += 1
        exec_ms += sp.duration * 1000.0
        wait_ms += (t_done - t_sub - sp.duration) * 1000.0
    singles = stats1["singles"] - stats0["singles"]
    lookups = cache_stats["hits"] + cache_stats["misses"]
    return {
        "serve.exec_ms": exec_ms / max(1, matched),
        "serve.wait_ms": wait_ms / max(1, matched),
        "serve.singles_per_1k": 1000.0 * singles / nreq,
        "serve.cache_hit_ratio": cache_stats["hits"] / max(1, lookups),
        "api.entry_types_per_request":
            len(_top(tr, ("api.entry_types",), since)) / nreq,
        "analysis.predict_ms": per_req("analysis.predict"),
        "vector.pack_ms": per_req("vector.pack"),
        "vector.unpack_ms": per_req("vector.unpack"),
        "analysis.cost_setup_ms": _ms(_top(tr, ("analysis.cost",),
                                           until=since)),
    }


def coverage(tr: Tracer, kind: str, names, since: float) -> tuple:
    """Per ``kind`` sample, on average: the sample's milliseconds, the
    milliseconds of the spans ``names`` directly under it (how much of a
    traced call the layer spans account for), and the number of spans
    recorded inside it."""
    roots = [sp for sp in tr.spans
             if sp.name == f"sample:{kind}" and sp.start >= since]
    inside = {id(r): 0.0 for r in roots}
    spans = 0
    for sp in tr.spans:
        if sp.start >= since and id(tr.root(sp)) in inside:
            spans += 1
        if sp.name in names and id(sp.parent) in inside:
            inside[id(sp.parent)] += sp.duration
    n = max(1, len(roots))
    return (1000.0 * sum(r.duration for r in roots) / n,
            1000.0 * sum(inside.values()) / n, spans / n)
