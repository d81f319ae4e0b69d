"""The three benchmark workloads.

Each workload builds its inputs from a seed, sets itself up (compile,
native kernel builds, warm-up) and then runs whole *rounds* of the same
operations until the run's time is up.  Every timed sample is one call
into the public API of :mod:`repro`; every output is checked against a
computation made apart from the program (never against a saved copy of
an earlier output).

What sets an input's amount of work (segment lengths and their order,
sequence lengths, the keys' relative order, the request mix and shapes)
is fixed, and the seed draws the values (and the order of the requests).
That keeps the work the same on every seed, so the spread between runs
measures the machine and the program, not the input: with seeded segment
orders, ``segmap`` on the native backend ran about 10% slower on some
seeds than on others.
"""

from __future__ import annotations

import ast
import gc
import math
import os
import random
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import repro
from repro import BatchExecutor

ROOT = Path(__file__).resolve().parent.parent
BACKENDS = ("vector", "native", "parallel", "vcode")
#: the parallel backend runs at one thread per CPU this process may use
THREADS = len(os.sched_getaffinity(0))


def example(name: str) -> dict:
    """``SOURCE``, ``PROFILE_ENTRY`` and ``PROFILE_ARGS`` of one example,
    read without executing the script (as ``repro profile`` does)."""
    tree = ast.parse((ROOT / "examples" / f"{name}.py").read_text())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in (
                    "SOURCE", "PROFILE_ENTRY", "PROFILE_ARGS"):
                out[target.id] = ast.literal_eval(node.value)
    return out


class Samples:
    """Wall-time samples (ms) per metric plus the operation tally."""

    def __init__(self):
        self.ms: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed(self, kind: str, fn, tracer):
        """Run ``fn`` as one timed sample of ``kind`` after a full
        collection, so garbage from earlier samples is not charged to it."""
        gc.collect()
        with tracer.sample(kind) if tracer else nullcontext():
            t = time.perf_counter()
            out = fn()
            self.ms.setdefault(kind, []).append(
                (time.perf_counter() - t) * 1000.0)
        return out

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(what)


class Workload:
    """Interface: ``setup()`` once, then ``round(samples)`` repeatedly."""

    name = ""
    #: the kinds of timed sample whose medians add up to ``round_ms``
    round_kinds: tuple = ()
    tracer = None

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, s: Samples) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def summary(self, s: Samples) -> dict:
        """The median of each kind's samples (``<kind>_ms``) and their sum
        over ``round_kinds``: the time of a round made of median samples,
        steadier than the median of whole rounds because each kind's
        outliers are filtered apart."""
        med = {k: statistics.median(v) for k, v in s.ms.items()}
        out = {f"{k}_ms": v for k, v in med.items()}
        out["round_ms"] = sum(med[k] for k in self.round_kinds)
        return out


def _shuffled(values, rng):
    values = list(values)
    rng.shuffle(values)
    return values


def _heavy_lengths(count: int, total: int, longest: int) -> list[int]:
    """A fixed heavy-tailed multiset of ``count`` lengths summing to about
    ``total`` whose longest is ``longest`` (Zipf-like: the i-th largest is
    proportional to 1/i**0.9)."""
    weights = [1.0 / (i + 1) ** 0.9 for i in range(count)]
    rest = max(0, total - longest)
    tail = sum(weights[1:])
    lens = [longest] + [max(1, round(rest * w / tail)) for w in weights[1:]]
    return lens


# -- segmap ------------------------------------------------------------------

SEGMAP_SOURCE = """
fun segmap(v: seq(seq(float)), k) =
  if k == 0 then [s <- v: sum(s)]
  else segmap([s <- v: [x <- s: x * 0.5 + 0.25]], k - 1)
"""


class Segmap(Workload):
    """The wide-vector case: a nested elementwise map applied ``k`` times
    through depth-0 recursion, then a per-segment sum."""

    name = "segmap"
    # the parallel backend runs and is checked every round, but its run
    # time is left out of ``round_ms`` here: on a 2-CPU virtual machine it
    # swings between runs with the host's load (see README.md)
    round_kinds = ("vector", "native", "vcode")
    SEGMENTS = 4000
    ELEMENTS = 256_000
    ROUNDS = 24

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        nseg = max(4, int(self.SEGMENTS * scale))
        nel = max(4 * nseg, int(self.ELEMENTS * scale))
        self.k = self.ROUNDS if scale >= 1.0 else 4
        # fixed ragged shape: lengths 0..2*mean in a fixed scattered
        # pattern, some segments empty; the seed draws the values
        mean = nel // nseg
        self.lens = [(i * 7919) % (2 * mean + 1) for i in range(nseg)]
        rng = random.Random(seed)
        self.v = [[rng.uniform(-1.0, 1.0) for _ in range(n)]
                  for n in self.lens]
        self.args = [self.v, self.k]
        self.expected = self._reference()

    def _reference(self):
        """Per-segment sums of the k-round map, computed with NumPy for the
        map and ``math.fsum`` (correctly rounded) for the sums, with the
        error bound each backend's sum must meet."""
        flat = np.array([x for s in self.v for x in s], dtype=np.float64)
        for _ in range(self.k):
            flat = flat * 0.5 + 0.25
        out = []
        pos = 0
        u = 2.0 ** -53
        for n in self.lens:
            seg = flat[pos:pos + n]
            pos += n
            # any summation order is within (n-1)u * sum|x| of the exact
            # sum; the map itself may round differently by k ulps per term
            tol = (n + self.k + 1) * u * float(np.abs(seg).sum()) + 1e-300
            out.append((math.fsum(seg.tolist()), tol))
        return out

    def setup(self):
        self.prog = repro.compile_program(SEGMAP_SOURCE)
        s = Samples()
        self.round(s)                    # builds native kernels, warms caches
        if s.errors:
            raise AssertionError("segmap warm-up: " + "; ".join(s.errors))

    def _run(self, backend):
        kw = {"threads": THREADS} if backend == "parallel" else {}
        return self.prog.run("segmap", self.args, backend=backend, **kw)

    def round(self, s):
        outs = {}
        for b in BACKENDS:
            s.attempted += 1
            outs[b] = s.timed(b, lambda: self._run(b), self.tracer)
        for b, out in outs.items():
            s.check(check_segmap(out, self.expected),
                    f"segmap {b}: sums outside the fsum error bound")
            s.check(out == outs["vector"],
                    f"segmap {b}: not bit-identical to vector")


def check_segmap(out, expected) -> bool:
    return (len(out) == len(expected)
            and all(abs(x - ref) <= tol for x, (ref, tol) in zip(out, expected)))


# -- qsort -------------------------------------------------------------------

class Qsort(Workload):
    """The paper's irregular divide-and-conquer case: nested quicksort over
    a ragged collection with heavy-tailed lengths."""

    name = "qsort"
    round_kinds = BACKENDS
    SEQUENCES = 600
    KEYS = 70_000
    LONGEST = 19_000

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        lens = _heavy_lengths(max(4, int(self.SEQUENCES * scale)),
                              max(40, int(self.KEYS * scale)),
                              max(10, int(self.LONGEST * scale)))
        fixed = random.Random(0)
        lens = _shuffled(lens, fixed)                # fixed order
        # the pivots, and so the recursion depth and the work, follow the
        # keys' order: the seed draws a strictly increasing relabelling of
        # fixed keys (depth 31..37 when the seed drew the keys themselves)
        base = [[fixed.randrange(1 << 30) for _ in range(n)] for n in lens]
        rng = random.Random(seed)
        a, b = rng.randrange(1, 1 << 8), rng.randrange(1 << 20)
        self.vv = [[a * x + b for x in v] for v in base]
        self.expected = [sorted(v) for v in self.vv]

    def setup(self):
        self.prog = repro.compile_program(example("quicksort")["SOURCE"])
        s = Samples()
        self.round(s)
        if s.errors:
            raise AssertionError("qsort warm-up: " + "; ".join(s.errors))

    def round(self, s):
        for b in BACKENDS:
            kw = {"threads": THREADS} if b == "parallel" else {}
            s.attempted += 1
            out = s.timed(b, lambda: self.prog.run("qsort_all", [self.vv],
                                                   backend=b, **kw),
                          self.tracer)
            s.check(out == self.expected, f"qsort {b}: output is not sorted()")


# -- serve -------------------------------------------------------------------

#: a request still pending after this long fails the run instead of
#: hanging it
REQUEST_TIMEOUT_S = 60.0
SUMSQ_SOURCE = "fun main(s) = sum([x <- s: x * x + 1])"


def _by_frequency(v):
    counts = Counter(v)
    return sorted(((u, counts[u]) for u in sorted(counts)),
                  key=lambda p: -p[1])


def _spmv(rows, x):
    return [sum(val * x[col - 1] for col, val in row) for row in rows]


class Serve(Workload):
    """A closed loop against an in-process ``BatchExecutor`` with its
    default configuration: one generator keeps ``WINDOW`` requests in
    flight over a seeded mix of four small programs."""

    name = "serve"
    WINDOW = 128
    MIX = (("sumsq", 64), ("qsort", 64), ("histogram", 64), ("spmv", 64))

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        rng = random.Random(seed)
        self.sources = {
            "sumsq": SUMSQ_SOURCE,
            "qsort": example("quicksort")["SOURCE"],
            "histogram": example("histogram")["SOURCE"],
            "spmv": example("spmv")["SOURCE"],
        }
        # every kind gets the same sizes 4..32; each round sends the whole
        # set in a new seeded order, so batch make-up averages out over a
        # run instead of repeating one order's luck
        fixed = random.Random(0)
        self.requests = [self._request(kind, 4 + (i * 7) % 29, rng, fixed)
                         for kind, n in self.MIX for i in range(n)]
        self.order = random.Random(seed + 1)
        self.window = self.WINDOW if scale >= 1.0 else 4
        self.latencies_ms: list[float] = []
        self.round_starts: list[float] = []
        self.served: list[tuple] = []     # (payload id, submit, done) traced

    def _request(self, kind, size, rng, fixed):
        """One request.  What sets a request's work comes from ``fixed``:
        the key order of ``qsort`` (its pivots), the grouping of the
        ``histogram`` values, the sparsity pattern of ``spmv``; ``rng``
        (the seed) draws the values."""
        if kind == "sumsq":
            s = [rng.randrange(-50, 50) for _ in range(size)]
            return ("main", [s], {"types": ("seq(int)",)},
                    sum(x * x + 1 for x in s), kind)
        if kind == "qsort":
            a, b = rng.randrange(1, 64), rng.randrange(1000)
            s = [a * fixed.randrange(1000) + b for _ in range(size)]
            return ("qsort", [s], {}, sorted(s), kind)
        if kind == "histogram":
            labels = _shuffled(range(8), rng)
            s = [labels[fixed.randrange(8)] for _ in range(size)]
            return ("by_frequency", [s], {}, _by_frequency(s), kind)
        n = 1 + size // 4
        x = [rng.randrange(-9, 10) for _ in range(n)]
        rows = [[(c, rng.randrange(-9, 10))
                 for c in sorted(fixed.sample(range(1, n + 1),
                                              fixed.randrange(0, n + 1)))]
                for _ in range(n)]
        return ("spmv", [rows, x],
                {"types": ("seq(seq((int, int)))", "seq(int)")},
                _spmv(rows, x), kind)

    def setup(self):
        self.ex = BatchExecutor()
        s = Samples()
        for _ in range(2):                # compile, analyze, tier to native
            self.loop(s, 0.0)
        if s.errors:
            raise AssertionError("serve warm-up: " + "; ".join(s.errors))
        self.latencies_ms = []

    def close(self):
        self.ex.close()

    def loop(self, s: Samples, seconds: float) -> float:
        """Closed loop over whole rounds until ``seconds`` have passed (at
        least one round); returns the elapsed wall time."""
        inflight = []                     # (future, request, copy, t_submit)
        t0 = time.perf_counter()
        track = self.tracer is not None
        while True:
            self.round_starts.append(time.perf_counter())
            for req in _shuffled(self.requests, self.order):
                while len(inflight) >= self.window:
                    self._reap(inflight, s, track)
                fname, args, kw, _want, kind = req
                args = [list(a) for a in args]   # one object per request
                t = time.perf_counter()
                fut = self.ex.submit(self.sources[kind], fname, args, **kw)
                inflight.append((fut, req, args, t))
                s.attempted += 1
            if time.perf_counter() - t0 >= seconds:
                break
        while inflight:
            self._reap(inflight, s, track)
        return time.perf_counter() - t0

    def _reap(self, inflight, s, track):
        """Wait for the oldest request, then collect every finished one."""
        inflight[0][0].exception(timeout=REQUEST_TIMEOUT_S)
        now = time.perf_counter()
        keep = []
        for item in inflight:
            fut, req, args, t = item
            if not fut.done():
                keep.append(item)
                continue
            self.latencies_ms.append((now - t) * 1000.0)
            if track:
                self.served.append((id(args[0]), t, now))
            err = fut.exception()
            if err is not None:
                s.failed += 1
                s.check(False, f"serve {req[4]}: {type(err).__name__}: {err}")
                continue
            s.check(fut.result() == req[3], f"serve {req[4]}: wrong result")
        inflight[:] = keep

    def measure(self, s: Samples, seconds: float) -> dict:
        """``round_ms`` is the median time from the first submission of
        one round to the first of the next: with the window full, the time
        the executor takes to serve one round's requests."""
        gc.collect()
        self.latencies_ms = []
        self.round_starts = []
        done0 = s.attempted - s.failed
        elapsed = self.loop(s, seconds)
        done = (s.attempted - s.failed) - done0
        lat = sorted(self.latencies_ms)
        starts = self.round_starts
        gaps = [(b - a) * 1000.0 for a, b in zip(starts, starts[1:])]
        return {"round_ms": (statistics.median(gaps) if gaps
                             else elapsed * 1000.0),
                "rounds": len(starts),
                "rps": done / elapsed,
                "p50_ms": _percentile(lat, 0.50),
                "p99_ms": _percentile(lat, 0.99),
                "requests": len(lat)}


def _percentile(sorted_values, q):
    if not sorted_values:
        return float("nan")
    i = min(len(sorted_values) - 1, int(math.ceil(q * len(sorted_values))) - 1)
    return sorted_values[max(0, i)]


WORKLOADS = {w.name: w for w in (Segmap, Qsort, Serve)}


def run_rounds(wl: Workload, s: Samples, seconds: float) -> dict:
    """The timed phase of a non-serving workload: whole rounds until
    ``seconds`` have passed (at least one)."""
    if isinstance(wl, Serve):
        return wl.measure(s, seconds)
    t0 = time.perf_counter()
    rounds = 0
    while True:
        wl.round(s)
        rounds += 1
        if time.perf_counter() - t0 >= seconds:
            break
    out = wl.summary(s)
    out["rounds"] = rounds
    return out


__all__ = ["WORKLOADS", "Samples", "run_rounds", "example", "check_segmap",
           "THREADS"]
