"""Quick tests of the benchmark itself: every workload runs to its end at a
tiny size with all checks passing, and every checker rejects a wrong
result.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
os.environ.setdefault("REPRO_NATIVE_CACHE",
                      tempfile.mkdtemp(prefix="perfbench-test-"))

import workloads as W  # noqa: E402
from repro.api import CompiledProgram  # noqa: E402

TINY = 0.02
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def run_cli(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    return proc


def test_manifest_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_workload_runs_clean_at_tiny_size(name):
    proc = run_cli("--workload", name, "--seed", "3", "--seconds", "0.2",
                   "--scale", str(TINY))
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True, proc.stdout
    assert res["attempted"] >= 1
    # every end-to-end metric of the manifest, in its unit, never 0
    assert {k: m["unit"] for k, m in res["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["failed"] == 0


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_traced_run_prints_per_layer_metrics(name):
    proc = run_cli("--workload", name, "--seed", "3", "--seconds", "0.4",
                   "--scale", str(TINY), "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    # every per-layer metric of the manifest, in its unit, on every
    # workload; every time is measured, so none reads 0
    assert {k: m["unit"] for k, m in res["metrics"].items()} == PER_LAYER
    for k, m in res["metrics"].items():
        if m["unit"] == "ms":
            assert m["value"] > 0, k
    assert "# tracing overhead round_ms" in proc.stdout
    if name == "segmap":
        assert "# segmap native, per traced call" in proc.stdout


def test_refuses_to_run_without_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "segmap", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _wrong_round(wl, monkeypatch, corrupt):
    """One round with every result passed through ``corrupt``; returns the
    check failures it produced."""
    run = CompiledProgram.run

    def bad_run(self, *a, **kw):
        return corrupt(run(self, *a, **kw))
    monkeypatch.setattr(CompiledProgram, "run", bad_run)
    s = W.Samples()
    wl.round(s)
    return s.errors


def test_segmap_checker_rejects_wrong_sums(monkeypatch):
    wl = W.WORKLOADS["segmap"](5, TINY)
    wl.setup()
    assert W.check_segmap([x for x, _tol in wl.expected], wl.expected)
    errors = _wrong_round(wl, monkeypatch,
                          lambda out: [x * (1 + 1e-9) for x in out])
    assert any("error bound" in e for e in errors)


def test_segmap_checker_rejects_backend_disagreement(monkeypatch):
    wl = W.WORKLOADS["segmap"](5, TINY)
    wl.setup()
    run = CompiledProgram.run

    def one_ulp_off(self, fname, args, backend="vector", **kw):
        out = run(self, fname, args, backend, **kw)
        if backend == "vcode":
            out = [x + abs(x) * 2.0 ** -52 for x in out]
        return out
    monkeypatch.setattr(CompiledProgram, "run", one_ulp_off)
    s = W.Samples()
    wl.round(s)
    assert any("bit-identical" in e for e in s.errors)


def test_qsort_checker_rejects_unsorted(monkeypatch):
    wl = W.WORKLOADS["qsort"](5, TINY)
    wl.setup()
    errors = _wrong_round(wl, monkeypatch,
                          lambda out: [list(reversed(v)) for v in out])
    assert len(errors) == 4


def test_serve_checker_rejects_wrong_response(monkeypatch):
    wl = W.WORKLOADS["serve"](5, TINY)
    wl.setup()
    try:
        run, batched = CompiledProgram.run, CompiledProgram.run_batched
        monkeypatch.setattr(CompiledProgram, "run",
                            lambda self, *a, **kw: [run(self, *a, **kw)])
        monkeypatch.setattr(
            CompiledProgram, "run_batched",
            lambda self, *a, **kw: [[v] for v in batched(self, *a, **kw)])
        s = W.Samples()
        wl.loop(s, 0.0)
        assert s.errors and all("wrong result" in e for e in s.errors)
    finally:
        wl.close()
