#!/usr/bin/env python3
"""Solve/verify benchmark for gpauction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. One process, one thread. The seed orders the workload's fixed
corpus (see ``workloads.py``). Set-up (import, input generation,
parsing, warming the vertex tables) is repeated ``SETUP_REPS`` times and
its median reported. The timed phase then runs whole passes over the
inputs until about ``--seconds`` have elapsed, at least ``MIN_PASSES``
of them. Every call is bracketed by a probe of the host's current speed
and its time scaled to a fixed reference speed; an input's latency is
the median over its passes. Every output is checked outside the timed
span against ``reference.json``, and every FOUND result is re-certified.
With ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported instead.

The last line of stdout is the JSON result; the line before it records
the environment.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, digest  # noqa: E402
import layertrace  # noqa: E402

SETUP_REPS = 7
MIN_PASSES = 2
# The probe loop's length and its median time on the machine where the
# benchmark was defined (2 vCPUs of an Intel Xeon at 2.1 GHz, Python
# 3.11): every time reported is scaled to that host speed.
PROBE_TERMS = 200
PROBE_REF_S = 0.0008
TAIL_BEYOND = 10  # the tail percentile leaves this many inputs above it
PROGRAM_MODULES = ("model", "polytope", "linprog", "demand", "pricing", "instances", "cli")

E2E_UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ips": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "certified_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program() -> SimpleNamespace:
    """A fresh import of gpauction from the checkout's src/: earlier
    imports are dropped so each set-up pays the full import."""
    for name in [n for n in sys.modules if n == "gpauction" or n.startswith("gpauction.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gpauction")
    if Path(pkg.__file__).resolve().parent != SRC / "gpauction":
        raise BenchError(f"imported gpauction from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"gpauction.{m}") for m in PROGRAM_MODULES})


def set_up(wl, keys, workdir):
    """Import, generate, parse, warm: everything before the first timed
    call. Returns the program namespace, the prepared cases and the
    generated documents."""
    gp = import_program()
    docs = [wl.docs(k) for k in keys]
    cases = [wl.prepare(gp, d, workdir, k) for d, k in zip(docs, keys)]
    for n in {d["instance"]["n"] for d in docs}:
        gp.polytope.vertices_P(gp.model.ValueGraph.complete(n))
    return gp, cases, docs


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982): the
    order statistics averaged with Beta((n+1)p, (n+1)(1-p)) weights. A
    plain order statistic jumps when noise reorders inputs whose costs
    lie close together; this blends its neighbours instead."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule on each interval [(i-1)/n, i/n]
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            w += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(w)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def probe() -> float:
    """Seconds taken by a fixed exact-rational loop, with the collector
    off: a sample of how fast this host runs the kind of code the program
    runs, right now."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, PROBE_TERMS):
            s += Fraction(i % 7 - 3, i)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def timed_pass(wl, gp, cases, times, outs, probes, tracer=None) -> float:
    """One call per case, each bracketed by probes. A call's time is
    scaled to the reference host speed by the mean of its two probes, and
    so are the spans it leaves in ``tracer``; returns the scaled total."""
    total = 0.0
    before = probe()
    for i, case in enumerate(cases):
        first_span = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        try:
            raw = wl.call(gp, case)
        except Exception as exc:  # counted as a failed call below
            raw = exc
        dt = time.perf_counter() - t0
        after = probe()
        scale = 2 * PROBE_REF_S / (before + after)
        scaled = dt * scale
        if tracer:
            tracer.scale_spans(first_span, scale)
        probes.append(after)
        times[i].append(scaled)
        outs[i].append(raw)
        total += scaled
        before = after
    return total


def check(wl, gp, cases, keys, outs, reference):
    """Count failed calls: an exception, a FOUND result that does not
    re-certify, or an output that differs from the reference."""
    failed, notes = 0, {}
    for case, key, raws in zip(cases, keys, outs):
        expected = reference[key]["output"]
        for raw in raws:
            if isinstance(raw, Exception):
                errs = [f"raised {raw!r}"]
            else:
                try:
                    errs = wl.certify(gp, case, raw)
                    if wl.canon(raw) != expected:
                        errs.append("output differs from the reference")
                except Exception as exc:
                    errs = [f"check raised {exc!r}"]
            if errs:
                failed += 1
                notes.setdefault(key, dict.fromkeys(errs))
    return failed, [f"{key}: {'; '.join(errs)}" for key, errs in notes.items()]


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "commit": commit,
        "seed": seed,
    }


def load_reference(wl) -> dict:
    path = HERE / "reference.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())[wl.name]


def bench(wl, keys, seconds: float, trace: bool, spans_path=None) -> dict:
    """Set up, measure and check one run over the inputs ``keys``;
    returns the result object."""
    if not (SRC / "gpauction" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'gpauction'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    reference = load_reference(wl)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        setups, probes = [], []
        for _ in range(SETUP_REPS):
            gc.collect()
            before = probe()
            t0 = time.perf_counter()
            gp, cases, docs = set_up(wl, keys, str(workdir))
            dt = time.perf_counter() - t0
            after = probe()
            setups.append(dt * 2 * PROBE_REF_S / (before + after))
        for key, d in zip(keys, docs):
            if digest(d) != reference[key]["input"]:
                raise BenchError(f"{wl.name} input {key} no longer matches its recorded digest")

        n = len(cases)
        times = [[] for _ in cases]
        outs = [[] for _ in cases]
        traced_outs = [[] for _ in cases]
        plain_s, traced_s = [], []
        tracer = layertrace.Tracer() if trace else None
        gc.collect()
        deadline = time.perf_counter() + seconds
        pass_s = 0.0
        # Stop when the next pass would end nearer after the deadline than
        # before it, so a run lasts about ``seconds`` whatever the pass time.
        while len(plain_s) < (1 if tracer else MIN_PASSES) or (
            time.perf_counter() + pass_s / 2 < deadline
        ):
            t_pass = time.perf_counter()
            plain_s.append(timed_pass(wl, gp, cases, times, outs, probes))
            if tracer:
                tracer.install()
                try:
                    traced_s.append(
                        timed_pass(wl, gp, cases, [[] for _ in cases], traced_outs, [], tracer)
                    )
                finally:
                    tracer.uninstall()
            pass_s = time.perf_counter() - t_pass
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed, notes = check(wl, gp, cases, keys, outs, reference)
        if tracer:
            more, more_notes = check(wl, gp, cases, keys, traced_outs, reference)
            failed += more
            notes += more_notes
        attempted = sum(map(len, outs)) + sum(map(len, traced_outs))
        for note in notes:
            print(f"FAILED {wl.name} {note}", file=sys.stderr)

        if tracer:
            metrics, absent = layertrace.metrics(tracer.spans, tracer.wrapped, len(traced_s))
            metrics["trace.overhead_ratio"] = {
                "value": sum(traced_s) / sum(plain_s) - 1, "unit": "ratio"
            }
            if absent:
                print(f"absent layer metrics (function not found): {absent}", file=sys.stderr)
            if spans_path:
                tracer.dump(spans_path)
        else:
            per_input = [statistics.median(t) for t in times]
            tail_p = max(0.5, 1 - TAIL_BEYOND / n)
            good = attempted - failed
            values = {
                "latency_p50_s": hd_quantile(per_input, 0.5),
                "latency_tail_s": hd_quantile(per_input, tail_p),
                # One pass at every input's median speed: bursts of host
                # contention that a plain total would count are dropped.
                "throughput_ips": n * good / attempted / sum(per_input),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
                "certified_ratio": good / attempted,
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            print(
                f"{wl.name}: {n} inputs x {len(plain_s)} passes, "
                f"tail = p{100 * tail_p:.4g}, failed_ratio = {failed / attempted}, "
                f"host speed = {PROBE_REF_S / statistics.median(probes):.3f} x reference",
                file=sys.stderr,
            )
        for name, m in metrics.items():
            print(f"  {name:45s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    spans_path = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
    try:
        result = bench(wl, wl.keys(args.seed), args.seconds, bool(args.trace), spans_path)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
