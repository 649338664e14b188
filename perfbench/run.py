"""Closed-loop benchmark of text2table training steps and table decoding.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) in this process: set-up, warm-up,
then operations back to back until ``--seconds`` have passed and at least
``min_ops`` timed operations are done. Every output is checked. With
``--trace 0`` the last stdout line is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer split, from operations
that alternate between untraced and traced, and the spans are written to
``perfbench_out/``. Times are scaled to a nominal machine speed measured by a
fixed reference (see ``make_reference``). README.md in this directory maps
layers to metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
BLAS_THREADS = 1  # pinned; at most the core count of any machine
SETUP_CHILDREN = 2  # fresh interpreters that repeat the set-up, so its median has 3 samples
# Reported times are scaled to a machine on which the reference of make_reference() takes this long.
REF_NOMINAL_S = 0.006

END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "examples_per_s": "1/s",
    "tokens_per_s": "1/s",
    "loss": "loss",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

FORWARD_OPS = (
    "matmul", "softmax", "layer_norm", "masked_fill", "add", "scale", "pair_bias", "bucket_bias",
    "embedding", "take_rows", "transpose", "reshape", "relu", "dropout", "stack_rows",
    "cross_entropy", "mse",
)

# per-layer metric -> unit; README.md says which span or count each one reports
PER_LAYER = {
    "model.encode_ms": "ms",
    "model.encode_total_ms": "ms",
    "model.decoder_fwd_ms": "ms",
    "model.decoder_fwd_total_ms": "ms",
    "model.logits_ms": "ms",
    "model.collate_ms": "ms",
    "model.decoder_T_mean": "count",
    "model.decoder_positions": "count",
    "model.pad_frac": "ratio",
    "layout.instance_ms": "ms",
    "training.build_pass_ms": "ms",
    "training.loss_positions": "count",
    "training.legal_mask_mb": "MB",
    "numerics.backward_ms": "ms",
    "optim.clip_ms": "ms",
    "optim.adamw_ms": "ms",
    **{f"ops.{op}_ms": "ms" for op in FORWARD_OPS},
    "ops.other_ms": "ms",
    "ops.calls": "count",
    "decoding.select_ms": "ms",
    "decoding.outer_ms": "ms",
    "decoding.passes_per_table": "count",
    "decoding.tokens_per_table": "count",
    "decoding.outer_iterations": "count",
    "decoding.truncated_cells": "count",
    "decoding.commit_ratio": "ratio",
    "decoding.useful_pos_frac": "ratio",
    "trace.op_ms": "ms",
    "trace.untraced_op_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.layers_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.spans_per_op": "count",
}

_CHILD_SETUP = """
import sys, time
t = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(int(sys.argv[3]), workloads.FULL)
print(time.perf_counter() - t)
"""


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on the import path, or exit with code 2."""
    if not (SRC / "text2table" / "__init__.py").is_file():
        sys.exit(f"perfbench: no text2table sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def make_reference():
    """A fixed mix of interpreter and numpy work that shares no code with text2table.

    Timed before every operation. Shared machines drift by tens of percent
    within a run and between runs minutes apart; scaling each operation's time
    by ``REF_NOMINAL_S`` over the median reference time around it removes most
    of that drift while leaving the program's own cost untouched.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, x, w = rng.random((64, 64)), rng.random((4, 80, 16)), rng.random((64, 64)) / 8

    def reference() -> float:
        t = perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        y = a
        for _ in range(60):
            y = np.tanh(a @ y)
        for _ in range(12):  # attention-shaped: scores, mask, softmax, mix, norm, feed-forward
            sc = x @ x.transpose(0, 2, 1) * 0.25
            sc = np.where(sc > 1e9, -np.inf, sc)
            e = np.exp(sc - sc.max(axis=-1, keepdims=True))
            h = (e / e.sum(axis=-1, keepdims=True) @ x).transpose(1, 0, 2).reshape(80, 64)
            h = (h - h.mean(axis=-1, keepdims=True)) / np.sqrt(h.var(axis=-1, keepdims=True) + 1e-6)
            h = np.maximum(h @ w, 0.0)
        return perf_counter() - t

    return reference


def _child_setup_seconds(seed: int) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_SETUP, str(SRC), str(HERE), str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run(name, seed, seconds, trace, scale=None, setup_children=0, spans_path=None, started=None) -> dict:
    """One benchmark run; returns the result object plus what the tests inspect.

    ``started`` is when the caller began importing the benchmark's modules,
    so the first set-up sample includes the imports.
    """
    started = perf_counter() if started is None else started
    import workloads
    from spans import ROOT as ROOT_SPAN, Patched, SpanRecorder, layer_targets

    scale = scale or workloads.FULL
    setup = workloads.build(seed, scale)
    setup_samples = [perf_counter() - started]
    reference = make_reference()
    setup_ref = [reference() for _ in range(5)]
    setup_samples += [_child_setup_seconds(seed) for _ in range(setup_children)]
    setup_ref += [reference() for _ in range(5)]
    wl = workloads.WORKLOADS[name](setup, seed, scale)

    ref_s = []
    rec = SpanRecorder() if trace else None
    patched = Patched(rec, layer_targets()) if trace else None
    root_id = rec.name_id(ROOT_SPAN) if trace else -1

    fixed = scale.warmup + scale.min_ops
    plain, traced_s = [], []  # seconds per timed operation
    outcomes: dict[int, object] = {}
    timed_plain, timed_traced = [], []  # op indices
    failed = attempted = 0
    deadline = None
    n = 0
    while n < fixed or perf_counter() < deadline:
        if n == scale.warmup:
            deadline = perf_counter() + seconds
        timed = n >= scale.warmup
        traced = trace and timed and (n - scale.warmup) % 2 == 1
        attempted += 1
        ref_s.append(reference())
        try:
            wl.before(n)
            if traced:
                rec.current_op = n
                with patched:
                    i = rec.open(root_id)
                    try:
                        out = wl.call(n)
                    finally:
                        rec.close(i)
                dt = rec.end[i] - rec.start[i]
            else:
                t = perf_counter()
                out = wl.call(n)
                dt = perf_counter() - t
            outcomes[n] = wl.check(n, out)
        except Exception:  # an operation that raises or fails a check counts as failed
            failed += 1
            print(f"perfbench: operation {n} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        else:
            if timed:
                (traced_s if traced else plain).append(dt)
                (timed_traced if traced else timed_plain).append(n)
        n += 1

    sha = hashlib.sha256()
    for k in range(fixed):
        sha.update((outcomes[k].digest if k in outcomes else "failed").encode() + b"\n")

    speed = REF_NOMINAL_S / statistics.median(ref_s)  # below 1 on a machine slower than nominal
    if not trace:
        # each operation scaled by the machine speed over the 7 operations around it
        scaled = [
            dt * REF_NOMINAL_S / statistics.median(ref_s[max(k - 3, 0) : k + 4])
            for k, dt in zip(timed_plain, plain)
        ]
        busy = sum(scaled)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before `loss` runs
        metrics = {
            "latency_ms_p50": statistics.median(scaled) * 1e3,
            "latency_ms_p90": statistics.quantiles(scaled, n=10, method="inclusive")[8] * 1e3,
            "examples_per_s": sum(outcomes[k].examples for k in timed_plain) / busy,
            "tokens_per_s": sum(outcomes[k].tokens for k in timed_plain) / busy,
            "loss": wl.quality([outcomes.get(k) for k in range(fixed)]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_samples) * REF_NOMINAL_S / statistics.median(setup_ref),
        }
        units = END_TO_END
    else:
        metrics = _per_layer(rec, ROOT_SPAN, traced_s, plain, [outcomes[k] for k in timed_traced])
        units = PER_LAYER
        metrics.update({k: v * speed for k, v in metrics.items() if units[k] == "ms"})
        if spans_path is not None:
            Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
            rec.write(spans_path, workload=name, seed=seed)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return {
        "result": result,
        "digests": [outcomes[k].digest if k in outcomes else None for k in range(n)],
        "sha256": sha.hexdigest(),
        "timed_ops": len(plain) + len(traced_s),
        "setup_samples": setup_samples,
        "reference_ms": statistics.median(ref_s) * 1e3,
        "speed_factor": speed,
        "unscaled_latency_ms_p50": statistics.median(plain) * 1e3,
    }


def _per_layer(rec, root, traced_s, plain, traced_outcomes) -> dict:
    n = len(traced_s)
    per_op = 1e3 / n  # seconds summed over traced operations -> ms per operation
    own = rec.self_seconds()
    c = rec.counts
    dec = {k: sum(o.counts.get(k, 0) for o in traced_outcomes) for k in
           ("tokens", "outer_iterations", "truncated_cells", "committed")}
    layer = {
        "model.encode_ms": own.get("model.encode", 0.0) * per_op,
        "model.encode_total_ms": rec.total_seconds("model.encode") * per_op,
        "model.decoder_fwd_ms": own.get("model.decoder_fwd", 0.0) * per_op,
        "model.decoder_fwd_total_ms": rec.total_seconds("model.decoder_fwd") * per_op,
        "model.logits_ms": own.get("model.logits", 0.0) * per_op,
        "model.collate_ms": own.get("model.collate", 0.0) * per_op,
        "model.decoder_T_mean": c["decoder_T"] / max(c["decoder_calls"], 1),
        "model.decoder_positions": c["decoder_positions"] / n,
        "model.pad_frac": c["decoder_pad"] / max(c["decoder_positions"], 1),
        "layout.instance_ms": own.get("layout.instance", 0.0) * per_op,
        "training.build_pass_ms": own.get("training.build_pass", 0.0) * per_op,
        "training.loss_positions": c["loss_positions"] / n,
        "training.legal_mask_mb": c["legal_bytes"] / 1e6 / n,
        "numerics.backward_ms": own.get("numerics.backward", 0.0) * per_op,
        "optim.clip_ms": own.get("optim.clip", 0.0) * per_op,
        "optim.adamw_ms": own.get("optim.adamw", 0.0) * per_op,
        "ops.calls": c["op_calls"] / n,
        "decoding.select_ms": own.get("decoding.select", 0.0) * per_op,
        "decoding.outer_ms": own.get("decoding.outer", 0.0) * per_op,
        "decoding.passes_per_table": c["decoding_passes"] / n,
        "decoding.tokens_per_table": dec["tokens"] / n,
        "decoding.outer_iterations": dec["outer_iterations"] / n,
        "decoding.truncated_cells": dec["truncated_cells"] / n,
        "decoding.commit_ratio": dec["committed"] / max(c["candidates"], 1),
        "decoding.useful_pos_frac": c["decoding_logit_positions"] / max(c["decoding_positions"], 1),
    }
    ops_self = {k[len("ops."):]: v for k, v in own.items() if k.startswith("ops.")}
    for op in FORWARD_OPS:
        layer[f"ops.{op}_ms"] = ops_self.pop(op, 0.0) * per_op
    layer["ops.other_ms"] = sum(ops_self.values()) * per_op
    layer["trace.op_ms"] = sum(traced_s) * per_op
    layer["trace.untraced_op_ms"] = sum(plain) / len(plain) * 1e3
    layer["trace.overhead_ms"] = layer["trace.op_ms"] - layer["trace.untraced_op_ms"]
    layer["trace.unattributed_ms"] = own[root] * per_op
    layer["trace.layers_ms"] = (sum(own.values()) - own[root]) * per_op
    layer["trace.spans_per_op"] = len(rec.end) / n
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads, and inherited by the set-up children
    use_checkout_source()
    started = perf_counter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz" if args.trace else None
    report = run(args.workload, args.seed, args.seconds, args.trace, None, SETUP_CHILDREN, spans_path, started)
    result = report["result"]
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({
        "workload": args.workload,
        "timed_ops": report["timed_ops"],
        "outputs_sha256": report["sha256"],
        "setup_samples_s": report["setup_samples"],
        "reference_ms": report["reference_ms"],
        "speed_factor": report["speed_factor"],
        "unscaled_latency_ms_p50": report["unscaled_latency_ms_p50"],
        "failed_frac": result["failed"] / result["attempted"],
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
