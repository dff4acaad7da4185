"""mddcnet benchmark: closed-loop workloads over the public API.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 55 --trace 0

Run from any directory of a checkout; the program is imported from the
checkout's ``src/``. One process, one client, BLAS pinned to one thread.
An operation is one training step. ``--trace 0`` measures the end-to-end
metrics with no tracing. ``--trace 1`` alternates untraced operations with
operations run under the span tracer,
and reports per-layer metrics plus the tracing overhead.
Human-readable report lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Workloads and metrics are described in perfbench/README.md.
"""

import os

# One BLAS thread, fixed before numpy loads: on a 2-core machine a BLAS
# worker thread contending with another process made small gemms ~40x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
clock = time.perf_counter


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    samples above it; the maximum when there are fewer than 11 samples."""
    xs = sorted(samples)
    k = len(xs) - 11
    if k < 0:
        return 100.0, xs[-1]
    return 100.0 * k / (len(xs) - 1), xs[k]


def environment(np) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "blas": blas.get("name"),
           "blas_version": blas.get("version"), "blas_threads": None,
           "nproc": len(os.sched_getaffinity(0)),
           "loadavg_start": os.getloadavg()}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            env["blas_threads"] = fn()
    return env


def measure(work, seconds: float, untraced, tracer=None):
    """Run operations for ``seconds`` after one untimed warm-up operation,
    and at least one full episode. Returns (untraced op seconds, traced op
    seconds, attempted ops, failed ops, measured wall seconds). The warm-up
    operation is gated like any other. With a tracer, operations alternate
    between untraced and traced, and the pattern flips every episode, so that
    each operation is checked against the same operation of the first
    episode run the other way."""
    times = {False: [], True: []}
    failed = int(not work.op(untraced))
    i = 1
    t_start = clock()
    t_end = t_start + seconds
    while clock() < t_end or not work.first_cycle_done:
        traced = tracer is not None and (i + i // work.period) % 2 == 1
        if traced:
            tracer.install()
        try:
            t0 = clock()
            ok = work.op(tracer if traced else untraced)
            times[traced].append(clock() - t0)
        finally:
            if traced:
                tracer.uninstall()
        failed += not ok
        i += 1
    return times[False], times[True], i, failed, clock() - t_start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    if not (SRC / "mddcnet" / "model.py").is_file():
        print(f"error: no mddcnet sources under {SRC}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(workloads.WORKLOADS)}")

    env = environment(np)
    work = workloads.TrainWorkload(workloads.WORKLOADS[args.workload], args.seed)
    work.prepare()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        # free the previous set-up's model untimed, so each timed set-up
        # starts from the same heap and garbage-collector state
        work.release()
        gc.collect()
        t0 = clock()
        work.setup()
        setup_s.append(clock() - t0)

    if args.trace:
        tracer = spans.Tracer()
        times, t_times, attempted, failed, _ = measure(
            work, args.seconds, spans.NoTracer(), tracer)
        metrics = layer_metrics(work, tracer, times, t_times)
        lines = trace_report(tracer)
    else:
        times, _, attempted, failed, wall = measure(
            work, args.seconds, spans.NoTracer())
        metrics, lines = end_to_end(work, times, wall, setup_s)

    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))
    for line in lines + work.report():
        print(line)
    print(f"fail_share {failed / attempted:.4g} share ({failed} of {attempted})")
    for msg in work.failures[:20]:
        print("FAILED " + msg)
    print(json.dumps({"correct": not work.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _m(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(work, times, wall, setup_s):
    per_img = work.images_per_op
    ms = [1e3 * t for t in times]
    pct, tail_ms = tail(ms)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": _m(statistics.median(setup_s), "s"),
        "step_ms_p50": _m(statistics.median(ms), "ms"),
        "step_ms_tail": _m(tail_ms, "ms"),
        "img_per_s": _m(len(times) * per_img / wall, "1/s"),
        "peak_rss_mb": _m(rss_mib, "MiB"),
        "loss_last": _m(work.loss_last(), "loss"),
    }
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"tail = p{pct:.1f} of {len(ms)} timed operations")
    lines.append("setup_s runs " + " ".join(f"{s:.4f}" for s in setup_s))
    return metrics, lines


def layer_metrics(work, tr, times, t_times):
    def ms(v):
        return _m(1e3 * tr.per_op(v), "ms")

    def count(v):
        return _m(tr.per_op(v), "count")

    def mib(v):
        return _m(tr.per_op(v) / 2**20, "MiB")

    untraced = statistics.median(times)
    traced = statistics.median(t_times)
    extra = work.layer_metrics()
    return {
        "tensor.bwd_ms": ms(tr.incl["tensor.backward"]),
        "tensor.conv2d_fwd_ms": ms(tr.incl["conv2d"]),
        "tensor.conv2d_bwd_ms": ms(tr.bwd_by_op["conv2d"]),
        "tensor.tape_nodes": count(sum(tr.nodes_by_op.values())),
        "tensor.getitem_nodes": count(tr.nodes_by_op["Tensor.__getitem__"]),
        "tensor.tape_mb": mib(tr.tape_bytes),
        "msddc.fwd_ms": ms(tr.incl["msddc"]),
        "msddc.deform_fwd_ms": ms(tr.incl["msddc.deform"]),
        "msddc.bwd_ms": ms(tr.bwd_by_layer["msddc"]),
        "msddc.calls": count(tr.calls["msddc"]),
        "ssm.fwd_ms": ms(tr.incl["ssm"]),
        "ssm.scan_fwd_ms": ms(tr.incl["ssm.scan"]),
        "ssm.bwd_ms": ms(tr.bwd_by_layer["ssm"]),
        "ssm.tape_mb": mib(tr.bytes_by_layer["ssm"]),
        "ssm.tokens": count(tr.ssm_tokens),
        "ffn_attn.ffn_fwd_ms": ms(tr.incl["ffn"]),
        "ffn_attn.ffn_bwd_ms": ms(tr.bwd_by_layer["ffn"]),
        "ffn_attn.attn_fwd_ms": ms(tr.incl["attn"]),
        "ffn_attn.attn_bwd_ms": ms(tr.bwd_by_layer["attn"]),
        "model.fwd_ms": ms(tr.incl["model"]),
        "model.neck_fwd_ms": ms(tr.incl["neck"]),
        "model.head_fwd_ms": ms(tr.incl["head"]),
        "model.other_self_ms": ms(tr.self_s["model"]),
        "model.flops": _m(extra["model.flops"], "flop"),
        "model.params": _m(extra["model.params"], "count"),
        "train.data_ms": ms(tr.incl["train.data"]),
        "train.loss_ms": ms(tr.incl["train.loss"]),
        "train.opt_ms": ms(tr.incl["train.opt"]),
        "trace.op_ms": _m(1e3 * traced, "ms"),
        "trace.untraced_op_ms": _m(1e3 * untraced, "ms"),
        "trace.overhead_pct": _m(100.0 * (traced / untraced - 1.0), "%"),
        "trace.other_ms": ms(tr.self_s["op"]),
    }


def trace_report(tr) -> list[str]:
    """Self time per span, summing to the mean traced operation."""
    rows = sorted(((k, 1e3 * tr.per_op(v)) for k, v in tr.self_s.items()),
                  key=lambda r: -r[1])
    op_ms = 1e3 * tr.per_op(sum(tr.op_seconds))
    total = sum(v for _, v in rows)
    lines = [f"traced operations {tr.ops}, mean {op_ms:.3f} ms; self ms per operation "
             "('op' = not inside any layer span, 'bwd.X' = backward of nodes "
             "created in X):"]
    lines += [f"  {name:<22}{v:10.3f} ms {100 * v / op_ms:6.2f} %" for name, v in rows]
    lines.append(f"  {'sum of self times':<22}{total:10.3f} ms "
                 f"(difference from the mean operation {total - op_ms:+.2e} ms)")
    fwd = 1e3 * tr.per_op(tr.incl["model"])
    if fwd > 0:
        shares = {k: 100 * 1e3 * tr.per_op(tr.incl[k]) / fwd
                  for k in ("msddc", "ssm", "ffn", "attn", "neck", "head", "conv2d")}
        lines.append("share of model forward (inclusive): " + ", ".join(
            f"{k} {v:.1f} %" for k, v in shares.items()))
    return lines


if __name__ == "__main__":
    sys.exit(main())
