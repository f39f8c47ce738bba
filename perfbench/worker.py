"""One fresh benchmark process: build a workload's inputs, or measure it.

Usage (run.py starts it; it is not meant to be called by hand):

    python3 perfbench/worker.py setup   <workload> <seed> <work> <result.json>
    python3 perfbench/worker.py measure <workload> <seed> <work> <result.json> <seconds> <trace>

``setup`` times ``import srgate`` plus the workload's ``build``; a fresh
process is needed because a second import in one process is free.
``measure`` opens the inputs an earlier ``setup`` built, runs the timed
operation in a closed loop for ``seconds``, reads the peak resident set
(``ru_maxrss`` never goes down, hence one process per run), and only
then checks every operation's outputs. With ``trace`` set it runs an
untraced warm-up, then alternates traced and untraced operations and
reports per-layer figures instead.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_srgate() -> float:
    """Import srgate from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import srgate

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(srgate.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"srgate was imported from {srgate.__file__}, not {SRC}")
    return elapsed


def fingerprint(out: str, result: dict) -> str:
    """Digest of an operation's output files and in-memory results."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out).encode() + b"\0")
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
    for key in sorted(result):
        h.update(key.encode() + repr(result[key]).encode())
    return h.hexdigest()


def setup(name: str, seed: int, work: str) -> dict:
    t_import = import_srgate()
    import workloads

    t0 = time.perf_counter()
    workloads.WORKLOADS[name].build(seed, work)
    return {"setup_s": t_import + time.perf_counter() - t0}


def run_op(w, inputs, out: str, tracer=None):
    """One timed operation: (wall seconds, cpu seconds, result or None)."""
    import tracing

    os.makedirs(out, exist_ok=True)
    gc.collect()  # no garbage from the previous operation is collected inside this one
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = w.op(inputs, out)
        else:
            with tracing.Instrumented(tracer):
                result = w.op(inputs, out)
    except Exception:
        traceback.print_exc()
        result = None
    wall = time.perf_counter() - t0
    return wall, time.process_time() - cpu0, result


def measure(name: str, seed: int, work: str, seconds: float, trace: bool) -> dict:
    import_srgate()
    import checks
    import tracing
    import workloads

    w = workloads.WORKLOADS[name]
    inputs = w.open(seed, work)
    # Right after each operation, outside its wall, its outputs shrink to a
    # digest. Only the first operation with each digest keeps its results
    # and files for the check, so what this process holds, and so its peak
    # RSS, does not grow with the number of operations that fit in the run.
    ops = []  # (traced, wall, digest or None, problem or None)
    kept = {}  # digest -> (out, result) of its first operation
    traced_ops = []  # per traced operation: (index, layer metrics, spans, counters)
    start = time.perf_counter()
    while True:
        k = len(ops)
        # with tracing, operation 0 is an untraced warm-up, then traced and
        # untraced operations alternate
        traced = trace and k % 2 == 1
        tracer = tracing.Tracer() if traced else None
        out = os.path.join(work, f"op{k}")
        wall, cpu, result = run_op(w, inputs, out, tracer)
        digest = problem = None
        if result is None:
            problem = "operation raised"
        elif any(rc != 0 for rc in result["rc"]):
            problem = f"exit codes {result['rc']}"
        else:
            digest = fingerprint(out, result)
        if digest is not None and digest not in kept:
            kept[digest] = (out, result)
        else:
            shutil.rmtree(out, ignore_errors=True)
        del result
        if traced:
            m = tracing.layer_metrics(tracer)
            m["process.cpu_s"] = cpu
            traced_ops.append((k, m, tracing.span_records(tracer.spans), tracer.counters))
            del tracer
        ops.append((traced, wall, digest, problem))
        # a traced run needs a traced operation followed by an untraced one
        enough = not trace or len(ops) >= 3
        if enough and time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # output checks: the full oracle once per distinct output; every other
    # operation reproduced one of those outputs exactly
    verdicts: dict[str, list[str]] = {}
    for digest, (out, result) in kept.items():
        try:
            verdicts[digest] = checks.CHECKS[name](inputs, out, result)
        except Exception as exc:  # unreadable output fails its check
            verdicts[digest] = [f"check raised {exc!r}"]
    errors = []
    for k, (_, _, digest, problem) in enumerate(ops):
        problems = [problem] if problem else verdicts[digest]
        if problems:
            errors.append(f"op {k}: " + "; ".join(problems))

    walls = [wall for _, wall, *_ in ops]
    report = {
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "walls": [wall for traced, wall, *_ in ops if not traced],
        "items": w.items(inputs),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        # median_low keeps every figure an observed one, so counts stay whole
        per_op = [m for _, m, _, _ in traced_ops]
        layer = {key: statistics.median_low(m[key] for m in per_op) for key in per_op[0]}
        # each traced operation against the warm untraced one right after it
        layer["trace.overhead_s"] = statistics.median(
            walls[k] - walls[k + 1] for k, *_ in traced_ops if k + 1 < len(ops)
        )
        report["layer"] = layer
        trace_dir = os.path.join(ROOT, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{name}-seed{seed}.json"), "w") as fh:
            json.dump(
                [{"spans": spans, "counters": counters} for _, _, spans, counters in traced_ops],
                fh,
            )
    return report


def main(argv: list[str]) -> int:
    mode, name, seed, work, result_path = argv[:5]
    if mode == "setup":
        report = setup(name, int(seed), work)
    elif mode == "measure":
        report = measure(name, int(seed), work, float(argv[5]), argv[6] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
