"""Benchmark worker: one fresh interpreter per set-up measurement or run.

    worker.py setup SPEC OUT
    worker.py run SPEC OUT SECONDS TRACE

SPEC is a marshal file written by run.py (marshal is built in, so reading
it imports nothing the library would otherwise import first).  The worker
times ``import crossmaps`` and the workload's set-up, and in ``run`` mode a
checked warm-up round followed by a closed loop of whole rounds with one
client until SECONDS have passed.  With TRACE=1 the rounds alternate
untraced and traced, so one run gives both the layer spans and the tracing
overhead.  The result is written to OUT as JSON.

Each timed op and each set-up is bracketed by ``calib_ms`` readings, so
run.py can express times relative to the host's speed at that moment.
"""

import marshal
import os
import sys
import time


def calib_ms() -> float:
    """Time of a fixed loop over builtins only (a few ms, and no imports, so
    calling it before ``import crossmaps`` does not change what that import
    costs).  Its drift is the host's, not the program's."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
        table[i & 511] = acc
    return (time.perf_counter() - start) * 1000


def run_loop(workload, tracer, seconds: float, traced: bool) -> dict:
    ops: list[tuple[float, bool, float]] = []
    errors: list[str] = []
    tally = {"attempted": 0, "failed": 0, "traced_ops": 0}

    def one_round(deep: bool, trace_round: bool, timed: bool, size: int) -> None:
        tracer.enabled = trace_round
        for i in range(size):
            tracer.op = tally["attempted"]
            before = calib_ms() if timed else 0.0
            start = time.perf_counter()
            try:
                result = workload.op(i)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result, problems = None, [f"op {i} raised {exc!r}"]
            elapsed_ms = (time.perf_counter() - start) * 1000
            calib = (before + calib_ms()) / 2 if timed else 0.0
            if result is not None:
                problems = workload.check(i, result, deep)
                if trace_round:
                    tally["traced_ops"] += 1
                    if hasattr(workload, "traced_extra"):
                        problems += workload.traced_extra(i, result)
                    for name, amount in workload.counts(i, result).items():
                        tracer.count(name, amount)
            tally["attempted"] += 1
            if problems:
                tally["failed"] += 1
                errors.extend(problems[: max(0, 20 - len(errors))])
            if timed:
                ops.append((elapsed_ms, trace_round, calib))

    one_round(deep=True, trace_round=False, timed=False, size=getattr(workload, "warmup_size", workload.round_size))
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < (2 if traced else 1) or time.perf_counter() < deadline:
        one_round(deep=False, trace_round=traced and rounds % 2 == 1, timed=True, size=workload.round_size)
        rounds += 1
    tracer.enabled = False
    return {"ops": ops, "rounds": rounds, "errors": errors, **tally}


def main() -> int:
    mode, spec_path, out_path = sys.argv[1:4]
    with open(spec_path, "rb") as fh:
        spec = marshal.load(fh)
    sys.path.insert(0, spec["src"])
    cli_mix = spec["workload"] == "cli_mix"
    if cli_mix:
        os.chdir(spec["workdir"])

    calib_before = calib_ms()
    start = time.perf_counter()
    if cli_mix:
        import crossmaps.cli
    else:
        import crossmaps
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(crossmaps.__file__)) != spec["src"]:
        sys.stderr.write(f"imported crossmaps from {crossmaps.__file__}, not from {spec['src']}\n")
        return 2

    import json
    import resource

    from spans import Tracer
    from workloads import WORKLOADS

    traced = mode == "run" and sys.argv[5] == "1"
    tracer = Tracer(enabled=traced)
    start = time.perf_counter()
    workload = WORKLOADS[spec["workload"]](spec, tracer)
    build_s = time.perf_counter() - start
    result = {
        "import_s": import_s,
        "setup_s": import_s + build_s,
        "setup_calib_ms": (calib_before + calib_ms()) / 2,
    }
    if mode == "run":
        result.update(run_loop(workload, tracer, float(sys.argv[4]), traced))
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["children_peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if traced:
            result["layer_ms"] = tracer.median_ms()
            result["counts"] = dict(tracer.counts)
            tracer.dump(spec["trace_path"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
