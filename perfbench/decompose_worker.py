"""Long-lived globfun process for the ru-decompose workload.

    python3 decompose_worker.py <n> <trace 0|1>

Builds a RepRingFunctor and warms its memos with one decomposition at level
n and every psi(k, n), then prints one JSON line {"rank", "widths"} and
answers requests read from stdin, one JSON object per line, with one line:

    {"op": id, "x": [...], "k": k, "v": [...]}  decompose x and reassemble
        it, then decompose psi(k, n)(v); the reply carries all three results
    {"reset": true}   with tracing on, forget spans gathered so far
    {"quit": true}    reply with the peak RSS and the trace (or null), exit

Stdout carries only replies; the harness does all checking.
"""

import json
import sys

from launch import peak_rss_kib


def main(argv):
    n, trace = int(argv[0]), argv[1] == "1"
    import globfun

    tracer = None
    if trace:
        import tracer

        tracer.install()
    f = globfun.RepRingFunctor()
    rank = f.value(globfun.symmetric_group(n)).rank
    globfun.decompose(f, n, [1] * rank)
    widths = [globfun.psi(f, k, n).source.rank for k in range(n + 1)]
    print(json.dumps({"rank": rank, "widths": widths}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("quit"):
            break
        if req.get("reset"):
            tracer.reset()
            print("{}", flush=True)
            continue
        if tracer:
            tracer.set_op(req["op"])
        parts = globfun.decompose(f, n, req["x"])
        back = globfun.reassemble(f, n, parts)
        slot = globfun.decompose(f, n, globfun.psi(f, req["k"], n).apply(req["v"]))
        reply = {
            "parts": [list(p) for p in parts],
            "back": list(back),
            "slot": [list(p) for p in slot],
        }
        print(json.dumps(reply), flush=True)
    stats = {
        "peak_rss_kib": peak_rss_kib(),
        "trace": tracer.snapshot({"cli.import_s": 0.0}) if tracer else None,
    }
    print(json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
