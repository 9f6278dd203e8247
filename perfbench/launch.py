"""Run one globfun CLI command and report the process's own resources.

    python3 launch.py <stats-out.json> <op-id> <trace 0|1> -- <globfun arguments...>

Does what the installed `globfun` script does, `globfun.cli.main(argv)`,
then writes to <stats-out.json> the process's peak RSS (VmHWM), the time
the package import took and, with trace 1, the layer trace.  With trace 1
the wrappers go into this fresh interpreter before `main` runs, so the
package's module-level memos start cold as in an untraced process.  The
exit code is the command's.

The peak RSS is read here because the `ru_maxrss` that `wait4` reports for
a child includes the high-water mark of the parent it was forked from.
"""

import json
import sys
from time import perf_counter


def peak_rss_kib() -> int:
    """This process's resident-set high-water mark, from /proc/self/status."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    out_path, op_id, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: launch.py <stats-out> <op-id> <trace 0|1> -- <globfun args>")
    t0 = perf_counter()
    import globfun.cli

    import_s = perf_counter() - t0
    tracer = None
    if trace == "1":
        import tracer

        tracer.install()
        tracer.set_op(int(op_id))
    try:
        return globfun.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        stats = {
            "peak_rss_kib": peak_rss_kib(),
            "trace": tracer.snapshot({"cli.import_s": import_s}) if tracer else None,
        }
        with open(out_path, "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
