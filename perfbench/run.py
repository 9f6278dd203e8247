"""The globfun benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every op is closed loop with one client:
the next request is sent only after the previous one finished.  Each op's
output is checked (sha256 of the CLI's canonical JSON against oracle.json,
or the round-trip and slot checks of ru-decompose).  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the lines before it
give each metric with its unit and sample count, and the host context.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run.  See perfbench/README.md.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_run"
PY = sys.executable

RU_CERTIFY = (
    "split --functor repring --n 7",
    "char-table --n 8",
    "fusion --family alternating --n-range 5..8",
    "dcf --functor repring --n 6 --k 3",
    "verify-axioms --functor repring --max-n 4",
)
BURNSIDE_CERTIFY = (
    "split --functor burnside --n 5",
    "section --n 4 --with-product-group S2",
    "verify-axioms --functor burnside --max-n 4",
    "marks --group A5",
)

DECOMPOSE_N = 6
# ranks of the kernel lattices of RU(Sym(k)), k = 0..6: p(k) - p(k-1)
RU_WIDTHS = [1, 0, 1, 1, 2, 2, 4]

IMPORT_PROBES = 5  # set-ups per run of a certify workload
SEGMENTS = 3  # set-ups per run of ru-decompose
TRACED_DECOMPOSE_OPS = 16  # traced ops, each paired with an untraced one

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mib": "MiB",
}

LAYER_METRICS = {
    "perms.self_s": "s",
    "perms.calls": "count",
    "perms.groups_built": "count",
    "perms.elements_closed": "count",
    "perms.homs_built": "count",
    "perms.hom_map_entries": "count",
    "subgroups.self_s": "s",
    "subgroups.lattice_calls": "count",
    "subgroups.lattice_builds": "count",
    "subgroups.subgroups_found": "count",
    "subgroups.class_of_calls": "count",
    "characters.self_s": "s",
    "characters.table_calls": "count",
    "characters.table_builds": "count",
    "characters.fusion_builds": "count",
    "characters.induce_calls": "count",
    "characters.restrict_calls": "count",
    "characters.mn_hits": "count",
    "characters.mn_misses": "count",
    "functors.self_s": "s",
    "functors.res_calls": "count",
    "functors.res_builds": "count",
    "functors.tr_calls": "count",
    "functors.tr_builds": "count",
    "functors.memo_hit_ratio": "ratio",
    "burnside.self_s": "s",
    "burnside.matrix_builds": "count",
    "repring.self_s": "s",
    "repring.matrix_builds": "count",
    "linalg.self_s": "s",
    "linalg.calls": "count",
    "linalg.hnf_calls": "count",
    "linalg.solve_calls": "count",
    "linalg.det_calls": "count",
    "linalg.max_entry_bits": "bits",
    "splitting.self_s": "s",
    "splitting.psi_calls": "count",
    "splitting.kernel_basis_calls": "count",
    "splitting.decompose_calls": "count",
    "burncat.self_s": "s",
    "burncat.canonical_pair_calls": "count",
    "burncat.compose_calls": "count",
    "cache.self_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.puts": "count",
    "cache.bytes_read": "bytes",
    "cache.bytes_written": "bytes",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# layer metric -> span names whose calls it counts
SPAN_COUNTS = {
    "subgroups.lattice_calls": ("subgroups.subgroup_classes",),
    "subgroups.class_of_calls": ("subgroups.SubgroupLattice.class_of",),
    "characters.table_calls": ("characters.character_table",),
    "characters.induce_calls": ("characters.induce_classfunction",),
    "characters.restrict_calls": ("characters.restrict_classfunction",),
    "functors.res_calls": ("functors.GlobalFunctor.res",),
    "functors.tr_calls": ("functors.GlobalFunctor.tr",),
    "burnside.matrix_builds": (
        "burnside.BurnsideFunctor._res_matrix",
        "burnside.BurnsideFunctor._tr_matrix",
    ),
    "repring.matrix_builds": (
        "repring.RepRingFunctor._res_matrix",
        "repring.RepRingFunctor._tr_matrix",
    ),
    "linalg.hnf_calls": ("linalg.hermite_normal_form",),
    "linalg.solve_calls": ("linalg.solve_exact",),
    "linalg.det_calls": ("linalg.det_exact",),
    "splitting.psi_calls": ("splitting.psi",),
    "splitting.kernel_basis_calls": ("splitting.kernel_basis",),
    "splitting.decompose_calls": ("splitting.decompose",),
    "burncat.canonical_pair_calls": ("burncat.canonical_pair",),
    "burncat.compose_calls": ("burncat.BurnsideCatMorphism.compose",),
}

# Which wrappers must fire (> 0) and which must stay silent (== 0) in the
# traced phase of each workload.  A wrapper missed on an alias would show up
# here as a zero where work is known to happen.
EXPECT = {
    "ru-certify": (
        (
            "perms.groups_built",
            "perms.homs_built",
            "characters.table_builds",
            "characters.fusion_builds",
            "characters.induce_calls",
            "characters.restrict_calls",
            "characters.mn_misses",
            "functors.res_builds",
            "functors.tr_builds",
            "repring.matrix_builds",
            "linalg.hnf_calls",
            "linalg.solve_calls",
            "linalg.det_calls",
            "splitting.psi_calls",
            "splitting.kernel_basis_calls",
            "cache.puts",
            "cache.misses",
            "cli.self_s",
        ),
        (
            "subgroups.lattice_calls",
            "burnside.matrix_builds",
            "burncat.canonical_pair_calls",
            "cache.hits",
        ),
    ),
    "burnside-certify": (
        (
            "perms.groups_built",
            "subgroups.lattice_builds",
            "subgroups.class_of_calls",
            "burnside.matrix_builds",
            "burncat.canonical_pair_calls",
            "burncat.compose_calls",
            "linalg.hnf_calls",
            "linalg.solve_calls",
            "splitting.psi_calls",
            "cache.puts",
            "cli.self_s",
        ),
        ("repring.matrix_builds", "characters.table_calls", "cache.hits"),
    ),
    "ru-decompose": (
        (
            "perms.groups_built",
            "functors.res_calls",
            "splitting.decompose_calls",
            "splitting.psi_calls",
            "splitting.kernel_basis_calls",
            "linalg.solve_calls",
        ),
        (
            "characters.table_builds",
            "characters.fusion_builds",
            "repring.matrix_builds",
            "subgroups.lattice_calls",
            "burncat.canonical_pair_calls",
            "cache.hits",
            "cache.misses",
            "cli.self_s",
        ),
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def host_probe_s(repeats=5):
    """Median time of a fixed closure of Sym(7) on image tuples, in seconds.

    The probe runs no globfun code, so it follows the host's speed only; it
    is printed beside the metrics to tell a slow host from a slow program.
    """
    gens = ((2, 3, 4, 5, 6, 7, 1), (2, 1, 3, 4, 5, 6, 7))
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        seen = {tuple(range(1, 8))}
        frontier = list(seen)
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = tuple(x[j - 1] for j in g)
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Run:
    """State of one benchmark run: its work directory, children and samples."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = WORK_ROOT / f"{workload}-{os.getpid()}"
        self.oracle = json.loads((HERE / "oracle.json").read_text())
        self.env = {
            k: v
            for k, v in os.environ.items()
            if not k.startswith(("GLOBFUN_", "PYTHON"))
        }
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", HOME=str(self.work))
        self.live = []
        self.setups = []
        self.latencies = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.rss_mib = []  # peak RSS of each process that ran timed ops
        self.traces = []
        self.child_cpu_s = 0.0
        self.child_wall_s = 0.0
        self.next_op = 0
        self.load_start = os.getloadavg()
        self.probe_start_s = host_probe_s()

    # -- children ---------------------------------------------------------

    def spawn(self, argv, stdin=None):
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=self.env,
            stdin=stdin,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
        )
        self.live.append((proc, perf_counter()))
        return proc

    def reap(self, proc) -> int:
        """Wait for proc and keep its CPU time (wait4)."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        started = next(t for p, t in self.live if p is proc)
        self.live = [(p, t) for p, t in self.live if p is not proc]
        self.child_wall_s += perf_counter() - started
        self.child_cpu_s += usage.ru_utime + usage.ru_stime
        if proc.stdout:
            proc.stdout.close()
        if proc.stdin:
            proc.stdin.close()
        return proc.returncode

    def stop_all(self):
        for proc, _ in list(self.live):
            proc.kill()
            self.reap(proc)

    def keep_stats(self, stats):
        """Keep a finished op process's peak RSS and trace."""
        self.rss_mib.append(stats["peak_rss_kib"] / 1024)
        if stats["trace"] is not None:
            self.traces.append(stats["trace"])

    def cli(self, command, cache_dir, traced=False) -> bool:
        """One globfun CLI process; True when it exits 0 with the oracle's output."""
        stats_path = self.work / "stats.json"
        argv = [PY, str(HERE / "launch.py"), str(stats_path), str(self.next_op), str(int(traced))]
        argv += ["--", "--output", "json", "--cache-dir", str(cache_dir), *command.split()]
        proc = self.spawn(argv)
        stdout = proc.stdout.read()
        code = self.reap(proc)
        try:
            self.keep_stats(json.loads(stats_path.read_text()))
            stats_path.unlink()
        except OSError:
            self.errors.append(f"{command!r} wrote no stats")
            return False
        if code != 0:
            self.errors.append(f"{command!r} exited {code}")
            return False
        if sha256(stdout) != self.oracle[command]:
            self.errors.append(f"{command!r} output differs from the oracle")
            return False
        return True

    def measure(self, run_op, item, traced=False):
        """Run one op and record its latency and outcome."""
        t0 = perf_counter()
        ok = run_op(item, traced)
        latency = perf_counter() - t0
        self.latencies.append(latency)
        self.timed_s += latency
        self.attempted += 1
        self.failed += not ok
        self.next_op += 1
        return latency

    def until(self, budget_s, items, run_op):
        """Closed loop over `items` until `budget_s` seconds of op time."""
        spent = 0.0
        for item in items:
            if spent >= budget_s:
                break
            spent += self.measure(run_op, item)

    def paired(self, items, run_op):
        """Traced run: each item untraced, then traced right after it.

        Adjacent pairs see the same host speed, so the overhead is
        (traced - untraced time) / untraced time over all pairs.
        """
        spent = [0.0, 0.0]
        for item in items:
            for traced in (False, True):
                spent[traced] += self.measure(run_op, item, traced)
        return (spent[1] - spent[0]) / spent[0]

    # -- workloads ----------------------------------------------------------

    def certify(self, commands):
        """Each op is one full pass over `commands`, fresh processes, empty cache."""
        for _ in range(IMPORT_PROBES):
            t0 = perf_counter()
            code = self.reap(self.spawn([PY, "-c", "import globfun.cli"]))
            self.setups.append(perf_counter() - t0)
            if code != 0:
                self.errors.append("globfun.cli does not import")
                return None
        if self.trace:
            dirs = (self.work / "untraced", self.work / "traced")
            return self.paired(commands, lambda c, traced: self.cli(c, dirs[traced], traced))

        def one_pass(commands, traced):
            cache_dir = self.work / f"pass-{self.next_op}"
            ok = [self.cli(c, cache_dir) for c in commands]
            shutil.rmtree(cache_dir, ignore_errors=True)
            return all(ok)

        self.until(self.seconds, itertools.repeat(commands), one_pass)
        return None

    def decompose_worker(self, traced=False):
        """Start a worker; returns it (None if it failed) and its set-up time."""
        argv = [PY, str(HERE / "decompose_worker.py"), str(DECOMPOSE_N), str(int(traced))]
        t0 = perf_counter()
        proc = self.spawn(argv, stdin=subprocess.PIPE)
        line = proc.stdout.readline()
        setup = perf_counter() - t0
        try:
            hello = json.loads(line)
        except ValueError:
            self.errors.append("decompose worker did not start")
            self.stop_all()
            return None, setup
        if hello["widths"] != RU_WIDTHS or hello["rank"] != sum(RU_WIDTHS):
            self.errors.append(f"kernel ranks {hello['widths']} differ from p(k) - p(k-1)")
        return proc, setup

    def request(self, proc, req):
        proc.stdin.write(json.dumps(req).encode() + b"\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        return json.loads(line) if line else None

    def decompose_inputs(self, rng):
        """Seeded (x, k, v): a vector of F(Sym(6)) and a vector of kernel slot k."""
        while True:
            x = [rng.randint(-9, 9) for _ in range(sum(RU_WIDTHS))]
            k = rng.randrange(DECOMPOSE_N + 1)
            v = [rng.randint(-9, 9) for _ in range(RU_WIDTHS[k])]
            yield x, k, v

    def decompose_op(self, proc, item) -> bool:
        x, k, v = item
        reply = self.request(proc, {"op": self.next_op, "x": x, "k": k, "v": v})
        if reply is None:
            self.errors.append("decompose worker died")
            return False
        if [len(p) for p in reply["parts"]] != RU_WIDTHS:
            self.errors.append(f"component ranks of {x} are not {RU_WIDTHS}")
            return False
        if reply["back"] != x:
            self.errors.append(f"reassembling {x} gave {reply['back']}")
            return False
        slot = reply["slot"]
        if slot[k] != v or any(any(p) for j, p in enumerate(slot) if j != k):
            self.errors.append(f"psi({k}) image of {v} does not decompose into slot {k}")
            return False
        return True

    def finish_worker(self, proc):
        stats = self.request(proc, {"quit": True})
        if stats is not None:
            self.keep_stats(stats)
        if self.reap(proc) != 0 or stats is None:
            self.errors.append("decompose worker exited non-zero")

    def ru_decompose(self):
        inputs = self.decompose_inputs(random.Random(self.seed))
        if self.trace:
            workers = (
                self.decompose_worker()[0],
                self.decompose_worker(traced=True)[0],
            )
            if None in workers:
                return None
            self.request(workers[1], {"reset": True})
            items = [next(inputs) for _ in range(TRACED_DECOMPOSE_OPS)]
            overhead = self.paired(
                items, lambda item, traced: self.decompose_op(workers[traced], item)
            )
            for proc in workers:
                self.finish_worker(proc)
            return overhead
        for _ in range(SEGMENTS):
            proc, setup = self.decompose_worker()
            self.setups.append(setup)
            if proc is None:
                return None
            self.until(
                self.seconds / SEGMENTS,
                inputs,
                lambda item, traced: self.decompose_op(proc, item),
            )
            self.finish_worker(proc)
        return None

    def execute(self):
        self.work.mkdir(parents=True, exist_ok=True)
        with open(self.work / "stderr.log", "wb") as self.stderr:
            try:
                return {
                    "ru-certify": lambda: self.certify(RU_CERTIFY),
                    "burnside-certify": lambda: self.certify(BURNSIDE_CERTIFY),
                    "ru-decompose": self.ru_decompose,
                }[self.workload]()
            finally:
                self.stop_all()

    # -- results --------------------------------------------------------------

    def end_to_end(self):
        return {
            "setup_s": statistics.median(self.setups),
            "op_p50_s": statistics.median(self.latencies),
            "ops_per_s": len(self.latencies) / self.timed_s,
            "peak_rss_mib": max(self.rss_mib),
        }

    def per_layer(self, overhead):
        values = dict.fromkeys(LAYER_METRICS, 0)
        span_calls = {}
        for data in self.traces:
            if data["unwrapped"]:
                self.errors.append(f"unwrapped aliases: {data['unwrapped']}")
            for name, amount in data["counters"].items():
                if name == "linalg.max_entry_bits":
                    values[name] = max(values[name], amount)
                else:
                    values[name] += amount
            spans = data["spans"]
            child = [0.0] * len(spans)
            for name, parent, t0, t1, _ in spans:
                if parent >= 0:
                    child[parent] += t1 - t0
            for i, (name, _, t0, t1, _) in enumerate(spans):
                layer = name.split(".", 1)[0]
                values[f"{layer}.self_s"] += t1 - t0 - child[i]
                span_calls[name] = span_calls.get(name, 0) + 1
                if layer in ("perms", "linalg"):
                    values[f"{layer}.calls"] += 1
        for metric, names in SPAN_COUNTS.items():
            values[metric] = sum(span_calls.get(n, 0) for n in names)
        calls = values["functors.res_calls"] + values["functors.tr_calls"]
        builds = values["functors.res_builds"] + values["functors.tr_builds"]
        values["functors.memo_hit_ratio"] = (calls - builds) / calls if calls else 0.0
        values["trace.overhead_frac"] = overhead if overhead is not None else 0.0
        positive, zero = EXPECT[self.workload]
        for name in positive:
            if not values[name] > 0:
                self.errors.append(f"{name} is {values[name]}, expected > 0: a wrapper did not fire")
        for name in zero:
            if values[name] != 0:
                self.errors.append(f"{name} is {values[name]}, expected 0 on {self.workload}")
        return values

    def report(self, overhead):
        lines = [f"# workload {self.workload} seed {self.seed} trace {self.trace}"]
        if self.trace:
            values = self.per_layer(overhead)
            units = LAYER_METRICS
            lines += [f"{k:32s} {v!r} {units[k]}" for k, v in values.items()]
        else:
            values = self.end_to_end()
            units = END_TO_END_UNITS
            n = len(self.latencies)
            p90 = (
                f"{statistics.quantiles(self.latencies, n=10)[-1]!r} s"
                if n >= 100
                else "not reported (fewer than 100 ops)"
            )
            lines += [
                f"setup_s      {values['setup_s']!r} s (median of {len(self.setups)} set-ups)",
                f"op_p50_s     {values['op_p50_s']!r} s (median of {n} ops)",
                f"op_p90_s     {p90}",
                f"ops_per_s    {values['ops_per_s']!r} 1/s ({n} ops in {self.timed_s!r} s)",
                f"peak_rss_mib {values['peak_rss_mib']!r} MiB"
                f" (max over {len(self.rss_mib)} processes)",
            ]
        load_end = os.getloadavg()
        ratio = self.child_cpu_s / self.child_wall_s if self.child_wall_s else 0.0
        lines.append(
            f"# host nproc {os.cpu_count()} load_start {list(self.load_start)}"
            f" load_end {list(load_end)} child_cpu_s {self.child_cpu_s!r}"
            f" child_wall_s {self.child_wall_s!r} cpu_wall_ratio {ratio!r}"
            f" probe_s_start {self.probe_start_s!r} probe_s_end {host_probe_s()!r}"
        )
        lines.append(f"# failed {self.failed} of {self.attempted} ops")
        for message in self.errors:
            lines.append(f"# error: {message}")
        result = {
            "correct": not self.errors and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        }
        lines.append(json.dumps(result))
        print("\n".join(lines))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=list(EXPECT),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through Run.execute, which stops the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "globfun" / "cli.py").is_file():
        print(f"error: no globfun sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    compiled = subprocess.run(
        [PY, "-m", "compileall", "-q", str(SRC / "globfun")], stdout=subprocess.DEVNULL
    )
    if compiled.returncode != 0:
        print("error: globfun sources do not compile", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    try:
        overhead = run.execute()
        if run.attempted == 0:
            print("error: no op completed", file=sys.stderr)
            return 1
        run.report(overhead)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
