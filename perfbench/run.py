"""End-to-end and per-layer benchmark of bcmac.

    python3 perfbench/run.py --workload {capacity,beamform,ladder} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; bcmac is imported from ./src.  Workloads and
their reasons are in workloads.py, the metrics in BENCHMARK.json and
perfbench/README.md.

A run repeats passes over the workload's items, with identical inputs, until
another pass would end after ``--seconds``.  Every pass is checked after it
ends: sidecar hashes, output bytes identical to the first pass, accuracy
against the references.  With ``--trace 0`` the passes run untraced and
``setup_s`` is the median of fresh set-up processes, one after each pass
and at least nine.  With
``--trace 1`` traced and untraced passes alternate; the traced ones record
spans at every layer boundary, and their counts must repeat exactly.

Every time is reported in reference seconds (speed.py): a fixed speed
kernel runs during the untraced passes, from a timer signal, and between
items and beside each set-up probe.  Each untraced pass is scaled by the
kernel's mean time during it; the set-up probes and the traced passes by
its mean time over the run.  The measured seconds are printed too.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Each workload runs in one process and one thread: BLAS threads are pinned
to 1 before numpy loads, and every config sets ``workers: 1``.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

import certify  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(workloads.ROOT, ".bench_work")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "shortfall_digits": "digits", "violation_digits": "digits"}
SETUP_PROBES = 9
SETUP_KERNEL_CALLS = 4  # before and after each set-up probe
MIN_UNTRACED = 2
TRACED_PLAN = ("untraced", "traced", "traced")  # then alternate
HARD_STOP_S = 120.0  # never start a pass after this, whatever --seconds says


def per_layer_unit(name):
    if name.endswith((".s", ".self_s", "overhead_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("useful_ratio", "solves_per_point")):
        return "1"
    return "count"


class Tally:
    """Item outcomes of every pass, with the first pass's digests as the
    determinism reference."""

    def __init__(self):
        self.attempted = 0
        self.failures = []  # (pass, item, reason)
        self.digests = {}
        self.deterministic = True
        self.solutions = {}  # solution name -> workloads.Solution, latest pass

    def add(self, pass_no, out):
        self.attempted += 1
        ok, reason = out.ok, out.error
        if out.digest:
            first = self.digests.setdefault(out.name, out.digest)
            if out.digest != first:
                self.deterministic = False
                ok, reason = False, "output bytes differ from the first pass"
        for sol in out.solutions:
            self.solutions[sol.name] = sol
        if not ok:
            self.failures.append((pass_no, out.name, reason))
            print(f"perfbench: FAILED pass {pass_no} item {out.name}: {reason}",
                  file=sys.stderr)

    def outputs_digest(self):
        """One sha256 over every item's output digest, to compare runs."""
        h = hashlib.sha256()
        for name in sorted(self.digests):
            h.update(f"{name}={self.digests[name]}\n".encode())
        return h.hexdigest()

    def shortfall_digits(self):
        """Mean correct digits of the solutions' errors, each floored at its
        own reference's accuracy: -log10 of their geometric mean."""
        sols = self.solutions.values()
        return certify.mean_digits([s.shortfall for s in sols], [s.floor for s in sols])

    def violation_digits(self):
        sols = self.solutions.values()
        return certify.mean_digits([s.violation for s in sols],
                                   [workloads.ERROR_FLOOR for _ in sols])

    def worst(self, key):
        """(name, value) of the solution with the largest raw ``key``."""
        sol = max(self.solutions.values(), key=lambda s: getattr(s, key))
        return sol.name, getattr(sol, key)


def run_pass(items, meter, sample_during):
    """Run every item once, into emptied output directories, so that no
    result of an earlier pass can pass for this one's.  The speed kernel
    runs into ``meter`` before the first item and after each one, untimed,
    and, with ``sample_during``, also during the items (speed.Meter.time).
    Returns (seconds of the items, {item: error})."""
    for out_dir in {item.out_dir for item in items}:
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
    errors = {}

    def attempt(item):
        try:
            item.run()
        except Exception as exc:  # an item failure is counted, not fatal
            errors[item.name] = f"{type(exc).__name__}: {exc}"

    meter.sample(2)
    busy = 0.0
    for item in items:
        if sample_during:
            busy += meter.time(lambda: attempt(item))
        else:
            start = time.perf_counter()
            attempt(item)
            busy += time.perf_counter() - start
        meter.sample(1)
    return busy, errors


def check_pass(items, errors, pass_no, tally):
    for item in items:
        if item.name in errors:
            out = workloads.Outcome(item.name, False, "", error=errors[item.name])
        else:
            try:
                out = item.check()
            except Exception as exc:  # a check that cannot complete fails the item
                out = workloads.Outcome(item.name, False, "",
                                        error=f"{type(exc).__name__}: {exc}")
        tally.add(pass_no, out)


def setup_seconds(workload, seed, work, meter):
    """Seconds from launching a fresh interpreter to its first solve being
    ready (imports, input generation, config parse, reference load).  The
    speed kernel runs into ``meter`` just before and after the probe."""
    meter.sample(SETUP_KERNEL_CALLS)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload,
                           str(seed), work], capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    seconds = float(proc.stdout.split()[-1]) - start
    meter.sample(SETUP_KERNEL_CALLS)
    return seconds


def measure(items, seconds, traced, tally, meter, after_pass=None):
    """Run passes until another would end after ``seconds``, calling
    ``after_pass()`` (untimed) after each.  Every pass's speed samples are
    added to ``meter``.  Returns ({"untraced": [s], "traced": [s]} in
    measured seconds, the passes' speed scales in the same layout, tracer
    or None, [traced pass ids])."""
    tracer = layer_mod = None
    if traced:
        import layers as layer_mod
        import tracing

        tracer = tracing.Tracer()
    times = {"untraced": [], "traced": []}
    scales = {"untraced": [], "traced": []}
    traced_ids = []
    start = time.perf_counter()
    pass_no = 0
    while True:
        if traced:
            kind = TRACED_PLAN[pass_no] if pass_no < len(TRACED_PLAN) else \
                ("untraced", "traced")[pass_no % 2]
        else:
            kind = "untraced"
        if kind == "traced":
            tracer.pass_id = pass_no
            tracer.install(layer_mod.namespaces(), layer_mod.targets())
            traced_ids.append(pass_no)
        pass_meter = speed.Meter()
        try:
            dt, errors = run_pass(items, pass_meter, kind == "untraced")
        finally:
            if kind == "traced":
                tracer.uninstall()
        meter.add(pass_meter)
        check_pass(items, errors, pass_no, tally)
        times[kind].append(dt)
        scales[kind].append(pass_meter.scale())
        pass_no += 1
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - start
        typical = statistics.median(times["untraced"] + times["traced"])
        enough = (pass_no >= len(TRACED_PLAN)) if traced else (pass_no >= MIN_UNTRACED)
        if enough and (elapsed + typical > seconds or elapsed > HARD_STOP_S):
            break
    return times, scales, tracer, traced_ids


def layer_metrics(workload, tracer, traced_ids, times, scale):
    """Per-layer metrics from the traced passes, plus the problems found:
    counts that differ between passes, or expected layers never called.
    Times are multiplied by ``scale``, to reference seconds."""
    import layers

    problems = []
    counts, timings, per_k = [], [], []
    for pid in traced_ids:
        spans = tracer.pass_spans(pid)
        counts.append(layers.pass_counts(spans, tracer.counts[pid]))
        timings.append({k: v * scale for k, v in layers.pass_times(spans).items()})
        per_k.append({k: v * scale for k, v in tracer.times[pid].items()})
        calls = Counter(s[0] for s in spans)
        for name in layers.EXPECTED[workload]:
            if calls[name] == 0:
                problems.append(f"pass {pid}: layer {name} recorded zero calls")
    for pid, c in zip(traced_ids[1:], counts[1:]):
        diff = sorted(k for k in c if c[k] != counts[0][k])
        if diff:
            problems.append(f"pass {pid}: counts differ from pass {traced_ids[0]}: {diff}")
    metrics = dict(counts[0])
    for key in timings[0]:
        metrics[key] = statistics.median(t[key] for t in timings)
    metrics["trace.overhead_s"] = scale * (statistics.median(times["traced"])
                                           - statistics.median(times["untraced"]))
    per_k_median = {k: statistics.median(p.get(k, 0.0) for p in per_k)
                    for k in sorted(set().union(*per_k))}
    return metrics, per_k_median, problems


def _git_commit():
    head = os.path.join(workloads.ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(workloads.ROOT, ".git", ref[5:]), "r",
                      encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"machine": platform.machine(), "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "workers": 1,
            "commit": _git_commit()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.import_program()
    except workloads.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    seed = args.seed % (2 ** 31)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    setup = []
    meter = speed.Meter()

    def probe():
        setup.append(setup_seconds(args.workload, seed,
                                   os.path.join(work, f"probe{len(setup)}"), meter))

    items = workloads.build(args.workload, seed, os.path.join(work, "run"))
    tally = Tally()
    # set-up probes run between passes, so they sample the machine over the
    # same stretch of time as the passes do
    times, scales, tracer, traced_ids = measure(items, args.seconds, bool(args.trace),
                                                tally, meter, None if args.trace else probe)
    while not args.trace and len(setup) < SETUP_PROBES:
        probe()
    env = environment()
    print(f"perfbench workload={args.workload} seed={seed} trace={args.trace} "
          f"passes={len(times['untraced'])} untraced, {len(times['traced'])} traced "
          f"items/pass={len(items)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    correct = tally.deterministic
    if not tally.deterministic:
        print("perfbench: OUTPUT BYTES DIFFER BETWEEN PASSES OF ONE SEED", file=sys.stderr)
    failed = len(tally.failures)
    if tally.solutions:
        for key in ("shortfall", "violation"):
            name, value = tally.worst(key)
            print(f"  worst {key}_rel {value:.6g} (solution {name})")
    print(f"  failed_frac      {failed}/{tally.attempted}")
    print(f"  outputs sha256   {tally.outputs_digest()}")
    for sol in tally.solutions.values():
        print(f"  solution {sol.name}: shortfall_rel {sol.shortfall:.6g} (floor "
              f"{sol.floor:.3g}), violation_rel {sol.violation:.6g}")
    for pass_no, name, reason in tally.failures:
        print(f"  failed item      pass {pass_no} {name}: {reason}")
    # the set-up probes and the traced passes, which the kernel cannot
    # sample from inside, are scaled by the run's mean kernel time
    scale = meter.scale()
    untraced = times["untraced"]
    print(f"  speed kernel     {1e3 * meter.seconds / meter.calls:.4f} ms mean over "
          f"{meter.calls} calls (reference {1e3 * speed.REF_KERNEL_S:g} ms), "
          f"scale {scale:.4f}")
    if args.trace:
        metrics, per_k, problems = layer_metrics(args.workload, tracer, traced_ids, times,
                                                 scale)
        for problem in problems:
            print(f"perfbench: TRACE CHECK FAILED: {problem}", file=sys.stderr)
        correct = correct and not problems
        units = {k: per_layer_unit(k) for k in metrics}
        print(f"  untraced pass    {statistics.median(untraced):.4f} s, traced pass "
              f"{statistics.median(times['traced']):.4f} s (measured), overhead "
              f"{metrics['trace.overhead_s']:+.4f} s (reference)")
        for key, value in per_k.items():
            print(f"  {key:<32} {value:.4f} s")
        tracer.dump(os.path.join(work, "spans.npz"))
    else:
        metrics = {
            # each untraced pass by the kernel calls made during it
            "wall_s": statistics.median(t * k for t, k in zip(untraced, scales["untraced"])),
            "setup_s": statistics.median(setup) * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            # no solution at all: every item failed and the run is incorrect
            "shortfall_digits": tally.shortfall_digits() if tally.solutions else 0.0,
            "violation_digits": tally.violation_digits() if tally.solutions else 0.0,
        }
        units = E2E_UNITS
        print(f"  wall_s samples   {len(untraced)}: "
              + " ".join(f"{t * k:.4f}" for t, k in zip(untraced, scales["untraced"]))
              + "; measured: " + " ".join(f"{t:.4f}" for t in untraced))
        print(f"  setup_s samples  {len(setup)}, measured: "
              + " ".join(f"{t:.4f}" for t in setup))
    for key in sorted(metrics):
        print(f"  {key:<48} {metrics[key]:.6g} {units[key]}")
    result = {"correct": bool(correct and failed == 0), "attempted": tally.attempted,
              "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
