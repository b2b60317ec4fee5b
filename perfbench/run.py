"""Benchmark entry point.

    python3 perfbench/run.py --workload twin-sweep --seed 11 --seconds 20 --trace 0

Runs one workload (or ``all`` of them, one after another in this process)
with BLAS pinned to one thread.  The workload is set up several times
(fields, bunches and CLI configs, then a warm-up round at tiny sizes);
then whole rounds of its operations repeat until ``--seconds`` have
passed.  The first round is checked against the references in refs.py and
every later round against the first.  The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones:

* wall_s       -- the round's wall time: the sum over operations of each
                  operation's mean time over the rounds, every timing scaled
                  to the box's reference speed (calibrate.py, _scaled);
* setup_s      -- the median of three set-ups, each the import of avbeam in
                  a fresh interpreter plus building the workload, scaled
                  the same way;
* peak_rss_mb  -- peak resident memory of the process (under ``all``,
                  only for the first workload: later ones would report
                  the peak of an earlier one).

With ``--trace 1`` the public functions of every module are wrapped in
spans (instrument.py) and the metrics are the per-layer ones; the raw spans
go to ``.perfbench/trace/``.  An operation that raises is counted in
``failed``; one a workload lists in ``known_failures`` (a known fault of the
program, failing in every round) leaves the run correct, any other does
not.  Exits 1 if a check fails or an unlisted operation fails, and 2 if the
avbeam sources are not next to this directory.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("twin-sweep", "long-orbit", "fluid-closure", "optics")
#: Set-ups per run; setup_s is their median.
SETUPS = 3
#: Times the import of avbeam and what it loads in a fresh interpreter and
#: prints it scaled by that interpreter's own calibration slice.
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); "
    "import avbeam, avbeam.cli, scipy.linalg; t = time.perf_counter() - t0; "
    "from perfbench.calibrate import Calibration, REFERENCE; "
    "cal = Calibration(); cal(); print(t * REFERENCE / cal())")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=11,
                   help="input seed (default 11, the acceptance gate's)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measure whole rounds until this much time passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_ops(ops, known, cal=None, times=None):
    """One round: every operation, in order; returns results, failed names.

    A failed operation in `known` is reported in one line, any other with
    its traceback.  With cal and times, each operation's (wall time, mean
    calibration time just before and after it) is appended to times[name].
    """
    results, failed = {}, set()
    c0 = cal() if times is not None else None
    for name, op in ops:
        t0 = time.perf_counter()
        try:
            results[name] = op(results)
        except Exception as exc:   # noqa: BLE001 -- counted, then checked
            failed.add(name)
            if name in known:
                print(f"operation {name!r} failed (known fault): {exc}",
                      file=sys.stderr)
            else:
                print(f"operation {name!r} failed:", file=sys.stderr)
                traceback.print_exc()
        if times is not None:
            dt = time.perf_counter() - t0
            c1 = cal()
            times[name].append((dt, 0.5 * (c0 + c1)))
            c0 = c1
    return results, failed


def _scaled(timings, reference):
    """Mean time of (time, calibration) pairs at the reference speed.

    The ratio of the sums weights each timing by its length; on this box it
    varies less from run to run than the median or the minimum of the
    scaled timings (README.md).
    """
    return reference * sum(t for t, _ in timings) / sum(c for _, c in timings)


def import_seconds():
    """Scaled import time of avbeam in a fresh interpreter (waited for)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def run_workload(cls, seed, seconds, trace, cal):
    from perfbench import instrument, spans
    from perfbench.calibrate import REFERENCE

    out_dir = str(OUT / cls.name)
    tracer = spans.Tracer() if trace else None
    if tracer:
        instrument.install(tracer)
    try:
        setups = []
        for _ in range(SETUPS):
            imported = import_seconds()
            c0, t0 = cal(), time.perf_counter()
            wl = cls(seed, out_dir)
            run_ops(wl.warm(seed).operations(), wl.known_failures)
            dt = time.perf_counter() - t0
            setups.append(imported + dt * REFERENCE / (0.5 * (c0 + cal())))
        generate_s = 0.0
        if tracer:
            generate_s = tracer.total["distribution.generate"] / SETUPS
            tracer.clear_stats()

        ops = wl.operations()
        op_times = {name: [] for name, _ in ops}
        rounds, attempted, failed, mismatched = 0, 0, 0, 0
        unexpected = set()
        first = fp0 = None
        cpu0, start = os.times(), time.perf_counter()
        while True:
            res, fails = run_ops(ops, wl.known_failures, cal, op_times)
            rounds += 1
            attempted += len(ops)
            failed += len(fails)
            unexpected |= fails - wl.known_failures
            if not unexpected:
                fp = (fails, wl.fingerprint(res))
                if first is None:
                    first, fp0 = res, fp
                elif fp != fp0:
                    mismatched += 1
            if time.perf_counter() - start >= seconds:
                break
        cpu1 = os.times()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.restore()

    if unexpected:
        failures, accuracy = [f"operation {name!r} failed"
                              for name in sorted(unexpected)], {}
    else:
        failures, accuracy = wl.check(first)
    if mismatched:
        failures.append(f"{mismatched} round(s) did not reproduce round 1")
    wall = sum(_scaled(ts, REFERENCE) for ts in op_times.values())
    setup = statistics.median(setups)
    raw = sum(statistics.mean(t for t, _ in ts) for ts in op_times.values())
    c_med = statistics.median(c for ts in op_times.values() for _, c in ts)
    print(f"{cls.name}: {rounds} rounds, wall {wall:.4f} s (unscaled "
          f"{raw:.4f} s, calibration slice {c_med * 1e3:.3f} ms), set-ups "
          f"{', '.join(f'{t:.3f}' for t in setups)} s, cpu user "
          f"{cpu1.user - cpu0.user:.2f} s system "
          f"{cpu1.system - cpu0.system:.2f} s, peak {peak_mb:.1f} MB",
          file=sys.stderr)
    for msg in failures:
        print(f"{cls.name}: CHECK FAILED: {msg}", file=sys.stderr)

    if tracer:
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{cls.name}-seed{seed}.jsonl",
                     {"workload": cls.name, "seed": seed, "rounds": rounds})
        metrics = instrument.layer_metrics(tracer, rounds, generate_s,
                                           accuracy, wall)
    else:
        metrics = {"wall_s": {"value": wall, "unit": "s"},
                   "setup_s": {"value": setup, "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "avbeam" / "__init__.py").is_file():
        print(f"run.py: no avbeam sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"       # before numpy is imported
    sys.path[:0] = [str(SRC), str(ROOT)]
    import avbeam
    from perfbench.calibrate import Calibration
    from perfbench.workloads import WORKLOADS as CLASSES
    if Path(avbeam.__file__).resolve().parent != (SRC / "avbeam").resolve():
        print(f"run.py: imported avbeam from {avbeam.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    cal = Calibration()             # before any tracer wraps expm

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        reports[name] = run_workload(CLASSES[name], args.seed, args.seconds,
                                     args.trace, cal)
        if name != names[0]:
            # ru_maxrss is the process's peak so far, not this workload's
            reports[name]["metrics"].pop("peak_rss_mb", None)
        if len(names) > 1:
            print(json.dumps({"workload": name, **reports[name]}))
    if len(names) == 1:
        result = reports[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}.{k}": v for w, r in reports.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
