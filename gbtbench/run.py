"""The gbtmark benchmark: one workload, one seed, one measured process.

    python3 gbtbench/run.py --workload mark-dense --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports gbtmark from ``src/``. The
workloads, metrics and the layer each metric belongs to are described
in ``gbtbench/METRICS.md``.

With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer ones from a traced run. It prints one line per metric,
then, as the last line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit status: 0 when every
operation passed its correctness gate, 1 when one failed, 2 when
gbtmark's sources are not where the benchmark expects them.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import TRACE_POINTS, Row, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".gbtbench-work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120

SETUP_REPEATS = 5
# what every CLI call pays before it does any work
SETUP_PROBE = """\
import time
import gbtmark.cli
from gbtmark import EmbedParams, make_plan
make_plan(EmbedParams().graph)
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""
IMPORT_PROBES = ("gbtmark", "gbtmark.attacks", "scipy.signal", "numpy")

# name -> unit; the same lists as in BENCHMARK.json
END_TO_END = {
    "setup_s": "s", "op_cal": "cal", "embed_cal": "cal", "extract_cal": "cal",
    "peak_rss_mb": "MB", "psnr_db": "dB",
}
ATTACKS = ("awgn", "lowpass", "highpass", "resample", "requantize",
           "amplitude_scale", "crop")
# span rows, and whether each has child spans (and so a self time)
ROWS = {
    "cli.main": True,
    "watermark.embed": True,
    "watermark.select_frames": False,
    "watermark.extract": True,
    "transform.make_plan": False,
    **{f"fileio.{name}": False for name in (
        "read_wav", "write_wav", "read_key", "write_key", "read_pbm", "write_pbm")},
    **{f"attacks.{kind}": False for kind in ATTACKS},
    "metrics.psnr": False,
    "metrics.ber": False,
    "benchmark.run_benchmark": True,
    "benchmark.report_to_csv": False,
}


def child_env():
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv):
    return subprocess.run([sys.executable, *argv], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)


def measure_setup(repeats):
    """Seconds from starting a fresh interpreter to a built default plan."""
    samples = []
    for _ in range(repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        ready = float(run_child(["-c", SETUP_PROBE]).stdout.split()[-1])
        samples.append(ready - start)
    return samples


def import_times():
    """Cumulative import seconds of a few modules, from -X importtime."""
    stderr = run_child(["-X", "importtime", "-c", "import gbtmark.cli"]).stderr
    lines = []  # (depth, module, cumulative seconds)
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            lines.append((len(name) - len(name.lstrip()), name.strip(),
                          int(parts[1]) / 1e6))
    found = {}
    for probe in IMPORT_PROBES:
        own = [seconds for _, name, seconds in lines if name == probe]
        # scipy loads its subpackages lazily, which leaves scipy.signal
        # without a line of its own; its outermost submodules add up to it
        inner = [(depth, seconds) for depth, name, seconds in lines
                 if name.startswith(probe + ".")]
        top = min((depth for depth, _ in inner), default=0)
        found[f"setup.import.{probe}_s"] = (
            own[0] if own else sum(s for depth, s in inner if depth == top))
    return found


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    rank = len(ordered) - 11
    if rank < 0:
        return None
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def repeat(step, seconds):
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.extend(step())
    return outcomes


def end_to_end(workload, operation, seconds, tiny):
    """Untraced run: times per call and per operation, in seconds and
    as multiples of the calibration kernel's time around them."""
    from calibrate import calibrate
    from workloads import run_checked
    setup = measure_setup(1 if tiny else SETUP_REPEATS)
    warmup = run_checked(operation)
    kernel = [calibrate()]

    def step():
        outcome = run_checked(operation)
        kernel.append(calibrate())
        return [outcome]

    done = repeat(step, seconds)
    outcomes = [warmup] + done
    if any(o.problems for o in outcomes):
        return outcomes, {}, {}
    ops, embeds, extracts = [], [], []
    for outcome, before, after in zip(done, kernel, kernel[1:]):
        ops.append((outcome.wall, (before + after) / 2))
        for calls, into in ((outcome.embed, embeds), (outcome.extract, extracts)):
            for start, end in calls:
                # the kernel's time interpolated to the call's midpoint
                share = ((start + end) / 2 - outcome.start) / outcome.wall
                into.append((end - start, before + share * (after - before)))
    quality = operation.quality()
    metrics = {
        "setup_s": statistics.median(setup),
        "op_cal": statistics.median(t / cal for t, cal in ops),
        "embed_cal": statistics.median(t / cal for t, cal in embeds),
        "extract_cal": statistics.median(t / cal for t, cal in extracts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "psnr_db": quality["psnr_db"],
    }
    embed_s = [t for t, _ in embeds]
    extract_s = [t for t, _ in extracts]
    op_s = statistics.median(t for t, _ in ops)
    notes = {"op_s": f"{op_s:.6g} s",
             "embed_s": f"{statistics.median(embed_s):.6g} s",
             "extract_s": f"{statistics.median(extract_s):.6g} s",
             "cal_s": f"{statistics.median(kernel):.6g} s"}
    for name, samples in (("embed_s", embed_s), ("extract_s", extract_s)):
        found = tail(samples)
        notes[f"{name}_tail"] = (
            f"{found[0]:.6g} s (p{found[1]:.1f} of n={len(samples)})"
            if found else f"n/a (n={len(samples)} < 11)")
    notes["setup_s samples"] = " ".join(f"{s:.4f}" for s in setup)
    notes["clean_ber"] = "0 on every operation (gated)"
    if workload.kind == "grid":
        notes["grid_cells_per_s"] = f"{quality['cells'] / op_s:.6g} 1/s"
        notes["grid_mean_ber"] = f"{quality['grid_mean_ber']:.6f}"
    return outcomes, metrics, notes


def per_layer(workload, operation, seconds):
    """Traced run, interleaved with untraced operations for the overhead."""
    from workloads import run_checked
    tracer = Tracer(TRACE_POINTS)
    imports = import_times()
    warmup = run_checked(operation)
    plain, traced = [], []

    def pair():
        plain.append(run_checked(operation))
        tracer.op += 1
        with tracer:
            traced.append(run_checked(operation))
        return [plain[-1], traced[-1]]

    outcomes = [warmup] + repeat(pair, seconds)
    if any(o.problems for o in outcomes):
        return outcomes, {}, {}
    rows = summarize(tracer.spans)
    ops = len(traced)
    traced_wall = sum(o.wall for o in traced)

    def row(name):
        return rows.get(name, Row(0, 0.0, 0.0, 0))

    metrics = {}
    for name, has_children in ROWS.items():
        metrics[f"{name}.calls"] = row(name).calls / ops
        metrics[f"{name}.busy_pct"] = 100.0 * row(name).busy / traced_wall
        if has_children:
            metrics[f"{name}.self_pct"] = 100.0 * row(name).self_time / traced_wall
    for name, count, per_unit in (("watermark.embed", "bits", "us_per_bit"),
                                  ("watermark.extract", "bits", "us_per_bit"),
                                  ("watermark.select_frames", "frames", "us_per_frame")):
        work = row(name).work
        metrics[f"{name}.{count}"] = work / ops
        metrics[f"{name}.{per_unit}"] = 1e6 * row(name).self_time / work if work else 0.0
    for kind in ("wav", "key"):
        metrics[f"fileio.{kind}.bytes"] = (row(f"fileio.read_{kind}").work
                                           + row(f"fileio.write_{kind}").work) / ops
    cells = operation.quality() if workload.kind == "grid" else {}
    metrics["benchmark.cells.attempted"] = float(cells.get("cells", 0))
    metrics["benchmark.cells.measured"] = float(cells.get("cells_measured", 0))
    metrics.update(imports)
    metrics["trace.op_s"] = statistics.median(o.wall for o in traced)
    metrics["trace.overhead_s"] = (metrics["trace.op_s"]
                                   - statistics.median(o.wall for o in plain))
    metrics["trace.absent"] = float(len(tracer.absent))
    notes = {"absent spans": ", ".join(tracer.absent) or "none",
             "traced ops": str(ops)}
    return outcomes, metrics, notes


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mark-dense", "long-host", "attack-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, one set-up sample (for the smoke test)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gbtmark" / "__init__.py").is_file():
        print(f"gbtbench: gbtmark sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS and OpenMP read these when numpy loads, which is below
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import gbtmark
    if Path(gbtmark.__file__).resolve().parent != SRC / "gbtmark":
        print(f"gbtbench: imported gbtmark from {gbtmark.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = (workloads.TINY if args.tiny else workloads.WORKLOADS)[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        run_child([str(HERE / "workloads.py"), args.workload, str(args.seed),
                   str(work_dir)] + (["--tiny"] if args.tiny else []))
        operation = workloads.make_operation(workload, work_dir)
        if args.trace:
            outcomes, metrics, notes = per_layer(workload, operation, args.seconds)
        else:
            outcomes, metrics, notes = end_to_end(workload, operation,
                                                  args.seconds, args.tiny)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass

    failed = [o for o in outcomes if o.problems]
    for outcome in failed[:5]:
        print("gate failed: " + "; ".join(outcome.problems), file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit_of(name)}")
    for name, text in notes.items():
        print(f"{name:<40} {text}")
    print(f"{'failed_ratio':<40} {len(failed)}/{len(outcomes)}")
    correct = not failed
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
