"""interpol-lab benchmark: seeded closed-loop workloads over the public API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload real-scale --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

One client in one process runs items back to back (each starts when the
previous one returns); no threads: INTERPOL_LAB_THREADS is removed from the
environment and the BLAS libraries are held to one thread.  The package is
imported from ``src/`` of the checkout.

A run is: set-up (imports, corpus drawn from the seed, CLI configs written),
timed two more times in fresh child processes so ``setup_s`` is a median of
three; a warm-up on items that are not timed; the timed phase, which runs a
fixed number of batches, each once; then the output checks.  ``--seconds``
sets that number through the workload's nominal batch rate, so a seed gives
the same items, and the same failures, on every machine; the phase is cut
only if it overruns ``TIME_CAP_S``.  With ``--trace 1`` the first half of
the batches runs traced and then again untraced, which gives the tracing
overhead; the per-layer metrics are printed instead of the end-to-end ones.
The last stdout line is the result object; the line before it carries
machine and version metadata and the failure breakdown.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.p90": "ms",
    "ok_frac": "ratio",
    "relw.p50": "ratio",
    "relw.max": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 3
WARMUP_SECONDS = 1.0
TIME_CAP_S = 120.0  # keeps a run on a much slower machine within its time limit


def _work_dir() -> Path:
    return ROOT / ".perfbench_work" / str(os.getpid())


def _remove(work_dir: Path) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        work_dir.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def setup(name: str, seed: int, seconds: float, work_dir: Path):
    """Import the package and draw the corpus: everything setup_s covers."""
    import numpy as np

    import workloads

    wl = workloads.make(name, work_dir)
    corpus_seq, warm_seq = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(corpus_seq)
    n_batches = max(2, round(seconds * wl.batches_per_s))
    batches = [wl.batch(rng, b) for b in range(n_batches)]
    warm = wl.batch(np.random.default_rng(warm_seq), 0)
    return wl, batches, warm


def run_batches(batches, t_cap: float):
    """Closed loop over the batches, in order, each once; batches not begun
    before `t_cap` seconds have passed are skipped.  Returns the executed
    batches as (batch, outputs, item latencies, batch wall time)."""
    done = []
    t0 = perf_counter()
    for batch in batches:
        if perf_counter() - t0 > t_cap:
            break
        ctx = {}
        outputs, lat = [], []
        tb = perf_counter()
        for item in batch:
            ti = perf_counter()
            try:
                out = item.run(ctx)
            except Exception as exc:  # a failed item is recorded, the loop goes on
                out = exc
            lat.append(perf_counter() - ti)
            outputs.append(out)
        done.append((batch, outputs, lat, perf_counter() - tb))
    return done


def warm_up(warm):
    """Run the first warm-up item of each kind, within WARMUP_SECONDS."""
    seen = set()
    ctx = {}
    t0 = perf_counter()
    for item in warm:
        if item.kind in seen:
            continue
        seen.add(item.kind)
        try:
            item.run(ctx)
        except Exception:  # warm-up outputs are not checked
            pass
        if perf_counter() - t0 > WARMUP_SECONDS:
            break


def measure(wl, batches, warm, trace: bool):
    """Timed phase(s) and output checks; returns (metrics, meta)."""
    import numpy as np

    from tracing import Tracer, layer_metric_units
    from workloads import UNSOUND

    warm_up(warm)
    if trace:
        # traced first, so per-layer counts come from a first pass over the
        # inputs; then the same batches replayed untraced for the overhead
        half = batches[: (len(batches) + 1) // 2]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_batches(half, TIME_CAP_S / 2)
        finally:
            tracer.uninstall()
        plain = run_batches(half[: len(traced)], TIME_CAP_S / 2)
        executed = traced + plain
        skipped = len(half) - len(traced)
    else:
        executed = run_batches(batches, TIME_CAP_S)
        skipped = len(batches) - len(executed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = []
    for batch, outputs, _, _ in executed:
        outcomes.extend(wl.check(batch, outputs))
    statuses = Counter(o.status for o in outcomes)
    failed = len(outcomes) - statuses["ok"]
    lat_ms = [1000.0 * t for _, _, lat, _ in executed for t in lat]
    walls = [w for *_, w in executed]
    p50, p90 = (float(v) for v in np.percentile(lat_ms, [50, 90]))
    widths = [o.relw for o in outcomes if o.relw is not None]
    meta = {
        "items": len(outcomes),
        "batches": len(executed),
        "batch_items": len(batches[0]),
        "batches_skipped": skipped,
        "timed_s": sum(walls),
        "batch_walls_s": [round(w, 4) for w in walls],
        "items_beyond_p90": sum(t > p90 for t in lat_ms),
        "statuses": dict(statuses),
        "notes": sorted({o.note for o in outcomes if o.note})[:8],
    }
    if trace:
        units = layer_metric_units()
        traced_walls = [w for *_, w in traced]
        overhead = statistics.median(traced_walls) - statistics.median([w for *_, w in plain])
        values = tracer.metrics(sum(traced_walls), overhead)
    else:
        units = END_TO_END
        values = {
            "wall_s": statistics.median(walls),
            # every batch holds the same number of items: throughput of the median batch
            "items_per_s": len(batches[0]) / statistics.median(walls),
            "item_ms.p50": p50,
            "item_ms.p90": p90,
            "ok_frac": (len(outcomes) - failed) / len(outcomes),
            "relw.p50": statistics.median(widths) if widths else 0.0,
            "relw.max": max(widths) if widths else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": statuses[UNSOUND] == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    }
    return result, meta


def child_setup_seconds(args) -> float:
    """Set-up time measured in a fresh interpreter running --setup-only."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def machine_meta(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def self_check() -> int:
    """A few items per workload in both modes; every declared name must be
    emitted and every output correct."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    declared = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(declared) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared} != {sorted(workloads.WORKLOADS)}")
    for name in workloads.WORKLOADS:
        work_dir = _work_dir()
        try:
            wl, batches, warm = setup(name, 1, 0, work_dir)
            for trace in (0, 1):
                result, meta = measure(wl, batches, warm, bool(trace))
                if trace == 0:
                    result["metrics"]["setup_s"] = {"value": 0.0, "unit": "s"}
                got = set(result["metrics"])
                if got != want[trace]:
                    problems.append(f"{name} trace={trace}: missing {sorted(want[trace] - got)}, "
                                    f"undeclared {sorted(got - want[trace])}")
                if not result["correct"]:
                    problems.append(f"{name} trace={trace}: incorrect output {meta['notes']}")
                print(f"{name} trace={trace}: {result['attempted']} items, {result['failed']} failed, "
                      f"{len(got)} metrics", flush=True)
        finally:
            _remove(work_dir)
    for p in problems:
        print("self-check:", p, file=sys.stderr)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run a few items per workload and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "interpol_lab" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'interpol_lab'}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("INTERPOL_LAB_THREADS", None)
    # one thread in every BLAS numpy or scipy may load; numpy is not imported yet
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    work_dir = _work_dir()
    try:
        wl, batches, warm = setup(args.workload, args.seed, args.seconds, work_dir)
        setup_s = perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
        result, meta = measure(wl, batches, warm, bool(args.trace))
    finally:
        _remove(work_dir)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["metrics"] = {k: result["metrics"][k] for k in END_TO_END}
    meta.update(machine_meta(args.seed), workload=args.workload, seconds=args.seconds,
                trace=args.trace, setup_samples_s=setups)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
