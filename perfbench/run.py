"""wavebound benchmark: three workloads through the public CLI, end to end.

    python3 perfbench/run.py --workload {bounds,refine,dense} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it builds and imports the package from
``src/`` there, never an installed copy. Jobs run one after another through
``wavebound.cli.main(argv)`` in this process: a closed loop with one client.
A pass is one run of a workload's jobs; passes repeat until ``--seconds`` is
used up (at least three untraced passes, or two untraced/traced pairs with
``--trace 1``), and every pass's outputs are checked.

``--trace 0`` reports the end-to-end metrics (medians over passes, tracing
off). ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones; see tracing.py. The last line of
standard output is the JSON result; the lines before it are a readable
report with the environment, sample counts and quartiles. The same report,
and the spans of a traced run, are written under ``.bench_out/``.
README.md next to this file says why each workload exists.
"""

import os

# Pin BLAS/OpenMP before numpy is imported; the setup probes inherit it.
# One thread (at most nproc), so numpy's BLAS does not spread over cores.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# this file's directory is on sys.path when it runs as a script
from tracing import Tracer, instrument, per_layer  # noqa: E402
from workloads import (  # noqa: E402
    BOUND_EPS,
    DEFAULT_SEED,
    SERIES_SHA256,
    draw,
    oracle_key,
    oracle_pairs,
    resolve,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BUILD = ROOT / ".bench_build"

MIN_PASSES = 3
MIN_TRACED = 2
# no pass starts that is expected to end later than this after start-up,
# which keeps a run inside its 180 s limit on a slow machine
RUN_LIMIT_S = 150.0
SETUP_SAMPLES = 9
# reference kernel problem: the finest refine level, from bench_kernels.py
KREF_POINTS = 32001
KREF_STEPS = 1000

JSON_NAME = {
    "simulate": "summary.json",
    "verify": "verify.json",
    "converge": "converge.json",
}

_T0 = time.perf_counter()


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build the optional compiled kernel in place, once per checkout."""
    stamp = BUILD / "build.stamp"
    if stamp.exists():
        return
    BUILD.mkdir(exist_ok=True)
    cmd = [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
           "--build-temp", str(BUILD / "tmp")]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=840)
    if proc.returncode != 0:
        fail(f"build failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    stamp.write_text(proc.stdout + proc.stderr)


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from a fresh interpreter to ready, one sample per probe."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
               repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                              capture_output=True, text=True)
        if i:  # the first probe warms the bytecode and file caches
            samples.append(float(proc.stdout))
    return samples


def _guarded(fn, *args):
    """Run one job; a crash is recorded as a failed job, not a crashed run."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - the benchmark must finish and report
        traceback.print_exc(file=sys.stderr)
        return None


def run_pass(resolved, pairs, job_dirs, tracer=None):
    """One pass over the workload's jobs; returns wall, cpu, exit codes, I0^2."""
    from wavebound import cli, initial_data, oracles

    def i0(key):
        family, scale, shift, width, a0 = key
        data = initial_data.get_data(family, scale=scale, shift=shift, width=width)
        return oracles.i0_squared(data, a0).value

    for d in job_dirs:  # no stale output can pass a check
        shutil.rmtree(d, ignore_errors=True)
    codes, i0_values = [], {}
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for j, r in enumerate(resolved):
        argv = list(r.job.argv) + ["--out", str(job_dirs[j])]
        if r.job.archive:
            argv += ["--archive", str(job_dirs[j] / "archive.txt")]
        if tracer is not None:
            tracer.job = j
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(_guarded(cli.main, argv))
    for k, key in enumerate(pairs):
        if tracer is not None:
            tracer.job = len(resolved) + k
        i0_values[key] = _guarded(i0, key)
    return time.perf_counter() - wall0, time.process_time() - cpu0, codes, i0_values


def _pass_fields(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "pass":
                yield path or "pass", value
            else:
                yield from _pass_fields(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _pass_fields(item, f"{path}[{i}]")


def _digest(job_dir: Path, payload) -> str:
    """series.csv if the job writes one, else its JSON minus any timing block."""
    csv = job_dir / "series.csv"
    if csv.exists():
        return hashlib.sha256(csv.read_bytes()).hexdigest()
    stable = {k: v for k, v in payload.items() if k != "run"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def _oracle_bound(theorem, i0_sq, a0, cls):
    """The closed-form bound of ``analysis.theorem_bound`` with the oracle I0^2."""
    if theorem == "Thm1.1":
        return i0_sq / (a0 * a0)
    if theorem == "Cor1.1":
        return i0_sq
    A0 = cls["A0"]
    return (i0_sq / (A0 * A0)) * math.exp(2.0 * cls["tv_total"] / A0)


def check_pass(workload, seed, resolved, job_dirs, codes, i0_values, first_digests):
    """Every correctness check of one pass, as (name, ok) pairs."""
    checks = []
    for j, r in enumerate(resolved):
        tag = f"job{j}:{r.job.argv[0]}"
        checks.append((f"{tag} exit 0", codes[j] == 0))
        path = job_dirs[j] / JSON_NAME[r.job.argv[0]]
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            checks.append((f"{tag} {path.name} readable", False))
            continue
        for field, value in _pass_fields(payload):
            checks.append((f"{tag} {field} is true", value is True))
        digest = _digest(job_dirs[j], payload)
        if j in first_digests:
            checks.append((f"{tag} output identical to pass 1", digest == first_digests[j]))
        else:
            first_digests[j] = digest
        expected = SERIES_SHA256.get((workload, j))
        if seed == DEFAULT_SEED and expected is not None:
            checks.append((f"{tag} series.csv sha256 as recorded", digest == expected))
        if r.job.theorem:
            i0_sq = i0_values.get(oracle_key(r))
            ok = i0_sq is not None and payload["measured_sup"] <= (
                _oracle_bound(r.job.theorem, i0_sq, r.a0, payload["classification"])
                * (1.0 + BOUND_EPS)
            )
            checks.append((f"{tag} {r.job.theorem}: sup <= oracle bound x 1.02", ok))
    return checks


def bytes_written(job_dirs) -> int:
    return sum(f.stat().st_size for d in job_dirs for f in d.rglob("*") if f.is_file())


def kernel_reference():
    """Node-steps/s per backend on the bench_kernels.py problem, and parity."""
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", ROOT / "benchmarks" / "bench_kernels.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    u, lam2 = bench.make_problem(KREF_POINTS, KREF_STEPS)
    node_steps = KREF_POINTS * KREF_STEPS
    t_py, out_py = bench.time_backend(bench.reference.advance_steps, u, lam2, repeats=3)
    rates = {"kernels.python.node_steps_per_s": [node_steps / t_py]}
    if bench._stencil is None:
        try:
            importlib.import_module("wavebound.kernels._stencil")
            why = "bench_kernels.py could not import it"
        except ImportError as exc:
            why = f"ImportError: {exc}"
        rates["kernels.compiled.node_steps_per_s"] = [0.0]
        return rates, None, f"absent, reported as 0 ({why})"
    t_c, out_c = bench.time_backend(bench._stencil.advance_steps, u, lam2, repeats=3)
    rates["kernels.compiled.node_steps_per_s"] = [node_steps / t_c]
    return rates, bool(np.array_equal(out_py, out_c)), "built"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _keep_going(count, minimum, durations, window_start, seconds):
    elapsed = time.perf_counter() - window_start
    expected = statistics.median(durations)
    if time.perf_counter() - _T0 + expected > RUN_LIMIT_S:
        return False
    return count < minimum or elapsed + expected <= seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wavebound" / "__init__.py").is_file():
        fail(f"no wavebound sources under {SRC}; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(why)}")
    sys.path.insert(0, str(SRC))
    build()

    import wavebound
    from wavebound.kernels import BACKEND

    if Path(wavebound.__file__).resolve().parent != SRC / "wavebound":
        fail(f"imported wavebound from {wavebound.__file__}, not from {SRC}")
    resolved = resolve(args.workload, args.seed)
    pairs = oracle_pairs(resolved)
    jobs_root = OUT / f"jobs-{args.workload}"
    shutil.rmtree(jobs_root, ignore_errors=True)
    job_dirs = [jobs_root / f"job{j}" for j in range(len(resolved))]

    checks, first_digests = [], {}

    def one_pass(tracer=None):
        wall, cpu, codes, i0_values = run_pass(resolved, pairs, job_dirs, tracer)
        checks.extend(check_pass(
            args.workload, args.seed, resolved, job_dirs, codes, i0_values, first_digests
        ))
        return wall, cpu

    kernel_note, spans = "probed only with --trace 1", []
    try:
        if args.trace:
            samples, parity, kernel_note = kernel_reference()
            if parity is not None:
                checks.append(("compiled and python kernels bit-identical", parity))
            samples.update(traced_passes(one_pass, job_dirs, args.seconds, checks, spans))
        else:
            samples = untraced_passes(one_pass, args.seconds)
            samples["setup_s"] = measure_setup(args.workload, args.seed)
            samples["peak_rss_mb"] = [
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            ]
    finally:
        shutil.rmtree(jobs_root, ignore_errors=True)

    # metric name -> unit, in the order BENCHMARK.json lists them
    names = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: statistics.median(samples[name]) for name in names}
    failed = [name for name, ok in checks if not ok]
    report = {
        "env": {
            "workload": args.workload,
            "why": why[args.workload],
            "seed": args.seed,
            "data_scale_shift": list(draw(args.workload, args.seed)),
            "trace": args.trace,
            "backend": BACKEND,
            "compiled_kernel": kernel_note,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "closed_loop_clients": 1,
        },
        "samples": {
            name: {"n": len(v), "median": statistics.median(v), "q1_q3": quartiles(v), "values": v}
            for name, v in samples.items()
        },
        "checks_attempted": len(checks),
        "checks_failed": failed,
        "failed_ratio": len(failed) / len(checks) if checks else 1.0,
    }
    print_report(report, names)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for k, pass_spans in enumerate(spans):
                for name, t0, t1, parent, job in pass_spans:
                    fh.write(json.dumps([k, name, t0, t1, parent, job]) + "\n")

    result = {
        "correct": not failed and bool(checks),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": names[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


def untraced_passes(one_pass, seconds) -> dict:
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or _keep_going(len(walls), MIN_PASSES, walls, start, seconds):
        wall, cpu = one_pass()
        walls.append(wall)
        cpus.append(cpu)
    return {"wall_s": walls, "cpu_s": cpus}


def traced_passes(one_pass, job_dirs, seconds, checks, spans) -> dict:
    """Pairs of (untraced, traced) passes; per-layer samples of the traced ones."""
    samples = {"untraced_wall_s": [], "traced_wall_s": []}
    first_counts = None
    start = time.perf_counter()
    pair_times = []
    while not pair_times or _keep_going(len(pair_times), MIN_TRACED, pair_times, start, seconds):
        wall, _ = one_pass()
        tracer = Tracer()
        with instrument(tracer):
            t_wall, _ = one_pass(tracer)
        samples["untraced_wall_s"].append(wall)
        samples["traced_wall_s"].append(t_wall)
        pair_times.append(wall + t_wall)
        spans.append(tracer.spans)
        timings, counts = per_layer(tracer, bytes_written(job_dirs))
        if first_counts is None:
            first_counts = counts
        else:
            checks.extend((f"count {k} repeats", v == first_counts[k]) for k, v in counts.items())
        for name, value in {**timings, **counts}.items():
            samples.setdefault(name, []).append(value)
    samples["trace.overhead_s"] = [
        statistics.median(samples["traced_wall_s"]) - statistics.median(samples["untraced_wall_s"])
    ]
    return samples


def print_report(report, names):
    env = report["env"]
    print("perfbench " + " ".join(f"{k}={v}" for k, v in env.items() if k != "why"))
    print(f"  workload: {env['why']}")
    for name, stats in report["samples"].items():
        q1, q3 = stats["q1_q3"]
        unit = names.get(name, "s")
        print(f"  {name:<34} {stats['median']:<12.6g} {unit:<6} median of {stats['n']}"
              f" (q1 {q1:.6g}, q3 {q3:.6g})")
    n, bad = report["checks_attempted"], report["checks_failed"]
    print(f"  {'failed_ratio':<34} {report['failed_ratio']:<12.6g} {'1':<6}"
          f" {len(bad)} of {n} checks failed")
    for name in bad:
        print(f"    FAILED {name}")


if __name__ == "__main__":
    sys.exit(main())
