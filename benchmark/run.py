"""hqopt benchmark: fixed-work workloads timed in-process, with a traced variant.

Run from the repository root:

    python3 benchmark/run.py --workload sweep_min --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --smoke

A run makes its inputs from --seed, sets up (imports, input generation and
warm-up), then repeats whole rounds of the same operations until --seconds
have passed (at least two rounds).  Every round must produce the same
outputs.  After the timed part the first round's outputs are checked
independently (see checks.py); an operation whose check fails counts as
failed in every round.

records_per_s (the rate over all untraced rounds) and setup_s are quoted at
a fixed machine speed: each is scaled by the ratio of REF_RATE to the rate of
a fixed numpy kernel run between rounds.  The measured values are kept in the
run's detail file.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics derived from the traced
rounds' spans, plus the tracing overhead (traced against untraced round
time).  The last line of standard output is one JSON object; details of the
run (round times, reference-kernel rate, machine and BLAS info, spans) are
written under benchmark/out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# one BLAS thread: the machine has few cores and the IPM works on tiny matrices
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
# the sweep worker count is left at the program's default
os.environ.pop("HQOPT_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

MIN_ROUNDS = 2
SETUP_REPEATS = 3
# records_per_s and setup_s are quoted at this reference-kernel rate (calls per second)
REF_RATE = 30_000.0


def reference_kernel(np, reps: int = 2000) -> float:
    """Rate of a fixed Python+numpy loop, measured between rounds.

    The machine's speed drifts by tens of percent over minutes, and a run's
    workload rate follows this kernel's rate closely across runs, so rates
    are quoted at a fixed kernel rate.
    """
    base = np.random.default_rng(12345).standard_normal((20, 20))
    base = base + base.T
    eye = np.eye(20)
    t = time.perf_counter()
    acc = 0.0
    for i in range(reps):
        acc += float(np.linalg.eigvalsh(base + (1e-3 * i) * eye)[0])
    return reps / (time.perf_counter() - t)


def machine_info(np) -> dict:
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu"] = platform.processor()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool, import_s: float) -> dict:
    import numpy as np

    import tracing
    import workloads

    wl = workloads.make(name, seed, smoke)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl.prepare()
        setup_times.append(time.perf_counter() - t)

    tracer = tracing.Tracer()
    plain, traced, ref_rates = [], [], []
    first = fingerprint = None
    identical = True
    deadline = time.perf_counter() + seconds
    while len(plain) + len(traced) < MIN_ROUNDS or time.perf_counter() < deadline:
        is_traced = trace and len(plain) > len(traced)
        if is_traced:
            tracer.install()
            root = tracer.begin(tracing.ROOT_LAYER, name)
        t = time.perf_counter()
        outputs = wl.run_round()
        dt = time.perf_counter() - t
        if is_traced:
            tracer.end(root)
            tracer.uninstall()
        (traced if is_traced else plain).append(dt)
        fp = wl.fingerprint(outputs)
        if first is None:
            first, fingerprint = outputs, fp
        elif fp != fingerprint:
            identical = False
        ref_rates.append(reference_kernel(np))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reasons = wl.check(first)
    if len(reasons) != wl.ops_per_round:
        raise RuntimeError(f"{len(reasons)} check results for {wl.ops_per_round} operations")
    failures = [r for r in reasons if r]
    for r in failures[:10]:
        print(f"check failed: {r}", file=sys.stderr)
    if not identical:
        print("outputs differ between rounds of the same run", file=sys.stderr)
    rounds = len(plain) + len(traced)
    done = wl.ops_per_round - len(failures)
    # work over time on both sides: the harmonic mean of equal-work kernel rates
    raw_records_per_s = done * len(plain) / sum(plain)
    ref_rate = statistics.harmonic_mean(ref_rates)
    records_per_s = raw_records_per_s * REF_RATE / ref_rate

    raw_setup_s = import_s + statistics.median(setup_times)
    metrics = {
        "records_per_s": (records_per_s, "1/s"),
        "setup_s": (raw_setup_s * ref_rate / REF_RATE, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if trace:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        layer = tracing.layer_metrics(tracer.spans, len(traced), sum(traced), overhead)
        layer["ref.kernel_per_s"] = (ref_rate, "1/s")
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "rounds_plain_s": plain,
        "rounds_traced_s": traced,
        "ops_per_round": wl.ops_per_round,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "ref_kernel_per_s": ref_rates,
        "raw_records_per_s": raw_records_per_s,
        "raw_setup_s": raw_setup_s,
        "failures": failures,
        "outputs_identical": identical,
        "machine": machine_info(np),
        "metrics": metrics,
    }
    if hasattr(wl, "paper_scale_hours"):
        detail["paper_scale_hours"] = wl.paper_scale_hours(raw_records_per_s)
    if trace:
        detail["per_layer"] = layer

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for rec in tracing.span_records(tracer.spans):
                fh.write(json.dumps(rec) + "\n")

    shown = layer if trace else metrics
    return {
        "correct": identical,
        "attempted": rounds * wl.ops_per_round,
        "failed": rounds * len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="sweep_min, sweep_max, round_heavy or verify")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run every workload briefly, traced, and exit 1 on any failure")
    args = p.parse_args(argv)
    if not args.smoke and not args.workload:
        p.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hqopt" / "__init__.py").is_file():
        print(f"error: no hqopt sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    import numpy  # noqa: F401

    import hqopt.cli  # noqa: F401

    import_s = time.perf_counter() - _T0
    if args.smoke:
        import workloads

        ok = True
        for name in workloads.NAMES:
            res = run_workload(name, args.seed, 0.0, True, True, import_s)
            ok = ok and res["correct"] and res["failed"] == 0
            print(json.dumps({"workload": name, **res}))
        return 0 if ok else 1
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False, import_s)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
