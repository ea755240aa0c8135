"""Benchmark of the `atlas` commands, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (one process, one thread, one at a time),
as an `atlas` user's invocation does: the child imports orbitatlas, builds the
algebras or root systems the workload touches (its set-up), then runs the
workload's `atlas` calls in-process through `orbitatlas.cli.main(argv)` with
stdout captured, and checks every call's JSON against the checked-in reference.
A fresh process per pass keeps caches from leaking from one pass into the next.
The calls of one pass share its process, as in a program that calls orbitatlas
repeatedly; they differ in their inputs or seeds, and the traced distinct-call
ratios count repeats within each call.

With `--trace 0` passes repeat for `--seconds` (at least three), all on the
input `--seed` makes; then set-up-only children make the set-ups timed up to
SETUP_SAMPLES.  The last line of stdout holds the end-to-end metrics: the
median pass time `wall_s`, the median set-up time `setup_s` (from the child's
first statement through `import orbitatlas` and the builds) and the largest
peak resident memory `peak_rss_mb`.  Both times are host-speed corrected
seconds (see hostspeed.py); the raw seconds are in the details.  `failed` over
`attempted` counts children that raised, exited nonzero or differed from the
reference.  With `--trace 1` passes alternate untraced, traced, untraced,
traced; the traced ones wrap the package's public functions from outside (see
spans.py) and the last line holds the per-layer metrics of the traced passes,
whose counts must agree exactly; per-layer times are raw seconds.  The line
before the last holds the details: samples, percentiles and the environment.
"""

import time

_T0 = time.perf_counter()  # first, so that setup_s covers every import

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS, check_pass, load_reference, reference_path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_SAMPLES = 9  # set-up-only children make up the passes' set-ups to this many
RUN_LIMIT_S = 150  # no pass starts that could end after this; runs must end within 180 s
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


# ---------------------------------------------------------------------------
# child: one pass in a fresh interpreter

def run_pass(cli, wl, seed: int):
    """Run the workload's calls.

    Returns ((start, end) clock readings around each cli.main call, results, error).
    """
    results, spans = [], []
    for argv in wl.calls(seed):
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit) as e:  # a failed pass, not a failed benchmark
            spans.append((start, time.perf_counter()))
            return spans, results, f"{' '.join(argv)}: {type(e).__name__}: {e}"
        spans.append((start, time.perf_counter()))
        try:
            results.append([rc, wl.extract(json.loads(buf.getvalue()))])
        except (ValueError, KeyError, TypeError) as e:
            return spans, results, f"{' '.join(argv)}: unreadable output: {e!r}"
    return spans, results, None


def child(name: str, seed: int, trace: bool, setup_only: bool = False) -> dict:
    wl = WORKLOADS[name]
    host = HostSpeed(wl.host_kernels)
    host.start()
    try:
        sys.path.insert(0, str(SRC))
        import orbitatlas
        import orbitatlas.cli as cli

        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        for t in wl.setup_algebras:
            orbitatlas.build_algebra(t)
        for t in wl.setup_root_systems:
            orbitatlas.build_root_system(t)
        setup_end = time.perf_counter()
        spans, results, error = [], [], None
        if not setup_only:
            spans, results, error = run_pass(cli, wl, seed)
    finally:
        host.stop()
    if tracer is not None:
        tracer.uninstall()
    raw_wall = sum(e - s for s, e in spans)
    if error is None and not setup_only:
        error = check_pass(results, load_reference(name))
    rec = {
        "setup_s": host.seconds(_T0, setup_end),
        "wall_s": sum(host.seconds(s, e) for s, e in spans),
        "raw_setup_s": setup_end - _T0,
        "raw_wall_s": raw_wall,
        "host_slowdown": host.slowdown(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error": error,
        "env": _package_env(orbitatlas),
    }
    if tracer is not None:
        rec["metrics"] = tracer.metrics()
        rec["absent"] = tracer.absent
        rec["shares"] = dict(list(tracer.shares(raw_wall).items())[:5])
    return rec


def _package_env(orbitatlas) -> dict:
    import numpy

    modp = sys.modules.get("orbitatlas._modp")
    backend = getattr(modp, "backend_name", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "modp_backend": backend() if callable(backend) else None,
        "orbitatlas": getattr(orbitatlas, "__version__", None),
    }


# ---------------------------------------------------------------------------
# parent: schedule passes, aggregate, report

def run_child(name: str, seed: int, trace: bool, timeout: float, mode: str = "pass") -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workload", name, "--seed", str(seed), "--trace", str(int(trace))]
    env = {**os.environ, **CHILD_ENV}
    start = time.perf_counter()
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s",
                "elapsed": time.perf_counter() - start}
    elapsed = time.perf_counter() - start
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        tail = p.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"pass exited {p.returncode}: {tail[0]}", "elapsed": elapsed}
    try:
        rec = json.loads(lines[-1])
    except ValueError:
        return {"error": f"unreadable pass record: {lines[-1][:200]}", "elapsed": elapsed}
    rec["elapsed"] = elapsed
    return rec


def highest_percentile(values: list) -> dict | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return {"p": p, "value": cut}
    return None


def git_commit() -> str | None:
    try:
        # the ceiling keeps git from searching the directories above ROOT
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        return None
    return out or None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def schedule(name: str, seed: int, seconds: float, trace: bool) -> list:
    """Untraced passes for `seconds` (at least MIN_PASSES), or U,T,U,T when tracing.

    Every pass runs the same input, the one `seed` makes, so that traced
    counts must agree and a faster commit is not timed on other inputs.
    Untraced runs then start set-up-only children until SETUP_SAMPLES
    set-ups have been timed.
    """
    start = time.perf_counter()
    recs = []
    plan = [False, True, False, True] if trace else None
    while True:
        traced = plan[len(recs)] if plan else False
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        rec = run_child(name, seed, traced, timeout=max(left, 1.0))
        rec["traced"] = traced
        recs.append(rec)
        elapsed = time.perf_counter() - start
        if elapsed + rec["elapsed"] > RUN_LIMIT_S:
            return recs
        if plan:
            if len(recs) == len(plan):
                return recs
        elif len(recs) >= MIN_PASSES and elapsed + rec["elapsed"] > seconds:
            break
    while len(recs) < SETUP_SAMPLES:
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        if left < 10:
            break
        rec = run_child(name, seed, False, timeout=left, mode="setup")
        rec.update(traced=False, probe=True)
        recs.append(rec)
    return recs


def _is_count(key: str) -> bool:
    return not key.endswith(".s") and not key.endswith("total_s")


def aggregate(recs: list, trace: bool):
    timed = [r for r in recs if "wall_s" in r and not r.get("probe")]
    plain = [r for r in timed if not r["traced"]]
    if not plain or (trace and not any(r["traced"] for r in timed)):
        return None, None, ["no pass produced a timing"]
    errors = [r["error"] for r in recs if r.get("error")]
    walls = [r["wall_s"] for r in plain]
    detail = {
        "passes": len(plain),
        "wall_s_samples": walls,
        "wall_s_highest_percentile": highest_percentile(walls),
        "setup_s_samples": [r["setup_s"] for r in recs if "setup_s" in r and not r["traced"]],
        "raw_wall_s_samples": [r["raw_wall_s"] for r in plain],
        "raw_setup_s_samples": [r["raw_setup_s"] for r in recs
                                if "setup_s" in r and not r["traced"]],
        "host_slowdown_samples": [r["host_slowdown"] for r in plain],
        "peak_rss_mb_samples": [r["rss_mb"] for r in plain],
        "env": plain[0]["env"],
    }
    if not trace:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(detail["setup_s_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": max(detail["peak_rss_mb_samples"]), "unit": "MB"},
        }
        return metrics, detail, errors
    traced = [r for r in timed if r["traced"]]
    first = traced[0]["metrics"]
    for other in traced[1:]:
        diff = sorted(k for k, v in first.items()
                      if _is_count(k) and other["metrics"].get(k) != v)
        if diff:
            errors.append(f"traced counts differ between passes: {diff}")
    metrics = {}
    for k, v in first.items():
        if _is_count(k):
            unit = "ratio" if k.endswith(("_ratio", "_per_rank")) else (
                "bits" if k.endswith("_bits") else "count")
            metrics[k] = {"value": v, "unit": unit}
        else:
            metrics[k] = {"value": statistics.mean(r["metrics"][k] for r in traced),
                          "unit": "s"}
    overhead = statistics.median(r["wall_s"] for r in traced) / statistics.median(walls) - 1
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    detail["traced_wall_s_samples"] = [r["wall_s"] for r in traced]
    detail["absent"] = traced[0]["absent"]
    detail["top_self_time_shares"] = traced[0]["shares"]
    return metrics, detail, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("pass", "setup"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child:
        print(json.dumps(child(args.workload, args.seed, bool(args.trace),
                               setup_only=args.child == "setup")))
        return 0

    if not (SRC / "orbitatlas" / "__init__.py").is_file():
        print(f"orbitatlas sources not found under {SRC}", file=sys.stderr)
        return 2
    if not reference_path(args.workload).is_file():
        print(f"missing reference {reference_path(args.workload)}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    recs = schedule(args.workload, args.seed, args.seconds, trace)
    metrics, detail, errors = aggregate(recs, trace)
    for e in errors:
        print(f"{args.workload}: {e}", file=sys.stderr)
    if metrics is None:
        return 1
    wl = WORKLOADS[args.workload]
    detail.update({
        "workload": wl.name,
        "input_size": wl.input_size,
        "rationale": wl.rationale,
        "seed": args.seed,
        "trace": args.trace,
        "errors": errors,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_python_lines": src_lines(),
    })
    print(json.dumps({"detail": detail}))
    failed = sum(1 for r in recs if r.get("error"))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(recs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
