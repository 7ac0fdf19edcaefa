#!/usr/bin/env python3
"""End-to-end benchmark of gf2lab: verified jobs through the public API.

    python3 perfbench/run.py --workload directional --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository.  Workloads: directional,
certify, pipeline (see README.md next to this file).  The load is a
closed loop with one client: one process, one thread, each job starts
when the previous one has returned.  Jobs are checked after the timed
loop; the last line of stdout is one JSON object with the metrics.
`--trace 1` wraps the library's layer functions and reports per-layer
time instead of the end-to-end metrics.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

E2E = [("jobs_per_s", "1/s"), ("job_s_p50", "s"), ("job_s_tail", "s"),
       ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Metric names start with a letter: `kernels.*` is the gf2lab._kernels layer.
PER_LAYER = [
    ("job.s", "s"), ("job.calls", "count"), ("trace.overhead", "ratio"),
    ("share.sweep_m1", "ratio"), ("share.kernels_subspaces", "ratio"),
    ("share.kernels_subspaces_outside_from_json", "ratio"),
    ("kernels.xor_sweep_m1.s", "s"), ("kernels.xor_sweep_m1.calls", "count"),
    ("kernels.joint_sweep_m1.s", "s"), ("kernels.joint_sweep_m1.calls", "count"),
    ("kernels.affine_sweep_m1.s", "s"), ("kernels.affine_sweep_m1.calls", "count"),
    ("kernels.table_bytes", "bytes"),
    ("kernels.condenser_sweep.s", "s"), ("kernels.condenser_sweep.calls", "count"),
    ("kernels.rank_words.s", "s"), ("kernels.rank_words.calls", "count"),
    ("kernels.bases_in", "count"),
    ("subspaces.iter_rref_bases.s", "s"), ("subspaces.bases", "count"),
    ("subspaces.span_points.s", "s"), ("subspaces.span_points.calls", "count"),
    ("verify.directional_bias.self_s", "s"),
    ("verify.affine_extractor_distance.self_s", "s"),
    ("verify.early_exit_ratio", "ratio"), ("verify.bases_used_ratio", "ratio"),
    ("condense.verify_affine_condenser.self_s", "s"),
    ("condense.eval_recursive.s", "s"),
    ("dimexp.certified_alpha.self_s", "s"),
    ("bits.GF2Matrix.mul_vec.s", "s"), ("bits.GF2Matrix.mul_vec.calls", "count"),
    ("injector.verify_injector.self_s", "s"),
    ("daext.daext_core.s", "s"), ("daext.daext_core.self_s", "s"),
    ("daext.daext_core.calls", "count"), ("daext.PipelineParams.from_json.s", "s"),
    ("xprims.ip.s", "s"), ("xprims.affine_srext.s", "s"),
    ("xprims.extract_with_short_seed.s", "s"), ("gf2k.GF2kField.mul.calls", "count"),
    ("cbreak.ldacb.s", "s"), ("snmext.verify_nonmalleability.s", "s"),
    ("lbp.correlation.s", "s"), ("lbp.LinearBP.eval_all.s", "s"),
    ("cli.main.self_s", "s"),
    ("setup.inputs.s", "s"), ("setup.daext_params.s", "s"),
]

MIN_ROUNDS = 2        # every run completes these; the digest covers them
ROUNDS_CAP = 32       # inputs are generated during set-up for this many rounds
SETUP_REPEATS = 5     # fresh-process set-ups behind setup_s
SETUP_TIMEOUT_S = 120
MEMORY_CAP_BYTES = 512 << 20


def load_library():
    """Import gf2lab from the checkout's sources, and the workloads."""
    src = ROOT / "src"
    if not (src / "gf2lab" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "reference.py").is_file():
        sys.stderr.write(f"perfbench: no gf2lab sources under {ROOT}; run from a "
                         "checkout of the repository\n")
        sys.exit(2)
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads  # noqa: PLC0415
    return workloads


@dataclass
class Record:
    job: object
    round: int
    latency: float | None
    result: object = None
    error: str | None = None
    traced: bool = False
    job_id: int = -1
    outcome: object = None


def run_round(wl, jobs, index, records, tracer=None):
    for job in jobs:
        if job.mem_bytes > MEMORY_CAP_BYTES:
            records.append(Record(job, index, None, error=(
                f"refused: estimated {job.mem_bytes} bytes exceeds cap {MEMORY_CAP_BYTES}")))
            continue
        rec = Record(job, index, None, traced=tracer is not None, job_id=len(records))
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rec.result = wl.run(job)
            else:
                with tracer.job(rec.job_id, job.kind):
                    rec.result = wl.run(job)
        except Exception as exc:  # a failed job is counted, not fatal
            rec.error = f"raised {type(exc).__name__}: {exc}"
        rec.latency = time.perf_counter() - t0
        records.append(rec)


def check_records(wl, records) -> None:
    """Outside the timed loop: each job's result by an independent route."""
    for rec in records:
        if rec.error is not None:
            continue
        try:
            rec.outcome = wl.outcome(rec.job, rec.result)
            rec.error = wl.check(rec.job, rec.outcome)
        except Exception as exc:  # a checker crash rejects the result
            rec.error = f"check raised {type(exc).__name__}: {exc}"


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps([rec.job.kind, rec.job.inputs, rec.outcome,
                             rec.error], sort_keys=True).encode())
    return h.hexdigest()


def tail_latency(lat: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 jobs beyond it
    (nearest rank), and that percentile."""
    lat = sorted(lat)
    if len(lat) < 11:
        return lat[-1], 100.0
    rank = len(lat) - 10
    return lat[rank - 1], 100.0 * rank / len(lat)


def fresh_setup_times(args) -> list[float]:
    """Time SETUP_REPEATS set-ups, each in a new interpreter, from spawn
    until the child reports that its first job could start."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"] + (["--toy"] if args.toy else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - t0
                _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {err.strip()}")
        times.append(elapsed)
    return times


def prepare(wmod, name, seed, toy, workdir):
    wl = wmod.WORKLOADS[name](seed=seed, workdir=workdir, toy=toy)
    wl.setup()
    t0 = time.perf_counter()
    rounds = [wl.make_round(i) for i in range(ROUNDS_CAP)]
    wl.setup_times["setup.inputs.s"] = time.perf_counter() - t0
    return wl, rounds


def execute(name, seed, seconds, trace, toy=False):
    """One benchmark run in this process; returns a summary dict."""
    wmod = load_library()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    tracer = None
    try:
        wl, rounds = prepare(wmod, name, seed, toy, workdir)
        own_setup = time.perf_counter() - T_START
        records: list[Record] = []
        warm: list[Record] = []
        if trace:
            import layertrace  # noqa: PLC0415
            tracer = layertrace.Tracer()
            tracer.install()
            # round 0 untraced, then the same jobs traced: the overhead
            t0 = time.perf_counter()
            run_round(wl, rounds[0], 0, warm)
            untraced_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        round_s = []
        while len(round_s) < ROUNDS_CAP and (
                len(round_s) < MIN_ROUNDS or time.perf_counter() - t0 < seconds):
            t1 = time.perf_counter()
            run_round(wl, rounds[len(round_s)], len(round_s), records, tracer)
            round_s.append(time.perf_counter() - t1)
        n_rounds = len(round_s)
        wall = time.perf_counter() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
        check_records(wl, records + warm)
        first = [r for r in records if r.round == 0]
        if warm and [(r.outcome, r.error) for r in warm] != [
                (r.outcome, r.error) for r in first]:
            for r in first:
                r.error = r.error or "traced and untraced results differ"
        summary = {
            "workload": name, "seed": seed, "trace": trace, "rounds": n_rounds,
            "round_s": round_s,
            "round_jobs": len(rounds[0]), "wall": wall, "records": records,
            "peak_rss_mb": peak_rss_mb, "own_setup_s": own_setup,
            "setup_times": wl.setup_times,
            "digest": digest([r for r in records if r.round < MIN_ROUNDS]),
        }
        if warm:
            summary["overhead"] = round_s[0] / untraced_s
            summary["layers"] = layer_metrics(tracer, wl, records, summary)
            tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
        return summary
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(tracer, wl, records, summary) -> dict[str, float]:
    totals = tracer.totals()
    out: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls") and base in totals:
            out[name] = totals[base][("s", "self_s", "calls").index(field)]
        else:
            out[name] = 0
    for name in ("kernels.table_bytes", "kernels.bases_in", "subspaces.bases"):
        out[name] = tracer.counter(name)
    for name, value in summary["setup_times"].items():
        out[name] = value
    jobs = [r for r in records if r.traced]
    job_s = sum(r.latency for r in jobs)
    out["job.s"], out["job.calls"] = job_s, len(jobs)
    out["trace.overhead"] = summary["overhead"]

    sweeps = ("kernels.xor_sweep_m1", "kernels.joint_sweep_m1", "kernels.affine_sweep_m1")
    out["share.sweep_m1"] = sum(totals.get(s, [0])[0] for s in sweeps) / job_s
    low = [0.0, 0.0]  # kernels + subspaces: everywhere, outside from_json
    for name, s, _self_s, _calls, parent in tracer.records():
        if name.startswith(("kernels.", "subspaces.")):
            low[0] += s
            if "daext.PipelineParams.from_json" not in tracer.ancestors(parent):
                low[1] += s
    out["share.kernels_subspaces"] = low[0] / job_s
    out["share.kernels_subspaces_outside_from_json"] = low[1] / job_s

    # directional sweeps: early exits, and bases needed over bases enumerated
    wmod = sys.modules["workloads"]
    sweeps_run = [r for r in jobs if r.job.kind in wmod.MAXIMAL and r.error is None]
    early = used = enumerated = 0
    for r in sweeps_run:
        p = r.job.inputs
        if Fraction(r.outcome["value"]) == wmod.MAXIMAL[r.job.kind]:
            early += 1
            used += r.outcome["witness"]["subspace_index"] + 1
        else:
            used += wmod.gaussian_binomial(p["n"], p["k"])
        enumerated += tracer.job_counter("subspaces.bases", r.job_id)
    out["verify.early_exit_ratio"] = early / len(sweeps_run) if sweeps_run else 0
    out["verify.bases_used_ratio"] = used / enumerated if enumerated else 0
    return out


def environment() -> str:
    import numpy  # noqa: PLC0415
    from gf2lab import _kernels  # noqa: PLC0415
    return (f"backend={_kernels.BACKEND} "
            f"GF2LAB_BACKEND={os.environ.get('GF2LAB_BACKEND', '') or '(unset)'} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"cores={os.cpu_count()} machine={platform.machine()}")


def report(summary) -> tuple[dict, int, int]:
    """Print the human-readable lines; return (metrics, attempted, failed)."""
    records = summary["records"]
    attempted = len(records)
    failed = [r for r in records if r.error is not None]
    ok = [r for r in records if r.error is None]
    print(f"gf2lab perfbench: workload={summary['workload']} seed={summary['seed']} "
          f"trace={summary['trace']}")
    print(f"environment: {environment()}")
    print(f"load: closed loop, 1 client (1 process, 1 thread); {summary['rounds']} "
          f"rounds of {summary['round_jobs']} jobs; {attempted} jobs in "
          f"{summary['wall']:.3f} s of timed wall")
    print("round wall times (s): " + " ".join(f"{t:.3f}" for t in summary["round_s"]))
    for r in failed[:20]:
        print(f"FAILED {r.job.kind} round {r.round} {r.job.uid}: {r.error}")
    print(f"digest: rounds 0-{MIN_ROUNDS - 1} {summary['digest']}")
    error_rate = len(failed) / attempted
    if summary["trace"]:
        layers = summary["layers"]
        for (name, unit) in PER_LAYER:
            print(f"  {name:44s} {layers[name]:.6g} {unit}")
        print(f"tracing overhead: traced round 0 took {summary['overhead']:.3f}x "
              "the untraced run of the same jobs")
        print(f"roles: _kernels.*_sweep_m1 share of job time "
              f"{layers['share.sweep_m1']:.3f}; sweep_m1 calls "
              f"{sum(layers[f'kernels.{k}_sweep_m1.calls'] for k in ('xor', 'joint', 'affine'))}; "
              f"_kernels+subspaces share {layers['share.kernels_subspaces']:.4f}, "
              f"outside PipelineParams.from_json "
              f"{layers['share.kernels_subspaces_outside_from_json']:.4f}")
        print(f"error_rate {error_rate:.6g} ({len(failed)} failed / {attempted} attempted)")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        return metrics, attempted, len(failed)
    lat = [r.latency for r in ok]
    per_round = [sum(r.error is None for r in records if r.round == i) / t
                 for i, t in enumerate(summary["round_s"])]
    values = {"jobs_per_s": statistics.median(per_round),
              "setup_s": statistics.median(summary["setup_s_samples"]),
              "peak_rss_mb": summary["peak_rss_mb"]}
    notes = {"jobs_per_s": f"median over {len(per_round)} rounds of verified jobs / "
                           f"round wall; whole run {len(ok) / summary['wall']:.4g}",
             "setup_s": "median of %d fresh-process set-ups: %s; this process %.3f s" % (
                 len(summary["setup_s_samples"]),
                 " ".join(f"{t:.3f}" for t in summary["setup_s_samples"]),
                 summary["own_setup_s"]),
             "peak_rss_mb": "ru_maxrss at the end of the timed loop"}
    if lat:
        values["job_s_p50"] = statistics.median(lat)
        tail, pct = tail_latency(lat)
        values["job_s_tail"] = tail
        notes["job_s_p50"] = f"n={len(lat)}"
        notes["job_s_tail"] = f"p{pct:.1f}, n={len(lat)}, {min(10, len(lat) - 1)} beyond"
    for name, unit in E2E:
        if name in values:
            print(f"{name:12s} {values[name]:.6g} {unit}  ({notes[name]})")
    print(f"error_rate   {error_rate:.6g}  ({len(failed)} failed / {attempted} attempted)")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in E2E if name in values}
    return metrics, attempted, len(failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("directional", "certify", "pipeline"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny job shapes (self-test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        wmod = load_library()
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            prepare(wmod, args.workload, args.seed, args.toy, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    summary = execute(args.workload, args.seed, args.seconds, args.trace, toy=args.toy)
    if not args.trace:
        summary["setup_s_samples"] = fresh_setup_times(args)
    metrics, attempted, failed = report(summary)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
