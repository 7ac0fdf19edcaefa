"""Command-line entry point wiring every module together.

Verbs: condense, daext, snmext, cbreak, lbp, injector, verify,
campaign.  All randomness flows from --seed; campaign reruns with the
same seed produce byte-identical report trees (volatile fields such as
runtimes are stripped from written reports and printed to the console
instead).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from .affine import AffineSource
from .bits import BitVec
from .cbreak import CBParams
from .condense import (
    SomewhereCondenser,
    expander_family,
    scond,
    sgcond,
    verify_affine_condenser,
)
from .daext import PipelineParams, daext, daext_core, disperser_to_extractor
from .dimexp import DimExpander, search_dimension_expander
from .injector import (
    SumsetInjector,
    sample_injector,
    search_optimal_daext,
    verify_injector,
)
from .lbp import (
    LinearBP,
    baseline_catalog,
    correlation,
    is_strongly_read_once,
    is_weakly_read_once,
    robp_cut,
    srolbp_bound_report,
    subspace_indicator_srolbp,
)
from .snmext import verify_nonmalleability, xor_tamper
from .verify import (
    affine_extractor_distance,
    builtin_function,
    directional_bias,
    disperser_check,
    eps_bias_check,
)

VOLATILE_KEYS = {"runtime_seconds"}


def stable_json(obj) -> str:
    """Deterministic dump with volatile fields removed."""

    def scrub(v):
        if isinstance(v, dict):
            return {k: scrub(w) for k, w in sorted(v.items())
                    if k not in VOLATILE_KEYS}
        if isinstance(v, (list, tuple)):
            return [scrub(w) for w in v]
        if isinstance(v, Fraction):
            return str(v)
        return v

    return json.dumps(scrub(obj), indent=2, sort_keys=True) + "\n"


def _emit(report: dict, args, default_name: str | None = None) -> None:
    text = stable_json(report)
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    elif getattr(args, "json", False):
        sys.stdout.write(text)
    else:
        for k, v in report.items():
            print(f"{k}: {v}")


def _resolve_function(spec: str, n: int):
    kind, _, rest = spec.partition(":")
    if kind == "builtin":
        return builtin_function(rest, n)
    if kind == "file":
        # hex truth-table file: "len:hex" over 2^n entries of one bit
        table = BitVec.from_hex(Path(rest).read_text().strip())
        if table.n != 1 << n:
            raise ValueError("truth table length mismatch")
        return table
    if kind == "pipeline":
        params = PipelineParams.from_json(json.loads(Path(rest).read_text()))
        if params.n != n:
            raise ValueError("pipeline input width mismatch")

        def f(x: int) -> int:
            return daext(BitVec(params.n, x), params).value

        return f
    raise ValueError(f"unknown function spec {spec!r}")


# -- verb implementations ----------------------------------------------


def cmd_condense(args) -> int:
    if args.action == "expander":
        exp = search_dimension_expander(
            args.n, args.d, Fraction(args.alpha), seed=args.seed,
            sampled_trials=args.sampled_trials,
        )
        Path(args.out).write_text(exp.to_text())
        print(f"wrote {args.out} (alpha={exp.alpha}, cert={exp.certificate})")
        return 0
    if args.action == "build":
        expanders = [DimExpander.from_text(Path(p).read_text())
                     for p in args.expander]
        fam = expander_family(expanders)
        build = scond if args.kind == "affine" else sgcond
        cond = build(fam, args.n, Fraction(args.delta))
        Path(args.out).write_text(cond.to_text())
        print(f"wrote {args.out} ({cond.rows} rows of {cond.m_out} bits)")
        return 0
    if args.action == "verify":
        cond = SomewhereCondenser.from_text(Path(args.condenser).read_text())
        mode = "sampled" if args.samples else "exhaustive"
        rep = verify_affine_condenser(
            cond, args.k, Fraction(args.gamma), mode=mode,
            samples=args.samples, rng=random.Random(args.seed),
            budget=args.budget,
        )
        print(f"runtime: {rep.runtime_seconds:.2f}s", file=sys.stderr)
        _emit(rep.to_json(), args)
        return 0 if rep.passed else 1
    raise ValueError(args.action)


def cmd_daext(args) -> int:
    if args.action == "params":
        p = PipelineParams.build(
            args.n, Fraction(args.delta), mode=args.mode,
            expander_seed=args.seed, t_override=args.t_override,
        )
        _emit(p.to_json(), args)
        return 0
    if args.action == "run":
        p = PipelineParams.from_json(json.loads(Path(args.params).read_text()))
        x = BitVec.from_hex(args.input)
        z, trace = daext_core(x, p)
        out = disperser_to_extractor(z, p.g_code, p.beta_prime)
        rep = {"input": x.to_hex(), "z": z.to_hex(), "output": out.to_hex()}
        if args.trace:
            rep_trace = {
                "sc_rows": [r.to_hex() for r in trace.sc_rows],
                "blocks": [
                    {
                        "r": b.r.to_hex(),
                        "u": b.u.to_hex(),
                        "h": b.h.to_hex(),
                        "u_tilde": b.u_tilde.to_hex(),
                        "sn_rows": [r.to_hex() for r in b.sn_rows],
                        "y_tilde": b.y_tilde.to_hex(),
                        "w": b.w.to_hex(),
                        "v": b.v_bits.to_hex(),
                    }
                    for b in trace.blocks
                ],
            }
            Path(args.trace).write_text(stable_json(rep_trace))
        _emit(rep, args)
        return 0
    raise ValueError(args.action)


def cmd_snmext(args) -> int:
    shift = int(args.shift, 16)
    rep = verify_nonmalleability(
        args.n, args.ksrc, xor_tamper(shift), args.m,
    )
    _emit(rep.to_json(), args)
    return 0


def cmd_cbreak(args) -> int:
    if args.config:
        p = CBParams.from_json(json.loads(Path(args.config).read_text()))
    else:
        p = CBParams.toy(n=args.n, d=args.d, t=args.t, a=args.a,
                         eps_budget=args.eps)
    # a CBParams that fails a hard check raises when built, so every
    # failure listed here is a soft one
    for c in p.checks():
        status = "ok" if c.ok else "soft fail"
        print(f"{c.name:28s} {status:10s} {c.detail}")
    if getattr(args, "out", None) or args.json:
        _emit(p.to_json(), args)
    return 0


def cmd_lbp(args) -> int:
    if args.action == "separation-demo":
        rng = random.Random(args.seed)
        src = AffineSource.random(args.n, args.k, rng)
        prog = subspace_indicator_srolbp(src.basis, src.shift)
        ok, _ = is_strongly_read_once(prog)
        table = prog.eval_all()
        worst = Fraction(0)
        worst_name = ""
        for name, base in baseline_catalog(args.n, seed=args.seed):
            agree = correlation(base, table)
            gap = abs(agree - Fraction(1, 2))
            if gap > worst:
                worst, worst_name = gap, name
        trivial = Fraction(1, 2) - Fraction(1, 1 << (args.n - args.k))
        rep = {
            "n": args.n,
            "k": args.k,
            "srolbp_size": prog.size,
            "strongly_read_once": ok,
            "worst_catalog_correlation": str(worst),
            "worst_catalog_member": worst_name,
            "trivial_constant_correlation": str(trivial),
            "beats_trivial": bool(worst > trivial),
            "note": "the exponential ROBP lower bound is demonstrated "
                    "against the catalog, not re-proved",
        }
        _emit(rep, args)
        return 0
    prog = LinearBP.from_json(json.loads(Path(args.program).read_text()))
    if args.action == "eval":
        x = BitVec.from_hex(args.input)
        print(prog.eval(x))
        return 0
    if args.action == "validate":
        prog.validate()
        strong, sw = is_strongly_read_once(prog)
        weak, ww = is_weakly_read_once(prog)
        rep = {
            "size": prog.size,
            "strongly_read_once": strong,
            "weakly_read_once": weak,
        }
        if sw:
            rep["strong_witness"] = {"node": sw[0], "vector": sw[1].to_hex()}
        if ww:
            rep["weak_witness"] = {"node": ww[0], "vector": ww[1].to_hex()}
        _emit(rep, args)
        return 0
    if args.action == "correlate":
        f = _resolve_function(args.f, prog.n)
        if args.samples:
            est, radius = correlation(prog, f, mode="sample",
                                      samples=args.samples, seed=args.seed)
            rep = {"agreement": str(est), "radius": radius,
                   "confidence": 0.99}
        else:
            rep = {"agreement": str(correlation(prog, f))}
        _emit(rep, args)
        return 0
    if args.action == "cut":
        events = robp_cut(prog, args.d)
        rep = {
            "d": args.d,
            "events": [
                {
                    "node": e.node,
                    "read_vars": sorted(e.read_vars),
                    "free_vars": sorted(e.free_vars),
                    "probability": str(e.probability),
                }
                for e in events
            ],
            "total_probability": str(sum(e.probability for e in events)),
        }
        _emit(rep, args)
        return 0
    raise ValueError(args.action)


def cmd_injector(args) -> int:
    if args.action == "sample":
        inj = sample_injector(args.n, args.k1, args.k2, args.d, args.m,
                              args.seed)
        Path(args.out).write_text(inj.to_text())
        print(f"wrote {args.out}")
        return 0
    if args.action == "verify":
        inj = SumsetInjector.from_text(Path(args.injector).read_text())
        ok, witness = verify_injector(inj)
        rep = {"certified": ok}
        if witness:
            rep["witness_u"] = witness[0].to_text()
            rep["witness_v"] = witness[1].to_text()
        _emit(rep, args)
        return 0 if ok else 1
    if args.action == "search":
        res = search_optimal_daext(args.n, args.k, Fraction(args.eps),
                                   seed=args.seed, budget=args.budget_candidates)
        rep = {
            "bias": str(res.bias),
            "candidates_tried": res.candidates_tried,
            "reached_target": res.reached_target,
            "srolbp_figures": srolbp_bound_report(args.n, args.k, res.bias),
        }
        if args.function_out:
            Path(args.function_out).write_text(res.function.to_text())
            rep["function_file"] = args.function_out
        _emit(rep, args)
        return 0
    raise ValueError(args.action)


def cmd_verify(args) -> int:
    f = _resolve_function(args.f, args.n)
    if args.property == "directional":
        rep = directional_bias(
            f, args.n, args.k, definition=args.definition, m=args.m,
            mode="sample" if args.samples else "exhaustive",
            samples=args.samples, seed=args.seed,
            cross_check=args.cross_check, budget=args.budget,
        )
    elif args.property == "affine":
        rep = affine_extractor_distance(
            f, args.n, args.k, m=args.m, cross_check=args.cross_check,
            budget=args.budget,
        )
    elif args.property == "disperser":
        rep = disperser_check(f, args.n, args.k, m=args.m, budget=args.budget)
    elif args.property == "epsbias":
        rep = eps_bias_check(f, args.n, args.m, budget=args.budget)
    else:
        raise ValueError(args.property)
    print(f"runtime: {rep.runtime_seconds:.2f}s", file=sys.stderr)
    _emit(rep.to_json(), args)
    return 0 if rep.passed in (True, None) else 1


def cmd_campaign(args) -> int:
    spec = json.loads(Path(args.file).read_text())
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = spec.get("seed", args.seed)
    failures = []
    for i, step in enumerate(spec.get("steps", [])):
        if "argv" in step:
            argv = [str(t) for t in step["argv"]]
            verb = argv[0]
        else:
            verb = step["verb"]
            step_args = dict(step.get("args", {}))
            argv = [verb] + [str(p) for p in step.get("positional", [])]
            for k, v in step_args.items():
                if isinstance(v, bool):
                    if v:
                        argv.append(f"--{k}")
                else:
                    argv.extend((f"--{k}", str(v)))
        name = f"step_{i:03d}_{verb.replace(' ', '_')}.json"
        argv += ["--seed", str(seed), "--out", str(outdir / name)]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse refused the step's argv
            rc = exc.code
        except Exception as exc:  # collected, not swallowed
            failures.append({"step": i, "verb": verb, "error": str(exc)})
            continue
        if rc != 0:
            failures.append({"step": i, "verb": verb, "error": f"exit {rc}"})
    summary = {"steps": len(spec.get("steps", [])), "failures": failures,
               "seed": seed}
    (outdir / "summary.json").write_text(stable_json(summary))
    print(f"campaign: {summary['steps']} steps, {len(failures)} failures")
    return 1 if failures else 0


# -- argument wiring ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget", type=int, default=1 << 31)
    common.add_argument("--json", action="store_true",
                        help="print reports as JSON")

    top = argparse.ArgumentParser(prog="gf2lab")
    sub = top.add_subparsers(dest="verb", required=True)

    def leaf(group, name):
        return group.add_parser(name, parents=[common])

    c = sub.add_parser("condense")
    cs = c.add_subparsers(dest="action", required=True)
    ce = leaf(cs, "expander")
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--d", type=int, default=3)
    ce.add_argument("--alpha", default="1/4")
    ce.add_argument("--sampled-trials", type=int, default=None)
    ce.add_argument("--out", required=True)
    cb = leaf(cs, "build")
    cb.add_argument("--kind", choices=("affine", "general"), default="affine")
    cb.add_argument("--n", type=int, required=True)
    cb.add_argument("--delta", default="1/2")
    cb.add_argument("--expander", nargs="+", required=True)
    cb.add_argument("--out", required=True)
    cv = leaf(cs, "verify")
    cv.add_argument("--condenser", required=True)
    cv.add_argument("--k", type=int, required=True)
    cv.add_argument("--gamma", required=True)
    cv.add_argument("--samples", type=int, default=0)
    cv.add_argument("--out")

    d = sub.add_parser("daext")
    ds = d.add_subparsers(dest="action", required=True)
    dp = leaf(ds, "params")
    dp.add_argument("--n", type=int, required=True)
    dp.add_argument("--delta", default="1")
    dp.add_argument("--mode", choices=("structural", "statistical"),
                    default="structural")
    dp.add_argument("--t-override", type=int, default=None)
    dp.add_argument("--out")
    dr = leaf(ds, "run")
    dr.add_argument("--params", required=True)
    dr.add_argument("--input", required=True)
    dr.add_argument("--trace")
    dr.add_argument("--out")

    s = sub.add_parser("snmext")
    ss = s.add_subparsers(dest="action", required=True)
    sv = leaf(ss, "verify")
    sv.add_argument("--n", type=int, required=True)
    sv.add_argument("--ksrc", type=int, required=True)
    sv.add_argument("--shift", required=True)
    sv.add_argument("--m", type=int, default=1)
    sv.add_argument("--out")

    cb2 = sub.add_parser("cbreak")
    cbs = cb2.add_subparsers(dest="action", required=True)
    cbv = leaf(cbs, "validate")
    cbv.add_argument("--config")
    cbv.add_argument("--n", type=int, default=8)
    cbv.add_argument("--d", type=int, default=12)
    cbv.add_argument("--t", type=int, default=1)
    cbv.add_argument("--a", type=int, default=1)
    cbv.add_argument("--eps", type=float, default=None)
    cbv.add_argument("--out")

    l = sub.add_parser("lbp")
    ls = l.add_subparsers(dest="action", required=True)
    for act in ("eval", "validate", "correlate", "cut"):
        lp = leaf(ls, act)
        lp.add_argument("--program", required=True)
        if act == "eval":
            lp.add_argument("--input", required=True)
        if act == "correlate":
            lp.add_argument("--f", required=True)
            lp.add_argument("--samples", type=int, default=0)
        if act == "cut":
            lp.add_argument("--d", type=int, required=True)
        lp.add_argument("--out")
    ld = leaf(ls, "separation-demo")
    ld.add_argument("--n", type=int, default=16)
    ld.add_argument("--k", type=int, default=8)
    ld.add_argument("--out")

    i = sub.add_parser("injector")
    isub = i.add_subparsers(dest="action", required=True)
    ismp = leaf(isub, "sample")
    for flag in ("n", "k1", "k2", "d", "m"):
        ismp.add_argument(f"--{flag}", type=int, required=True)
    ismp.add_argument("--out", required=True)
    iv = leaf(isub, "verify")
    iv.add_argument("--injector", required=True)
    iv.add_argument("--out")
    ise = leaf(isub, "search")
    ise.add_argument("--n", type=int, required=True)
    ise.add_argument("--k", type=int, required=True)
    ise.add_argument("--eps", default="1/4")
    ise.add_argument("--budget-candidates", type=int, default=16)
    ise.add_argument("--function-out", help="write the best function here")
    ise.add_argument("--out")

    v = sub.add_parser("verify", parents=[common])
    v.add_argument("property",
                   choices=("directional", "affine", "disperser", "epsbias"))
    v.add_argument("--f", required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--k", type=int, default=1)
    v.add_argument("--m", type=int, default=1)
    v.add_argument("--definition", choices=("xor_bias", "joint"),
                   default="xor_bias")
    v.add_argument("--samples", type=int, default=0)
    v.add_argument("--cross-check", action="store_true")
    v.add_argument("--out")

    g = sub.add_parser("campaign")
    gs = g.add_subparsers(dest="action", required=True)
    gr = leaf(gs, "run")
    gr.add_argument("--file", required=True)
    gr.add_argument("--out", required=True)

    return top


DISPATCH = {
    "condense": cmd_condense,
    "daext": cmd_daext,
    "snmext": cmd_snmext,
    "cbreak": cmd_cbreak,
    "lbp": cmd_lbp,
    "injector": cmd_injector,
    "verify": cmd_verify,
    "campaign": cmd_campaign,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return DISPATCH[args.verb](args)


if __name__ == "__main__":
    sys.exit(main())
