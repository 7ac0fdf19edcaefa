"""Layer tracing from outside the library.

The tracer replaces selected gf2lab functions, at the module attribute
each caller looks them up through, with timing wrappers.  Nothing in
`src/` changes; `uninstall()` puts the originals back.

Two kinds of record:

- a *span* (name, start, end, parent span, job id, self time) for
  functions called a handful of times per job;
- an *aggregate* (total time, self time, call count) per (function,
  enclosing span) for functions called thousands of times per job,
  where one record per call would cost more than the call.

Self time is a call's duration minus the time of the traced calls made
directly inside it.  Every record hangs off the span that encloses it,
so a record can be attributed to any ancestor (for example "inside
PipelineParams.from_json").  Recording happens only inside `job()`.
"""
from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

SPAN, AGG, GEN = "span", "agg", "gen"

# (metric name, record kind, binding sites).  A binding site is
# (module, attribute) for a function a module looks up by name, or
# (module, "Class.method") for a method.  Each caller module binds its
# own name, so a function used from two modules is patched twice.
TRACED = [
    ("kernels.xor_sweep_m1", SPAN, [("gf2lab._kernels", "xor_sweep_m1")]),
    ("kernels.joint_sweep_m1", SPAN, [("gf2lab._kernels", "joint_sweep_m1")]),
    ("kernels.affine_sweep_m1", SPAN, [("gf2lab._kernels", "affine_sweep_m1")]),
    ("kernels.condenser_sweep", SPAN, [("gf2lab.condense", "condenser_sweep")]),
    ("kernels.rank_words", AGG, [("gf2lab.dimexp", "rank_words")]),
    ("subspaces.iter_rref_bases", GEN, [("gf2lab.subspaces", "iter_rref_bases"),
                                        ("gf2lab.verify", "iter_rref_bases"),
                                        ("gf2lab.injector", "iter_rref_bases")]),
    ("subspaces.span_points", AGG, [("gf2lab.injector", "span_points"),
                                    ("gf2lab.verify", "span_points")]),
    ("verify.directional_bias", SPAN, [("gf2lab.verify", "directional_bias")]),
    ("verify.affine_extractor_distance", SPAN,
     [("gf2lab.verify", "affine_extractor_distance")]),
    ("condense.verify_affine_condenser", SPAN,
     [("gf2lab.condense", "verify_affine_condenser")]),
    ("condense.eval_recursive", SPAN, [("gf2lab.daext", "eval_recursive")]),
    ("dimexp.certified_alpha", SPAN, [("gf2lab.dimexp", "certified_alpha")]),
    ("bits.GF2Matrix.mul_vec", AGG, [("gf2lab.bits", "GF2Matrix.mul_vec")]),
    ("injector.verify_injector", SPAN, [("gf2lab.injector", "verify_injector"),
                                        ("gf2lab.cli", "verify_injector")]),
    ("daext.daext_core", SPAN, [("gf2lab.daext", "daext_core"),
                                ("gf2lab.cli", "daext_core")]),
    ("daext.PipelineParams.from_json", SPAN,
     [("gf2lab.daext", "PipelineParams.from_json")]),
    ("xprims.ip", AGG, [("gf2lab.daext", "ip")]),
    ("xprims.affine_srext", SPAN, [("gf2lab.daext", "affine_srext")]),
    ("xprims.extract_with_short_seed", AGG,
     [("gf2lab.daext", "extract_with_short_seed"),
      ("gf2lab.cbreak", "extract_with_short_seed")]),
    ("gf2k.GF2kField.mul", AGG, [("gf2lab.gf2k", "GF2kField.mul")]),
    ("cbreak.ldacb", AGG, [("gf2lab.daext", "ldacb")]),
    ("snmext.verify_nonmalleability", SPAN,
     [("gf2lab.cli", "verify_nonmalleability")]),
    ("lbp.correlation", SPAN, [("gf2lab.cli", "correlation")]),
    ("lbp.LinearBP.eval_all", SPAN, [("gf2lab.lbp", "LinearBP.eval_all")]),
    ("cli.main", SPAN, [("gf2lab.cli", "main")]),
]


def _sweep_counts(tracer: "Tracer", name: str, args) -> None:
    """Counters read from the arguments of a sweep kernel call."""
    if name == "kernels.condenser_sweep":
        tracer.count("kernels.bases_in", len(args[0]))
        return
    _fw, n, bases = args[0], args[1], args[2]
    tracer.count("kernels.bases_in", len(bases))
    if name != "kernels.affine_sweep_m1":
        # the direction table: 2^n rows of 2^n bits
        tracer.count("kernels.table_bytes", (1 << (2 * n)) // 8)


COUNTERS = {
    "kernels.xor_sweep_m1": _sweep_counts,
    "kernels.joint_sweep_m1": _sweep_counts,
    "kernels.affine_sweep_m1": _sweep_counts,
    "kernels.condenser_sweep": _sweep_counts,
}


class Tracer:
    """Spans and aggregates for the calls made inside `job()`."""

    def __init__(self) -> None:
        self.active = False
        self.job_id = -1
        self.current = -1      # id of the innermost open span
        self.stack: list[list[float]] = []   # child time of each open frame
        self.spans: list[tuple | None] = []  # (name, start, end, parent, job, self_s)
        self.agg: dict[tuple[str, int], list] = {}  # (name, span) -> [s, self_s, calls]
        self.counts: dict[tuple[str, int], int] = {}  # (name, job) -> count
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _enter(self, kept: bool):
        frame = [0.0]
        self.stack.append(frame)
        parent = self.current
        sid = -1
        if kept:
            sid = len(self.spans)
            self.spans.append(None)
            self.current = sid
        return frame, parent, sid, perf_counter()

    def _exit(self, name: str, frame, parent: int, sid: int, t0: float) -> None:
        t1 = perf_counter()
        dur = t1 - t0
        self.stack.pop()
        self.stack[-1][0] += dur
        self_s = dur - frame[0]
        if sid >= 0:
            self.current = parent
            self.spans[sid] = (name, t0, t1, parent, self.job_id, self_s)
        else:
            rec = self.agg.get((name, parent))
            if rec is None:
                rec = self.agg[(name, parent)] = [0.0, 0.0, 0]
            rec[0] += dur
            rec[1] += self_s
            rec[2] += 1

    def count(self, name: str, amount: int) -> None:
        key = (name, self.job_id)
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextmanager
    def job(self, job_id: int, kind: str):
        """Record everything called inside as children of one job span."""
        self.job_id = job_id
        self.active = True
        self.stack.append([0.0])  # root frame: collects the job's children
        frame, parent, sid, t0 = self._enter(True)
        try:
            yield
        finally:
            self._exit("job." + kind, frame, parent, sid, t0)
            self.stack.pop()
            self.active = False

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, name: str, kind: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        if kind == GEN:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if not tracer.active:
                    return it

                def timed():
                    while tracer.active:
                        state = tracer._enter(False)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(name, *state)
                        tracer.count("subspaces.bases", 1)
                        yield item
                    yield from it

                return timed()

            return gen_wrapper

        kept = kind == SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, name, args)
            state = tracer._enter(kept)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, *state)

        return wrapper

    def install(self) -> None:
        """Patch every binding site in TRACED."""
        for name, kind, sites in TRACED:
            wrapped: dict[int, object] = {}
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                owner, _, method = attr.rpartition(".")
                target = getattr(module, owner) if owner else module
                raw = (target.__dict__[method] if owner
                       else getattr(module, method))
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                # one wrapper per original, so bindings of one function agree
                w = wrapped.get(id(fn))
                if w is None:
                    w = wrapped[id(fn)] = self._wrap(name, kind, fn)
                self._restore.append((target, method, raw))
                setattr(target, method, classmethod(w) if is_cm else w)

    def uninstall(self) -> None:
        for target, attr, raw in reversed(self._restore):
            setattr(target, attr, raw)
        self._restore.clear()

    # -- summaries -------------------------------------------------------
    def ancestors(self, sid: int):
        while sid >= 0:
            rec = self.spans[sid]
            yield rec[0]
            sid = rec[3]

    def records(self):
        """(name, total_s, self_s, calls, enclosing span id) for every
        span and aggregate."""
        for sid, (name, t0, t1, parent, _job, self_s) in enumerate(self.spans):
            yield name, t1 - t0, self_s, 1, parent
        for (name, parent), (s, self_s, calls) in self.agg.items():
            yield name, s, self_s, calls, parent

    def totals(self) -> dict[str, list]:
        """name -> [total_s, self_s, calls], summed over the run."""
        out: dict[str, list] = {}
        for name, s, self_s, calls, _parent in self.records():
            rec = out.setdefault(name, [0.0, 0.0, 0])
            rec[0] += s
            rec[1] += self_s
            rec[2] += calls
        return out

    def counter(self, name: str) -> int:
        return sum(v for (n, _j), v in self.counts.items() if n == name)

    def job_counter(self, name: str, job_id: int) -> int:
        return self.counts.get((name, job_id), 0)

    def dump(self, path) -> None:
        """Write every span and aggregate as JSON."""
        data = {
            "spans": [
                {"id": i, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "job": s[4], "self_s": s[5]}
                for i, s in enumerate(self.spans)
            ],
            "aggregates": [
                {"name": name, "parent": parent, "s": s, "self_s": self_s,
                 "calls": calls}
                for (name, parent), (s, self_s, calls) in self.agg.items()
            ],
            "counts": [
                {"name": name, "job": job, "count": v}
                for (name, job), v in self.counts.items()
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
