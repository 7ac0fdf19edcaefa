"""The benchmark's three workloads.

A workload is a list of rounds; a round is a fixed mix of jobs whose
inputs come from the seed.  Every job goes through gf2lab's public API
(the CLI for `pipeline`), has a memory estimate that is checked before
it runs, and is checked afterwards by a route that does not share its
code path.

Job shapes and why they were chosen are in README.md next to this file.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

from gf2lab import _kernels, cli, condense, dimexp, injector, verify
from gf2lab.affine import AffineSource
from gf2lab.bits import BitVec, GF2Matrix
from gf2lab.condense import SWEEP_CHUNK as CONDENSER_CHUNK, SomewhereCondenser, basic_cond
from gf2lab.daext import PipelineParams
from gf2lab.dimexp import Certificate, DimExpander
from gf2lab.gf2k import GF2kField
from gf2lab.lbp import baseline_catalog
from gf2lab.snmext import default_source, seed_bits
from gf2lab.subspaces import gaussian_binomial, iter_rref_bases
from gf2lab.verify import SWEEP_CHUNK as DIRECTIONAL_CHUNK

ROOT = Path(__file__).resolve().parent.parent

# Bytes per basis held in a sweep chunk: the tuple (40), one Python
# int and its slot per row (36), and the uint64 copy handed to the
# kernel (8).
TUPLE_BYTES, ROW_BYTES = 40, 44


def chunk_bytes(n_bases: int, k: int) -> int:
    return n_bases * (TUPLE_BYTES + ROW_BYTES * k)


@dataclass
class Job:
    kind: str
    inputs: dict       # JSON description of the input; part of the digest
    mem_bytes: int     # estimated peak allocation, job and check together
    data: object = None
    uid: str = ""


@dataclass
class Workload:
    seed: int
    workdir: Path
    toy: bool = False
    setup_times: dict = field(default_factory=dict)

    def setup(self) -> None:
        """Build whatever every round shares (params files, tables)."""

    def make_round(self, index: int) -> list[Job]:
        raise NotImplementedError

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")

    def outcome(self, job: Job, result) -> dict:
        """The job's exact result in canonical form (for the digest)."""
        return result


# -- directional ----------------------------------------------------------

# Maximal value of each statistic: a sweep that reaches it exits early.
MAXIMAL = {"xor_bias": Fraction(1), "joint": Fraction(1, 2),
           "affine": Fraction(1, 2)}

# Early-exit jobs: (definition, function, k) at n = exit_n.  Affine
# sweeps exit only on a coset where f is constant, so they use ip
# (constant on the first subspace) and random tables at k = 3.  The
# mix is fixed so that every run has the same composition; the seed
# draws the random tables.
EXIT_MIX = [
    ("xor_bias", "random", 3), ("xor_bias", "random", 4),
    ("joint", "random", 3), ("joint", "random", 4),
    ("xor_bias", "ip", 4), ("xor_bias", "ip", 5),
    ("joint", "ip", 3), ("joint", "ip", 4),
    ("xor_bias", "parity", 3), ("xor_bias", "parity", 5),
    ("joint", "parity", 4), ("joint", "parity", 5),
    ("affine", "ip", 3), ("affine", "ip", 4),
    ("affine", "random", 3), ("affine", "random", 3),
]
EXIT_MIX_TOY = [(d, f, 2 + i % 2) for i, (d, f, _) in enumerate(EXIT_MIX)]


def directional_bytes(definition: str, n: int, k: int) -> int:
    """Direction table (2^(2n)/8) on the kernel path, the reference
    oracle's byte table (2^(2n), twice for xor's XOR copy) in the check,
    and one chunk of bases."""
    if definition == "affine":
        kernel = reference = 1 << n
    else:
        kernel = (1 << (2 * n)) // 8
        reference = (2 if definition == "xor_bias" else 1) << (2 * n)
    bases = chunk_bytes(min(DIRECTIONAL_CHUNK, gaussian_binomial(n, k)), k)
    return max(kernel, reference) + bases


def _table_hex(table: list[int]) -> str:
    return "%x" % sum(b << i for i, b in enumerate(table))


@dataclass
class Directional(Workload):
    name = "directional"

    def setup(self) -> None:
        self.scan = (5, 3) if self.toy else (8, 6)
        self.exit_n = 5 if self.toy else 8
        self.mix = EXIT_MIX_TOY if self.toy else EXIT_MIX
        self.fixed = {
            name: [verify.builtin_function(name, self.exit_n)(x) & 1
                   for x in range(1 << self.exit_n)]
            for name in ("ip", "parity")
        }

    def _job(self, definition, n, k, with_shifts, fname, rng) -> Job:
        if fname == "random":
            table = [rng.getrandbits(1) for _ in range(1 << n)]
        else:
            table = self.fixed[fname]
        inputs = {"definition": definition, "n": n, "k": k,
                  "with_shifts": with_shifts, "f": fname,
                  "table": _table_hex(table)}
        return Job(definition, inputs, directional_bytes(definition, n, k), table)

    def make_round(self, index: int) -> list[Job]:
        rng = self.rng(index)
        n, k = self.scan
        # Full scans: xor and joint over linear subspaces, affine over
        # cosets.  The joint scan is the slowest job and there is one per
        # round, so in a run of 4 to 10 rounds the 11th-slowest job (the
        # tail) is an xor scan.
        jobs = [self._job("joint", n, k, False, "random", rng)]
        for _ in range(2):
            jobs.append(self._job("xor_bias", n, k, False, "random", rng))
            jobs.append(self._job("affine", n, k, True, "random", rng))
        for definition, fname, k in self.mix:
            jobs.append(self._job(definition, self.exit_n, k, True, fname, rng))
        rng.shuffle(jobs)
        return jobs

    def run(self, job: Job) -> dict:
        p = job.inputs
        if p["definition"] == "affine":
            rep = verify.affine_extractor_distance(
                job.data, p["n"], p["k"], with_shifts=p["with_shifts"])
        else:
            rep = verify.directional_bias(
                job.data, p["n"], p["k"], definition=p["definition"],
                with_shifts=p["with_shifts"])
        return {"value": rep.value, "witness": rep.witness}

    def check(self, job: Job, out: dict) -> str | None:
        """Agreement with the numpy gather brute-forcer, then the
        witness re-evaluated at its one point."""
        p = job.inputs
        table, n, k, ws = job.data, p["n"], p["k"], p["with_shifts"]
        w = out["witness"]
        value = Fraction(out["value"])
        if p["definition"] == "affine":
            num, si, shift, _ = verify._reference_sweep_m1("affine", table, n, k, ws)
            ref = {"value": str(Fraction(num, 2 << k)), "subspace_index": si,
                   "shift": BitVec(n, shift).to_hex()}
        else:
            rep = verify.directional_bias(table, n, k, definition=p["definition"],
                                          with_shifts=ws, reference=True)
            ref = dict(rep.witness)
        got = {key: w.get(key) for key in ref}
        if got != ref:
            return f"reference brute-forcer disagrees: {got} != {ref}"
        if w.get("value") != out["value"]:
            return "witness value differs from the reported value"
        rows = GF2Matrix.from_text(w["basis"]).rows
        shift = BitVec.from_hex(w["shift"]).value
        if p["definition"] == "affine":
            at = verify.affine_distance_at(table, rows, shift)
        else:
            a = BitVec.from_hex(w["direction"]).value
            point = (verify.xor_bias_at if p["definition"] == "xor_bias"
                     else verify.joint_distance_at)
            at = point(table, rows, shift, a)
        if at != value:
            return f"witness re-evaluates to {at}, report says {value}"
        return None


# -- certify ----------------------------------------------------------------

def _random_expander(n: int, rng: random.Random) -> DimExpander:
    maps = tuple(GF2Matrix.random_invertible(n, rng) for _ in range(3))
    return DimExpander(n, maps, dimexp.certified_alpha(maps, n),
                       Certificate("exhaustive", n))


def _image_rank(maps, rows, width: int) -> int:
    """Rank of the pooled images, by GF2Matrix elimination (not the kernels)."""
    return GF2Matrix(tuple(m.mul_vec(r) for m in maps for r in rows), width).rank()


@dataclass
class Certify(Workload):
    name = "certify"

    def setup(self) -> None:
        if self.toy:
            self.cond_n, self.cond_ks, self.alpha_n = 4, (2,), 4
            self.inj_pass, self.inj_fail = (4, 2, 2, 4, 12), ((4, 2, 2, 2, 4),) * 2
        else:
            self.cond_n, self.cond_ks, self.alpha_n = 8, (5, 2, 2, 2), 6
            # (5,2,2,4,24) certified on every one of 40 sampled seeds;
            # d = 3 < dim(U+V) makes every family fail on its first
            # qualifying pair.
            self.inj_pass = (5, 2, 2, 4, 24)
            self.inj_fail = ((5, 2, 2, 3, 8), (6, 2, 2, 3, 8))

    def make_round(self, index: int) -> list[Job]:
        rng = self.rng(index)
        # One k=5 condenser, the slowest job, per round: in a run of 3 to
        # 10 rounds the 11th-slowest job (the tail) is a certifying
        # injector, and the median is an alpha job.
        jobs = []
        n = self.cond_n
        for k in self.cond_ks:
            cond = basic_cond(_random_expander(n // 2, rng), n)
            bases = chunk_bytes(min(CONDENSER_CHUNK, gaussian_binomial(n, k)), k)
            jobs.append(Job("condenser", {"n": n, "k": k, "gamma": "1/2",
                                          "condenser": cond.to_text()},
                            bases, cond))
        shapes = [self.inj_pass] * 12 + list(self.inj_fail) * 3
        for shape in shapes:
            inj = injector.sample_injector(*shape, seed=rng.getrandbits(31))
            n_i, k1 = shape[0], shape[1]
            mem = chunk_bytes(gaussian_binomial(n_i, k1), k1) + (36 << n_i)
            jobs.append(Job("injector", {"shape": list(shape),
                                         "injector": inj.to_text()}, mem, inj))
        for _ in range(18):
            na = self.alpha_n
            maps = tuple(GF2Matrix.random(na, na, rng) for _ in range(3))
            jobs.append(Job("alpha", {"n": na, "maps": [m.to_text() for m in maps]},
                            chunk_bytes(1, na // 2), maps))
        rng.shuffle(jobs)
        return jobs

    def run(self, job: Job) -> dict:
        p = job.inputs
        if job.kind == "condenser":
            rep = condense.verify_affine_condenser(job.data, p["k"], Fraction(p["gamma"]))
            keep = ("subspaces_checked", "min_best_rank", "failures", "passed",
                    "threshold", "witness_basis")
            return {key: getattr(rep, key) for key in keep}
        if job.kind == "injector":
            ok, witness = injector.verify_injector(job.data)
            out = {"certified": ok}
            if witness:
                out["witness_u"] = witness[0].to_text()
                out["witness_v"] = witness[1].to_text()
            return out
        return {"alpha": str(dimexp.certified_alpha(job.data, p["n"]))}

    def check(self, job: Job, out: dict) -> str | None:
        return getattr(self, "_check_" + job.kind)(job, out)

    def _check_condenser(self, job: Job, out: dict) -> str | None:
        cond: SomewhereCondenser = job.data
        n, k = cond.n_in, job.inputs["k"]
        if out["subspaces_checked"] != gaussian_binomial(n, k):
            return f"checked {out['subspaces_checked']} subspaces, not all"
        w = GF2Matrix.from_text(out["witness_basis"])
        if w.nrows != k or w.rank() != k:
            return "witness is not a k-dimensional basis"
        best = max(_image_rank((m,), w.rows, cond.m_out) for m in cond.row_maps)
        if best != out["min_best_rank"]:
            return f"best row rank at the witness is {best}, not {out['min_best_rank']}"
        if out["passed"] != (out["failures"] == 0 and best >= out["threshold"]):
            return "pass verdict inconsistent with rank and failures"
        return None

    def _check_alpha(self, job: Job, out: dict) -> str | None:
        """alpha holds everywhere, and some subspace attains it: ratios
        of dims <= n/2 differ by more than 1/n^2."""
        maps, n = job.data, job.inputs["n"]
        alpha = Fraction(out["alpha"])
        ok, _ = dimexp.verify_dimension_expander(maps, alpha, n)
        if not ok:
            return f"alpha {alpha} is violated"
        ok, w = dimexp.verify_dimension_expander(maps, alpha + Fraction(1, n * n), n)
        if ok:
            return f"alpha {alpha} is not attained"
        if Fraction(_image_rank(maps, w.rows, n), w.nrows) != 1 + alpha:
            return "the attaining subspace does not have ratio 1 + alpha"
        return None

    def _check_injector(self, job: Job, out: dict) -> str | None:
        """The injector holds iff every W of dim k1+k2 or k1+k2-1 (each
        arises as U+V of a qualifying pair) meets some matrix's kernel
        only in 0: a condenser sweep with threshold dim W."""
        inj = job.data
        map_cols = np.array([a.transpose().rows for a in inj.matrices], dtype=np.uint64)
        holds = True
        for dim in (inj.k1 + inj.k2 - 1, inj.k1 + inj.k2):
            bases = np.array(list(iter_rref_bases(inj.n, dim)), dtype=np.uint64)
            best, _, _ = _kernels.condenser_sweep(bases, map_cols, inj.d, dim)
            holds = holds and best == dim
        if holds != out["certified"]:
            return f"subspace sweep says certified={holds}"
        if holds:
            return None
        u = GF2Matrix.from_text(out["witness_u"])
        v = GF2Matrix.from_text(out["witness_v"])
        if u.vconcat(v).rank() < inj.k1 + inj.k2 - 1:
            return "witness pair meets in more than a line"
        if injector.witness_index(inj, u.rows, v.rows) is not None:
            return "some matrix separates the witness pair"
        return None


# -- pipeline ---------------------------------------------------------------

def _load_reference():
    """tests/reference.py: the straight-line pipeline oracle."""
    spec = importlib.util.spec_from_file_location("gf2lab_reference",
                                                  ROOT / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _span_array(rows) -> np.ndarray:
    pts = np.zeros(1, dtype=np.int64)
    for r in rows:
        pts = np.concatenate([pts, pts ^ r])
    return pts


def _parity(v: np.ndarray) -> np.ndarray:
    return np.bitwise_count(v) & 1


# snmext jobs per round: (ksrc, m) at n=16; the seed draws the shift.
# Two lighter shapes below four (10, 1) jobs put the median of a 10-job
# round inside the (10, 1) block, which spans ranks 3 to 6.
SNM_MIX = [(8, 2), (9, 1), (10, 1), (10, 1), (10, 1), (10, 1)]
SNM_MIX_TOY = [(4, 1), (5, 1)]
# Three daext runs per round keep a round near 5 s, so a 25-second run
# holds 4 or more rounds and the tail rank stays among the daext jobs.
DAEXT_PER_ROUND = 3


@dataclass
class Pipeline(Workload):
    name = "pipeline"

    def setup(self) -> None:
        self.n_daext = 24 if self.toy else 64
        self.snm_n = 8 if self.toy else 16
        self.snm_mix = SNM_MIX_TOY if self.toy else SNM_MIX
        self.lbp_nk = (8, 4) if self.toy else (16, 8)
        self.params_file = self.workdir / "params.json"
        t0 = perf_counter()
        argv = ["daext", "params", "--n", str(self.n_daext), "--seed", "7",
                "--out", str(self.params_file)]
        if self.toy:
            argv += ["--t-override", "4"]
        if _quiet_main(argv) != 0:
            raise RuntimeError("daext params failed")
        self.setup_times["setup.daext_params.s"] = perf_counter() - t0
        self.reference = _load_reference()
        self._params = None

    def make_round(self, index: int) -> list[Job]:
        rng = self.rng(index)
        jobs = []
        for _ in range(DAEXT_PER_ROUND):
            x = BitVec.random(self.n_daext, rng).to_hex()
            jobs.append(Job("daext", {"input": x}, 8 << 20))
        n, k = self.lbp_nk
        jobs.append(Job("lbp", {"n": n, "k": k, "seed": rng.randrange(1 << 20)},
                        24 << n))
        shifts = (1 << seed_bits(self.snm_n)) - 1
        for ksrc, m in self.snm_mix:
            shift = "%x" % rng.randint(1, shifts)
            pairs = (1 << ksrc) << seed_bits(self.snm_n)
            jobs.append(Job("snmext", {"n": self.snm_n, "ksrc": ksrc, "shift": shift,
                                       "m": m}, 96 * pairs))
        rng.shuffle(jobs)
        for slot, job in enumerate(jobs):
            job.uid = f"r{index}j{slot}"
        return jobs

    def _paths(self, job: Job) -> tuple[Path, Path]:
        return (self.workdir / f"{job.uid}.json",
                self.workdir / f"{job.uid}.trace.json")

    def run(self, job: Job) -> int:
        p = job.inputs
        out, trace = self._paths(job)
        if job.kind == "daext":
            argv = ["daext", "run", "--params", str(self.params_file),
                    "--input", p["input"], "--trace", str(trace)]
        elif job.kind == "lbp":
            argv = ["lbp", "separation-demo", "--n", str(p["n"]), "--k", str(p["k"]),
                    "--seed", str(p["seed"])]
        else:
            argv = ["snmext", "verify", "--n", str(p["n"]), "--ksrc", str(p["ksrc"]),
                    "--shift", p["shift"], "--m", str(p["m"])]
        return _quiet_main(argv + ["--out", str(out)])

    def outcome(self, job: Job, rc: int) -> dict:
        out, trace = self._paths(job)
        res = {"rc": rc, "report": json.loads(out.read_text())}
        if job.kind == "daext":
            res["trace"] = json.loads(trace.read_text())
        return res

    def check(self, job: Job, out: dict) -> str | None:
        if out["rc"] != 0:
            return f"exit code {out['rc']}"
        return getattr(self, "_check_" + job.kind)(job, out["report"], out.get("trace"))

    def params(self) -> PipelineParams:
        if self._params is None:
            self._params = PipelineParams.from_json(
                json.loads(self.params_file.read_text()))
        return self._params

    def _check_daext(self, job: Job, rep: dict, trace: dict) -> str | None:
        """Every traced stage against tests/reference.py."""
        val = lambda h: BitVec.from_hex(h).value  # noqa: E731
        ref = self.reference.reference_pipeline(val(job.inputs["input"]), self.params())
        pairs = [("z", val(rep["z"]), ref["z"]), ("output", val(rep["output"]), ref["out"]),
                 ("sc_rows", [val(r) for r in trace["sc_rows"]], ref["sc"])]
        for i, (b, rb) in enumerate(zip(trace["blocks"], ref["blocks"])):
            for key, rkey in (("r", "r"), ("u", "u"), ("h", "h"), ("u_tilde", "u_tilde"),
                              ("y_tilde", "y_tilde"), ("w", "w"), ("v", "v")):
                pairs.append((f"block {i} {key}", val(b[key]), rb[rkey]))
            pairs.append((f"block {i} sn_rows", [val(r) for r in b["sn_rows"]], rb["sn"]))
        if len(trace["blocks"]) != len(ref["blocks"]):
            return "block count differs from the reference"
        for name, got, want in pairs:
            if got != want:
                return f"{name} differs from the reference pipeline"
        return None

    def _check_snmext(self, job: Job, rep: dict, _trace) -> str | None:
        """The joint distribution of (Z, Z', Y) recounted with numpy,
        query masks rebuilt from field products."""
        p = job.inputs
        n, m, shift = p["n"], p["m"], int(p["shift"], 16)
        src = default_source(n, p["ksrc"])
        xs = _span_array(src.basis.rows) ^ src.shift.value
        field_ = GF2kField(n // 2)
        n_seeds = 1 << seed_bits(n)

        def masks(y: int) -> list[int]:
            e = y + 1
            e3 = field_.mul(field_.mul(e, e), e)
            return [field_.mul(1 << i, e) | (field_.mul(1 << i, e3) << field_.k)
                    for i in range(m)]

        counts = np.zeros((n_seeds, 1 << m, 1 << m), dtype=np.int64)  # y, z', z
        for y in range(n_seeds):
            z = sum(_parity(xs & q) << i for i, q in enumerate(masks(y)))
            zp = sum(_parity(xs & q) << i for i, q in enumerate(masks(y ^ shift)))
            np.add.at(counts[y], (zp, z), 1)
        marg = counts.sum(axis=2, keepdims=True)
        acc = int(np.abs((counts << m) - marg).sum())
        total = len(xs) * n_seeds
        want = Fraction(acc, (total << m) * 2)
        if Fraction(rep["distance"]) != want:
            return f"distance {rep['distance']} != recount {want}"
        return None

    def _check_lbp(self, job: Job, rep: dict, _trace) -> str | None:
        """The demo's subspace indicator rebuilt as a numpy table and
        correlated with every catalog member."""
        p = job.inputs
        n, k = p["n"], p["k"]
        src = AffineSource.random(n, k, random.Random(p["seed"]))
        table = np.zeros(1 << n, dtype=bool)
        table[_span_array(src.basis.rows) ^ src.shift.value] = True
        worst, worst_name = Fraction(0), ""
        for name, base in baseline_catalog(n, seed=p["seed"]):
            agree = Fraction(int(np.count_nonzero(base.eval_all() == table)), 1 << n)
            gap = abs(agree - Fraction(1, 2))
            if gap > worst:
                worst, worst_name = gap, name
        trivial = Fraction(1, 2) - Fraction(1, 1 << (n - k))
        want = {"srolbp_size": n - k, "strongly_read_once": True,
                "worst_catalog_correlation": str(worst),
                "worst_catalog_member": worst_name,
                "trivial_constant_correlation": str(trivial),
                "beats_trivial": worst > trivial}
        got = {key: rep.get(key) for key in want}
        if got != want:
            return f"separation demo {got} != recomputed {want}"
        return None


WORKLOADS = {w.name: w for w in (Directional, Certify, Pipeline)}
