"""CLI verbs and campaign determinism."""
import hashlib
import json
import random
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from gf2lab.bits import BitVec
from gf2lab.cli import build_parser, main, stable_json
from gf2lab.daext import PipelineParams, daext
from gf2lab.lbp import parity_program


def run(argv):
    return main([str(a) for a in argv])


class TestCondenseCli:
    def test_expander_build_verify_round_trip(self, tmp_path):
        e4 = tmp_path / "e4.txt"
        e2 = tmp_path / "e2.txt"
        cond = tmp_path / "cond.txt"
        rep = tmp_path / "rep.json"
        assert run(["condense", "expander", "--n", 4, "--seed", 11,
                    "--out", e4]) == 0
        assert run(["condense", "expander", "--n", 2, "--alpha", "0",
                    "--seed", 3, "--out", e2]) == 0
        assert run(["condense", "build", "--n", 8, "--delta", "1/2",
                    "--expander", e4, e2, "--out", cond]) == 0
        assert run(["condense", "verify", "--condenser", cond, "--k", 2,
                    "--gamma", "1/2", "--out", rep]) == 0
        report = json.loads(rep.read_text())
        assert report["passed"] and report["subspaces_checked"] == 10795
        # sampled mode shares the same report shape
        assert run(["condense", "verify", "--condenser", cond, "--k", 4,
                    "--gamma", "1/2", "--samples", "50", "--seed", "1",
                    "--out", rep]) == 0
        assert json.loads(rep.read_text())["mode"] == "sampled"


class TestDaextCli:
    def test_params_run_trace(self, tmp_path):
        params = tmp_path / "p.json"
        trace = tmp_path / "t.json"
        out = tmp_path / "r.json"
        assert run(["daext", "params", "--n", 24, "--t-override", 4,
                    "--seed", 7, "--out", params]) == 0
        assert run(["daext", "run", "--params", params, "--input",
                    "24:654321", "--trace", trace, "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["input"] == "24:654321"
        assert len(json.loads(trace.read_text())["blocks"]) == 4

    @pytest.mark.parametrize("x,digest", [
        ("64:0123456789abcdef",
         "281bb96ba797f596a44251c359d5e04c1287e3f1e641b514af50f27cc152ff21"),
        ("64:8000000000000001",
         "d3c8a6c3ec4261f90f512f5a1d4c4080ab7b23d11814ee04e9aa6face9f38894"),
        ("64:fedcba9876543210",
         "a85c510009a4e8c5c3cc50656dc7f5f1ae83c74e9740c5ac18896115888d6113"),
    ])
    def test_run_trace_bytes_locked(self, tmp_path, x, digest):
        # the trace file of a toy-width run, byte for byte
        params = tmp_path / "p.json"
        trace = tmp_path / "t.json"
        assert run(["daext", "params", "--n", 64, "--seed", 7, "--out", params]) == 0
        assert run(["daext", "run", "--params", params, "--input", x,
                    "--trace", trace, "--out", tmp_path / "r.json"]) == 0
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest

    def test_run_output_is_daext(self, tmp_path):
        # `run` derives the output from the z of its one pipeline pass
        params = tmp_path / "p.json"
        out = tmp_path / "r.json"
        assert run(["daext", "params", "--n", 24, "--t-override", 4,
                    "--seed", 7, "--out", params]) == 0
        p = PipelineParams.from_json(json.loads(params.read_text()))
        rng = random.Random(41)
        for _ in range(2):
            x = BitVec.random(24, rng)
            assert run(["daext", "run", "--params", params, "--input",
                        x.to_hex(), "--out", out]) == 0
            rep = json.loads(out.read_text())
            assert rep["output"] == daext(x, p).to_hex()


class TestLbpCli:
    def test_eval_validate_cut(self, tmp_path, capsys):
        prog = parity_program(4, [0, 1, 2, 3])
        pfile = tmp_path / "prog.json"
        pfile.write_text(json.dumps(prog.to_json()))
        assert run(["lbp", "eval", "--program", pfile, "--input", "4:f"]) == 0
        assert capsys.readouterr().out.strip() == "0"
        out = tmp_path / "v.json"
        assert run(["lbp", "validate", "--program", pfile, "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["strongly_read_once"] and rep["weakly_read_once"]
        assert run(["lbp", "cut", "--program", pfile, "--d", 2,
                    "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["total_probability"] == "1"
        assert run(["lbp", "correlate", "--program", pfile, "--f",
                    "builtin:parity", "--out", out]) == 0
        assert json.loads(out.read_text())["agreement"] == "1"

    def test_separation_demo(self, tmp_path):
        out = tmp_path / "sep.json"
        assert run(["lbp", "separation-demo", "--n", 10, "--k", 5,
                    "--seed", 5, "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["srolbp_size"] == 5
        assert not rep["beats_trivial"]

    def test_separation_demo_locked(self, tmp_path):
        out = tmp_path / "sep.json"
        assert run(["lbp", "separation-demo", "--n", 12, "--k", 6,
                    "--seed", 3, "--out", out]) == 0
        assert json.loads(out.read_text()) == {
            "n": 12,
            "k": 6,
            "srolbp_size": 6,
            "strongly_read_once": True,
            "worst_catalog_correlation": "1983/4096",
            "worst_catalog_member": "conj_all",
            "trivial_constant_correlation": "31/64",
            "beats_trivial": False,
            "note": "the exponential ROBP lower bound is demonstrated "
                    "against the catalog, not re-proved",
        }


class TestVerifyCli:
    def test_directional_exit_and_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "directional", "--f", "builtin:parity",
                    "--n", 6, "--k", 3, "--out", out]) == 0
        assert json.loads(out.read_text())["value"] == "1"

    def test_epsbias(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(["verify", "epsbias", "--f", "builtin:parity",
                    "--n", 5, "--m", 1, "--out", out]) == 0
        assert json.loads(out.read_text())["passed"]

    def test_truth_table_file(self, tmp_path):
        table = BitVec(16, 0b0110_1001_1001_0110)
        tfile = tmp_path / "table.hex"
        tfile.write_text(table.to_hex())
        out = tmp_path / "r.json"
        assert run(["verify", "affine", "--f", f"file:{tfile}", "--n", 4,
                    "--k", 2, "--out", out]) == 0

    def test_pipeline_function_source(self, tmp_path):
        params = tmp_path / "p.json"
        out = tmp_path / "r.json"
        assert run(["daext", "params", "--n", 24, "--t-override", 4,
                    "--seed", 7, "--out", params]) == 0
        assert run(["verify", "directional", "--f", f"pipeline:{params}",
                    "--n", 24, "--k", 3, "--m", 2, "--definition", "joint",
                    "--samples", 3, "--seed", 42, "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["mode"] == "sample" and Fraction(rep["value"]) <= 1

    def test_cross_check_refused_without_two_brute_forcers(self):
        base = ["verify", "directional", "--f", "builtin:parity", "--n", 4,
                "--k", 2, "--definition", "joint", "--cross-check"]
        for extra in (["--m", 2], ["--samples", 3]):
            with pytest.raises(ValueError, match="exhaustive m=1"):
                run(base + extra)


class TestInjectorCli:
    def test_sample_verify_search(self, tmp_path):
        inj = tmp_path / "inj.txt"
        assert run(["injector", "sample", "--n", 5, "--k1", 2, "--k2", 2,
                    "--d", 5, "--m", 10, "--seed", 0, "--out", inj]) == 0
        assert run(["injector", "verify", "--injector", inj]) == 0
        fn_file = tmp_path / "fn.txt"
        out = tmp_path / "search.json"
        assert run(["injector", "search", "--n", 5, "--k", 3, "--eps",
                    "1/4", "--seed", 2, "--budget-candidates", 3,
                    "--function-out", fn_file, "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["function_file"] == str(fn_file)
        from gf2lab.injector import StructuredFunction
        from gf2lab.verify import directional_bias
        from fractions import Fraction

        fn = StructuredFunction.from_text(fn_file.read_text())
        measured = directional_bias(fn.truth_table(), 5, 3,
                                    definition="xor_bias")
        assert Fraction(measured.value) == Fraction(rep["bias"])


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [ln for block in blocks for ln in block.splitlines()
             if ln.startswith("gf2lab ")]
    assert len(lines) >= 11
    for ln in lines:
        build_parser().parse_args(shlex.split(ln)[1:])


@pytest.mark.parametrize("extra", [[], ["--sampled-trials", 10]])
def test_expander_of_degree_zero_refused(tmp_path, extra):
    with pytest.raises(ValueError, match="degree d >= 1, got d=0"):
        run(["condense", "expander", "--n", 4, "--d", 0,
             "--out", tmp_path / "e.txt"] + extra)
    assert not (tmp_path / "e.txt").exists()


class TestCampaign:
    def test_empty_campaign(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({"steps": []}))
        assert run(["campaign", "run", "--file", cfile,
                    "--out", tmp_path / "o"]) == 0
        assert json.loads((tmp_path / "o" / "summary.json").read_text())[
            "failures"] == []

    def test_failing_step_nonzero_exit(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({
            "steps": [{"verb": "injector",
                       "argv": ["injector", "verify",
                                "--injector", "/nonexistent"]},
                      {"verb": "verify", "positional": ["directional"],
                       "args": {"f": "builtin:ip", "n": 4, "workers": 2}},
                      {"verb": "verify", "positional": ["directional"],
                       "args": {"f": "builtin:ip", "n": 4}}]
        }))
        assert run(["campaign", "run", "--file", cfile,
                    "--out", tmp_path / "o"]) == 1
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert [f["step"] for f in summary["failures"]] == [0, 1]
        assert summary["failures"][1]["error"] == "exit 2"
        assert (tmp_path / "o" / "step_002_verify.json").exists()

    def test_reruns_byte_identical_and_match_direct(self, tmp_path):
        cfile = tmp_path / "c.json"
        cfile.write_text(json.dumps({
            "seed": 4,
            "steps": [
                {"verb": "verify", "positional": ["directional"],
                 "args": {"f": "builtin:ip", "n": 6, "k": 3}},
            ],
        }))
        assert run(["campaign", "run", "--file", cfile,
                    "--out", tmp_path / "a"]) == 0
        assert run(["campaign", "run", "--file", cfile,
                    "--out", tmp_path / "b"]) == 0
        for name in ("step_000_verify.json", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()
        direct = tmp_path / "direct.json"
        assert run(["verify", "directional", "--f", "builtin:ip", "--n", 6,
                    "--k", 3, "--seed", 4, "--out", direct]) == 0
        assert direct.read_bytes() == (
            tmp_path / "a" / "step_000_verify.json").read_bytes()


def test_stable_json_strips_runtime():
    blob = {"a": 1, "runtime_seconds": 2.5, "nested": {"runtime_seconds": 1}}
    text = stable_json(blob)
    assert "runtime" not in text
