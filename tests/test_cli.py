"""End-to-end CLI checks through the installed console script."""

import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from salemtori import classify, cli, salem, torus
from salemtori.poly import IntPoly, format_poly, quote_token
from salemtori.salem import is_salem

import corpus
from compare_corpus import run_commands
from corpus import HEAVY, HOSTILE, MALFORMED


def run(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "salemtori.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def main_in_process(*argv):
    """(exit code, stdout, stderr) of cli.main, run in this process; the
    exit code of a traceback is "traceback"."""
    return run_commands([argv])[0]


def run_json(*args):
    out = run(*args)
    assert out.returncode == 0, out.stderr or out.stdout
    return json.loads(out.stdout)


class TestIsSalem:
    def test_accept(self):
        doc = run_json("is-salem", "1,-3,1")
        assert doc["salem"] is True
        assert doc["degree"] == 2
        assert doc["lambda"]["decimal"] == "2.618033988750"
        assert doc["trace_poly"] == "1,-3"

    def test_reject_exit_code(self):
        out = run("is-salem", "1,-1,1")
        assert out.returncode == 2
        doc = json.loads(out.stdout)
        assert doc["salem"] is False
        assert doc["reason"] == "wrong-circle-count"
        assert doc["witness"] == [0, 0, 1]

    def test_parse_error_exit_code(self):
        out = run("is-salem", "1,,2")
        assert out.returncode == 1
        assert out.stdout == ""
        assert "parse error" in out.stderr

    def test_usage_error_exit_code(self):
        out = run("no-such-command")
        assert out.returncode == 1


class TestClassify:
    def test_case_3a(self):
        doc = run_json("classify", "1,-3,1")
        assert doc["case"] == "3a"
        assert doc["lambda"] == "2.618033988750"
        assert doc["square_witness"] == {"r": 1, "sign": "-"}
        assert doc["finiteness"] == "infinite_family"

    def test_case_2_finite(self):
        doc = run_json("classify", "1,-2,-2,-2,1")
        assert doc["case"] == "2"
        assert doc["finiteness"] == "finite"
        assert doc["witness_count"] == 8
        assert doc["lambda"] == "2.890053638264"

    def test_not_realized(self):
        doc = run_json("classify", "1,-2,0,-2,1")
        assert doc["finiteness"] == "not_realized"
        assert doc["witnesses"] == []

    def test_non_salem_rejected(self):
        out = run("classify", "1,0,1")
        assert out.returncode == 2
        assert json.loads(out.stdout)["error"] == "not_salem"


class TestWedge:
    def test_forward(self):
        doc = run_json("wedge", "1,0,0,1,1")
        assert doc["exterior_square"] == "1,0,-1,-1,-1,0,1"

    def test_invert(self):
        doc = run_json("invert-wedge", "1,0,-1,-1,-1,0,1")
        got = {tuple(map(int, q.split(","))) for q in doc["verified"]}
        assert got == {
            (1, 1, 0, 0, 1),
            (1, -1, 0, 0, 1),
            (1, 0, 0, 1, 1),
            (1, 0, 0, -1, 1),
        }

    def test_invert_reports_square_roots(self):
        doc = run_json("invert-wedge", "1,0,-1,-1,-1,0,1")
        assert doc["m"] == 1 and doc["n"] == 1
        assert doc["obstruction"] is None

    def test_invert_obstruction(self):
        doc = run_json("invert-wedge", "1,0,0,0,0,0,1")
        assert doc["verified"] == []
        assert doc["obstruction"] == "not-square"


class TestConstruct:
    KEYS = {
        "entropy",
        "family",
        "gamma1",
        "gamma2",
        "h1_charpoly",
        "h20_product",
        "h2_charpoly",
        "matrix",
        "pairing",
        "picard_rank",
        "projective",
        "reoriented",
        "root_poly",
        "salem_factor",
        "zero_entropy",
    }

    def test_quad_order(self):
        doc = run_json("construct", "quad-order", "--d", "2", "--b1", "0", "--b2", "1")
        assert set(doc) == self.KEYS
        assert doc["h1_charpoly"] == "1,0,4,0,1"
        assert doc["salem_factor"] == "1,-4,1"
        assert doc["pairing"] == [1, 2]
        assert doc["projective"] is True
        assert doc["picard_rank"] == 4
        assert doc["entropy"]["decimal"] == "1.316957896925"

    def test_gl2z(self):
        doc = run_json("construct", "gl2z", "--r", "1", "--det", "-1")
        assert doc["family"] == "gl2z"
        assert doc["entropy"]["decimal"] == "0.962423650119"
        assert doc["picard_rank"] == "unconstrained"

    def test_gl2z_not_hyperbolic(self):
        out = run("construct", "gl2z", "--r", "1", "--det", "1")
        assert out.returncode == 2
        assert json.loads(out.stdout)["error"]

    def test_quartic(self):
        doc = run_json("construct", "quartic", "--poly", "1,1,0,0,1")
        assert doc["pairing"] == [0, 2]
        assert doc["projective"] is False
        assert doc["picard_rank"] == 0

    def test_quartic_explicit_pairing(self):
        doc = run_json("construct", "quartic", "--poly", "1,-2,4,-2,1", "--pairing", "0,3")
        assert doc["projective"] is True
        assert doc["picard_rank"] == 4

    def test_dyadic(self):
        doc = run_json("construct", "dyadic-cm", "--n", "1", "--k", "0")
        assert doc["h1_charpoly"] == "1,-2,7,-2,1"
        assert doc["salem_factor"] == "1,-5,-8,-5,1"

    def test_zero_entropy(self):
        doc = run_json("construct", "quad-order", "--entries", "1,0,0,0,0,0,1,0", "--d", "1")
        assert doc["zero_entropy"] is True
        assert doc["salem_factor"] is None
        assert doc["entropy"]["lo"] == "0"
        assert doc["entropy"]["hi"] == "0"

    def test_oversized_quartic_is_clean_rejection(self):
        # roots near 10**200 and 10**-200, beyond the float range: the model
        # builds, with no traceback
        out = run("construct", "quartic", "--poly", f"1,0,{10**400},0,1")
        assert out.returncode == 0
        assert out.stderr == ""
        assert json.loads(out.stdout)["matrix"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("construct", "quad-order", "--d", str(10**21), "--b1", "1", "--b2", "1"),
            ("construct", "dyadic-cm", "--n", "200", "--k", "3"),
        ],
        ids=" ".join,
    )
    def test_huge_salem_factor_ends_quickly(self, argv):
        # Salem factors with coefficients near 10**21 and 10**120: entropy
        # certifies them without factoring, whose trial division grows with
        # the square root of the coefficients, and their circle pairs, about
        # 10**-10 and 10**-60 off the real axis, come from the trace
        # polynomial
        out = run(*argv, timeout=5)
        assert out.returncode == 0
        assert out.stderr == ""
        doc = json.loads(out.stdout)
        assert doc["matrix"] and doc["projective"] is True
        assert re.fullmatch(r"\d+\.\d{12}", doc["entropy"]["decimal"])

    @pytest.mark.parametrize(
        "poly", [f"1,0,{2**3999},0,1", f"1,1,{2**3999},1,1"], ids=("1,0,2^3999,0,1", "1,1,2^3999,1,1")
    )
    def test_cap_size_quartic_ends_quickly(self, poly):
        # roots near 2**2000 and 2**-2000: Aberth's iteration starts on the
        # circles of the Newton polygon with 2000 more bits, so every root
        # gets as many bits of its own size
        out = run("construct", "quartic", "--poly", poly, timeout=5)
        assert out.returncode == 0
        assert out.stderr == ""
        assert json.loads(out.stdout)["matrix"]

    @pytest.mark.parametrize("r", [3 * 10**160 + 1, 3 * 10**300 + 1], ids=("3e160+1", "3e300+1"))
    @pytest.mark.parametrize("command, det", [("construct", "1"), ("reorient", "-1")])
    def test_gl2z_huge_r_locates_the_product(self, r, command, det):
        # g1 near r and g2 near 1/r, whose product det is read off exactly;
        # the decimals of the boxes still come from refinement
        code, out, err = main_in_process(command, "gl2z", "--r", str(r), "--det", det)
        assert code == 0 and err == ""
        assert json.loads(out)["projective"] is True

    def test_gl2z_roots_in_closed_form(self, monkeypatch):
        # the roots of t^2 - rt + 1 are read off the 2x2 block, with no
        # isolation, even where the Cauchy bound has 1990 bits
        calls = []
        isolate = torus.isolate_all_roots

        def spy(p):
            calls.append(p)
            return isolate(p)

        monkeypatch.setattr(torus, "isolate_all_roots", spy)
        code, out, err = main_in_process("construct", "gl2z", "--r", str(2**1990), "--det", "1")
        assert (code, err) == (0, "")
        assert json.loads(out)["projective"] is True
        assert calls == []

    def test_eps_validation(self):
        out = run("construct", "gl2z", "--r", "1", "--det", "-1", "--eps", "0")
        assert out.returncode == 1

    @pytest.mark.parametrize("command", ("construct", "reorient"))
    def test_eps_floor(self, command):
        # a width below 1e-1000 is refused at once; at 1e-10000 the work
        # would take minutes and the interval ends would pass the 4300-digit
        # limit of int-to-str conversion
        argv = (command, "quad-order", "--d", "1", "--b1", "1", "--b2", "1", "--eps")
        out = run(*argv, "1e-10000", timeout=5)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == "salemtori: error: --eps must be at least 1e-1000\n"
        doc = run_json(*argv, "1e-1000")
        assert Fraction(doc["entropy"]["hi"]) - Fraction(doc["entropy"]["lo"]) <= Fraction(1, 10**1000)
        assert doc["entropy"]["decimal"] == run_json(*argv[:-1])["entropy"]["decimal"]

    @pytest.mark.parametrize("command", ("construct", "reorient"))
    @pytest.mark.parametrize(
        "token",
        ["1e-10000000", "1e-30000000", "1e30000000", "1E+1_0000000 ", "1e10001", "9" * 5000, "1/" + "1" * 1099],
        ids=lambda token: token[:16],
    )
    def test_eps_caps(self, command, token):
        # the text is refused before Fraction forms a power of ten with tens
        # of millions of digits, which took seconds to minutes, and a long
        # token is quoted cut to 40 characters, not echoed whole
        started = time.perf_counter()
        code, out, err = main_in_process(command, "gl2z", "--r", "3", "--det", "1", "--eps", token)
        assert time.perf_counter() - started < 1
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.endswith(f"got {quote_token(token)}\n")
        assert f"at most {cli.MAX_EPS_CHARS} characters and an exponent of at most {cli.MAX_EPS_EXPONENT}" in err
        assert len(token) <= 40 or token[:41] not in err

    def test_eps_caps_are_exact(self):
        argv = ("construct", "gl2z", "--r", "3", "--det", "1", "--eps")
        code, out, err = main_in_process(*argv, f"1e{cli.MAX_EPS_EXPONENT}")
        assert (code, err) == (0, "")
        # text at the length cap reaches Fraction, which the floor refuses
        code, out, err = main_in_process(*argv, "1/" + "1" * (cli.MAX_EPS_CHARS - 2))
        assert (code, out, err) == (1, "", "salemtori: error: --eps must be at least 1e-1000\n")

    def test_ns_has_no_eps(self):
        # ns prints no entropy, so an --eps it would never read is refused
        out = run("ns", "gl2z", "--r", "3", "--det", "1", "--eps", "0")
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == "salemtori: error: unrecognized arguments: --eps 0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("quad-order", "--d", "1", "--entries", "1,x,0,0,0,0,0,0"), "bad entry 'x'"),
            (("quartic", "--poly", "1,-2,4,-2,1", "--pairing", "a,b"), "bad pairing index 'a'"),
        ],
    )
    def test_malformed_option_is_parse_error(self, argv, message):
        out = run("construct", *argv)
        assert out.returncode == 1
        assert out.stdout == ""
        assert out.stderr == f"salemtori: parse error: {message}\n"


    @pytest.mark.parametrize(
        "params",
        [
            # case 3a, whose two projectivity types have different ranks
            ("quad-order", "--d", "1", "--b1", "1", "--b2", "1"),
            # a case with one projectivity type, whose rank needs no decision
            ("quad-order", "--d", "2", "--b1", "0", "--b2", "1"),
            # a quartic model, decided by its trace polynomial
            ("quartic", "--poly", "1,-2,4,-2,1", "--pairing", "0,2"),
        ],
    )
    def test_projectivity_decided_once(self, monkeypatch, no_roots, params):
        # the output refines root boxes for its decimals; the decisions
        # refine none
        for name in ("is_projective", "picard_rank", "ns_charpoly"):
            monkeypatch.setattr(cli, name, no_roots(getattr(cli, name)))
        for command in ("construct", "reorient"):
            with redirect_stdout(io.StringIO()):
                assert cli.main([command, *params]) == 0

    def test_refined_boxes_refine_each_upper_box_once(self, monkeypatch):
        # four circle roots, each lower box the mirror of its refined upper one
        calls = []
        refine = torus.refine_root_box

        def spy(p, rb, width):
            calls.append(rb)
            return refine(p, rb, width)

        monkeypatch.setattr(torus, "refine_root_box", spy)
        model = torus.from_quartic(IntPoly((1, 1, 1, 1, 1)))
        model.refined(Fraction(1, 1 << 300))
        assert calls == [b for b in model.root_boxes if b.im.lo > 0] and len(calls) == 2
        # the boxes start on a grid of 2**-200, fine enough for every decimal
        # the command prints
        calls.clear()
        with redirect_stdout(io.StringIO()):
            assert cli.main(["construct", "quartic", "--poly", "1,1,1,1,1"]) == 0
        assert calls == []


class TestReorientAndNs:
    def test_reorient_flips_projectivity(self):
        base = run_json("construct", "quad-order", "--d", "1", "--b1", "1", "--b2", "1")
        flip = run_json("reorient", "quad-order", "--d", "1", "--b1", "1", "--b2", "1")
        assert flip["reoriented"] is True
        assert base["projective"] != flip["projective"]
        assert base["entropy"]["decimal"] == flip["entropy"]["decimal"]

    def test_ns_forced(self):
        doc = run_json("ns", "quad-order", "--d", "1", "--b1", "1", "--b2", "1")
        assert doc["forced"] is True
        assert doc["ns_charpoly"] == "1,-2,-2,-2,1"

    def test_ns_unreoriented_3b_split_isolates_no_roots(self, monkeypatch, no_roots):
        # g1*g2 is the determinant i, a root of t^2 + 1, decided exactly;
        # ns prints no box, so the whole command refines none
        monkeypatch.setattr(cli, "main", no_roots(cli.main))
        code, out, err = main_in_process("ns", "quad-order", "--d", "1", "--entries", "0,0,0,-1,1,0,2,1")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"forced": True, "ns_charpoly": "1,-5,6,-5,1"}

    def test_ns_not_forced(self):
        doc = run_json("ns", "gl2z", "--r", "5", "--det", "1")
        assert doc["forced"] is False
        assert "ns_charpoly" not in doc
        assert doc["reason"]


class TestEnumerate:
    def test_degree2_rows(self):
        out = run("enumerate", "--degree", "2", "--max-coeff", "4")
        assert out.returncode == 0
        lines = out.stdout.splitlines()
        assert lines[0] == "s_poly,degree,lambda,case,finiteness,witness_count,example_model,projective_types,picard_ranks"
        polys = [ln.split(",", 1)[0] for ln in lines[1:]]
        assert polys == ['"1', '"1']  # quoted: s_poly itself contains commas
        rows = [ln for ln in lines[1:]]
        assert any('"1,-3,1"' in r for r in rows)
        assert any('"1,-4,1"' in r for r in rows)
        assert len(rows) == 2

    def test_degree6_example_model(self):
        out = run("enumerate", "--degree", "6", "--max-coeff", "2")
        row = [r for r in out.stdout.splitlines() if '"1,0,-1,-1,-1,0,1"' in r]
        assert len(row) == 1
        assert "1.401268367940" in row[0]
        assert "from_quartic(1,0,0,-1,1;pairing=0,2)" in row[0]

    def test_json_format(self):
        out = run("enumerate", "--degree", "2", "--max-coeff", "3", "--format", "json")
        doc = json.loads(out.stdout)
        assert len(doc) == 1
        assert doc[0]["s_poly"] == "1,-3,1"
        assert doc[0]["case"] == "3a"
        assert doc[0]["example_model"] == "gl2z_model(r=1,det=-1)"

    def test_workers_deterministic(self):
        a = run("enumerate", "--degree", "4", "--max-coeff", "2")
        b = run("enumerate", "--degree", "4", "--max-coeff", "2", "--workers", "2")
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("degree", (2, 4, 6))
    def test_sign_prefilter_keeps_every_salem_candidate(self, monkeypatch, degree):
        # only candidates with p(1) < 0 < p(-1) reach the decision, and every
        # candidate is_salem accepts is among them
        reached = []
        decide = cli._salem_certificate

        def spy(p):
            reached.append(p)
            return decide(p)

        monkeypatch.setattr(cli, "_salem_certificate", spy)
        for bound in range(1, 5):
            cands = [IntPoly.from_descending(c) for c in cli._sweep(degree, bound)]
            reached.clear()
            rows = [cli._atlas_row(p.coeffs[::-1]) for p in cands]
            salem = [p for p in cands if is_salem(p)]
            assert reached == [p for p in cands if p(1) < 0 < p(-1)]
            assert set(salem) <= set(reached)
            assert [r[0] for r in rows if r is not None] == [format_poly(p) for p in salem]

    @pytest.mark.parametrize("degree", (2, 4, 6))
    def test_sweep_never_factors(self, monkeypatch, degree):
        # the rows are those of the candidates is_salem certifies, each one
        # tried, in the order of degree, lambda and polynomial; a sweep that
        # factored a rejected candidate would raise
        def refuse(*args):
            raise AssertionError(f"factoring {args}")

        expected = {}
        for bound in range(1, 5):
            certs = [is_salem(IntPoly.from_descending(c)) for c in cli._sweep(degree, bound)]
            rows = [cli._salem_row(cert) for cert in certs if cert]
            expected[bound] = sorted(rows, key=lambda r: (int(r[1]), Fraction(r[2]), r[0]))
        monkeypatch.setattr(salem, "factor_bounded", refuse)
        for bound in range(1, 5):
            assert cli._collect_rows(degree, bound, 1) == expected[bound]

    def test_atlas_rows_and_entropy_build_no_sturm_chain(self, monkeypatch):
        # the Salem decision below degree 8, the pairing classes of each
        # witness and entropy's certificate of a Salem factor are closed
        # forms; a Sturm chain built by any of them raises
        models = [torus.quad_order_model(torus.a_form_matrix(d, 1, b2)) for d in (1, 2, 3) for b2 in (1, 2)]

        def refuse(chain, p):
            raise AssertionError(f"Sturm chain of {p}")

        monkeypatch.setattr(salem.SturmChain, "__init__", refuse)
        code, out, err = main_in_process("enumerate", "--degree", "6", "--max-coeff", "6", "--workers", "1")
        assert code == 0, err
        rows = out.splitlines()[1:]
        assert len(rows) == 395
        for row in rows:
            s_poly = IntPoly.from_descending(tuple(int(c) for c in row.split('"')[1].split(",")))
            assert classify.realizable(s_poly).salem.poly == s_poly
        assert all(torus.entropy(m).lo > 0 for m in models)

    def test_oversized_sweep_is_refused_up_front(self, monkeypatch, capsys):
        # 2001**3 candidates: refused before a single one is built
        def refuse(degree, bound):
            raise AssertionError("_sweep called")

        monkeypatch.setattr(cli, "_sweep", refuse)
        assert cli.main(["enumerate", "--degree", "6", "--max-coeff", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(2001**3) in captured.err and str(cli.MAX_CANDIDATES) in captured.err

    @pytest.mark.parametrize("name", ("missing/rows.csv", "."))
    def test_out_is_checked_before_the_sweep(self, tmp_path, monkeypatch, name):
        # a directory, or a file in a directory that does not exist, once
        # failed only after the whole sweep had run
        def refuse(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "_collect_rows", refuse)
        monkeypatch.chdir(tmp_path)
        code, out, err = main_in_process("enumerate", "--degree", "6", "--max-coeff", "12", "--out", name)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith(f"salemtori: cannot write {name!r}: ")
        assert list(tmp_path.iterdir()) == []

    def test_a_sweep_that_fails_leaves_its_out_as_it_was(self, tmp_path, monkeypatch):
        # the file is written only once the rows exist
        def fail(*args):
            raise OSError("the sweep failed")

        target = tmp_path / "rows.csv"
        target.write_text("kept\n")
        monkeypatch.setattr(cli, "_collect_rows", fail)
        code, out, _ = main_in_process("enumerate", "--degree", "2", "--max-coeff", "3", "--out", str(target))
        assert code == "traceback" and out == ""
        assert target.read_text() == "kept\n"

    def test_largest_allowed_sweep_is_counted_exactly(self):
        assert cli._candidate_count(6, 49) == 99**3 <= cli.MAX_CANDIDATES < cli._candidate_count(6, 50)
        for degree in (2, 4, 6):
            assert cli._candidate_count(degree, 3) == len(list(cli._sweep(degree, 3)))


@pytest.mark.parametrize("cpus, asked, used", [(2, 100000, 2), (2, 2, 2), (8, 2, 2), (None, 4, 1)])
def test_workers_capped_at_cpu_count(monkeypatch, capsys, cpus, asked, used):
    seen = []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_collect_rows", lambda degree, bound, workers: seen.append(workers) or [])
    argv = ["enumerate", "--degree", "2", "--max-coeff", "1", "--workers", str(asked)]
    assert cli.main(argv) == 0
    assert seen == [used]
    assert capsys.readouterr().out.startswith("s_poly,")


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records each pool and maps in
    this process."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def pool_spy(monkeypatch):
    import concurrent.futures

    _InProcessPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    return _InProcessPool.made


class TestPoolThreshold:
    def test_small_sweep_runs_in_process(self, monkeypatch, pool_spy):
        # 169 candidates: the pool's start-up would cost more than the sweep
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        argv = ("enumerate", "--degree", "4", "--max-coeff", "6")
        one = main_in_process(*argv, "--workers", "1")
        two = main_in_process(*argv, "--workers", "2")
        assert pool_spy == []
        assert one == two and one[0] == 0 and one[1].count("\n") > 1

    def test_the_pool_starts_at_the_threshold(self, monkeypatch, pool_spy):
        count = cli._candidate_count(4, 2)
        expected = cli._collect_rows(4, 2, 1)
        monkeypatch.setattr(cli, "_POOL_FROM", count + 1)
        assert cli._collect_rows(4, 2, 2) == expected and pool_spy == []
        monkeypatch.setattr(cli, "_POOL_FROM", count)
        assert cli._collect_rows(4, 2, 2) == expected and pool_spy == [2]

    def test_pool_rows_match_in_process_rows(self, monkeypatch):
        # a real pool, below the threshold for speed
        monkeypatch.setattr(cli, "_POOL_FROM", 0)
        assert cli._collect_rows(4, 3, 2) == cli._collect_rows(4, 3, 1)


# argument lists beside the corpus: none, or none that names a subcommand
# first, and each subcommand's --help
_OTHER_ARGVS = (
    (),
    ("--help",),
    ("-h",),
    ("--",),
    ("--", "is-salem", "1,-3,1"),
    ("no-such-command", "1"),
    ("-1,3,-1",),
    *((name, "--help") for name, _, _ in cli._COMMANDS),
)


def _parse(parser, argv):
    """(namespace or None, exit code, stdout, stderr) of parser.parse_args."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ns = vars(parser.parse_args(argv))
        except SystemExit as exc:
            ns, code = None, exc.code
    return ns, code, out.getvalue(), err.getvalue()


class TestParser:
    @pytest.mark.parametrize("family", ("ORDINARY", "MALFORMED", "HOSTILE", "OTHER"))
    def test_parser_of_one_command_reads_as_the_whole_parser(self, family):
        argvs = _OTHER_ARGVS if family == "OTHER" else getattr(corpus, family)
        whole, parsers = cli.build_parser(), {}
        for argv in argvs:
            argv = cli._as_values(list(argv))
            first = argv[0] if argv else None
            if first not in parsers:
                parsers[first] = cli.build_parser(first)
            assert _parse(parsers[first], argv) == _parse(whole, argv), argv

    def test_only_the_named_command_gets_its_arguments(self):
        parser = cli.build_parser("is-salem")
        argv = ["enumerate", "--degree", "4", "--max-coeff", "1"]
        _, code, _, err = _parse(parser, argv)
        assert code == 1 and "unrecognized arguments" in err
        assert _parse(cli.build_parser("enumerate"), argv)[0]["degree"] == 4

    def test_help_lists_every_command(self):
        text = cli.build_parser().format_help()
        assert text == cli.build_parser("is-salem").format_help()
        for name, line, _ in cli._COMMANDS:
            assert re.search(rf"^    {re.escape(name)} +{re.escape(line)}$", text, re.M), name


def test_out_flag(tmp_path):
    target = tmp_path / "result.json"
    out = run("wedge", "1,0,0,1,1", "--out", str(target))
    assert out.returncode == 0
    assert json.loads(target.read_text())["exterior_square"] == "1,0,-1,-1,-1,0,1"


@pytest.mark.parametrize("name", ("missing/result.json", "."))
@pytest.mark.parametrize("argv", (("is-salem", "1,-3,1"), ("is-salem", "1,1,1")))
def test_out_that_cannot_be_written_ends_in_one_line(tmp_path, monkeypatch, argv, name):
    # a directory, or a file in a directory that does not exist, once
    # ended in a traceback; the second command is rejected, with exit 2
    # when its JSON is written
    monkeypatch.chdir(tmp_path)
    code, out, err = main_in_process(*argv, "--out", name)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith(f"salemtori: cannot write {name!r}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", HOSTILE, ids=lambda argv: " ".join(a[:12] for a in argv))
def test_oversized_input_ends_in_one_line(argv):
    # each of these once ended in a ValueError traceback while printing an
    # integer past the 4300-digit limit of int-to-str conversion
    started = time.perf_counter()
    code, out, err = main_in_process(*argv)
    assert time.perf_counter() - started < 1
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("salemtori: error: ")
    assert f"more than the limit of {cli.MAX_BITS} bits" in err


@pytest.mark.parametrize("argv", HEAVY)
def test_heavy_input_under_the_cap_ends_within_a_second(argv):
    # a process, so that the runaway ones are killed at the bound
    out = run(*argv, timeout=1)
    assert out.returncode in (0, 1, 2)
    if out.stdout:
        assert out.stderr == "" and isinstance(json.loads(out.stdout), dict)
    else:
        assert out.stderr.count("\n") == 1 and out.stderr.startswith("salemtori")


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_ends_cleanly(argv):
    started = time.perf_counter()
    code, out, err = main_in_process(*argv)
    assert time.perf_counter() - started < 1
    assert code in (0, 1, 2)
    if out:
        assert err == "" and isinstance(json.loads(out), dict)
    else:
        assert err.count("\n") == 1 and err.startswith("salemtori")


def test_size_cap_is_exact():
    # coefficients of MAX_BITS bits are read and printed, as is dyadic-cm's
    # 4**n + 3 at n = (MAX_BITS - 1) / 2; one bit more is refused
    c = (1 << cli.MAX_BITS) - 1
    n = (cli.MAX_BITS - 1) // 2
    for argv in (
        ("wedge", f"1,{c},{-c},{c},{c}"),
        ("is-salem", f"1,{-c},1"),
        ("construct", "dyadic-cm", "--n", str(n), "--k", str(n)),
    ):
        code, out, err = main_in_process(*argv)
        assert code == 0 and err == "" and json.loads(out)
    for argv in (
        ("wedge", f"1,{c + 1},0,0,1"),
        ("is-salem", f"1,{-c - 1},1"),
        ("construct", "dyadic-cm", "--n", str(n + 1), "--k", str(n + 1)),
        ("enumerate", "--degree", "2", "--max-coeff", str(c + 1)),
    ):
        code, out, err = main_in_process(*argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert f"more than the limit of {cli.MAX_BITS} bits" in err


def test_long_bad_token_is_abbreviated():
    code, out, err = main_in_process("is-salem", "1," + "9" * 5000 + "x,1")
    assert code == 1 and out == ""
    assert err == f"salemtori: parse error: bad coefficient {'9' * 40!r}... (5001 characters)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "gl2z", "--r", "{}", "--det", "1"),
        ("ns", "quad-order", "--d", "{}", "--b1", "1", "--b2", "1"),
        ("enumerate", "--degree", "4", "--max-coeff", "{}"),
    ],
    ids=lambda argv: argv[0],
)
def test_long_bad_int_option_is_abbreviated(argv):
    # past the 4300-digit limit of int-from-str conversion
    token = "7" * 5000
    code, out, err = main_in_process(*(token if a == "{}" else a for a in argv))
    option = argv[argv.index("{}") - 1]
    assert code == 1 and out == ""
    assert err == (
        f"salemtori {argv[0]}: error: argument {option}: invalid int value: {'7' * 40!r}... (5000 characters)\n"
    )
