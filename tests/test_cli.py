import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qonf.cli import SIZE_LIMITS, main
from qonf.confluence import BUILTIN_SYSTEMS
from qonf.rings import series_to_json
from qonf.verification import SUITES

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestNd:
    def test_csv_rows(self, capsys):
        code, out = run(capsys, "nd", "--dmax", "4")
        assert code == 0
        assert out.splitlines() == ["d,N_d", "1,1", "2,1", "3,12", "4,620"]

    def test_single_row(self, capsys):
        code, out = run(capsys, "nd", "--dmax", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,1"

    def test_json_string_integers(self, capsys):
        code, out = run(capsys, "nd", "--dmax", "8", "--format", "json")
        doc = json.loads(out)
        assert doc["N_d"][-1] == "13525751027392"

    def test_usage_error(self, capsys):
        assert main(["nd", "--dmax", "0"]) == 2


class TestSpecialFunctionCommands:
    def test_theta(self, capsys):
        code, out = run(capsys, "theta", "--q", "0.3", "--Q", "1.0")
        doc = json.loads(out)
        assert code == 0
        assert doc["value"][0] == pytest.approx(2.6554698385, abs=1e-9)
        assert doc["triple_product_residual"] < 1e-10

    def test_qchar_shift_residual(self, capsys):
        code, out = run(capsys, "qchar", "--q", "0.5", "--lam", "0.8+0.3j", "--Q", "0.7")
        doc = json.loads(out)
        assert code == 0
        assert doc["shift_law_residual"] < 1e-10

    def test_qlog(self, capsys):
        code, out = run(capsys, "qlog", "--q", "0.5", "--Q", "0.7+0.2j")
        assert code == 0
        assert json.loads(out)["shift_law_residual"] < 1e-10

    def test_qhg(self, capsys):
        code, out = run(capsys, "qhg", "--upper", "0", "--q", "0.5", "--D", "3",
                        "--at", "0.2")
        doc = json.loads(out)
        assert code == 0
        assert doc["coefficients"][1][0] == pytest.approx(1 / (1 - 0.5))

    @pytest.mark.parametrize("q", ["1", "-1"])
    def test_qhg_q_on_unit_circle_is_usage_error(self, capsys, q):
        assert main(["qhg", "--q", q, "--upper", "0.3", "--lower", "0.6", "--D", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["qhg", "--q", "0", "--upper", "0.3", "--lower", "0.5", "--D", "3"],
        ["qhg", "--q", "0", "--upper", "0.3", "--D", "3", "--bases"],
    ], ids=["lower", "bases"])
    def test_qhg_q_zero_is_usage_error(self, capsys, argv):
        # rejected before any work, with the message theta gives for the same q
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert main(["theta", "--q", "0", "--Q", "1"]) == 2
        assert err == capsys.readouterr().err == "error: need 0 < |q| < 1, got 0j\n"

    def test_qhg_zero_lower_parameter_is_pinned(self, capsys):
        # 0 is off the lattice q^Z: a zero lower parameter is accepted
        code, out = run(capsys, "qhg", "--q", "0.5", "--upper", "0.3", "--lower", "0", "--D", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3161fe30866ab90db3761118bc8a7b364d40105578f6c2adc24c4ef2a4a815de")


class TestSystems:
    def test_solve_builtin(self, capsys):
        code, out = run(capsys, "solve", "--builtin", "pochhammer-scaled", "--D", "16")
        doc = json.loads(out)
        assert code == 0
        assert doc["kind"] == "unipotent"
        assert doc["shift_residual"] < 1e-8

    def test_confluence_builtins(self, capsys):
        expected = {
            "pochhammer-raw": False,
            "pochhammer-scaled": True,
            "irregular-limit": False,
        }
        for name, want in expected.items():
            code, out = run(capsys, "confluence", "--builtin", name)
            assert code == 0
            assert json.loads(out)["confluent"] is want

    def test_confluence_pn_j(self, capsys):
        code, out = run(capsys, "confluence", "--builtin", "pn-j", "--N", "3", "--z", "1")
        doc = json.loads(out)
        assert doc["confluent"] is True
        entries = {(e["i"], e["j"]): e["entry"] for e in doc["limit_system"]["entries"]}
        assert entries[(3, 0)] == "Q"

    def test_confluence_from_file(self, tmp_path, capsys):
        # the builtin pochhammer-scaled system in the README's schema
        path = tmp_path / "sys.json"
        path.write_text('{"n": 1, "q": "q", "entries": [{"i": 0, "j": 0, "entry": "1 - (1-q)*Q"}]}')
        code, out = run(capsys, "confluence", "--file", str(path))
        assert code == 0
        assert json.loads(out)["confluent"] is True

    @pytest.mark.parametrize("entry, confluent, cond1, cond3", [
        ("1 + (q-1)*Q/(Q-2)^2", True, "1 pole(s), pairwise spiral-separated", "pass"),
        ("1 + (q-1)/(Q*(Q-2))", False, "2 pole(s), pairwise spiral-separated", "fail"),
    ])
    def test_double_pole_and_pole_at_zero_from_file(self, tmp_path, capsys, entry, confluent,
                                                    cond1, cond3):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"n": 1, "q": "q", "entries": [{"i": 0, "j": 0, "entry": entry}]}))
        code, out = run(capsys, "confluence", "--file", str(path))
        doc = json.loads(out)
        assert code == 0 and doc["confluent"] is confluent
        assert doc["conditions"]["spiral_separation"] == {"status": "pass", "detail": cond1}
        assert doc["conditions"]["limit_regular_singular"]["status"] == cond3

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["confluence", "--file", str(path)]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"n": 1, "q": "q", "entries": [{"i": 0, "j": 0, "entry": "1/(Q-Q)"}]}),
            json.dumps({"n": 1, "q": "q", "entries": [{"i": 3, "j": 0, "entry": "1"}]}),
            '{"n": 1, "q": "q", "entries": [{"i": 0, "j"',
            json.dumps({"n": 0, "q": "q", "entries": []}),
            json.dumps({"n": 1, "q": "q", "entries": 5}),
            "[]",
        ],
        ids=["zero-denominator", "index-out-of-range", "truncated", "empty-system",
             "entries-not-a-list", "not-an-object"],
    )
    def test_malformed_system_is_one_line_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", "--file", str(path), "--D", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"i": 1, "j": 1, "entry": ""},
             'entry 1 (i = 1, j = 1), field "entry": unexpected end of input'),
            ({"i": 1, "j": 0},
             'entry 1 (i = 1, j = 0), field "num": missing'),
            ({"i": 1, "j": 0, "entry": 5},
             'entry 1 (i = 1, j = 0), field "entry": expected a string, got 5'),
            ({"i": 1, "j": 0, "num": "1", "den": "q^2000"},
             'entry 1 (i = 1, j = 0), field "den": q-exponent 2000 exceeds the limit 1000'),
        ],
        ids=["empty-entry", "no-entry-no-num", "number-entry", "capped-den"],
    )
    def test_bad_entry_names_the_entry_and_the_field(self, tmp_path, capsys, entry, message):
        doc = {"n": 2, "q": "q", "entries": [{"i": 0, "j": 0, "entry": "1"}, entry]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["confluence", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    # B = P (J_2(0) + J_2(1)) P^-1 and P (J_3(0) + J_3(1)) P^-1, with P the unit
    # upper triangular matrix of ones plus P[n-1][0] = 1: eigenvalues 0 and 1
    # in Jordan blocks, which floating eigenvalues scatter by eps^(1/2) and
    # eps^(1/3), so only an exact test sees that they differ by 1
    RESONANT_JORDAN = {
        "J2+J2": [[-1, 2, 0, 1], [-1, 1, 1, 1], [-1, 1, 1, 1], [-1, 2, -1, 1]],
        "J3+J3": [[0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 1, 0], [0, 0, 0, 1, 1, 0],
                  [0, 0, 0, 1, 1, 0], [-1, 1, 0, 0, 1, 1], [-1, 2, -1, 0, 0, 1]],
    }

    @pytest.mark.parametrize("name", sorted(RESONANT_JORDAN))
    def test_defective_resonant_limit_fails_condition_3(self, tmp_path, capsys, name):
        B = self.RESONANT_JORDAN[name]
        entries = [{"i": i, "j": j, "entry": f"{int(i == j)} + ({b})*(q-1)"}
                   for i, row in enumerate(B) for j, b in enumerate(row)]
        path = tmp_path / "resonant.json"
        path.write_text(json.dumps({"n": len(B), "q": "q", "entries": entries}))
        code, out = run(capsys, "confluence", "--file", str(path))
        doc = json.loads(out)
        assert code == 0 and doc["confluent"] is False
        assert doc["conditions"]["limit_regular_singular"] == {
            "status": "fail", "detail": "integer eigenvalue differences [1]"}

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1.5, "q": "q", "entries": [{"i": 0.9, "j": 0, "entry": "1+Q"}]},
            {"n": "1", "q": "q", "entries": [{"i": 0, "j": 0, "entry": "1+Q"}]},
            {"n": 1, "q": "q", "entries": [{"i": True, "j": 0, "entry": "1+Q"}]},
            {"n": 2, "q": "q", "entries": [{"i": 0, "j": 1.0, "entry": "1+Q"}]},
        ],
        ids=["float-size", "string-size", "bool-index", "float-index"],
    )
    def test_non_integer_size_or_index_is_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--file", str(path), "--D", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "integer" in err and err.count("\n") == 1

    def test_resonant_system_is_usage_error(self, tmp_path, capsys):
        # exponents 1 and 0.5 = q^1 differ by a power of q: the user's system is
        # resonant, an input error (2), not a failed verification (1)
        doc = {"n": 2, "q": [0.5, 0], "entries": [{"i": 0, "j": 0, "entry": "1"},
                                                  {"i": 1, "j": 1, "entry": "0.5"}]}
        path = tmp_path / "resonant.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--file", str(path), "--D", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: resonant exponent") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "--builtin", "pn-j", "--N", "2", "--D", "-1"),
            ("solve", "--builtin", "irregular-limit", "--D", "-2"),
            ("solve", "--builtin", "pn-j", "--N", "-1", "--D", "3"),
            ("confluence", "--builtin", "pn-j", "--N", "-1"),
            ("qhg", "--q", "0.5", "--upper", "0.3", "--lower", "0.6", "--D", "-3"),
            ("jfn", "--kind", "coh", "--N", "-1", "--D", "2"),
        ],
        ids=["negative-D", "negative-D-rank-1", "negative-N", "negative-N-confluence",
             "negative-D-qhg", "negative-N-jfn"],
    )
    def test_negative_size_is_one_line_usage_error(self, capsys, argv):
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be at least 0" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("nd", "--dmax", "100000"),
            ("solve", "--builtin", "pn-j", "--N", "2", "--D", "100000"),
            ("qhg", "--upper", "0.3,1.7", "--lower", "0.9", "--q", "0.35",
             "--D", "100000000", "--at", "0.2"),
            ("solve", "--file", "{big}", "--D", "2"),
        ],
        ids=["nd-dmax", "solve-D", "qhg-D", "file-q-exponent"],
    )
    def test_oversized_input_exits_2_fast(self, tmp_path, capsys, argv):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"n": 1, "q": "q", "entries": [{"i": 0, "j": 0, "entry": "1 + q^200000*Q"}]}))
        start = time.perf_counter()
        code = main([a.format(big=path) for a in argv])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and elapsed < 1.0
        assert err.startswith("error: ") and "exceeds the limit" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "entry, what",
        [("(q^100)^100", "q-exponent 10000"), ("1 + Q^5000", "Q-exponent 5000"),
         ("2^100000", "q-exponent 100000"), ("1/(1 - q)^2000", "q-exponent 2000")],
        ids=["nested-power", "Q-power", "constant-power", "negative-power"],
    )
    def test_oversized_entry_power_is_rejected_before_it_is_formed(self, tmp_path, capsys,
                                                                   entry, what):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 1, "q": "q", "entries": [{"i": 0, "j": 0, "entry": entry}]}))
        assert main(["confluence", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert what in err and "exceeds the limit 1000" in err and err.count("\n") == 1

    def test_size_limits_in_help(self):
        from qonf.cli import build_parser

        text = build_parser().format_help()
        for name, commands, cap in SIZE_LIMITS:
            assert f"{name} <= {cap} for {', '.join(commands)}" in text

    def test_birkhoff(self, capsys):
        code, out = run(capsys, "birkhoff", "--q", "0.55", "--Q", "0.7+1.1j")
        doc = json.loads(out)
        assert code == 0
        assert doc["q_constancy_residual"] < 1e-8

    @pytest.mark.parametrize("q", ["1.5", "0.5696406933619815+0.9605225582665823j"],
                             ids=["1.5", "double-root"])
    def test_birkhoff_q_outside_the_disk_is_usage_error(self, capsys, q):
        # the second q is a double root of the example's cubic
        assert main(["birkhoff", "--q", q, "--Q", "1+2j"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: need 0 < |q| < 1, got ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve", "confluence"])
    def test_file_system_size_is_capped_before_any_allocation(self, tmp_path, command):
        # under a 1 GB address-space limit, building the 10^6 x 10^6 matrix fails
        # at once instead of exhausting the host, so a missing check cannot pass
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"n": 1_000_000, "q": "q", "entries": [{"i": 0, "j": 0, "entry": "1"}]}))
        code = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from qonf.cli import main\n"
            f"sys.exit(main([{command!r}, '--file', {str(path)!r}]))\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env=env)
        assert proc.returncode == 2
        assert proc.stderr == "error: system size n = 1000000 exceeds the limit 21\n"


class TestJfn:
    def test_kth_table_contains_reference_coefficient(self, capsys):
        code, out = run(capsys, "jfn", "--kind", "kth", "--N", "2", "--D", "1")
        doc = json.loads(out)
        entry = next(r for r in doc["coeffs"] if (r["d"], r["i"]) == (1, 1))
        assert entry["coefficient"] == "(-3*q)/(1 - 4*q + 6*q^2 - 4*q^3 + q^4)"

    def test_coh_table(self, capsys):
        code, out = run(capsys, "jfn", "--kind", "coh", "--N", "2", "--D", "1")
        doc = json.loads(out)
        entry = next(r for r in doc["coeffs"] if (r["d"], r["i"]) == (1, 1))
        assert entry["coefficient"] == "-3"
        assert entry["z_exponent"] == -4

    def test_rank_one_column(self, capsys):
        code, out = run(capsys, "jfn", "--kind", "kth", "--N", "0", "--D", "3")
        doc = json.loads(out)
        assert doc["coeffs"][1]["coefficient"] == "(-1)/(-1 + q)"

    def test_modified_round_trips(self, capsys):
        code, out = run(capsys, "jfn", "--kind", "kth-modified", "--N", "1", "--D", "2")
        doc = json.loads(out)
        from qonf.gw import jk_modified

        assert doc == {"kind": "kth-modified", **series_to_json(jk_modified(1, 2))}

    def test_equivariant_table_is_pinned(self, capsys):
        # every printed bit of the restrictions' denominator tables
        code, out = run(capsys, "jfn", "--kind", "equivariant", "--N", "2", "--D", "6")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3154a4d41098958c8fc653efbb0a368480249741df0297bd3fef06a9acf5a088")

    def test_equivariant_resonant_exits_2(self, capsys):
        # resonant weights are an input error (2), not a failed verification (1)
        assert main(["jfn", "--kind", "equivariant", "--N", "1", "--D", "2",
                     "--lambdas", "0,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: resonant weights") and err.count("\n") == 1


class TestClassicalCommands:
    def test_potential(self, capsys):
        code, out = run(capsys, "potential", "--order", "2")
        doc = json.loads(out)
        assert code == 0
        rows = {(r["t0"], r["t1"], r["E"], r["t2"]): r["coefficient"]
                for r in doc["monomials"]}
        assert rows[(1, 2, 0, 0)] == "1/2"
        assert rows[(0, 0, 2, 5)] == "1/120"

    def test_wdvv_zero(self, capsys):
        code, out = run(capsys, "wdvv", "--order", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["identically_zero"] is True

    def test_wdvv_perturbed(self, capsys):
        code, out = run(capsys, "wdvv", "--order", "3", "--perturb", "2=2")
        doc = json.loads(out)
        assert code == 0
        assert doc["identically_zero"] is False
        assert doc["first_nonzero_E_degree"] == 2

    def test_wdvv_bad_perturb_flag(self, capsys):
        assert main(["wdvv", "--order", "3", "--perturb", "nonsense"]) == 2

    @pytest.mark.parametrize("d", ["0", "4", "9"])
    def test_wdvv_perturb_degree_outside_order(self, capsys, d):
        assert main(["wdvv", "--order", "3", "--perturb", f"{d}=1"]) == 2
        err = capsys.readouterr().err
        assert "outside 1..3" in err and err.count("\n") == 1


class TestCompareAndVerify:
    def test_compare_matches(self, capsys):
        code, out = run(capsys, "compare", "--N", "1", "--D", "3")
        doc = json.loads(out)
        assert code == 0
        assert doc["exact_match"] is True

    def test_compare_table(self, capsys):
        code, out = run(capsys, "compare", "--N", "2", "--D", "2", "--table")
        doc = json.loads(out)
        assert "p2_correspondence_table" in doc

    def test_verify_suite(self, capsys):
        code, out = run(capsys, "verify", "--suite", "gw-equivariant", "--seed", "0")
        assert code == 0
        assert "OK" in out

    def test_verify_reports_timings(self, capsys):
        code, out = run(capsys, "verify", "--suite", "gw-equivariant", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        seconds = [c["seconds"] for c in doc["checks"]]
        assert seconds and all(isinstance(t, float) and t >= 0 for t in seconds)
        assert isinstance(doc["total_seconds"], float)
        assert doc["total_seconds"] == pytest.approx(sum(seconds))

    def test_verify_json_passed_is_a_boolean(self, capsys):
        code, out = run(capsys, "verify", "--suite", "all", "--format", "json")
        checks = json.loads(out)["checks"]
        assert code == 0 and len(checks) == 59
        assert [c["name"] for c in checks if c["passed"] is not True] == []

    def test_verify_text_has_a_time_column(self, capsys):
        code, out = run(capsys, "verify", "--suite", "gw-equivariant")
        lines = out.splitlines()
        assert code == 0
        assert all(re.match(r"\[PASS\] +\d+\.\d{3}s \S", line) for line in lines[:-1])
        assert re.fullmatch(r"OK: (\d+)/\1 checks in \d+\.\d{3}s", lines[-1])

    def test_verify_help_names_the_timings(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "'seconds' per check" in text and "'total_seconds'" in text

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "nd.csv"
        code, _ = run(capsys, "nd", "--dmax", "2", "--output", str(path))
        assert code == 0
        assert path.read_text().splitlines()[2] == "2,1"


# ---------------------------------------------------------------- the input contract


def assert_contract(code, err):
    """Exit 0, 1 or 2; exit 2 with exactly one stderr line "error: ...".  An
    exception escaping main, the traceback of the console script, fails too."""
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, code", [
    ("solve --builtin pn-j --N 2 --D 4 --z 0", 2),
    ("confluence --builtin pn-j --N 2 --z 0", 2),
    ("jfn --kind equivariant --N 2 --D 4 --z 0", 2),
    ("jfn --kind equivariant --N 2 --D 4 --z 0 --q 1", 2),
    ("jfn --kind equivariant --N 2 --D 4 --q 1", 2),
    ("qchar --q 0.3 --lam 1e300 --Q 1", 2),
    ("qlog --q 0.3 --Q 1e308+1e308j", 0),  # in the domain: a q^k past the floats is skipped
    ("confluence --builtin pn-j --N 2 --q0 1", 2),
    ("confluence --builtin pn-j --N 2 --q0 0", 2),
    ("jfn --kind equivariant --N 2 --D 4 --q 0.5+0.9j", 2),
    ("theta --q 0.3 --Q abc", 2),
])
def test_probed_argv_exits_without_a_traceback(capsys, argv, code):
    # the first seven ended in a traceback, the next three exited 0, and the
    # last printed argparse's usage in three lines
    assert main(argv.split()) == code
    err = capsys.readouterr().err
    assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1


def test_flag_is_checked_before_any_work(capsys, monkeypatch):
    from qonf import cli

    monkeypatch.setattr(cli.gw, "jk_equivariant", None)  # any work would raise TypeError
    monkeypatch.setattr(cli.cfl, "builtin_system", None)
    assert main(["jfn", "--kind", "equivariant", "--N", "2", "--D", "4", "--q", "1"]) == 2
    assert main(["confluence", "--builtin", "pn-j", "--N", "2", "--q0", "1"]) == 2
    assert main(["solve", "--builtin", "pn-j", "--N", "2", "--D", "4", "--z", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: need 0 < |q| < 1, got (1+0j)"] * 2 + [
        "error: --z 0 must be nonzero for solve"]


# Numbers of every size and sign, |q| >= 1 among them, and values that are no number
NUMBER = st.sampled_from(["0.5", "0.3+0.4j", "0.15", "0.7-0.2j", "-0.4+0.1j", "0.99", "1j",
                          "0", "-1", "2", "1e308", "-1e308", "1e-300"])
JUNK = st.sampled_from(["nan", "inf", "abc", ""])


def size(flag, command):
    """Either small (at most 4) or beyond the cap, never in between."""
    cap = next(c for name, cmds, c in SIZE_LIMITS if name == flag and command in cmds)
    return st.sampled_from([-1, 0, 1, 2, 3, 4, cap + 1, 10 * cap]).map(str)


def flag(name, values):
    """One flag's argument: name for a switch (a value of None), else
    name=value, so that a value such as -1e308 is not read as a flag."""
    return values.map(lambda v: name if v is None else f"{name}={v}")


def output_flags(*formats):
    return [flag("--format", st.sampled_from(formats)), flag("--output", st.just("{tmp}/out.txt"))]


def command_flags():
    """Each subcommand with a strategy for the argument of each of its flags."""
    numbers = st.lists(NUMBER, max_size=3).map(",".join)
    system = flag("--builtin", st.sampled_from(BUILTIN_SYSTEMS)) | \
        flag("--file", st.just("{tmp}/system.json"))
    z = flag("--z", st.sampled_from(["1", "0", "-1/2"]))
    return {
        "nd": [flag("--dmax", size("--dmax", "nd")), *output_flags("csv", "text", "json")],
        "potential": [flag("--order", size("--order", "potential")),
                      *output_flags("json", "text")],
        "wdvv": [flag("--order", size("--order", "wdvv")),
                 flag("--perturb", st.sampled_from(["2=2", "x", "0=1", "9=1", "2=", "1=2=3"]))],
        "theta": [flag("--q", NUMBER), flag("--Q", NUMBER),
                  flag("--tol", st.sampled_from(["1e-12", "-1", "1e308"])),
                  *output_flags("json", "text")],
        "qchar": [flag("--q", NUMBER), flag("--lam", NUMBER), flag("--Q", NUMBER)],
        "qlog": [flag("--q", NUMBER), flag("--Q", NUMBER)],
        "qhg": [flag("--upper", numbers), flag("--lower", numbers), flag("--q", NUMBER),
                flag("--D", size("--D", "qhg")), flag("--at", NUMBER), flag("--bases", st.none())],
        "solve": [system, flag("--N", size("--N", "solve")), z, flag("--D", size("--D", "solve")),
                  flag("--q0", NUMBER), flag("--at", NUMBER)],
        "birkhoff": [flag("--q", NUMBER), flag("--Q", NUMBER)],
        "confluence": [system, flag("--N", size("--N", "confluence")), z, flag("--q0", NUMBER)],
        "jfn": [flag("--kind", st.sampled_from(["kth", "kth-modified", "coh", "equivariant"])),
                flag("--N", size("--N", "jfn")), flag("--D", size("--D", "jfn")),
                flag("--lambdas", numbers), flag("--z", NUMBER), flag("--q", NUMBER)],
        "compare": [flag("--N", size("--N", "compare")), flag("--D", size("--D", "compare")),
                    flag("--table", st.none())],
        "verify": [flag("--suite", st.sampled_from(tuple(SUITES))),
                   flag("--seed", st.sampled_from(["0", "-1"]))],
    }


FLAGS = command_flags()


@st.composite
def argvs(draw, commands=tuple(sorted(FLAGS))):
    """A subcommand and its flags, with at most one flag left out (a required
    one too) and at most one flag given a value that is no number."""
    command = draw(st.sampled_from(commands))
    missing, junk = (draw(st.none() | st.integers(0, len(FLAGS[command]) - 1))
                     for _ in range(2))
    argv = [command]
    for k, args in enumerate(FLAGS[command]):
        if k != missing:
            arg = draw(args)
            if k == junk and "=" in arg:
                arg = arg.split("=")[0] + "=" + draw(JUNK)
            argv.append(arg)
    return argv


# entries that parse, strings of the grammar's tokens, and hostile ones: too
# deep, over a cap, or dividing by zero
ENTRY = st.sampled_from(["1 - (1-q)*Q", "1 + Q", "q", "2", "(1 - q)/(1 - Q)", "1 + (q-1)*Q^2"]) | \
    st.lists(st.sampled_from(["q", "Q", "1", "2", "0", "0.5", "+", "-", "*", "/", "^", "(", ")",
                              "1001", "x"]), max_size=10).map("".join) | \
    st.sampled_from(["(" * 5000 + "1" + ")" * 5000, "q^2000", "1/(Q-Q)"])
INDEX = st.integers(0, 2) | st.sampled_from([-1, 3, 1.0, "0", None, True])
SYSTEM_ENTRY = st.fixed_dictionaries({"i": INDEX, "j": INDEX, "entry": ENTRY}) | \
    st.fixed_dictionaries({"i": INDEX, "j": INDEX, "num": ENTRY, "den": ENTRY}) | \
    st.fixed_dictionaries({}, optional={"i": INDEX, "entry": ENTRY, "num": ENTRY})
SYSTEM_DOC = st.fixed_dictionaries(
    {"n": st.integers(1, 3) | st.sampled_from([0, -1, 22, 10**6, 1.5, "1", True, None]),
     "q": st.sampled_from(["q", [0.5, 0], [0.5, 0.2], 0.5, [0, 0], [1e308, 0], [2, 0],
                           "x", None, []]),
     "entries": st.lists(SYSTEM_ENTRY, max_size=4) | st.sampled_from([5, None, {}])})
SYSTEM_TEXT = SYSTEM_DOC.map(json.dumps) | st.sampled_from(
    ["{not json", "[" * 100000, "", "null", "[]", '{"n": 1}'])

FUZZ = settings(max_examples=150, deadline=10_000, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run_contract(capsys, tmp_path, argv):
    code = main([a.format(tmp=tmp_path) for a in argv])
    assert_contract(code, capsys.readouterr().err)


@FUZZ
@given(argv=argvs(), text=SYSTEM_TEXT)
@example(argv="solve --builtin pn-j --N 2 --D 4 --z 0".split(), text="")
@example(argv="confluence --builtin pn-j --N 2 --z 0".split(), text="")
@example(argv="jfn --kind equivariant --N 2 --D 4 --z 0".split(), text="")
@example(argv="jfn --kind equivariant --N 2 --D 4 --q 1".split(), text="")
@example(argv="qchar --q 0.3 --lam 1e300 --Q 1".split(), text="")
@example(argv="qlog --q 0.3 --Q 1e308+1e308j".split(), text="")
@example(argv="theta --q 0.3 --Q abc".split(), text="")
def test_fuzzed_argv_keeps_the_contract(capsys, tmp_path, argv, text):
    (tmp_path / "system.json").write_text(text)
    run_contract(capsys, tmp_path, argv)


@FUZZ
@given(command=st.sampled_from(["solve", "confluence"]), text=SYSTEM_TEXT)
@example(command="solve", text="[" * 100000)
@example(command="solve", text='{"n": 1, "q": "q", "entries": [{"i": 0, "j": 0, "entry": "1 + (q-1)/Q"}]}')
def test_fuzzed_system_json_keeps_the_contract(capsys, tmp_path, command, text):
    (tmp_path / "system.json").write_text(text)
    argv = [command, "--file", "{tmp}/system.json"] + (["--D", "2"] if command == "solve" else [])
    run_contract(capsys, tmp_path, argv)
