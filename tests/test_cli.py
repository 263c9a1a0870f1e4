import hashlib
import json
import re
import time

import pytest

from qonf.cli import main
from qonf.rings import series_to_json


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
        from qonf.cli import SIZE_LIMITS, build_parser

        text = build_parser().format_help()
        for name, commands, cap in SIZE_LIMITS:
            assert f"{name} <= {cap} for {', '.join(commands)}" in text

    def test_birkhoff(self, capsys):
        code, out = run(capsys, "birkhoff", "--q", "0.55", "--Q", "0.7+1.1j")
        doc = json.loads(out)
        assert code == 0
        assert doc["q_constancy_residual"] < 1e-8


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
