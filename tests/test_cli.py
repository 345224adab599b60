import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from symquartic.cli import (
    CHOI_LAM_P_VECTOR,
    MAX_LITERAL_BITS,
    FormFileError,
    bundled_choi_lam,
    load_form_file,
    main,
    parse_rational,
)
from symquartic.symfunc import LIMIT


def write_form(tmp_path, data, name="form.form"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def cli_env():
    """The environment for running the CLI of this checkout in a subprocess."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def p_form(coeffs, scope=4, **extra):
    data = {
        "description": "test form",
        "degree": 4,
        "basis": "p",
        "scope": scope,
        "coefficients": coeffs,
    }
    data.update(extra)
    return data


class TestParsing:
    def test_parse_rational_variants(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational("−5/8") == Fraction(-5, 8)
        with pytest.raises(FormFileError):
            parse_rational("1.5.2")

    def test_literal_bit_bound(self):
        # about 1200 decimal digits per side stays below the bound
        near = "3" * 1200 + "/" + "7" * 1200
        assert parse_rational(near).denominator.bit_length() <= MAX_LITERAL_BITS
        assert parse_rational("-25e-1200") == Fraction(-25, 10**1200)
        for text in ("1e1000000", "1e-1000000", "1" * 1300, "1/" + "3" * 1300,
                     "2.5e" + "9" * 30, "1_0e1_000_000"):
            with pytest.raises(FormFileError):
                parse_rational(text)
        with pytest.raises(FormFileError):
            parse_rational(1 << (MAX_LITERAL_BITS + 1))

    @pytest.mark.parametrize("literal", ["1e1000000", "-7e-999999999", "9" * 5000])
    def test_hostile_literal_exits_2_fast(self, tmp_path, literal):
        path = write_form(tmp_path, p_form({"4": literal, "2,2": "1"}))
        env = cli_env()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "symquartic.cli", "check", "nonneg", "--n", "4", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "error:" in proc.stderr
        assert time.monotonic() - start < 30

    def test_unknown_field_rejected(self, tmp_path):
        path = write_form(tmp_path, p_form({"4": "1"}, extra_field=1))
        with pytest.raises(FormFileError):
            load_form_file(path)
        assert main(["check", "nonneg", "--n", "4", path]) == 2

    def test_bad_rational_rejected(self, tmp_path):
        path = write_form(tmp_path, p_form({"4": "one"}))
        assert main(["check", "nonneg", "--n", "4", path]) == 2

    def test_bad_partition_key_rejected(self, tmp_path):
        for key in ("1,3", "2,2,1", "0", "a"):
            path = write_form(tmp_path, p_form({key: "1"}))
            assert main(["check", "nonneg", "--n", "4", path]) == 2

    def test_bad_monomial_entry_rejected(self, tmp_path):
        base = {
            "description": "bad",
            "degree": 4,
            "basis": "monomial",
            "scope": 4,
            "monomials": [{"exponents": [2, 2, 0, 0]}],
        }
        path = write_form(tmp_path, base)
        assert main(["check", "nonneg", "--n", "4", path]) == 2
        base["monomials"] = [
            {"exponents": [2, 1, 0, 0], "coefficient": "1"}  # degree mismatch
        ]
        path = write_form(tmp_path, base)
        assert main(["check", "nonneg", "--n", "4", path]) == 2

    def test_limit_scope_round_trip(self, tmp_path):
        path = write_form(tmp_path, p_form({"2,2": "1"}, scope="limit"))
        ff = load_form_file(path)
        assert ff.scope is LIMIT


class TestCheckCommand:
    def test_in_and_out_exit_codes(self, tmp_path):
        inside = write_form(tmp_path, p_form({"4": "1", "2,2": "-1"}), "in.form")
        outside = write_form(tmp_path, p_form({"2,2": "1", "4": "-1"}), "out.form")
        assert main(["check", "nonneg", "--n", "4", inside]) == 0
        assert main(["check", "sos", "--n", "4", inside]) == 0
        assert main(["check", "nonneg", "--n", "4", outside]) == 1
        assert main(["check", "sos", "--n", "4", outside]) == 1

    def test_scope_override(self, tmp_path):
        path = write_form(tmp_path, p_form({"4": "1"}, scope="limit"))
        assert main(["check", "nonneg", "--limit", path]) == 0
        assert main(["check", "nonneg", "--n", "6", path]) == 0

    def test_bundled_nonneg_not_sos_form(self):
        from importlib.resources import files

        path = str(files("symquartic").joinpath("data/choi_lam.form"))
        assert main(["check", "nonneg", "--n", "4", path]) == 0
        assert main(["check", "sos", "--n", "4", path]) == 1

    def test_sos_out_prints_verified_separator(self, tmp_path, capsys):
        # nonnegative but not SOS at n = 5; the former grid search found no
        # separator for it and printed none
        path = write_form(tmp_path, p_form(
            {"4": "9/16", "3,1": "-21/8", "2,2": "27/16", "2,1,1": "7/16",
             "1,1,1,1": "-1/1024"}, scope=5))
        assert main(["check", "sos", "--n", "5", path]) == 1
        out = capsys.readouterr().out
        assert "status: OUT" in out
        assert "separator: y4=" in out
        assert "separator block two-row: " in out
        assert "separator verified: true" in out
        pairing = next(line for line in out.splitlines() if line.startswith("separator pairing:"))
        assert pairing.split(": ")[1].startswith("-")

    def test_bundled_form_p_vector(self):
        from symquartic.cli import form_to_p

        f = form_to_p(bundled_choi_lam(), 4)
        assert f.coeffs == CHOI_LAM_P_VECTOR


    def test_huge_n_bounded_time(self, tmp_path, capsys):
        # n = 10^6 + 1 grid weights would take minutes; the alpha-cells
        # decide it from a handful of them
        inside = write_form(tmp_path, TestPlotdataCommand.EX, "in.form")
        assert main(["check", "nonneg", "--n", "1000000", inside]) == 0
        assert "status: IN" in capsys.readouterr().out
        # negative only on a window of weights around 1/2
        window = write_form(
            tmp_path, p_form({"4": "1", "2,2": "-1000001/1000000", "1,1,1,1": "1"}), "out.form"
        )
        assert main(["check", "nonneg", "--n", "1000000", window]) == 1
        assert "status: OUT" in capsys.readouterr().out

    @pytest.mark.parametrize("k", [400, 1200])
    def test_close_gamma_roots_bounded_time(self, tmp_path, k):
        # (1, 0, -1 + 10^-k, 0, 1): at n = 6 the gamma range is
        # (0, 4.5 * 10^-k), and two gamma-condition roots about 10^-3k
        # apart lie about 10^-2k below its upper end.  Isolating them cost
        # about 1 s at k = 400 and 4-8 s at k = 1200 on a 2-vCPU VM, but the
        # form is feasible at gamma = 0, the lower end, which sos_membership
        # tests first.  This times the whole CLI process; the gamma-scan
        # isolates no root at all (test_sos.py::
        # test_gamma_scan_isolates_no_root), and its in-process time next
        # to an end is bounded by test_sos.py::
        # test_gamma_scan_near_an_end_bounded_time.
        path = write_form(tmp_path, p_form({"4": "1", "2,2": f"{1 - 10**k}/{10**k}", "1,1,1,1": "1"}))
        env = cli_env()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "symquartic.cli", "check", "sos", "--n", "6", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        assert "status: IN" in proc.stdout
        assert elapsed < 5, elapsed


class TestConvertCommand:
    def test_round_trip_p_to_m_to_p(self, tmp_path, capsys):
        src = write_form(tmp_path, p_form({"4": "1", "3,1": "-1/2", "2,1,1": "2"}))
        assert main(["convert", "--to", "m", "--n", "4", src]) == 0
        m_text = capsys.readouterr().out
        m_path = tmp_path / "m.form"
        m_data = json.loads(m_text)
        m_data["description"] = "round trip"
        m_path.write_text(json.dumps(m_data))
        assert main(["convert", "--to", "p", "--n", "4", str(m_path)]) == 0
        p_data = json.loads(capsys.readouterr().out)
        assert p_data["coefficients"] == {"4": "1", "3,1": "-1/2", "2,1,1": "2"}

    def test_deterministic_output(self, tmp_path, capsys):
        src = write_form(tmp_path, p_form({"4": "1", "2,2": "-1"}))
        outputs = []
        for _ in range(2):
            assert main(["convert", "--to", "m", "--n", "4", src]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["coefficients"] == {"4": "3/4", "2,2": "-3/4"}

    def test_limit_conversion_requires_limit_existence(self, tmp_path):
        src = write_form(tmp_path, p_form({"4": "1"}, scope="limit"))
        assert main(["convert", "--to", "m", "--limit", src]) == 0

    @pytest.mark.parametrize("degree", [70, 10**6])
    def test_degree_above_bound_exits_2_fast(self, tmp_path, degree):
        # refused before the partitions of the degree are listed
        path = write_form(tmp_path, {"degree": degree, "basis": "p", "scope": "limit",
                                     "coefficients": {str(degree): "1"}})
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "symquartic.cli", "convert", "--to", "m", "--limit", path],
            capture_output=True, text=True, env=cli_env(), timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "error: degree above 8" in proc.stderr
        assert time.monotonic() - start < 5


class TestPlotdataCommand:
    EX = {
        "description": "boundary family member",
        "degree": 4,
        "basis": "p",
        "scope": "limit",
        "coefficients": {
            "4": "1",
            "3,1": "-13/5",
            "2,1,1": "179/100",
            "1,1,1,1": "-51/400",
        },
    }

    def test_disc_values(self, tmp_path, capsys):
        path = write_form(tmp_path, self.EX)
        assert main(["plotdata", "--what", "disc", "--samples", "4", "--limit", path]) == 0
        rows = [
            line.split("\t")
            for line in capsys.readouterr().out.strip().splitlines()
            if not line.startswith("#")
        ]
        assert len(rows) == 5
        assert Fraction(rows[0][1]) == 0  # alpha = 0
        assert Fraction(rows[-1][1]) == 0  # alpha = 1

    def test_disc_of_square_is_zero(self, tmp_path, capsys):
        path = write_form(tmp_path, p_form({"2,2": "1"}, scope="limit"))
        assert main(["plotdata", "--what", "disc", "--samples", "8", "--limit", path]) == 0
        rows = [
            line.split("\t")
            for line in capsys.readouterr().out.strip().splitlines()
            if not line.startswith("#")
        ]
        assert all(Fraction(r[1]) == 0 for r in rows)

    def test_minval_endpoint(self, tmp_path, capsys):
        path = write_form(tmp_path, p_form({"2,2": "1"}, scope="limit"))
        assert main(["plotdata", "--what", "minval", "--samples", "4", "--limit", path]) == 0
        rows = [
            line.split("\t")
            for line in capsys.readouterr().out.strip().splitlines()
            if not line.startswith("#")
        ]
        # the alpha-section of p_(2,2) at y = 1 is (alpha x^2 + (1-alpha))^2,
        # whose minimum over x is (1-alpha)^2, attained at x = 0
        expected = ["1", "9/16", "1/4", "1/16", "0"]
        assert [r[1] for r in rows] == expected
        assert rows[0][0] == "0"

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            (
                {"4": "1", "2,2": "-1", "2,1,1": "1/2"},
                ["1/2", "64879/524288", "0", "71645/1048576", "0"],
            ),
            (
                {"4": "1", "3,1": "-3"},
                ["-2", "-805254531/16777216", "-inf", "-inf", "-inf"],
            ),
        ],
        ids=["positive-min", "negative-min"],
    )
    def test_minval_bisection(self, tmp_path, capsys, coeffs, expected):
        # minima away from x = 0: dyadic lower bounds within 2^-20 from the
        # bisection, found below p(0) - 1 in the second form
        path = write_form(tmp_path, p_form(coeffs, scope="limit"))
        assert main(["plotdata", "--what", "minval", "--samples", "4", "--limit", path]) == 0
        rows = [
            line.split("\t")
            for line in capsys.readouterr().out.strip().splitlines()
            if not line.startswith("#")
        ]
        assert [r[1] for r in rows] == expected

    def test_zero_samples_rejected(self, tmp_path):
        path = write_form(tmp_path, self.EX)
        assert main(["plotdata", "--what", "disc", "--samples", "0", "--limit", path]) == 2


class TestReproCommands:
    @pytest.mark.parametrize(
        "name",
        ["choi-lam", "example-6-10", "q-blocks", "disc-factorization"],
    )
    def test_quick_repros_pass(self, name):
        assert main(["repro", name]) == 0


#: Run in a fresh interpreter by ``TestNoSympyAtRuntime``: every CLI command
#: and the boundary decision of the example-6.10 form, then report whether
#: sympy was imported.
_NO_SYMPY_SCRIPT = """
import contextlib, io, json, sys
from fractions import Fraction
from symquartic.cli import main
from symquartic.positivity import boundary_status_limit
from symquartic.symfunc import LIMIT, SymFormP

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
f = SymFormP(4, (Fraction(1), Fraction(-13, 5), Fraction(0), Fraction(179, 100),
                 Fraction(-51, 400)), LIMIT)
print(json.dumps([codes, boundary_status_limit(f).status, "sympy" in sys.modules]))
"""


class TestNoSympyAtRuntime:
    def test_commands_do_not_import_sympy(self, tmp_path):
        example = write_form(tmp_path, TestPlotdataCommand.EX, "example.form")
        # nonnegative but not SOS at n = 5, with a breakpoint of the gamma
        # scan inside an isolating interval
        near = write_form(tmp_path, p_form(
            {"4": "9/16", "3,1": "-21/8", "2,2": "27/16", "2,1,1": "7/16",
             "1,1,1,1": "-1e-10"}, scope=5), "near.form")
        runs = [
            (["check", "nonneg", "--n", "4", example], 0),
            (["check", "nonneg", "--limit", example], 0),
            (["check", "sos", "--n", "4", example], 0),
            (["check", "sos", "--limit", example], 0),
            (["check", "nonneg", "--n", "5", near], 0),
            (["check", "sos", "--n", "5", near], 1),
            (["convert", "--to", "m", "--n", "4", example], 0),
            (["convert", "--to", "p", "--limit", example], 0),
            (["plotdata", "--what", "disc", "--samples", "4", "--limit", example], 0),
            (["plotdata", "--what", "minval", "--samples", "4", "--limit", example], 0),
        ] + [
            (["repro", name], 0)
            for name in ("choi-lam", "example-6-10", "disc-factorization", "q-blocks",
                         "limit-equality")
        ]
        env = cli_env()
        proc = subprocess.run(
            [sys.executable, "-c", _NO_SYMPY_SCRIPT, json.dumps([argv for argv, _ in runs])],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        codes, boundary, sympy_loaded = json.loads(proc.stdout.strip().splitlines()[-1])
        assert codes == [code for _, code in runs]
        assert boundary == "BOUNDARY"
        assert not sympy_loaded
