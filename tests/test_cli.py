import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from halkron import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def config_of(out: str) -> dict:
    """The config of a command's stdout, after its format version is checked."""
    if out.startswith("{"):
        assert json.loads(out)["format_version"] == cli.FORMAT_VERSION
        return json.loads(out)["config"]
    lines = out.splitlines()
    assert lines[0] == f"# format_version: {cli.FORMAT_VERSION}"
    assert lines[1].startswith("# config: ")
    return json.loads(lines[1][len("# config: "):])


class TestGen:
    def test_emits_rows(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "1", "--alpha", "theorem", "--count", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# format_version")
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at] == "k,x_bits_hex,y_bits_hex,x_float,y_float"
        assert len(lines) == header_at + 1 + 16

    def test_bits_alpha(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "2", "--alpha", "bits:0xdeadbeef:32",
                           "--count", "8")
        assert code == 0
        assert config_of(out)["width"] == 32  # the spec's width, not --width

    def test_count_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "1", "--alpha", "theorem", "--count", "0")
        assert code == 2
        assert "count" in err

    def test_bad_alpha_spec(self, capsys):
        code, _, err = run(capsys, "gen", "--n", "1", "--alpha", "nope", "--count", "4")
        assert code == 2
        for spec in ("frac:abc", "frac:x/3"):
            code, _, err = run(capsys, "gen", "--n", "1", "--alpha", spec, "--count", "4")
            assert code == 2
            assert "frac spec must look like frac:P/Q" in err
        for spec in ("bits:zz:128", "bits:0x12", "bits:0x12:x", "bits:0x12:8:9"):
            code, _, err = run(capsys, "gen", "--n", "1", "--alpha", spec, "--count", "4")
            assert code == 2
            assert "bits spec must look like bits:0x1234:128" in err

    def test_guard_and_force(self, capsys):
        argv = ["gen", "--n", "1", "--count", "5", "--guard", "4"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == ("guard: the point set has 5 points, above the cap of 4; "
                       "pass --force to go past it\n")
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 1 + 5

    def test_bad_range(self, capsys):
        for text in ("x", "3..x", "..4", "1..2..3"):
            code, _, err = run(capsys, "scan", "--n", "1", "--alpha", "theorem", "--L", text)
            assert code == 2
            assert err.strip() == "error: range must look like 4..13 or 3"
        code, _, err = run(capsys, "gen", "--n", "one", "--alpha", "theorem", "--count", "4")
        assert code == 2
        assert "range must look like 4..13 or 3" in err


class TestDiscAndScan:
    def test_disc_reports_exact_value(self, capsys):
        code, out, _ = run(capsys, "disc", "--n", "1", "--alpha", "frac:1/2", "--count", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["n_points"] == 4
        assert 0 < doc["d_star"] <= 1
        num, den = doc["d_star_exact"].split("/")
        assert int(den) > 0

    def test_scan_csv_and_json(self, tmp_path, capsys):
        jpath = tmp_path / "scan.json"
        code, out, _ = run(capsys, "scan", "--n", "1", "--alpha", "theorem",
                           "--L", "4..7", "--json", str(jpath))
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "L,N,NDstar,logN,logNDstar"
        assert len(lines) == 5
        doc = json.loads(jpath.read_text())
        assert doc["a_n_reference"] == pytest.approx(math.log(3) / math.log(4), abs=1e-12)
        assert doc["fitted_exponent"] is not None

    def test_single_l_degenerate(self, tmp_path, capsys):
        jpath = tmp_path / "s.json"
        code, _, _ = run(capsys, "scan", "--n", "1", "--alpha", "theorem",
                         "--L", "5", "--json", str(jpath))
        assert code == 0
        assert json.loads(jpath.read_text())["fitted_exponent"] is None

    def test_guard_exit_code(self, capsys):
        code, _, err = run(capsys, "scan", "--n", "1", "--alpha", "theorem", "--L", "4..30")
        assert code == 3
        assert "guard" in err

    @pytest.mark.parametrize("argv", [["disc", "--count", "64"], ["scan", "--L", "4..6"]],
                             ids=["disc", "scan"])
    def test_guard_and_force(self, capsys, argv):
        argv = [*argv, "--n", "1", "--guard", "16"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("guard: ") and "--force" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0
        assert out

    def test_bad_l_is_checked_before_the_guard(self, capsys):
        code, out, err = run(capsys, "scan", "--n", "1", "--L", "0..30")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestTrigAndLambda:
    def test_an_curve(self, capsys):
        code, out, _ = run(capsys, "trig", "--n", "1..10", "--mode", "an")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,a_n"
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert vals == sorted(vals)

    def test_gn_sweep(self, capsys):
        code, out, _ = run(capsys, "trig", "--n", "2", "--mode", "gn", "--grid", "2000")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "x,Gn,bound_ok"
        assert len(lines) == 2002

    def test_n_beyond_1022_is_usage_error(self, capsys):
        for argv in (["--n", "1100", "--mode", "an"],
                     ["--n", "1030", "--mode", "gn", "--grid", "1000"]):
            code, out, err = run(capsys, "trig", *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")

    def test_lambda_depth_zero_anchor(self, tmp_path, capsys):
        jpath = tmp_path / "l.json"
        code, out, _ = run(capsys, "lambda", "--n", "1", "--depth", "0",
                           "--grid", "4096", "--json", str(jpath))
        assert code == 0
        doc = json.loads(jpath.read_text())
        assert doc["table"]["1"]["exp_upper"] == pytest.approx(0.5, abs=1e-9)

    def test_lambda_single_n_header(self, capsys):
        code, out, _ = run(capsys, "lambda", "--n", "2", "--depth", "2", "--grid", "4096")
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "j,m_j,M_j,exp_lower,exp_upper"

    def test_lambda_range_refinement(self, tmp_path, capsys):
        jpath = tmp_path / "l2.json"
        # the collocation converges geometrically, so a second grid refines
        # nothing: the payload is the table alone
        code, out, _ = run(capsys, "lambda", "--n", "1..2", "--depth", "2",
                           "--grid", "2048", "--json", str(jpath))
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,j,m_j,M_j,exp_lower,exp_upper"
        doc = json.loads(jpath.read_text())
        assert set(doc) == {"config", "format_version", "table"}

    def test_lambda_grid_below_256_is_usage_error(self, capsys):
        for grid in ("0", "255"):
            code, out, err = run(capsys, "lambda", "--n", "1", "--depth", "1", "--grid", grid)
            assert code == 2
            assert out == ""
            assert err == "error: grid_size must be >= 256\n"


class TestKernelGuard:
    def test_large_n_is_guarded(self, capsys, tmp_path):
        # n = 14 runs, and its depth-12 bracket holds the spectral exponent;
        # n = 17 runs too, since the collocation takes 2 branches a step, but
        # certify's mu(17) sums 2^17 terms, above the cap of 2^16
        jpath = tmp_path / "l.json"
        code, out, _ = run(capsys, "lambda", "--n", "14", "--depth", "12", "--json", str(jpath))
        assert code == 0
        bracket = json.loads(jpath.read_text())["table"]["14"]
        assert bracket["exp_lower"] - 1e-12 <= 0.1970369445925 <= bracket["exp_upper"] + 1e-12
        code, out, _ = run(capsys, "lambda", "--n", "17", "--depth", "12")
        assert code == 0 and "# n=17: exponent bracket" in out
        code, out, err = run(capsys, "certify", "--n", "17")
        assert code == 3
        assert out == "" and "mu sums 2^17 terms" in err and "--force" in err

    def test_n_above_1000_is_usage_error(self, capsys, monkeypatch):
        # at n = 1024 the first level's node values are subnormal; the rule
        # refuses a range before any of its levels is built
        code, out, _ = run(capsys, "lambda", "--n", "1000", "--depth", "12", "--grid", "256")
        assert code == 0 and "# n=1000: exponent bracket" in out

        def build(*args):
            raise AssertionError("a level was built before the n rule")

        monkeypatch.setattr(cli.metric, "phi_levels", build)
        for n in ("1001", "999..1001"):
            code, out, err = run(capsys, "lambda", "--n", n, "--depth", "12", "--grid", "256")
            assert code == 2 and out == ""
            assert err == "error: n must lie in 1..1000\n"

    def test_large_depth_is_guarded(self, capsys):
        # the grid is sampled a block at a time, so 2^22 cells need no
        # --force; the depth sets the level stack, the sample block and the
        # searches: levels 0..5001 of a block of 2^14 + 1 points need 1.3 GB
        code, out, _ = run(capsys, "lambda", "--n", "1", "--depth", "12", "--grid", str(1 << 22))
        assert code == 0 and "# n=1: exponent bracket" in out
        code, out, err = run(capsys, "lambda", "--n", "1", "--depth", "5000")
        assert code == 3
        assert out == ""
        levels, basis = 5002, 8 * 48 + 17
        need = (8 * (levels * 48 + 8192) + 2 * 48 * (basis + 8)
                + (2**14 + 1) * (basis + 8 + 16 * levels) + 2 * 5001 * (4 * 8 * 48 + basis))
        assert f"levels 0..5001 need {need} bytes" in err and "--force" in err

    def test_force_overrides_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_BYTE_CAP", 1000)
        argv = ["lambda", "--n", "1", "--depth", "1", "--grid", "256"]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "guard:" in err and "--force" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0
        assert "exponent bracket" in out
        # certify's levels take the same bytes for every n, so no byte cap guards them
        code, _, _ = run(capsys, "certify", "--n", "1", "--grid", "2000", "--blocks", "5")
        assert code == 0

    def test_grid_rule_is_checked_first(self, capsys, monkeypatch):
        # integral's one size rule is integral_pi's n * L <= 60, a usage
        # error; within it n = 30 runs with no guard
        code, out, err = run(capsys, "integral", "--n", "1", "--L", "100000000")
        assert code == 2 and out == ""
        assert err == "error: n * blocks must stay <= 60 for the recurrence path\n"
        built = []

        def build(n, blocks):
            built.append(n)
            return cli.metric.IntegralPi(n, blocks, 1.0, 1.0)

        monkeypatch.setattr(cli.metric, "integral_pi", build)
        code, _, _ = run(capsys, "integral", "--n", "30", "--L", "1")
        assert code == 0 and built == [30]


class TestCertify:
    def test_small_grid_is_usage_error(self, capsys, monkeypatch):
        # the one grid rule is trigprod.dichotomy_grid's; no structural check runs first
        def work(*args):
            raise AssertionError("a structural check ran before the grid rule")

        monkeypatch.setattr(cli.metric, "structural_checks", work)
        for argv in (["--n", "1", "--grid", "100"], ["--n", "1..2", "--grid", "999"]):
            code, out, err = run(capsys, "certify", *argv)
            assert code == 2 and out == ""
            assert err == "error: grid_size must be >= 1000\n"

    def test_passes_for_n1(self, capsys):
        code, out, _ = run(capsys, "certify", "--n", "1", "--grid", "2000", "--blocks", "5")
        assert code == 0
        doc = json.loads(out)
        rep = doc["reports"][0]
        assert rep["passed"] and rep["gelfond_max_violation"] <= 1e-12
        assert "gelfond_worst_x" in rep

    def test_failure_exit_code(self, capsys, monkeypatch):
        from halkron.trigprod import GelfondCertificate

        def fake(n, grid):
            return GelfondCertificate(n, grid, 1.0, 0.5)

        monkeypatch.setattr(cli.trigprod, "gelfond_certify", fake)
        code, _, _ = run(capsys, "certify", "--n", "1", "--grid", "2000", "--blocks", "2")
        assert code == 4

    def test_sharpness_beyond_its_size_rule_is_usage_error(self, capsys, monkeypatch):
        def work(*args):
            raise AssertionError("work started before the size rule")

        monkeypatch.setattr(cli.trigprod, "gelfond_certify", work)
        for argv in (["--n", "1", "--blocks", "1001"], ["--n", "1..2", "--blocks", "501"]):
            code, out, err = run(capsys, "certify", "--grid", "2000", *argv)
            assert code == 2 and out == ""
            assert "n * blocks must stay <= 1000" in err


class TestBoundAndIntegral:
    def test_bound_outputs(self, tmp_path, capsys):
        jpath = tmp_path / "b.json"
        code, out, _ = run(capsys, "bound", "--n", "1", "--alpha", "theorem",
                           "--N", "256", "--H", "256", "--K", "256",
                           "--json", str(jpath))
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "ell,h,term_norm,term_prod"
        doc = json.loads(jpath.read_text())
        assert doc["total"] > 0 and not doc["degenerate"]

    def test_degenerate_bound_writes_null(self, tmp_path, capsys):
        jpath = tmp_path / "b.json"
        code, _, _ = run(capsys, "bound", "--n", "1", "--alpha", "frac:1/2",
                         "--N", "16", "--H", "16", "--K", "16", "--json", str(jpath))
        assert code == 0
        doc = json.loads(jpath.read_text())
        assert doc["term_sum"] is None and doc["total"] is None
        assert doc["degenerate"] and doc["term_nk"] == 1.0

    def test_integral(self, capsys):
        code, out, _ = run(capsys, "integral", "--n", "1", "--L", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["by_recurrence"] == pytest.approx(2.0 / math.pi, abs=1e-8)
        assert doc["consistent"]


class TestBoundGuard:
    def test_huge_table_is_refused_before_it_is_built(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("the table was built")

        monkeypatch.setattr(cli.expsum, "upper_bound_rhs", build)
        size = str(2**40)
        code, out, err = run(capsys, "bound", "--n", "1", "--N", size, "--H", size, "--K", size)
        assert code == 3
        assert out == ""
        assert f"has {2**40 - 1} rows" in err and "--force" in err

    def test_benchmark_table_runs(self, capsys):
        size = str(2**16)
        code, out, _ = run(capsys, "bound", "--n", "1", "--N", size, "--H", size, "--K", size)
        assert code == 0
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 1 + 65535

    def test_force_overrides_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_BOUND_ROW_CAP", 100)
        argv = ["bound", "--n", "1", "--N", "256", "--H", "256", "--K", "256"]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "has 255 rows" in err
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0
        assert len([l for l in out.splitlines() if not l.startswith("#")]) == 1 + 255


class TestAllocationFailure:
    """10^15 elements are above the 128 TiB address space, so the first
    allocation fails at once: a ``guard:`` line and exit 3, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "1", "--count", str(10**15), "--force"],
        ["trig", "--n", "3", "--mode", "gn", "--grid", str(10**15)],
        ["certify", "--n", "1", "--grid", str(10**15)],
    ], ids=["gen", "trig", "certify"])
    def test_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "guard: the sizes asked for do not fit in memory\n"


class TestReproducibility:
    def test_same_config_same_bytes(self, capsys):
        _, out1, _ = run(capsys, "scan", "--n", "1", "--alpha", "theorem", "--L", "4..6")
        _, out2, _ = run(capsys, "scan", "--n", "1", "--alpha", "theorem", "--L", "4..6")
        assert out1 == out2


class TestConfig:
    """A config lists exactly the flags the command's result reads."""

    @pytest.mark.parametrize("argv,keys", [
        (["trig", "--n", "1..3"], {"n", "mode"}),
        (["trig", "--n", "3", "--mode", "gn", "--grid", "1000"], {"n", "mode", "grid"}),
        (["scan", "--n", "1", "--L", "3..4"], {"n", "alpha", "L", "width"}),
        (["lambda", "--n", "1", "--depth", "1", "--grid", "256"], {"n", "depth", "grid"}),
        (["certify", "--n", "1", "--grid", "2000", "--blocks", "5"], {"n", "grid", "blocks"}),
        (["integral", "--n", "1", "--L", "1"], {"n", "L"}),
        (["gen", "--n", "1", "--count", "4"], {"n", "alpha", "count", "width"}),
        (["disc", "--n", "1", "--count", "4"], {"n", "alpha", "count", "width"}),
        (["bound", "--n", "1", "--N", "16", "--H", "16", "--K", "16"],
         {"n", "alpha", "N", "H", "K", "width"}),
    ], ids=["trig-an", "trig-gn", "scan", "lambda", "certify", "integral", "gen", "disc",
            "bound"])
    def test_keys(self, capsys, argv, keys):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert set(config_of(out)) == keys

    def test_gen_writes_no_other_comment_line(self, capsys):
        code, out, _ = run(capsys, "gen", "--n", "2", "--alpha", "frac:1/3", "--count", "8")
        assert code == 0
        comments = [l.split(":")[0] for l in out.splitlines() if l.startswith("#")]
        assert comments == ["# format_version", "# config"]

    def test_lambda_brackets_follow_the_table_in_a_file(self, tmp_path, capsys):
        path, jpath = tmp_path / "l.csv", tmp_path / "l.json"
        code, out, _ = run(capsys, "lambda", "--n", "1..2", "--depth", "1", "--grid", "256",
                           "--out", str(path), "--json", str(jpath))
        assert code == 0 and out == ""
        tail = path.read_text().splitlines()[-2:]
        assert [l.split(":")[0] for l in tail] == ["# n=1", "# n=2"]
        assert all("exponent bracket [" in l for l in tail)


class TestUnwritablePath:
    """A path that cannot be written is one ``error:`` line and exit 2,
    before anything reaches stdout."""

    def test_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "trig", "--n", "1..3", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_json(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "disc", "--n", "1", "--count", "16", "--json", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: No such file or directory\n"


ALPHA_COMMANDS = [
    ["gen", "--n", "1", "--count", "4"],
    ["gen", "--n", "1", "--count", "4", "--alpha", "bits:0x5:8"],
    ["disc", "--n", "1", "--count", "4"],
    ["scan", "--n", "1", "--L", "2"],
    ["bound", "--n", "1", "--N", "16", "--H", "16", "--K", "16"],
]
ALPHA_FREE_COMMANDS = [
    ["trig", "--n", "1"],
    ["lambda", "--n", "1", "--depth", "3", "--grid", "2048"],
    ["certify", "--n", "1", "--grid", "2000", "--blocks", "2"],
    ["integral", "--n", "1", "--L", "3"],
]


@pytest.mark.parametrize("argv", ALPHA_COMMANDS + ALPHA_FREE_COMMANDS,
                         ids=["gen", "gen-bits", "disc", "scan", "bound",
                              "trig", "lambda", "certify", "integral"])
def test_width_below_one_is_usage_error(capsys, argv):
    # an alpha command checks it, also for a bits: spec, which carries its
    # own width; any other command has no --width, so argparse rejects the flag
    for width in ("0", "-5"):
        if argv in ALPHA_COMMANDS:
            code, out, err = run(capsys, *argv, "--width", width)
            assert code == 2 and out == ""
            assert err == f"error: width must be >= 1, got {width}\n"
            continue
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--width", width])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --width {width}" in capsys.readouterr().err


def test_width_before_the_command_is_rejected(capsys):
    # halkron has no top-level flag, so 7 reads as the command
    for argv in ALPHA_COMMANDS + ALPHA_FREE_COMMANDS:
        with pytest.raises(SystemExit) as exc:
            cli.main(["--width", "7", *argv])
        assert exc.value.code == 2
        assert "invalid choice: '7'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "disc", "scan", "bound",
                                     "trig", "lambda", "certify", "integral"])
def test_help_lists_width_for_the_alpha_commands_only(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert ("--width" in capsys.readouterr().out) == (command in ("gen", "disc", "scan", "bound"))


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "2", "--alpha", "frac:1/3", "--count", "8", "--width", "40"],
    ["gen", "--n", "2", "--alpha", "bits:0xdeadbeef:32", "--count", "8"],
    ["disc", "--n", "1", "--alpha", "rational", "--count", "64"],
    ["scan", "--n", "1", "--L", "2..4"],
    ["trig", "--n", "1..5"],
    ["trig", "--n", "3", "--mode", "gn", "--grid", "1000"],
    ["lambda", "--n", "1..2", "--depth", "2", "--grid", "256"],
    ["certify", "--n", "1", "--grid", "2000", "--blocks", "5"],
    ["bound", "--n", "3", "--N", "1024", "--H", "8", "--K", "8", "--width", "200"],
    ["integral", "--n", "1", "--L", "2"],
], ids=["gen-frac-40", "gen-bits", "disc", "scan", "trig-an", "trig-gn", "lambda", "certify",
        "bound-wide", "integral"])
def test_an_output_rebuilds_from_its_own_config(capsys, argv):
    # the header replays as <command> --key value ..., with no other flag
    code, out, _ = run(capsys, *argv)
    assert code == 0
    replay = [argv[0]]
    for key, value in config_of(out).items():
        replay += [f"--{key.replace('_', '-')}", str(value)]
    assert run(capsys, *replay) == (0, out, "")


def test_single_n_commands_reject_a_range(capsys):
    for argv in (["gen", "--count", "4"], ["disc", "--count", "4"],
                 ["scan", "--L", "4"], ["bound", "--N", "4", "--H", "4", "--K", "4"],
                 ["integral", "--L", "1"], ["trig", "--mode", "gn"]):
        code, _, err = run(capsys, *argv, "--n", "1..2")
        assert code == 2
        command = " ".join(argv[:3]) if argv[0] == "trig" else argv[0]
        assert err == f"error: {command} takes a single n\n"


@pytest.mark.parametrize("argv", [["lambda", "--depth", "1", "--grid", "256"],
                                  ["certify", "--grid", "2000"], ["integral", "--L", "1"]],
                         ids=["lambda", "certify", "integral"])
@pytest.mark.parametrize("n", ["-1", "0"])
def test_n_below_one_is_usage_error(capsys, argv, n):
    # the CLI's own message, checked before the library's rules on n
    code, out, err = run(capsys, *argv, "--n", n)
    assert code == 2
    assert out == ""
    assert err == "error: n must be >= 1\n"


@pytest.mark.parametrize("argv,removed", [
    (["lambda", "--n", "1", "--depth", "1", "--grid", "256"], ["--compare-grid", "512"]),
    (["certify", "--n", "1", "--grid", "2000"], ["--struct-grid", "2048"]),
    (["integral", "--n", "1", "--L", "1"], ["--quad", "8"]),
    (["integral", "--n", "1", "--L", "1"], ["--force"]),
], ids=["lambda", "certify", "integral", "integral-force"])
def test_removed_flags_are_rejected(capsys, argv, removed):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + removed)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, halkron.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def test_cli_import_starts_one_openblas_thread():
    # OpenBLAS starts its worker threads while numpy loads, which costs more
    # start-up time than any BLAS call of halkron gains; a caller's count wins
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    code = ("import os, halkron.cli; task = '/proc/self/task'; "
            "print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir(task)) if os.path.isdir(task) else 0)")

    def import_cli(env) -> list[str]:
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=60).stdout.split()

    value, tasks = import_cli(env)
    assert value == "1"
    assert tasks in ("1", "0")  # 0: no /proc/self/task on this system
    assert import_cli(env | {"OPENBLAS_NUM_THREADS": "2"})[0] == "2"


def test_lambda_bytes_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "halkron.cli", "lambda", "--n", "8", "--depth", "3",
            "--grid", "1024"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        outs.append(subprocess.run(argv, env=env, capture_output=True, check=True,
                                   timeout=120).stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 3 + 4 + 1
