import functools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import generic_model, scenario
from sixvertex import cli, odes
from sixvertex.model import ExpSum, ModelParams
from sixvertex.reports import (ConfigError, RunConfig, VerificationReport,
                               write_csv, write_svg_line)
from sixvertex.spectrum import (DegenerateSpectrum, diagonalize_blocks,
                                diagonalize_sector, sample_sectors)


def run(argv):
    return cli.main(argv)


def exit_code(argv):
    """The exit code of a command, argparse's refusals (exit 2) included."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


def generic_config(tmp_path, seed, **extra):
    """Config file for the benchmark's generic L=6 point at this seed."""
    path = tmp_path / f"generic-{seed}.json"
    path.write_text(json.dumps({"model": generic_model(6, seed), **extra}))
    return str(path)


class TestConfig:
    def test_reference_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg.model.L == 4
        assert cfg.model.gamma == 0.7

    def test_unknown_tolerance_rejected(self, tmp_path):
        # every bound is fixed in the code of its row, so a config written
        # to tighten one is refused rather than run at the fixed value
        for tolerances in ({"bogus": 1.0}, {"theta_conservation": 1e-6}):
            with pytest.raises(ConfigError, match="code of each row of sixvertex.cli"):
                RunConfig.from_dict({"tolerances": tolerances})
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"tolerances": tolerances}))
            assert run(["verify", "--config", str(path), "--checks", "theta",
                        "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command", ["spectrum", "verify", "bethe"])
    def test_sectors_key_rejected(self, tmp_path, command):
        # each check's sectors are fixed by its @_check declaration, so a
        # config that names sectors is refused rather than run on the fixed ones
        with pytest.raises(ConfigError, match="each check's @_check declaration"):
            RunConfig.from_dict({"sectors": [1, 2]})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sectors": [0, 1, 2, 3, 4]}))
        out = tmp_path / "out"
        assert run([command, "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "verify", "bethe"])
    def test_perturb_lambda_key_names_the_switch(self, tmp_path, capsys, command):
        # the negative control is the verify switch: a config written for the
        # old setting is refused rather than run unperturbed
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"perturb_lambda": 0.01}))
        out = tmp_path / "out"
        assert run([command, "--config", str(path), "--out", str(out)]) == 2
        assert "`verify --perturb-lambda`" in capsys.readouterr().err
        assert not out.exists()

    def test_readme_config_is_the_reference(self):
        # the README's example config holds the defaults
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```json\n", 1)[1].split("```", 1)[0]
        assert RunConfig.from_dict(json.loads(block)) == RunConfig.from_dict({})

    def test_readme_command_block_runs(self, tmp_path, monkeypatch, capsys):
        # the README's commands as written, in order, in a fresh directory:
        # each passes but the negative control, and the closing `report`
        # reads the rows that the last `verify` wrote to the default out/
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        monkeypatch.chdir(tmp_path)
        for line in block.split("```", 1)[0].splitlines():
            prog, *argv = shlex.split(line, comments=True)
            assert prog == "sixvertex"
            assert exit_code(argv) == (1 if "--perturb-lambda" in argv else 0), line
            printed = capsys.readouterr().out
        assert argv[0] == "report"
        rows = (tmp_path / "out" / "reports.jsonl").read_text().splitlines()
        assert f"{len(rows)}/{len(rows)} checks passed" in printed

    @pytest.mark.parametrize("config", [
        {"seed": "abc"}, {"seed": 1.7}, {"seed": True}, {"perturb_lambda": 0.01},
        [], [{"seed": 1}], {"tolerances": [1]}, {"output_dir": 5},
        {"checks": "pde"}, {"model": {"L": 4.5}}, {"model": {"L": True}},
        {"model": {"L": "4"}}, {"seed": -2}, {"checks": ["upsilon", "theta", "upsilon"]},
        {"model": {"L": 4, "gamma": "nan"}}, {"model": {"L": 4, "phi1": "inf"}},
        {"model": {"L": 4, "mu": [0, "nan", 0, 0]}}, {"check": ["upsilon"]},
        {"model": {"L": 4, "gama": 0.3}}, {"output_dir": "res"},
        {"checks": ["upsilon"]}, {"model": {"L": 2, "mu": [[0.1], 0]}},
        {"model": {"L": 2, "phi1": [1, 0, 0]}}],
        ids=["seed-str", "seed-float", "seed-bool", "perturb-lambda", "empty-list",
             "list", "tolerances-list", "output-dir-int", "checks-str", "L-float",
             "L-bool", "L-str", "seed-negative", "checks-repeated", "gamma-nan",
             "phi1-inf", "mu-nan", "unknown-key", "unknown-model-key", "output-dir",
             "checks", "mu-short-pair", "phi1-long-pair"])
    def test_malformed_values_rejected(self, tmp_path, monkeypatch, capsys, config):
        # a config holds the model point and the seed, each well formed and
        # finite; any other key is refused rather than ignored, a retired one
        # with where its value is set now, and no command writes a directory
        # (neither out/ nor a config's own `output_dir`)
        with pytest.raises(ConfigError):
            RunConfig.from_dict(config)
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(config))
        with pytest.raises(ConfigError):
            RunConfig.from_file("cfg.json")
        capsys.readouterr()
        for command in (["verify", "--checks", "yang-baxter"], ["spectrum"], ["bethe"]):
            assert run([*command, "--config", "cfg.json"]) == 2
            err = capsys.readouterr().err
            for key, option in (("output_dir", "`--out`"), ("checks", "`verify --checks`")):
                assert key not in config or option in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("option", [
        ["--seed", "-3"], ["--perturb-lambda", "0.01"],
        pytest.param(["--checks", "upsilon,upsilon"], id="checks-repeated"),
        pytest.param(["--checks", ""], id="checks-empty"),
        pytest.param(["--checks", " , "], id="checks-blank"),
        pytest.param(["--checks", "not-a-check"], id="checks-unknown")])
    def test_malformed_overrides_rejected(self, tmp_path, option):
        # `--seed` is held to the rule of the config key it replaces, a
        # selection names known checks, each once (a repeated name would run
        # its check twice), and at least one (an empty one would run them
        # all), and the negative control is a switch that takes no value
        out = tmp_path / "out"
        assert exit_code(["verify", "--checks", "yang-baxter", "--out", str(out),
                          *option]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "bethe"])
    def test_seed_is_a_verify_option_only(self, command):
        # neither command draws a random number
        with pytest.raises(SystemExit) as exc:
            run([command, "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["spectrum", "verify", "bethe", "potential",
                                         "report"])
    @pytest.mark.parametrize("file,out", [("afile", ["--out", "afile"]),
                                          ("afile", ["--out", "afile/sub"]),
                                          ("out", [])],
                             ids=["file", "under-a-file", "default-is-a-file"])
    def test_out_that_names_a_file_is_refused(self, tmp_path, monkeypatch, command,
                                              file, out):
        # refused at option parsing: the file keeps its bytes and nothing
        # else is written
        monkeypatch.chdir(tmp_path)
        Path(file).write_text("kept\n")
        assert exit_code([command, *out]) == 2
        assert Path(file).read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == [file]

    def test_report_roundtrip(self):
        r = VerificationReport(check="x", identity="y", residual=1e-9,
                               tolerance=1e-6, parameters={"n": 2})
        assert r.passed
        back = VerificationReport.from_dict(json.loads(json.dumps(r.to_dict())))
        assert back == r
        bad = VerificationReport(check="x", identity="y", residual=1.0,
                                 tolerance=1e-6)
        assert not bad.passed


class TestSpectrumCommand:
    def test_reference_run(self, tmp_path):
        assert run(["spectrum", "--out", str(tmp_path)]) == 0
        files = sorted(p.name for p in tmp_path.glob("spectrum-n*.json"))
        assert files == [f"spectrum-n{n}.json" for n in range(5)]
        rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 16  # header + 2^4 eigenvalues

    def test_single_site_formula(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "model": {"L": 1, "gamma": 0.7, "mu": [0.0],
                      "phi1": 1.2, "phi2": 0.9}}))
        assert run(["spectrum", "--config", str(cfgfile),
                    "--out", str(tmp_path)]) == 0
        rec = json.loads((tmp_path / "spectrum-n0.json").read_text())
        x = complex(*rec["x_star"])
        lam = complex(*rec["eigenvalues_at_x_star"][0])
        expect = 1.2 * np.sinh(x + 0.7) + 0.9 * np.sinh(x)
        assert abs(lam - expect) < 1e-12

    def test_records_are_the_eigensystems_exactly(self, tmp_path):
        # generic L=5: every number of a file equals the eigensystem's own
        # array element (==, not allclose), diagonalized afresh
        config = {"model": generic_model(5, 1)}
        cfg = RunConfig.from_dict(config)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert run(["spectrum", "--config", str(cfgfile), "--out", str(out)]) == 0
        samples = sample_sectors(cfg.model, range(6))
        xs = np.linspace(-0.8, 1.3, 9) + 0.2j

        def pairs(z):
            return [[complex(v).real, complex(v).imag] for v in z]
        for n in range(6):
            text = (out / f"spectrum-n{n}.json").read_text()
            assert "\n" not in text                         # compact, one line
            rec = json.loads(text)
            assert list(rec) == sorted(rec)
            es = diagonalize_blocks(cfg.model, n, samples[n])
            assert rec["eigenvalues_at_x_star"] == pairs(es.eigs)
            assert set(rec) == {"dimension", "eigenvalues_at_x_star", "fits",
                                "sector", "x_star"}
            assert all(set(f) == {"coefficients", "residual"} for f in rec["fits"])
            assert [f["coefficients"] for f in rec["fits"]] == [pairs(c) for c in es.coeffs]
            # the file's coefficients are the evaluator: an ExpSum built from
            # its numbers gives every eigenvalue bit for bit
            coeffs = np.array([[complex(*c) for c in f["coefficients"]]
                               for f in rec["fits"]])
            lam = ExpSum(2 * np.arange(cfg.model.L + 1) - cfg.model.L, coeffs)
            assert np.array_equal(lam(xs), es.eigenvalues_at(xs))

    def test_csv_cells_are_numbers(self, tmp_path):
        # no cell reads np.float64(...); the eigenvalue columns equal the JSON
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"model": generic_model(5, 2)}))
        assert run(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
        header, *rows = [line.split(",") for line in
                         (tmp_path / "spectrum.csv").read_text().splitlines()]
        assert header == ["sector", "k", "re_eig_at_xstar", "im_eig_at_xstar",
                          "fit_residual"]
        assert len(rows) == 2 ** 5
        for row in rows:
            assert len(row) == 5
            n, k = int(row[0]), int(row[1])
            cells = [float(c) for c in row[2:]]
            rec = json.loads((tmp_path / f"spectrum-n{n}.json").read_text())
            assert cells[:2] == rec["eigenvalues_at_x_star"][k]
            assert cells[2] == rec["fits"][k]["residual"]

    def test_malformed_config_exits_2_without_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out"
        assert run(["spectrum", "--config", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_degenerate_spectrum_exits_3(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise DegenerateSpectrum("colliding eigenvalues")
        monkeypatch.setattr(cli, "diagonalize_blocks", boom)
        assert run(["spectrum", "--out", str(tmp_path)]) == 3

    def test_root_of_unity_is_refused(self, tmp_path, capsys):
        # gamma = i pi/2 (q^4 = 1): degenerate sectors are out of scope, and
        # the real diagonalization refuses them
        config = tmp_path / "root-of-unity.json"
        config.write_text(json.dumps({"model": {"L": 4, "gamma": [0, np.pi / 2]}}))
        out = tmp_path / "out"
        assert run(["verify", "--config", str(config), "--out", str(out)]) == 3
        assert "sector n=2: eigenvalues collide" in capsys.readouterr().err


class TestVerifyCommand:
    def test_subset_passes(self, tmp_path, capsys):
        code = run(["verify", "--out", str(tmp_path),
                    "--checks", "yang-baxter,riccati-h,upsilon,potential"])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text and "FAIL" not in text
        rows = [json.loads(l) for l in
                (tmp_path / "reports.jsonl").read_text().strip().splitlines()]
        assert all(r["passed"] for r in rows)
        # profile.json is the run's one record of time: no row carries a timer
        assert all(r.keys() == {"check", "identity", "residual", "tolerance",
                                "parameters", "passed", "details"} for r in rows)

    def test_perturbed_lambda_fails(self, tmp_path, capsys):
        code = run(["verify", "--out", str(tmp_path),
                    "--checks", "compatibility,nonlinear-n1,nonlinear-n2",
                    "--perturb-lambda"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("model", [{"L": 4, "gamma": 0.7}, generic_model(6, 1)],
                             ids=["reference-L4", "generic-L6"])
    def test_rows_carry_their_check_name(self, tmp_path, model):
        # a row's `check` is the name that selects it with --checks: the
        # run names the rows of each check, which a direct call on the same
        # seed gives in the same order
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": model}))
        assert run(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
        rows = [json.loads(line) for line in
                (tmp_path / "reports.jsonl").read_text().splitlines()]
        ctx = cli.VerifyContext(RunConfig.from_dict({"model": model}), cli.CHECKS)
        direct = [(name, r.identity) for name, check in cli.CHECKS.items()
                  for r in check(ctx, check.sectors(ctx.params.L))]
        assert [(r["check"], r["identity"]) for r in rows] == direct

    def test_checks_are_registered_in_run_order(self):
        # every check draws its points from the run's one stream, so moving
        # one definition past another would move the drawn residuals
        assert list(cli.CHECKS) == [
            "yang-baxter", "transfer-commute", "highest-weight", "exchange",
            "polynomial", "linear-problem", "compatibility", "nonlinear-n1",
            "nonlinear-n2", "transport", "reduced-det", "theta", "conserved-n1",
            "bethe", "riccati-n1", "sigma2", "riccati2", "riccati-h", "upsilon",
            "u-equation", "pde", "schrodinger", "root-of-unity", "potential"]

    def test_wrapped_checks_give_the_same_reports(self, tmp_path, monkeypatch):
        # the benchmark's tracer swaps each entry of CHECKS for a
        # functools.wraps pass-through; the run calls each wrapper once and
        # writes the same reports
        cfg = generic_config(tmp_path, 1)
        assert run(["verify", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
        calls = []

        def wrap(name, fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return traced
        for name, fn in list(cli.CHECKS.items()):
            monkeypatch.setitem(cli.CHECKS, name, wrap(name, fn))
        assert run(["verify", "--config", cfg, "--out", str(tmp_path / "wrapped")]) == 0
        assert calls == list(cli.CHECKS)
        assert ((tmp_path / "wrapped" / "reports.jsonl").read_bytes()
                == (tmp_path / "plain" / "reports.jsonl").read_bytes())

    def test_unknown_check_is_config_error(self, tmp_path, capsys):
        # refused while the options are parsed, before anything is written
        out = tmp_path / "out"
        assert exit_code(["verify", "--out", str(out), "--checks", "not-a-check"]) == 2
        assert "'not-a-check' must name one or more of" in capsys.readouterr().err
        assert not out.exists()

    def test_profile_times_shared_work_apart(self, tmp_path):
        # Bethe solves and sector eigensystems are timed as their own
        # entries, and each check's exclusive time leaves them out
        run(["verify", "--out", str(tmp_path)])
        prof = json.loads((tmp_path / "profile.json").read_text())
        assert {e["n"] for e in prof["shared"] if e["work"] == "bethe"} == {1, 2}
        assert [c["check"] for c in prof["checks"]] == list(cli.CHECKS)
        for c in prof["checks"]:
            assert c["exclusive_s"] <= c["inclusive_s"]
        for e in prof["shared"]:
            assert e["check"] in cli.CHECKS and e["seconds"] >= 0
        # a check that needs a Bethe solve triggers the eigensystem it rests
        # on first, and the match to the oracle follows the solve; the three
        # are timed apart, not one inside the other
        run(["verify", "--out", str(tmp_path / "bethe"), "--checks", "bethe"])
        prof = json.loads((tmp_path / "bethe" / "profile.json").read_text())
        assert [e["work"] for e in prof["shared"]] == (
            ["samples"] + ["eigensystem", "bethe", "match"] * 2)
        assert all(c["exclusive_s"] >= 0 for c in prof["checks"])
        counts = [(e["regular"], e["singular"], e["no_degree_n_q"])
                  for e in prof["shared"] if e["work"] == "bethe"]
        assert counts == [(4, 0, 0), (5, 1, 0)]
        # Newton left every set converged
        newton = [(e["newton_converged"], e["newton_above_tol"], e["newton_overflowed"])
                  for e in prof["shared"] if e["work"] == "bethe"]
        assert newton == [(4, 0, 0), (6, 0, 0)]

    def test_profile_counts_monodromy_builds(self, tmp_path):
        # the samples entry holds the L+1 builds that sample T(x) for every
        # sector, ahead of the first eigensystem that needs them; the
        # polynomial check builds T(x) once per check point (L+6) for the
        # direct forms of all sectors
        run(["verify", "--out", str(tmp_path), "--checks", "polynomial"])
        prof = json.loads((tmp_path / "profile.json").read_text())
        assert [e["work"] for e in prof["shared"]] == ["samples"] + ["eigensystem"] * 5
        assert [e["builds"] for e in prof["shared"]] == [5, 0, 0, 0, 0, 0]
        assert [c["exclusive_builds"] for c in prof["checks"]] == [10]
        # the whole verify at the benchmark's generic L=6 point: no build in
        # transfer-commute (it reads the samples), one per point in exchange
        out = tmp_path / "generic"
        assert run(["verify", "--config", generic_config(tmp_path, 1),
                    "--out", str(out)]) == 0
        prof = json.loads((out / "profile.json").read_text())
        exclusive = {c["check"]: c["exclusive_builds"] for c in prof["checks"]}
        assert exclusive["transfer-commute"] == 0 and exclusive["exchange"] == 4
        assert (sum(e["builds"] for e in prof["shared"])
                + sum(exclusive.values())) == 50
        # spectrum at L=7: 8 sampling builds and 13 check points
        cfg = tmp_path / "generic7.json"
        cfg.write_text(json.dumps({"model": generic_model(7, 1)}))
        b0 = cli.model.builds
        assert run(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        assert cli.model.builds - b0 == 21

    def test_planted_non_commuting_sample_fails(self):
        # eps = 1e-6 times a matrix that commutes with no sample, added to
        # one sample of one sector of the kept coefficient blocks
        ctx = cli.VerifyContext(RunConfig.from_dict({"model": generic_model(6, 1)}),
                                ["transfer-commute"])
        check = cli.check_transfer_commute
        row, = check(ctx, check.sectors(6))
        assert row.passed and row.residual < 1e-14
        blocks = ctx.samples()[3]
        S = np.fft.fft(blocks, axis=0)
        K = np.random.default_rng(5).standard_normal(S.shape[1:])
        S[2] += 1e-6 * np.linalg.norm(S[2]) / np.linalg.norm(K) * K
        blocks[:] = np.fft.ifft(S, axis=0)
        row, = check(ctx, check.sectors(6))
        assert not row.passed and row.residual > 1e-8

    def test_samples_cover_the_sectors_of_the_run_checks(self):
        def sampled(checks):
            ctx = cli.VerifyContext(
                RunConfig.from_dict({"model": {"L": 6, "gamma": 0.7}}), checks)
            return sorted(ctx.samples())
        for name in cli.CHECKS:
            assert sampled([name]) == list(cli.CHECKS[name].sectors(6)), name
        assert sampled(["bethe", "transfer-commute"]) == list(range(7))
        assert sampled(cli.CHECKS) == list(range(7))     # every check runs

    def test_runs_leave_only_their_outputs(self, tmp_path):
        # spectrum, verify and bethe write their named outputs and nothing
        # else; a second verify into the same directory samples and
        # diagonalizes afresh and gives the same residuals
        cfg, out = generic_config(tmp_path, 1), tmp_path / "out"

        def residuals():
            return [json.loads(line)["residual"]
                    for line in (out / "reports.jsonl").read_text().splitlines()]
        for command in ("spectrum", "verify", "bethe"):
            assert run([command, "--config", cfg, "--out", str(out)]) == 0
        first = residuals()
        assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert residuals() == first
        prof = json.loads((out / "profile.json").read_text())
        assert [(e["work"], e["builds"]) for e in prof["shared"]
                if e["work"] in ("samples", "eigensystem")] == (
            [("samples", 7)] + [("eigensystem", 0)] * 7)
        # no .cache directory, no .tmp-* leftovers
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [f"spectrum-n{n}.json" for n in range(7)]
            + ["spectrum.csv", "reports.jsonl", "profile.json",
               "roots-n1.json", "roots-n2.json", "bethe-matching.csv"])

    @staticmethod
    def counter(monkeypatch, calls):
        """count(module, name, key): tally each call of module.name in calls[key]."""
        def count(module, name, key=None):
            f = getattr(module, name)

            def counted(*args, **kwargs):
                calls[key or name] = calls.get(key or name, 0) + 1
                return f(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return count

    def test_node_grids_are_one_call(self, tmp_path, monkeypatch):
        # reference L=4: `theta` evaluates each index pair's Cauchy grid as one
        # node array (one extended matrix), `sigma2` builds one m-matrix for
        # both points and every eigenvalue, and each sector's Bethe match runs once
        # although `conserved-n1` and `bethe` both read the n=1 match
        calls = {}
        count = self.counter(monkeypatch, calls)
        count(cli.fx, "extended_matrix")
        count(cli.odes, "symmetric_m_matrix")
        count(cli.bt, "match_spectrum")
        assert run(["verify", "--out", str(tmp_path),
                    "--checks", "theta,sigma2,conserved-n1,bethe"]) == 0
        assert calls == {"extended_matrix": 2, "symmetric_m_matrix": 1,
                         "match_spectrum": 2}
        # reference L=6: `nonlinear-n1` and `nonlinear-n2` each build one
        # m-matrix for their point set (the sector-1 stack carries the
        # cross-check's off-shell row), not one per eigenvalue, and
        # `nonlinear-n1` one extended matrix for its cross-check
        cfg = tmp_path / "l6.json"
        cfg.write_text(json.dumps({"model": {"L": 6, "gamma": 0.7}}))
        calls.clear()
        count(cli.fx, "symmetric_m_matrix", "functional.symmetric_m_matrix")
        assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "l6"),
                    "--checks", "nonlinear-n1,nonlinear-n2"]) == 0
        assert calls == {"functional.symmetric_m_matrix": 2, "extended_matrix": 1}

    def test_compatibility_builds_one_matrix_per_sector(self, tmp_path, monkeypatch):
        # reference L=6, sectors 1..3: the rows, the rank and the 1%-off
        # control of a sector share the extended matrix of one stack
        calls = {}
        self.counter(monkeypatch, calls)(cli.fx, "extended_matrix")
        cfg = tmp_path / "l6.json"
        cfg.write_text(json.dumps({"model": {"L": 6, "gamma": 0.7}}))
        assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "out"),
                    "--checks", "compatibility"]) == 0
        assert calls == {"extended_matrix": 3}

    def test_transport_builds_one_matrix_per_sector(self, tmp_path, monkeypatch):
        # reference L=6: the loop row and the factorization row of a sector
        # share one extended matrix
        calls = {}
        self.counter(monkeypatch, calls)(cli.fx, "extended_matrix")
        cfg = tmp_path / "l6.json"
        cfg.write_text(json.dumps({"model": {"L": 6, "gamma": 0.7}}))
        out = tmp_path / "out"
        assert run(["verify", "--config", str(cfg), "--out", str(out),
                    "--checks", "transport"]) == 0
        rows = [json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()]
        sectors = {r["details"]["n"] for r in rows}
        assert sectors == {2, 3} and len(rows) == 4
        assert calls == {"extended_matrix": len(sectors)}

    def test_profile_records_eigensystem_conditioning(self, tmp_path):
        run(["verify", "--out", str(tmp_path), "--checks", "polynomial"])
        prof = json.loads((tmp_path / "profile.json").read_text())
        entries = [e for e in prof["shared"] if e["work"] == "eigensystem"]
        assert [e["n"] for e in entries] == [0, 1, 2, 3, 4]
        for e in entries:
            assert np.isfinite(e["biorthogonality_defect"])
            assert e["biorthogonality_defect"] < 1e-10
            if e["n"] in (0, 4):        # one-dimensional: no spacing
                assert e["min_relative_gap"] is None
            else:
                assert np.isfinite(e["min_relative_gap"])
                assert e["min_relative_gap"] > 1e-8

    def test_reference_L2_passes(self, tmp_path):
        # the one n = L = 2 eigenvalue has no degree-2 Q, so no root set can
        # match it; the match row excuses it instead of reading inf
        cfg = tmp_path / "l2.json"
        cfg.write_text(json.dumps({"model": {"L": 2, "gamma": 0.7}}))
        assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "reports.jsonl").read_text().splitlines()]
        match = [r for r in rows if r["identity"] == "spectrum match (n=2)"]
        assert len(match) == 1 and match[0]["residual"] == 0.0
        assert match[0]["details"]["unmatched_no_degree_n_q"] == 1
        assert match[0]["details"]["unmatched_eigenvalues"] == []

    def test_twisted_L2_matches_its_regular_set(self, tmp_path):
        cfg = tmp_path / "l2.json"
        cfg.write_text(json.dumps({"model": {"L": 2, "gamma": 0.7, "mu": [0.1, -0.2],
                                             "phi1": 1.3, "phi2": 0.8}}))
        out = tmp_path / "out"
        assert run(["verify", "--config", str(cfg), "--out", str(out),
                    "--checks", "bethe"]) == 0
        rows = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
        match = [r for r in rows if r["identity"] == "spectrum match (n=2)"][0]
        d = match["details"]
        assert match["passed"] and match["residual"] > 0.0
        assert (d["regular"], d["no_degree_n_q"], d["unmatched_no_degree_n_q"]) == (1, 0, 0)

    def test_dropped_root_set_fails_the_match(self, tmp_path, monkeypatch):
        # an eigenvalue that has a degree-n Q is never excused, by the rows
        # or by the command
        solve = cli.bt.solve_bae
        monkeypatch.setattr(cli.bt, "solve_bae", lambda es: solve(es)[1:])
        assert run(["verify", "--out", str(tmp_path), "--checks", "bethe"]) == 1
        assert run(["bethe", "--out", str(tmp_path / "bethe")]) == 1
        rows = [json.loads(line)
                for line in (tmp_path / "reports.jsonl").read_text().splitlines()]
        match = [r for r in rows if r["identity"].startswith("spectrum match")]
        assert len(match) == 2
        for r in match:
            assert not r["passed"]
            assert len(r["details"]["unmatched_eigenvalues"]) == 1
            assert r["details"]["unmatched_no_degree_n_q"] == 0

    def test_rows_record_parameters(self, tmp_path):
        cfg = generic_config(tmp_path, 3)
        run(["verify", "--config", cfg, "--out", str(tmp_path / "out"),
             "--seed", "7", "--checks", "upsilon,riccati-h"])
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "reports.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        for row in rows:
            assert row["parameters"]["seed"] == 7
            assert ModelParams.from_dict(row["parameters"]["model"]) \
                == RunConfig.from_file(cfg).model

    @pytest.mark.parametrize("seed", [12, 14])
    def test_bethe_rows_pass_with_conditioning(self, tmp_path, seed):
        # the multistart solver left one n=2 eigenvalue unmatched at both
        # points; every row also says how close its pass is
        out = tmp_path / "out"
        code = run(["verify", "--config", generic_config(tmp_path, seed),
                    "--out", str(out), "--checks", "bethe"])
        rows = [json.loads(line)
                for line in (out / "reports.jsonl").read_text().splitlines()]
        assert code == 0 and len(rows) == 4 and all(r["passed"] for r in rows)
        for r in rows:
            d = r["details"]
            assert d["regular"] == {1: 6, 2: 15}[d["n"]]
            assert d["singular"] == d["no_degree_n_q"] == 0
            assert d["newton_converged"] == d["regular"]
            assert d["newton_above_tol"] == d["newton_overflowed"] == 0
            assert d["min_tq_gap"] > 1e-3
        assert min(r["details"]["min_pair_factor"] for r in rows
                   if r["details"]["n"] == 2) < 1e-6

    def test_report_command_summarizes(self, tmp_path, capsys):
        run(["verify", "--out", str(tmp_path), "--checks", "upsilon"])
        capsys.readouterr()
        assert run(["report", "--out", str(tmp_path)]) == 0
        assert "checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [
        "{not json", '{"check": "x", "bogus": 1}',
        '{"check": 1, "identity": "y", "residual": 1e-3, "tolerance": 1}',
        '{"check": "x", "identity": ["y"], "residual": 1e-3, "tolerance": 1}',
        '{"check": "x", "identity": "y", "residual": "1e-3", "tolerance": 1}',
        '{"check": "x", "identity": "y", "residual": 1e-3, "tolerance": null}',
        '{"check": "x", "identity": "y", "residual": 1e-3, "tolerance": 1, '
        '"passed": "yes"}',
        '{"check": "x", "identity": "y", "residual": 1e-3, "tolerance": 1, '
        '"passed": true, "wall_time": 0.5}',
        '{"check": "x", "identity": "y", "residual": 1e-3, "tolerance": 1, '
        '"passed": 1}',
        '{"check": "upsilon", "identity": "y", "residual": 1.0, "tolerance": 1e-13, '
        '"passed": true}'],
        ids=["not-json", "unknown-key", "int-check", "list-identity",
             "str-residual", "null-tolerance", "str-passed", "wall-time",
             "int-passed", "passed-above-bound"])
    def test_malformed_report_is_config_error(self, tmp_path, capsys, bad):
        run(["verify", "--out", str(tmp_path), "--checks", "upsilon"])
        path = tmp_path / "reports.jsonl"
        path.write_text(path.read_text() + bad + "\n")
        capsys.readouterr()
        assert run(["report", "--out", str(tmp_path)]) == 2
        assert f"{path}, line 2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def reference_contexts():
    """Verify contexts of `compatibility` at the reference point for L = 4, 6,
    8, 10 (sectors 1..3), sharing their eigensystems across tests."""
    return {L: cli.VerifyContext(RunConfig.from_dict({"model": {"L": L, "gamma": 0.7}}),
                                 ["compatibility"]) for L in (4, 6, 8, 10)}


def compatibility(ctx):
    return cli.check_compatibility(ctx, cli.check_compatibility.sectors(ctx.params.L))


class TestCompatibilityControl:
    def test_separated_at_L10(self, reference_contexts):
        # the 1%-off determinant at n=3 is 7e-13, under the old absolute
        # 1e-12 floor but far above the on-shell value and its rounding level
        rows = compatibility(reference_contexts[10])
        assert [r.identity for r in rows if not r.passed] == []
        row = [r for r in rows if r.identity == "perturbed eigenvalue separated (n=3)"][0]
        assert row.details["measured"] < 1e-12

    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_unperturbed_control_fails(self, reference_contexts, monkeypatch, L):
        monkeypatch.setattr(cli, "_CONTROL_FACTOR", 1.0)
        rows = [r for r in compatibility(reference_contexts[L])
                if r.identity.startswith("perturbed")]
        assert len(rows) == 3 and not any(r.passed for r in rows)


def control_rows(L, point):
    """Identities that the eigenvalues scaled by 1.01 of a `--perturb-lambda`
    run fail, at the sectors n <= min(3, L-1) the checks take (at
    L = 1 only sector 1, and of its rows not `conserved-n1`); the last three
    rows run only at the homogeneous untwisted points (the reference and
    critical families)."""
    ns = range(1, min(3, L - 1) + 1)
    rows = {"two-point identity", "first-order quadratic ODE", "surface form agrees"}
    if L >= 2:
        rows |= {"three-point identity", "constancy across x",
                 "exp equals coth(w1) + dlm(0)/lm(0)",
                 "second-order ODE (coalescing reduction)"}
    rows |= {f"sum_i M_i F_{n} = 0 (n={n})" for n in ns}
    rows |= {f"det extended matrix = 0 (n={n})" for n in ns}
    rows |= {f"det ratio = F ratio (n={n})" for n in ns if n >= 2}
    if L >= 3:
        rows.add("d_j theta_ij = 0 (n=2)")
    if point in ("reference", "critical"):
        rows.add("(Lam(0)/c^L)^L = 1")
        if L >= 2:
            rows |= {"standard Riccati at untwisted point",
                     "psi'' + (V - 1) psi = 0, energy fixed"}
    return rows


def assert_controls_fail(argv, L, point):
    assert run(argv + ["--perturb-lambda"]) == 1
    out = Path(argv[argv.index("--out") + 1])
    rows = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
    assert {r["identity"] for r in rows if not r["passed"]} == control_rows(L, point)


# rows judged pointwise with exact or Cauchy-rule derivatives
EXACT_ROWS = {"d_j theta_ij = 0 (n=2)", "psi'' + (V - 1) psi = 0, energy fixed",
              "linearized second-order form"} | {
    f"travelling-wave reduction order {n}" for n in (1, 2, 3)}


class TestScenarioMatrix:
    @pytest.mark.parametrize("L,point", [
        (L, point) for L in (2, 3, 5, 6)
        for point in ("reference", "generic", "complex-gamma", "critical",
                      "critical-generic")] + [
            (1, "reference"), (1, "generic"), (8, "complex-gamma"), (9, "complex-gamma")])
    def test_verify_passes_in_full(self, tmp_path, capsys, L, point):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": scenario(L, point)}))
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert run(argv) == 0
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "reports.jsonl").read_text().splitlines()]
        exact = [r for r in rows if r["identity"] in EXACT_ROWS]
        assert exact and all(r["residual"] <= 1e-10 for r in exact)
        if point in ("reference", "critical"):
            assert_controls_fail(argv, L, point)

    @pytest.mark.parametrize("L,point", [(4, "reference"), (6, "generic"),
                                         (6, "critical-generic")])
    def test_perturbed_run_fails_the_control_rows(self, tmp_path, capsys, L, point):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": scenario(L, point)}))
        assert_controls_fail(["verify", "--config", str(cfg),
                              "--out", str(tmp_path / "out")], L, point)

    @pytest.mark.slow
    def test_reference_L10(self, tmp_path, capsys):
        # builds: 11 to sample all sectors, 16 polynomial check points,
        # 11 highest-weight, 4 exchange, 9 linear-problem, 7 transport,
        # 1 root-of-unity (59); transfer-commute reads the samples
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"L": 10, "gamma": 0.7}}))
        out = tmp_path / "out"
        assert run(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "reports.jsonl").read_text().splitlines()
        assert len(rows) == 53 and all(json.loads(r)["passed"] for r in rows)
        prof = json.loads((out / "profile.json").read_text())
        builds = (sum(e["builds"] for e in prof["shared"])
                  + sum(c["exclusive_builds"] for c in prof["checks"]))
        assert builds <= 59


class TestSigma2Row:
    @pytest.mark.parametrize("L", [3, 5, 7])
    def test_vanishing_point_moved_at_odd_L(self, tmp_path, capsys, L):
        # x = -gamma/2 reads 0/0 for some reference odd-L eigenvalues; the row
        # judges every eigenvalue at fixed points away from it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"L": L, "gamma": 0.7}}))
        out = tmp_path / "out"
        argv = ["verify", "--config", str(cfg), "--out", str(out), "--checks", "sigma2"]
        assert run(argv) == 0
        tol = json.loads((out / "reports.jsonl").read_text())["tolerance"]
        assert run(argv + ["--perturb-lambda"]) == 1
        assert json.loads((out / "reports.jsonl").read_text())["residual"] > 3e-4
        # at x = -0.213 every 1%-off eigenvalue fails on its own
        p = ModelParams(L=L, gamma=0.7)
        es = diagonalize_sector(p, 2)
        off = ExpSum(es.lam().ms, 1.01 * es.coeffs)
        assert np.all(np.abs(odes.sigma2_residual(off, -0.213, p)) > tol)


class TestTraceRow:
    ROW = "magnetization blocks + trace"
    # critical gamma near i pi, L=6: a + b nearly vanishes, and tr T(0.37)
    # cancels about 700-fold below sum |T_ii|
    CRITICAL = {"L": 6, "gamma": "2.866086225333975j",
                "mu": [-0.07520898228088146, -0.16014756604974956, 0.25111826007960925,
                       -0.026648157573763154, -0.18142657384063432, -0.17080718042271484],
                "phi1": "(0.8597096421694168+1.0708037892212816j)",
                "phi2": "(0.8571242751351887+0.25808771895757243j)"}

    def trace_row(self, tmp_path, model):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        out = tmp_path / "out"
        code = run(["verify", "--config", str(cfg), "--out", str(out),
                    "--checks", "highest-weight"])
        rows = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
        return code, [r for r in rows if r["identity"] == self.ROW][0]

    def test_cancelling_trace_passes(self, tmp_path):
        code, row = self.trace_row(tmp_path, self.CRITICAL)
        assert code == 0 and row["passed"] and row["residual"] <= 1e-15

    @pytest.mark.parametrize("model", [
        CRITICAL, {"L": 6, "gamma": 0.7}, {"L": 10, "gamma": 0.7}, generic_model(6, 1)],
        ids=["critical", "reference-6", "reference-10", "generic-6"])
    def test_planted_sector_one_diagonal_error_fails(self, tmp_path, monkeypatch, model):
        # a relative 1e-12 on the sector-1 diagonal of T: the row's measure,
        # relative to sum |T_ii|, must still see it at the cancelling point
        build = cli.transfer

        def planted(xs, p):
            T = list(build(xs, p))
            T[1] = T[1] * (1 + 1e-12 * np.eye(T[1].shape[-1]))
            return T
        monkeypatch.setattr(cli, "transfer", planted)
        code, row = self.trace_row(tmp_path, model)
        assert code == 1 and not row["passed"] and row["residual"] > 1e-13

    @pytest.mark.parametrize("L,point", [
        (L, point) for L in (2, 5, 8) for point in ("reference", "generic", "complex-gamma")])
    def test_closed_form_trace_to_rounding(self, tmp_path, L, point):
        code, row = self.trace_row(tmp_path, scenario(L, point))
        assert code == 0 and row["residual"] <= 1e-15

    def test_a_defective_build_fails_the_row(self, tmp_path, monkeypatch):
        # T = A + D with D off by 1e-9 on every sector: a trace taken from a
        # second build would agree with it, the closed form does not
        blocks = cli.model.monodromy_blocks

        def off(xs, p):
            A, _, _, D = blocks(xs, p)
            return [An + Dn * (1 + 1e-9) for An, Dn in zip(A, D)]
        monkeypatch.setattr(cli, "transfer", off)
        out = tmp_path / "out"
        assert run(["verify", "--out", str(out), "--checks", "highest-weight"]) == 1
        rows = [json.loads(line) for line in (out / "reports.jsonl").read_text().splitlines()]
        row = [r for r in rows if r["identity"] == self.ROW][0]
        assert not row["passed"] and row["residual"] > 1e-10


class TestBetheCommand:
    def test_reference_complete(self, tmp_path, capsys):
        assert run(["bethe", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 of 4" in out and "6 of 6" in out
        assert (tmp_path / "roots-n1.json").exists()
        assert (tmp_path / "bethe-matching.csv").exists()

    def test_reproducible_bytes(self, tmp_path):
        run(["bethe", "--out", str(tmp_path / "a")])
        run(["bethe", "--out", str(tmp_path / "b")])
        for n in (1, 2):
            assert (tmp_path / "a" / f"roots-n{n}.json").read_bytes() \
                == (tmp_path / "b" / f"roots-n{n}.json").read_bytes()

    def test_verify_only_roundtrip(self, tmp_path):
        run(["bethe", "--out", str(tmp_path)])
        code = run(["bethe", "--out", str(tmp_path / "re"),
                    "--roots", str(tmp_path / "roots-n2.json"),
                    "--verify-only"])
        assert code == 0
        back = json.loads((tmp_path / "re" / "roots-n2.json").read_text())
        assert all(r["source"] == "user" for r in back)
        assert all(r["residual"] < 1e-10 for r in back)

    def test_verify_only_judges_at_check_tolerance(self, tmp_path):
        # roots with a tied near-singular pair pass after the JSON round
        # trip; one root moved by 1e-9 fails the check's 1e-12
        cfg = generic_config(tmp_path, 14)
        assert run(["bethe", "--config", cfg, "--out", str(tmp_path)]) == 0
        recs = json.loads((tmp_path / "roots-n2.json").read_text())
        assert any(r["pairs"] for r in recs)
        assert run(["bethe", "--config", cfg, "--out", str(tmp_path / "re"),
                    "--roots", str(tmp_path / "roots-n2.json"),
                    "--verify-only"]) == 0
        recs[0]["roots"][0][0] += 1e-9
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(recs))
        assert run(["bethe", "--config", cfg, "--out", str(tmp_path / "mv"),
                    "--roots", str(moved), "--verify-only"]) == 1

    def test_verify_only_checks_tied_roots(self, tmp_path):
        # a tied root whose written value disagrees with its pair fails;
        # pairs that are not single ties are an input error
        cfg = generic_config(tmp_path, 14)
        run(["bethe", "--config", cfg, "--out", str(tmp_path)])
        recs = json.loads((tmp_path / "roots-n2.json").read_text())
        rec = next(r for r in recs if r["pairs"])
        _, j, *_ = rec["pairs"][0]
        rec["roots"][j][0] += 1e-9
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(recs))
        assert run(["bethe", "--config", cfg, "--out", str(tmp_path / "mv"),
                    "--roots", str(moved), "--verify-only"]) == 1
        rec["pairs"][0][:2] = [j, j]
        moved.write_text(json.dumps(recs))
        assert run(["bethe", "--config", cfg, "--out", str(tmp_path / "mv"),
                    "--roots", str(moved), "--verify-only"]) == 2

    @pytest.mark.parametrize("model", [{"L": 2, "gamma": 0.7}, {"L": 3, "gamma": 0.7},
                                       {"L": 4, "gamma": 0.7}, generic_model(6, 1),
                                       {"L": 4, "gamma": 0.7, "mu": [0.21] * 4},
                                       {"L": 6, "gamma": 0.7, "mu": [0.21] * 6}],
                             ids=["reference-2", "reference-3", "reference-4",
                                  "generic-6-1", "shifted-4", "shifted-6"])
    def test_exit_code_is_the_verdict_of_the_bethe_rows(self, tmp_path, model):
        # both judge a sector through the same match, which excuses the
        # eigenvalues without a degree-n Q (the n = L = 2 one among them).
        # The shifted chains have every mu_j on the first match point, 0.21,
        # so their singular set {0.21, 0.21 - gamma} has roots on it; a common
        # shift of the mu_j is a symmetry of the spectrum
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": model}))
        code = run(["bethe", "--config", str(cfg), "--out", str(tmp_path / "b")])
        assert code == run(["verify", "--config", str(cfg), "--checks", "bethe",
                            "--out", str(tmp_path / "v")]) == 0

    def test_roots_file_judges_only_its_sectors(self, tmp_path):
        # the README's pair of lines: re-judging the n=2 file leaves the n=1
        # file alone and builds nothing, and the file passes the match of its
        # own sector
        out = tmp_path / "out"
        assert run(["bethe", "--out", str(out)]) == 0
        n1 = (out / "roots-n1.json").read_bytes()
        roots = ["--roots", str(out / "roots-n2.json"), "--out", str(out)]
        builds = cli.model.builds
        assert run(["bethe", *roots, "--verify-only"]) == 0
        assert cli.model.builds == builds
        assert run(["bethe", *roots]) == 0
        assert (out / "roots-n1.json").read_bytes() == n1
        rows = (out / "bethe-matching.csv").read_text().splitlines()[1:]
        assert len(rows) == 6 and all(r.startswith("2,") for r in rows)

    def test_non_bethe_root_on_a_match_point_fails(self, tmp_path, capsys):
        path = tmp_path / "roots.json"
        path.write_text(json.dumps([{"n": 1, "roots": [[0.21, 0.0]]}]))
        assert run(["bethe", "--roots", str(path), "--out", str(tmp_path / "b")]) == 1
        assert "root set 0 fails the residual tolerance" in capsys.readouterr().out

    @pytest.mark.parametrize("roots,extra", [
        ([], ["--verify-only"]),
        ([{"n": 3, "roots": [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]}], ["--verify-only"]),
        (None, ["--verify-only"]), (None, ["--roots", "no-such-roots.json"]),
        ([{"n": 1, "roots": [[float("nan"), 0.0]]}], []),
        ([{"n": 1, "roots": [[float("nan"), 0.0]]}], ["--verify-only"]),
        ([{"n": 1, "roots": [[0.1, float("inf")]]}], []),
        ([{"n": 1, "roots": [[0.1, float("inf")]]}], ["--verify-only"]),
        ([{"n": True, "roots": [[-0.35, 0.0]]}], []),
        ([{"n": True, "roots": [[-0.35, 0.0]]}], ["--verify-only"]),
        ([{"n": 1.0, "roots": [[-0.35, 0.0]]}], []),
        ([{"n": 1, "roots": [[1000, 0.0]]}], []),
        ([{"n": 1, "roots": [[1000, 0.0]]}], ["--verify-only"]),
        ([{"n": 1, "roots": [[200, 0.0]]}], []),
        ([{"n": 2, "roots": [[400, 0.0], [400.5, 0.0]]}], [])],
        ids=["empty", "sector-3", "verify-only-alone", "no-file", "root-nan",
             "root-nan-verify-only", "root-inf", "root-inf-verify-only", "n-bool",
             "n-bool-verify-only", "n-float", "far-root", "far-root-verify-only",
             "far-residue-form", "far-pair"])
    def test_input_that_judges_nothing_is_config_error(self, tmp_path, roots, extra):
        argv = ["bethe", "--out", str(tmp_path / "out")]
        if roots is not None:
            (tmp_path / "roots.json").write_text(json.dumps(roots))
            argv += ["--roots", str(tmp_path / "roots.json")]
        argv += extra
        assert run(argv) == 2
        assert not (tmp_path / "out").exists()

    def test_verify_only_rejects_bad_roots(self, tmp_path):
        bad = [{"n": 1, "roots": [[0.4, 0.2]], "residual": 0.0,
                "source": "user", "singular": False}]
        path = tmp_path / "bad-roots.json"
        path.write_text(json.dumps(bad))
        code = run(["bethe", "--out", str(tmp_path / "re"),
                    "--roots", str(path), "--verify-only"])
        assert code == 1


class TestPotentialCommand:
    def test_well_profiles(self, tmp_path, capsys):
        assert run(["potential", "--omega0", "1", "--gammas", "0.1,0.3",
                    "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "poles at -0.050000" in out
        csv = (tmp_path / "potential-om1-g0.1.csv").read_text().splitlines()
        vals = [float(r.split(",")[1]) for r in csv[1:]
                if not r.split(",")[1] == "nan"]
        assert all(v < 1e-12 for v in vals)
        assert (tmp_path / "potential-om1.svg").exists()

    def test_barrier_profiles(self, tmp_path):
        assert run(["potential", "--omega0", "i",
                    "--gammas", "0.1,0.3,5.43,8.12",
                    "--out", str(tmp_path)]) == 0
        for g in ("0.1", "0.3", "5.43", "8.12"):
            csv = (tmp_path / f"potential-omi-g{g}.csv").read_text().splitlines()
            vals = [float(r.split(",")[1]) for r in csv[1:]]
            assert all(v > -1e-12 for v in vals)
        svg = (tmp_path / "potential-omi.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_bad_omega_is_config_error(self, tmp_path):
        assert run(["potential", "--omega0", "zz", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("grid", [["--samples", "1"], ["--samples", "0"],
                                      ["--range", "1:1"], ["--range", "2:1"],
                                      ["--range=-inf:1"], ["--omega0", "0"],
                                      ["--gammas", "0.3,nan"]],
                             ids=["one-sample", "no-sample", "empty-range",
                                  "reversed-range", "infinite-range", "zero-omega0",
                                  "nan-gamma"])
    def test_degenerate_grid_is_config_error(self, tmp_path, grid):
        assert run(["potential", *grid, "--out", str(tmp_path)]) == 2
        assert not any(tmp_path.iterdir())


def test_csv_writes_numpy_scalars_as_numbers(tmp_path):
    # numpy 2 reprs a scalar as np.float64(...); cells hold the plain number
    write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"],
              [(np.int64(3), np.float64(0.1), np.complex128(1.5 - 0.25j), 0.1)])
    assert (tmp_path / "t.csv").read_text() == "a,b,c,d\n3,0.1,1.5-0.25j,0.1\n"


class TestSvgWriter:
    def test_nan_breaks_polyline(self, tmp_path):
        xs = np.linspace(0, 1, 11)
        ys = np.sin(xs)
        ys[5] = np.nan
        path = tmp_path / "plot.svg"
        write_svg_line(path, xs, [ys], ["s"], title="t")
        text = path.read_text()
        assert text.count("<polyline") == 2

    def test_deterministic_output(self, tmp_path):
        xs = np.linspace(0, 1, 5)
        write_svg_line(tmp_path / "a.svg", xs, [xs ** 2])
        write_svg_line(tmp_path / "b.svg", xs, [xs ** 2])
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


class TestCache:
    def test_sector_cache_roundtrip(self, tmp_path, params):
        from sixvertex.reports import ResultCache
        from sixvertex.spectrum import diagonalize_sector
        cache = ResultCache(tmp_path)
        assert cache.load_sector("k1", 1, params) is None
        es = diagonalize_sector(params, 1)
        cache.store_sector("k1", es)
        es2 = cache.load_sector("k1", 1, params)  # served from disk
        assert np.allclose(es2.eigs, es.eigs)
        assert np.allclose(es2.right, es.right)
        assert np.array_equal(es2.coeffs, es.coeffs)

    def test_entry_without_coefficients_is_a_miss(self, tmp_path, params):
        # entries written before eigenvalues became exact sums carry no
        # coefficient array; they are a miss until rewritten
        from sixvertex.reports import ResultCache
        from sixvertex.spectrum import diagonalize_sector
        es = diagonalize_sector(params, 1)
        np.savez(tmp_path / "eig-k1-n1.npz", x_star=np.array([es.x_star]),
                 eigs=es.eigs, right=es.right, left=es.left,
                 flags=np.zeros(es.size, dtype=bool))
        cache = ResultCache(tmp_path)
        assert cache.load_sector("k1", 1, params) is None
        cache.store_sector("k1", es)
        assert np.array_equal(cache.load_sector("k1", 1, params).coeffs, es.coeffs)


class TestScipyFreeRuntime:
    """The package runs on numpy alone; scipy is not imported even if it is
    installed, and numpy.random is not imported either."""

    @staticmethod
    def python(code, cwd):
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)

    def test_cli_import_loads_no_scipy(self, tmp_path):
        proc = self.python(
            "import sys, sixvertex.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.fft' in sys.modules, 'numpy.random' in sys.modules)", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "True False"]

    def test_runs_load_no_random_or_crypto(self, tmp_path):
        # verify draws its points from the package's own PCG64 stream, so a
        # run never loads numpy.random, nor the libcrypto it brings in through
        # secrets; and every module a run needs is loaded by the import
        cfg = tmp_path / "generic7.json"
        cfg.write_text(json.dumps({"model": generic_model(7, 1)}))
        proc = self.python(
            "import json, sys\nfrom sixvertex import cli\nloaded = set(sys.modules)\n"
            "assert cli.main(['verify', '--out', 'verify']) == 0\n"
            f"assert cli.main(['spectrum', '--config', {str(cfg)!r}, '--out', 's']) == 0\n"
            "print(json.dumps(sorted(set(sys.modules) - loaded)))\n"
            "print(json.dumps([m for m in ('numpy.random', 'secrets', '_hashlib')\n"
            "                  if m in sys.modules]))", tmp_path)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        new, random = map(json.loads, proc.stdout.strip().split("\n")[-2:])
        assert new == []
        assert random == []

    def test_commands_run_with_scipy_blocked(self, tmp_path):
        cfg = tmp_path / "generic7.json"
        cfg.write_text(json.dumps({"model": generic_model(7, 1)}))
        for argv in (["verify", "--out", "verify"],
                     ["spectrum", "--config", str(cfg), "--out", "spectrum"]):
            proc = self.python(
                "import sys\nsys.modules['scipy'] = None\n"
                f"from sixvertex import cli\nsys.exit(cli.main({argv!r}))", tmp_path)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
