import argparse
import csv
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import matprod
from matprod import EnsembleConfig, ReluNetConfig, UnitVector
from matprod.cli import (
    _OPTIONS,
    _RUN_ONLY,
    _RUNNERS,
    _build_parser,
    _fmt,
    _json_value,
    main,
    parse_config,
    parse_widths,
    resolve_x,
)
from matprod.errors import UsageError
from matprod.montecarlo import (
    BATCH_BYTES_PER_TRIAL,
    SAMPLER_BUDGET,
    product_draws,
    resolve_threads,
)
from matprod.relunets import jacobian_batch, jacobian_draws


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# fingerprint=")
    rows = list(csv.DictReader(lines[1:]))
    return lines[0], rows


class TestParsing:
    def test_moments_flags(self):
        cfg = parse_config(
            ["moments", "--widths", "2,2", "--p", "1", "--dist", "rademacher", "--u", "e1", "--k", "1,2"]
        )
        assert cfg.subcommand == "moments"
        assert cfg.widths == (2, 2)
        assert cfg.k == (1, 2)
        assert cfg.u == "e1"
        assert cfg.trials == 100_000
        assert cfg.seed == 0
        assert cfg.format == "csv"

    def test_width_shorthand(self):
        assert parse_widths("64x16") == (64,) * 17
        assert parse_widths("8,16x3") == (8, 16, 16, 16)
        assert parse_widths("2,2") == (2, 2)

    def test_bad_probability(self, capsys):
        assert main(["beta", "--widths", "2,2", "--p", "1.5", "--dist", "gaussian"]) == 2
        assert "--p" in capsys.readouterr().err

    def test_missing_widths(self, capsys):
        assert main(["beta", "--p", "1", "--dist", "gaussian"]) == 2
        assert "--widths" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0x3", "--widths entry '0x3' must be positive"),
            ("3x0", "--widths entry '3x0' must be positive"),
            ("3x2x2", "--widths entry '3x2x2' is not N or NxD"),
            ("x3", "--widths entry 'x3' is not N or NxD"),
            ("3x", "--widths entry '3x' is not N or NxD"),
            ("-1,2", "--widths entry '-1' must be positive"),
            ("2,-1x2", "--widths entry '-1x2' must be positive"),
            ("4", "--widths needs at least an input and one layer width"),
            (",", "--widths has an empty entry in ','"),
            ("2,zebra", "--widths entry 'zebra' is not N or NxD"),
        ],
        ids=["0x3", "3x0", "3x2x2", "x3", "3x", "negative-N", "negative-NxD", "one-width",
             "empty-entry", "zebra"],
    )
    def test_bad_width_token(self, text, message):
        with pytest.raises(UsageError) as caught:
            parse_widths(text)
        assert str(caught.value) == message

    def test_named_x_inputs_are_the_unit_vectors(self):
        ones, e1 = resolve_x("ones", 5), resolve_x("e1", 5)
        assert ones.tobytes() == np.full(5, 5**-0.5).tobytes()
        assert e1.tobytes() == np.eye(5)[0].tobytes()
        assert not ones.flags.writeable and not e1.flags.writeable
        cfg = ReluNetConfig((5, 4, 3), matprod.standard_gaussian())
        u = UnitVector.uniform(5)
        writable = jacobian_batch(cfg, 300, 0, np.full(5, 5**-0.5), u)
        assert jacobian_batch(cfg, 300, 0, ones, u).logs.tobytes() == writable.logs.tobytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"widths": "4,4", "p": "0.5", "trials": 10, "seed": 3}))
        cfg = parse_config(["simulate", "--config", str(cfg_file), "--p", "1"])
        assert cfg.widths == (4, 4)
        assert cfg.p == 1  # flag overrides file
        assert cfg.trials == 10
        assert cfg.seed == 3

    # the fingerprints an earlier release printed for these runs: a field
    # added to the payload, or a run-only field left in it, changes them
    @pytest.mark.parametrize(
        "argv, fingerprint",
        [
            (["beta", "--widths", "8x4", "--p", "0.5", "--dist", "rademacher", "--u", "e1"],
             "0e3ec267999c"),
            (["moments", "--widths", "8x3", "--p", "0.5", "--k", "1,2", "--trials", "1",
              "--seed", "3", "--format", "json"], "bfa0c48fa61d"),
            (["jacobian-compare", "--widths", "4,6x2", "--trials", "300", "--seed", "9",
              "--x", "e1", "--bias-scale", "0.5", "--threads", "2", "--assert"],
             "a7bff00a8589"),
        ],
        ids=["beta", "moments", "jacobian-compare"],
    )
    def test_fingerprint_is_stable(self, argv, fingerprint):
        assert parse_config(argv).fingerprint() == fingerprint

    def test_unreadable_config_file(self, capsys):
        assert main(["beta", "--config", "/nonexistent.json", "--widths", "2,2"]) == 2

    @pytest.mark.parametrize(
        "subcommand, key, value, flags",
        [
            ("jacobian-compare", "assert", True, ["--assert"]),
            ("jacobian-compare", "tolerance", "0.5", ["--tolerance", "0.5"]),
            ("jacobian-compare", "threads", "2", ["--threads", "2"]),
            ("jacobian-compare", "bias-scale", 2, ["--bias-scale", "2"]),
            ("jacobian-compare", "bias_scale", "0.25", ["--bias-scale", "0.25"]),
            ("simulate", "dist_pairs", "1:0.5,-1:0.5", ["--dist-pairs", "1:0.5,-1:0.5"]),
            ("moments", "k", 3, ["--k", "3"]),
        ],
    )
    def test_config_value_converts_like_its_flag(self, tmp_path, subcommand, key, value, flags):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value}))
        base = [subcommand, "--widths", "4,4"]
        assert parse_config(base + ["--config", str(cfg_file)]) == parse_config(base + flags)

    def test_each_subcommand_registers_the_flags_it_reads(self):
        # 65 (subcommand, flag) pairs: registering every shared flag on
        # every subcommand made 87, and a quarter of them were read by nothing
        reads = {
            "beta": "widths p dist dist-pairs u output format",
            "simulate": "widths p dist dist-pairs u trials seed threads output format",
            "moments": "widths p dist dist-pairs u trials seed threads k output format assert",
            "ks-test": "widths p dist dist-pairs u trials seed threads output format assert "
                       "tolerance",
            "chi2-check": "widths p dist u trials seed threads output format assert tolerance",
            "jacobian-compare": "widths dist u trials seed threads output format assert "
                                "tolerance product-p bias-scale x",
        }
        subparsers = next(action.choices for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        assert list(subparsers) == list(reads)
        for name, flags in reads.items():
            registered = {opt for action in subparsers[name]._actions
                          for opt in action.option_strings}
            assert registered == {"-h", "--help", "--config", *("--" + f for f in flags.split())}


def run_cli(args, env=None, cwd=None, timeout=None):
    src = str(Path(matprod.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "matprod.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src, **(env or {})},
        timeout=timeout,
    )


class TestErrorContract:
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--widths", "1000x120", "--trials", "2"],
            ["ks-test", "--widths", "1000x120", "--trials", "2"],
            ["chi2-check", "--widths", "1000x120", "--trials", "2"],
            ["jacobian-compare", "--widths", "1000x120", "--trials", "200"],
            # few entries, but hours of per-layer overhead
            ["simulate", "--widths", "1,1", "--p", "1", "--trials", "9000000000",
             "--threads", "1"],
        ],
        ids=["simulate", "ks-test", "chi2-check", "jacobian-compare", "narrow-simulate"],
    )
    def test_sampler_refusal_exits_2(self, args):
        proc = run_cli(args, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("matprod: error: ")
        assert " entries, budget is 1e+10" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "flags, env",
        [
            (["--bias-scale", "-1"], {}),
            (["--bias-scale", "inf"], {}),
            (["--trials", "50"], {}),
            ([], {"MATPROD_THREADS": "x"}),
            ([], {"MATPROD_THREADS": "0"}),
            ([], {"MATPROD_THREADS": "-3"}),
            # finite, but the forward pass overflows
            (["--bias-scale", "1e308"], {}),
        ],
        ids=["negative-bias-scale", "bias-scale-inf", "too-few-trials", "bad-threads-env",
             "zero-threads-env", "negative-threads-env", "bias-scale-overflow"],
    )
    def test_jacobian_compare_bad_input_exits_2(self, flags, env):
        proc = run_cli(["jacobian-compare", "--widths", "4,4", "--trials", "200", *flags], env)
        assert proc.returncode == 2
        assert proc.stderr.startswith("matprod: error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr

    def test_jacobian_compare_budgets_both_sides_together(self, gauss):
        # each side alone is under the budget; the two together are not
        widths = (1000,) * 61
        jac = jacobian_draws(ReluNetConfig(widths, gauss), 256)
        product = product_draws(EnsembleConfig(widths, Fraction(1, 2), gauss),
                                UnitVector.uniform(1000), 256)
        assert jac < SAMPLER_BUDGET and product < SAMPLER_BUDGET < jac + product
        proc = run_cli(["jacobian-compare", "--widths", "1000x60", "--trials", "256"])
        assert proc.returncode == 2
        assert proc.stderr == (
            "matprod: error: Jacobian comparison draws ~1.17e+10 entries, budget is 1e+10\n"
        )

    def test_point_mass_limit_refused_before_sampling(self, monkeypatch, capsys):
        # beta = 0: every sample is the same, so no KS against the limit
        def no_blocks(*args, **kwargs):
            raise AssertionError("ks-test sampled a beta = 0 ensemble")

        monkeypatch.setattr(matprod.montecarlo, "run_trials", no_blocks)
        args = ["ks-test", "--widths", "3,4", "--dist", "rademacher", "--u", "e1",
                "--trials", "200"]
        assert main(args) == 2
        assert capsys.readouterr().err == "matprod: error: ks-test needs beta > 0, got beta = 0\n"

    def test_batch_memory_refused_up_front(self):
        # 16 entries a trial pass the draw budget, but the batch of 6e8
        # trials is charged about 15 GB
        proc = run_cli(["simulate", "--widths", "1,1", "--p", "1", "--trials", "600000000"],
                       timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == (
            "matprod: error: a batch of 600000000 trials holds ~1.5e+10 bytes,"
            " bound is 2.15e+09\n"
        )

    @pytest.mark.parametrize("given_as", ["flag", "config"])
    @pytest.mark.parametrize(
        "subcommand, flag, value",
        [
            ("jacobian-compare", "--p", "0.9"),
            ("beta", "--seed", "1"),
            ("simulate", "--assert", True),
            ("moments", "--tolerance", "0.1"),
            ("ks-test", "--k", "3"),
            ("chi2-check", "--dist-pairs", "1:0.5,-1:0.5"),
        ],
    )
    def test_flag_the_subcommand_does_not_read_exits_2(
        self, tmp_path, subcommand, flag, value, given_as
    ):
        if given_as == "flag":
            args = [subcommand, "--widths", "4,4", flag] + ([] if value is True else [value])
        else:
            (tmp_path / "run.json").write_text(json.dumps({"widths": "4,4", flag[2:]: value}))
            args = [subcommand, "--config", "run.json"]
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode == 2
        assert any(line.startswith("matprod: error: ") for line in proc.stderr.splitlines())
        assert "Traceback" not in proc.stderr
        if given_as == "config":
            assert f"which {subcommand} does not read" in proc.stderr

    @pytest.mark.parametrize(
        "args, config, message",
        [
            (["simulate"], {"widths": "4,4", "seed": "abc"}, "--seed"),
            (["simulate", "--trials", "10"], {"widths": "4,4", "threads": "two"}, "--threads"),
            (["ks-test", "--trials", "300"], {"widths": "4,4", "tolerance": "half"}, "--tolerance"),
            (["simulate"], {"widths": "4,4", "seed": 3.7}, "--seed"),
            (["simulate", "--widths", "4,4", "--trials", "10", "--seed", "-1"], None, "--seed"),
            (["simulate", "--widths", "4,4", "--trials", "10", "--threads", "0"], None, "--threads"),
            (["simulate"], {"widths": "4,4", "trails": 5}, "'trails'"),
            (["moments"], {"widths": "4,4", "assert": "yes"}, "--assert"),
            (["beta", "--widths", "2,2", "--u", "text.txt"], None, "--u"),
            (["beta", "--widths", "2,2", "--u", "huge.txt"], None, "--u"),
            (["beta", "--widths", "2,2", "--u", "sum.txt"], None, "--u file norm inf"),
            (["ks-test", "--widths", "3,3", "--trials", "0"], None,
             "one-sample KS needs at least one sample"),
            (["ks-test", "--widths", "3,4", "--dist", "rademacher", "--u", "e1",
              "--trials", "200"], None, "ks-test needs beta > 0, got beta = 0"),
            (["jacobian-compare", "--widths", "4x3", "--dist", "rademacher", "--trials", "200"],
             None, "weight law must be atomless"),
            (["chi2-check", "--widths", "3,3", "--trials", "1"], None,
             "summary needs at least two samples"),
            (["ks-test", "--widths", "4,4", "--trials", "300", "--tolerance", "nan", "--assert"],
             None, "--tolerance must be a finite number >= 0, got 'nan'"),
            (["ks-test", "--widths", "4,4", "--trials", "300", "--tolerance", "-1", "--assert"],
             None, "--tolerance must be a finite number >= 0, got '-1'"),
            (["beta", "--widths", "4x3", "--p", "1e-160"], None,
             "ks_fifth_root_term needs beta**2 with beta = 2.25e+160"),
            (["beta", "--widths", "1x10", "--p", "3e-308"], None,
             "term_width ~ 1e309 is outside double precision"),
            (["simulate", "--widths", "1x10", "--p", "3e-308", "--trials", "4"], None,
             "term_width ~ 1e309 is outside double precision"),
            (["simulate", "--widths", "4x3", "--trials", "20", "--p", "1e-320"], None,
             "--p must be at least the smallest normal double"),
            (["jacobian-compare", "--widths", "4x3", "--trials", "200",
              "--product-p", "1e-400"], None,
             "--product-p must be at least the smallest normal double"),
            (["simulate", "--widths", "4x3", "--trials", "50", "--dist", "gaussian",
              "--dist-pairs", "1:0.5,-1:0.5"], None, "--dist-pairs needs --dist discrete"),
            # an 801-digit variance and 401-digit values, printed to 6 digits
            (["beta", "--widths", "2,2", "--dist", "discrete",
              "--dist-pairs", "1e400:0.5,-1e400:0.5"], None,
             "--dist-pairs invalid law: variance is ~1e+800, expected 1"),
            (["beta", "--widths", "2,2", "--dist", "discrete",
              "--dist-pairs", "1e400:0.5,-2e400:0.5"], None,
             "invalid law: value ~1e+400 (probability 1/2) has no mirror at ~-1e+400"),
            # a 10001-digit variance: past the digits str() converts, and float range
            (["beta", "--widths", "2,2", "--dist", "discrete",
              "--dist-pairs", "3e5000:0.5,-3e5000:0.5"], None,
             "--dist-pairs invalid law: variance is ~9e+10000, expected 1"),
            # rounded to 6 digits the sum is 1: the ~ tells it from the exact 1 it misses
            (["beta", "--widths", "2,2", "--dist", "discrete",
              "--dist-pairs", "1:0.50000000000000000000001,-1:0.50000000000000000000001"], None,
             "--dist-pairs invalid law: probabilities sum to ~1, expected 1"),
        ],
        ids=["seed-text", "threads-text", "tolerance-text", "seed-float", "negative-seed",
             "zero-threads", "unknown-key", "assert-text", "u-file-text", "u-file-overflow",
             "u-file-sum-overflow", "ks-test-no-samples", "ks-test-beta-zero",
             "jacobian-compare-atomic-law", "chi2-check-one-sample",
             "tolerance-nan", "tolerance-negative", "beta-squared-overflow",
             "beta-overflow", "simulate-beta-overflow", "p-subnormal", "product-p-subnormal",
             "dist-pairs-without-discrete", "dist-pairs-huge-variance",
             "dist-pairs-huge-value", "dist-pairs-variance-past-str-limit",
             "dist-pairs-sum-near-1"],
    )
    def test_bad_input_exits_2(self, tmp_path, args, config, message):
        (tmp_path / "text.txt").write_text("0.6 zebra\n")
        (tmp_path / "huge.txt").write_text("1e200 1e200\n")
        # each square is finite, their sum is not: fsum raises OverflowError
        (tmp_path / "sum.txt").write_text("1.3e154 1.3e154\n")
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            args = args + ["--config", "run.json"]
        proc = run_cli(args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("matprod: error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200


# For each flag that can change a subcommand's rows: its value in a tiny
# base call, then a second value.  The uniform law's fourth moment is not 3,
# so beta depends on u.
ROW_VALUES = {
    "--widths": ("3,4", "3,5"),
    "--p": ("1", "0.5"),
    "--dist": ("uniform", "gaussian"),
    "--dist-pairs": ("2:0.1,-2:0.1,0.5:0.4,-0.5:0.4",
                     "1.5:0.1875,-1.5:0.1875,0.5:0.3125,-0.5:0.3125"),
    "--u": ("e1", "uniform"),
    "--trials": ("200", "300"),
    "--seed": ("1", "2"),
    "--k": ("1,2", "3"),
    "--product-p": ("0.5", "0.9"),
    "--bias-scale": ("1", "0.5"),
    "--x": ("ones", "e1"),
}
# chi2-check accepts --dist gaussian and --p 1 alone
FIXED_FLAGS = {("chi2-check", "--dist"), ("chi2-check", "--p")}
ROW_FLAGS = [
    (name, flag)
    for name, (_, reads) in _RUNNERS.items()
    for flag in reads
    if _OPTIONS[flag][0] not in _RUN_ONLY and (name, flag) not in FIXED_FLAGS
]


class TestNoIgnoredFlags:
    @pytest.mark.parametrize("subcommand, flag", ROW_FLAGS, ids=map("".join, ROW_FLAGS))
    def test_flag_changes_the_rows(self, tmp_path, subcommand, flag):
        # a flag a subcommand accepts but ignores would leave the rows as
        # they are while it changed the fingerprint
        reads = _RUNNERS[subcommand][1]
        base = {f: first for f, (first, _) in ROW_VALUES.items()
                if f in reads and (subcommand, f) not in FIXED_FLAGS}
        if flag == "--dist-pairs":
            base["--dist"] = "discrete"
        else:
            base.pop("--dist-pairs", None)

        def rows(values):
            out = tmp_path / "o.csv"
            argv = [subcommand, *(text for item in values.items() for text in item)]
            assert main(argv + ["--output", str(out)]) == 0
            return out.read_text().splitlines()[1:]

        assert rows(base) != rows({**base, flag: ROW_VALUES[flag][1]})


class TestBatchMemory:
    @pytest.mark.parametrize(
        "args, batches",
        [
            (["simulate", "--p", "1"], 1),
            (["moments", "--p", "1", "--k", "2"], 1),
            (["ks-test", "--p", "1"], 1),
            (["jacobian-compare"], 2),
            (["chi2-check", "--p", "1"], 2),
        ],
    )
    def test_call_peaks_within_its_batch_charge(self, tmp_path, args, batches):
        # BATCH_BYTES_PER_TRIAL charges a whole sampler call, the statistics
        # taken from its batches included; at width 1 those outweigh the
        # blocks, and the call's traced peak stays within the charge.  A
        # small call first loads what the first call of a process imports.
        def call(trials):
            return main([args[0], "--widths", "1,1", *args[1:], "--trials", str(trials),
                         "--threads", "1", "--output", str(tmp_path / "out.csv")])

        trials = 200_000
        assert call(1000) == 0
        tracemalloc.start()
        try:
            assert call(trials) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= batches * trials * BATCH_BYTES_PER_TRIAL


class TestBetaCommand:
    def test_half_mask_constant_width(self, tmp_path, capsys):
        out = tmp_path / "beta.csv"
        code = main(
            ["beta", "--widths", "64x16", "--p", "0.5", "--dist", "gaussian", "--u", "e1",
             "--output", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0]["beta"]) == pytest.approx(1.25)
        assert float(rows[0]["term_width"]) == pytest.approx(1.25)
        assert float(rows[0]["term_fourth"]) == 0.0


class TestSimulateCommand:
    def test_no_trials_measure_no_zero_event_rate(self, tmp_path):
        out = tmp_path / "simulate.csv"
        assert main(["simulate", "--widths", "3,3", "--trials", "0", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0]["trials"] == rows[0]["zero_events"] == "0"
        assert rows[0]["zero_event_rate"] == rows[0]["mean"] == ""
        assert rows[0]["reason"] == "fewer than two surviving samples"


# moments' stderr for k = 6 at min width 2: C(6,2) = 15 pairs of the six
# paths can collide in each layer, so the log-normal prediction fails there
K6_NOTICE = (
    "matprod: warning: k=6 has comb(k,2)=15 >= min width 2; the log-normal moment "
    "prediction is unreliable here (the exact value is still exact)\n"
)


class TestMomentsCommand:
    def test_rademacher_uniform_row(self, tmp_path):
        out = tmp_path / "moments.csv"
        code = main(
            ["moments", "--widths", "2,2", "--p", "1", "--dist", "rademacher",
             "--u", "uniform", "--k", "2", "--trials", "100000", "--seed", "5",
             "--output", str(out), "--assert"]
        )
        assert code == 0
        _, rows = read_csv(out)
        row = rows[0]
        assert float(row["exact"]) == 1.5
        assert float(row["brute_force"]) == 1.5
        assert float(row["theory"]) == pytest.approx(math.exp(0.5))
        mc, se = float(row["monte_carlo"]), float(row["mc_stderr"])
        assert abs(mc - 1.5) <= 5 * se

    def test_budget_exceeded_reported_in_reason(self, tmp_path):
        out = tmp_path / "moments.csv"
        code = main(
            ["moments", "--widths", "32x8", "--p", "1", "--dist", "gaussian",
             "--k", "2", "--trials", "100", "--output", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0]["exact"] != ""
        assert rows[0]["brute_force"] == ""
        assert "brute_force" in rows[0]["reason"]

    def test_float_overflow_reported_in_reason(self, tmp_path, capsys):
        u_file = tmp_path / "u.txt"
        u_file.write_text("0.6\n0.8\n")
        out = tmp_path / "moments.csv"
        code = main(
            ["moments", "--widths", "2x100", "--p", "0.5", "--u", str(u_file),
             "--k", "2,6", "--trials", "0", "--output", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().err == K6_NOTICE
        assert "inf" not in out.read_text() and "nan" not in out.read_text()
        _, rows = read_csv(out)
        assert rows[0]["exact"] == rows[0]["brute_force"] != ""
        assert rows[1]["exact"] == rows[1]["theory"] == ""
        assert "exact: E[Z^6] ~ 1e422 is outside double precision" in rows[1]["reason"]
        assert "theory: " in rows[1]["reason"]

    def test_paper_scale_rademacher_is_admitted(self, tmp_path):
        # took minutes when every product of the contraction reduced a
        # Fraction; the integer contraction takes about a second
        out = tmp_path / "moments.csv"
        code = main(
            ["moments", "--widths", "1024x1024", "--p", "0.5", "--dist", "rademacher",
             "--u", "e1", "--k", "2,4,6", "--trials", "0", "--output", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert [row["exact"] != "" for row in rows] == [True] * 3
        assert all("exact:" not in row["reason"] for row in rows)
        # ln E[Z^k] / C(k,2) against beta = 4.996: the paper's moment law
        assert [round(math.log(float(row["exact"])) / math.comb(int(row["k"]), 2), 2)
                for row in rows] == [4.96, 4.94, 4.92]

    def test_deep_request_refused_up_front(self, tmp_path):
        out = tmp_path / "moments.csv"
        code = main(
            ["moments", "--widths", "1000x100000", "--p", "0.5", "--k", "4", "--u", "uniform",
             "--trials", "0", "--output", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0]["exact"] == ""
        assert "exact: shape transfer needs ~" in rows[0]["reason"]
        assert "budget is 3000000000" in rows[0]["reason"]

    def test_sampler_refusal_reported_in_reason(self, tmp_path):
        # about 3.1e10 drawn entries: refused before any block runs, while
        # the exact route still answers
        out = tmp_path / "moments.csv"
        code = main(
            ["moments", "--widths", "1000x120", "--trials", "2", "--output", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows[0]["exact"] == "1" and rows[1]["exact"] != ""
        assert [row["monte_carlo"] for row in rows] == ["", ""]
        for row in rows:
            assert "monte_carlo: product sampler draws ~3.07e+10 entries, budget is 1e+10" in (
                row["reason"]
            )

    def test_refused_sampler_measures_no_zero_event_rate(self, tmp_path):
        out = tmp_path / "moments.csv"
        assert main(["moments", "--widths", "1000x120", "--trials", "2", "--k", "1",
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0]["monte_carlo"] == rows[0]["zero_event_rate"] == ""
        assert "monte_carlo: product sampler draws ~3.07e+10" in rows[0]["reason"]

    def test_exact_rational_outside_double_range(self, tmp_path, capsys):
        out = tmp_path / "moments.csv"
        code = main(
            ["moments", "--widths", "2x100", "--p", "0.5", "--u", "e1", "--k", "6",
             "--trials", "0", "--output", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().err == K6_NOTICE
        _, rows = read_csv(out)
        assert rows[0]["exact"] == ""
        assert "exact: E[Z^6] ~ 1e422 is outside double precision" in rows[0]["reason"]

    def test_collision_regime_warning_is_one_matprod_line(self):
        result = run_cli(
            ["moments", "--widths", "2x100", "--p", "0.5", "--u", "e1", "--k", "6",
             "--trials", "0"]
        )
        assert result.returncode == 0
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("matprod: warning: k=6 has comb(k,2)=15 >= min width 2; ")
        assert ".py:" not in result.stderr
        assert "Traceback" not in result.stderr

    def test_brute_force_paths_budget_refuses_at_once(self, tmp_path):
        out = tmp_path / "moments.csv"
        code = main(
            ["moments", "--widths", "8,8", "--p", "0.5", "--u", "e1", "--k", "2",
             "--trials", "0", "--output", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0]["exact"]) == 1.625
        assert rows[0]["brute_force"] == ""
        assert (
            "brute_force: raw path summation needs ~83886080 elementary evaluations, "
            "budget is 10000000" in rows[0]["reason"]
        )

    @pytest.mark.parametrize("trials", [0, 1])
    def test_too_few_trials_row(self, tmp_path, trials):
        # neither builds a batch, so no zero-event rate is measured
        out = tmp_path / "moments.csv"
        assert main(["moments", "--widths", "3,3", "--p", "1", "--k", "1,2",
                     "--trials", str(trials), "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert [row["zero_event_rate"] for row in rows] == ["", ""]
        assert [row["monte_carlo"] + row["mc_stderr"] for row in rows] == ["", ""]
        assert [row["reason"] for row in rows] == ["monte_carlo: needs at least 2 trials"] * 2

    def test_k_cap_reported_in_reason(self, tmp_path, capsys):
        out = tmp_path / "moments.csv"
        assert main(["moments", "--widths", "3,3", "--k", "13", "--trials", "0",
                     "--output", str(out)]) == 0
        # the notice is about the prediction, which the cap does not refuse
        assert capsys.readouterr().err.startswith(
            "matprod: warning: k=13 has comb(k,2)=78 >= min width 3; "
        )
        _, rows = read_csv(out)
        assert "exact: moment order k=13 exceeds the cap 12" in rows[0]["reason"]


class TestDeterminism:
    def test_chi2_check_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["chi2-check", "--widths", "8,8", "--trials", "1000", "--seed", "7"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--widths", "6,6,6", "--p", "0.5", "--dist", "gaussian",
                "--trials", "2000", "--seed", "2"]
        monkeypatch.setenv("MATPROD_THREADS", "1")
        assert main(args + ["--output", str(a)]) == 0
        monkeypatch.setenv("MATPROD_THREADS", "4")
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# Run in a fresh interpreter: reports OPENBLAS_NUM_THREADS and the process's
# thread count after `import matprod` and after a one-thread simulate.
THREAD_PROBE = """
import json, os, sys

def state():
    tasks = "/proc/self/task"
    count = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
    return [os.environ.get("OPENBLAS_NUM_THREADS"), count]

import matprod
after_import = state()
from matprod.cli import main
code = main(["simulate", "--widths", "32x3", "--trials", "300", "--threads", "1",
             "--output", sys.argv[1]])
print(json.dumps([after_import, state(), code]))
"""


class TestThreads:
    def test_default_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("MATPROD_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_threads() == 1
        assert resolve_threads(3) == 3
        monkeypatch.setenv("MATPROD_THREADS", "2")
        assert resolve_threads() == 2
        monkeypatch.delenv("MATPROD_THREADS")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_threads() == 8

    @staticmethod
    def run_python(args, blas_threads):
        """Run a fresh interpreter with OPENBLAS_NUM_THREADS set to
        ``blas_threads``, or removed from the environment for None."""
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(matprod.__file__).resolve().parents[1])
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)

    @pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset"])
    def test_process_runs_only_the_threads_it_asks_for(self, tmp_path, preset):
        proc = self.run_python(["-c", THREAD_PROBE, str(tmp_path / "out.csv")], preset)
        assert proc.returncode == 0, proc.stderr
        after_import, after_run, code = json.loads(proc.stdout)
        assert code == 0
        for blas_threads, tasks in (after_import, after_run):
            assert blas_threads == (preset or "1")
            if preset is None and tasks is not None:
                assert tasks == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_test_process_runs_under_the_cap(self):
        # conftest imports matprod before numpy, so the in-process tests run
        # without idle OpenBLAS workers: every native thread is a Python one
        if os.environ["OPENBLAS_NUM_THREADS"] != "1":
            pytest.skip("OPENBLAS_NUM_THREADS was set to more than one thread")
        assert len(os.listdir("/proc/self/task")) == threading.active_count()

    def test_bytes_do_not_follow_the_cpu_count(self):
        # 60000 samples: OpenBLAS splits a dot product this long over its
        # workers, one per CPU, unless OPENBLAS_NUM_THREADS caps them
        args = ["-m", "matprod.cli", "moments", "--widths", "4,4", "--k", "2",
                "--trials", "60000", "--threads", "1"]
        default, single = (self.run_python(args, b) for b in (None, "1"))
        assert default.returncode == single.returncode == 0
        assert default.stdout == single.stdout


# Run in a fresh interpreter: reports, after the import and after each call,
# whether numpy has been loaded, with each call's exit status.
NUMPY_PROBE = """
import json, os, sys

import matprod, matprod.cli
from matprod.cli import main

seen = {"import": [0, "numpy" in sys.modules]}
for law in ("gaussian", "rademacher", "uniform"):
    for u in ("e1", "uniform"):
        base = ["--widths", "3,2,2", "--p", "0.5", "--dist", law, "--u", u,
                "--output", os.devnull]
        for sub, extra in (("beta", []), ("moments", ["--k", "1,2", "--trials", "0"])):
            code = main([sub, *base, *extra])
            seen[f"{sub} {law} {u}"] = [code, "numpy" in sys.modules]
base = ["--widths", "3,2,2", "--u", sys.argv[1], "--output", os.devnull]
for sub, extra in (("beta", []), ("moments", ["--k", "1,2", "--trials", "0"])):
    seen[f"{sub} u-file"] = [main([sub, *base, *extra]), "numpy" in sys.modules]
code = main(["simulate", "--widths", "4,4", "--trials", "10", "--output", os.devnull])
seen["simulate"] = [code, "numpy" in sys.modules]
print(json.dumps(seen))
"""

# matprod.__all__, the names that load on first access included
PUBLIC_NAMES = [
    "AsymmetryError", "AtomicLawError", "BetaParams", "BudgetExceeded",
    "DimensionMismatch", "DistributionSpec",
    "EnsembleConfig", "ErrorBudget", "FloatRangeError", "InsufficientSamples",
    "KSReport", "MatprodError", "MomentEstimate", "NormalizationError",
    "ReluNetConfig", "SampleBatch", "SummaryStats", "UnitVector", "UsageError",
    "brute_force_moment", "chi_square_product_sampler",
    "compute_beta", "discrete_symmetric", "distributions",
    "empirical_moment", "ensemble", "error_budget", "errors", "exact_moment",
    "ksstats", "law_from_name", "montecarlo", "one_sample_ks", "pathsum",
    "rademacher", "relunets", "run_trials", "standard_gaussian", "summary", "theory_moment",
    "two_sample_ks", "uniform_symmetric",
]


class TestStartup:
    def test_only_the_samplers_load_numpy(self, tmp_path):
        u_file = tmp_path / "u.txt"
        u_file.write_text("# a comment line\n0.25 -1.5  # trailing comment\n3e-1\n")
        proc = TestThreads.run_python(["-c", NUMPY_PROBE, str(u_file)], None)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert len(seen) == 16
        assert seen.pop("simulate") == [0, True]
        assert seen == {step: [0, False] for step in seen}

    def test_summaries_leave_numpy_ma_unloaded(self):
        # np.quantile loads numpy.ma (about 13 ms); the summary quantiles do not
        probe = (
            "import os, sys\n"
            "from matprod.cli import main\n"
            "for sub in ('simulate', 'chi2-check'):\n"
            "    assert main([sub, '--widths', '4,4', '--p', '1', '--trials', '10',\n"
            "                 '--output', os.devnull]) == 0\n"
            "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n"
        )
        proc = TestThreads.run_python(["-c", probe], None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True False\n"

    def test_public_names_unchanged_and_resolve(self):
        assert sorted(matprod.__all__) == PUBLIC_NAMES
        for name in PUBLIC_NAMES:
            assert getattr(matprod, name) is not None
        assert set(PUBLIC_NAMES) <= set(dir(matprod))
        with pytest.raises(AttributeError):
            matprod.no_such_name


class TestFormats:
    @pytest.mark.parametrize(
        "value, text, json_text",
        [
            (True, "true", "true"),
            (False, "false", "false"),
            (-7, "-7", "-7"),
            (12345678901234567890, "12345678901234567890", "12345678901234567890"),
            (np.int64(-3), "-3", "-3"),
            (np.float32(0.1), "0.10000000149011612", "0.10000000149011612"),
            (np.float64(0.1), "0.10000000000000001", "0.10000000000000001"),
            (1 / 3, "0.33333333333333331", "0.33333333333333331"),
            (-0.0, "-0", "-0"),
            (2.0, "2", "2"),
            (Fraction(1, 3), "0.33333333333333331", "0.33333333333333331"),
            (Fraction(6, 2), "3", "3"),
            (None, "", "null"),
            ("a,b", "a,b", '"a,b"'),
            (math.inf, "inf", '"inf"'),
            (-math.inf, "-inf", '"-inf"'),
            (math.nan, "nan", '"nan"'),
            (np.float32("nan"), "nan", '"nan"'),
        ],
    )
    def test_rendered_text(self, value, text, json_text):
        assert _fmt(value) == text
        assert _json_value(value) == json_text

    def test_json_mirrors_csv(self, tmp_path):
        for base in (
            ["beta", "--widths", "4,4", "--p", "0.5", "--dist", "uniform", "--u", "uniform"],
            # beta = 0: the KS error terms are infinite
            ["beta", "--widths", "2,2", "--dist", "rademacher", "--u", "e1"],
        ):
            csv_path, json_path = tmp_path / "o.csv", tmp_path / "o.json"
            assert main(base + ["--output", str(csv_path)]) == 0
            assert main(base + ["--format", "json", "--output", str(json_path)]) == 0
            _, rows = read_csv(csv_path)
            meta, obj = (json.loads(line) for line in json_path.read_text().splitlines())
            assert set(meta) == {"fingerprint", "seed", "version"}
            for key, text in rows[0].items():
                if text == "":
                    assert obj[key] is None
                elif text in ("inf", "-inf", "nan"):
                    assert obj[key] == text
                else:
                    assert isinstance(obj[key], (int, float))
                    assert obj[key] == pytest.approx(float(text), rel=1e-15)
        assert rows[0]["ks_linear_term"] == "inf"

    @pytest.mark.parametrize(
        "args, columns",
        [
            (["beta", "--widths", "4,4"],
             ["beta", "term_width", "term_fourth", "sum_inv_sq_widths", "ks_linear_term",
              "ks_fifth_root_term", "ks_sqrt_term", "mask_term"]),
            (["simulate", "--widths", "4,4", "--trials", "20"],
             ["trials", "zero_events", "zero_event_rate", "mean", "variance", "skewness",
              "q05", "q25", "q50", "q75", "q95", "beta", "predicted_mean",
              "predicted_variance", "reason"]),
            (["simulate", "--widths", "4,4", "--trials", "1"],
             ["trials", "zero_events", "zero_event_rate", "mean", "variance", "skewness",
              "q05", "q25", "q50", "q75", "q95", "beta", "predicted_mean",
              "predicted_variance", "reason"]),
            (["moments", "--widths", "4,4", "--k", "1,2", "--trials", "20"],
             ["k", "exact", "brute_force", "monte_carlo", "mc_stderr", "theory", "beta",
              "zero_event_rate", "reason"]),
            (["ks-test", "--widths", "4,4", "--trials", "20"],
             ["trials", "samples", "zero_events", "beta", "ref_mean", "ref_variance",
              "ks_statistic", "critical_5pct", "threshold"]),
            (["chi2-check", "--widths", "4,4", "--trials", "20"],
             ["trials", "zero_events", "two_sample_ks", "two_sample_critical",
              "ks_vs_normal", "one_sample_critical", "mean", "variance", "skewness",
              "beta", "threshold"]),
            (["jacobian-compare", "--widths", "4,4", "--trials", "100"],
             ["trials", "ks_statistic", "critical_5pct", "jacobian_zero_events",
              "product_zero_events", "product_p", "threshold"]),
        ],
        ids=["beta", "simulate", "simulate-one-trial", "moments", "ks-test", "chi2-check",
             "jacobian-compare"],
    )
    def test_columns_in_output_order(self, tmp_path, args, columns):
        csv_path, json_path = tmp_path / "o.csv", tmp_path / "o.json"
        assert main(args + ["--output", str(csv_path)]) == 0
        assert main(args + ["--format", "json", "--output", str(json_path)]) == 0
        assert csv_path.read_text().splitlines()[1] == ",".join(columns)
        _, *rows = (json.loads(line) for line in json_path.read_text().splitlines())
        assert rows and all(list(row) == columns for row in rows)

    def test_csv_has_header_and_comment(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["beta", "--widths", "3,3", "--output", str(out)])
        comment, rows = read_csv(out)
        assert "seed=0" in comment and "version=" in comment
        assert rows and "beta" in rows[0]

    def test_stdout_default(self, capsys):
        assert main(["beta", "--widths", "3,3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# fingerprint=")


class TestAssertions:
    def test_negative_control_fails_assert(self, tmp_path):
        code = main(
            ["jacobian-compare", "--widths", "8,16x3", "--dist", "gaussian",
             "--trials", "2000", "--seed", "1", "--product-p", "0.9",
             "--tolerance", "0.02", "--assert", "--output", str(tmp_path / "o.csv")]
        )
        assert code == 1

    def test_matching_sides_pass_assert(self, tmp_path):
        code = main(
            ["jacobian-compare", "--widths", "8,16x3", "--dist", "gaussian",
             "--trials", "2000", "--seed", "1", "--tolerance", "0.05",
             "--assert", "--output", str(tmp_path / "o.csv")]
        )
        assert code == 0

    def test_chi2_check_requires_gaussian_identity_mask(self, capsys):
        assert main(["chi2-check", "--widths", "4,4", "--p", "0.5"]) == 2
        assert main(["chi2-check", "--widths", "4,4", "--dist", "rademacher"]) == 2


class TestKsTestCommand:
    def test_emits_statistic_and_passes_loose_threshold(self, tmp_path):
        out = tmp_path / "ks.csv"
        code = main(
            ["ks-test", "--widths", "32x8", "--p", "1", "--dist", "gaussian",
             "--trials", "20000", "--seed", "4", "--tolerance", "0.05",
             "--assert", "--output", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0]["beta"]) == pytest.approx(0.5)
        assert float(rows[0]["ref_mean"]) == pytest.approx(-0.25)
        assert float(rows[0]["ks_statistic"]) < 0.05
