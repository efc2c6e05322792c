import argparse
import dataclasses
import math
import os
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from noisysort import cli, experiments, model
from noisysort.cli import _setting_flags, build_parser, main
from noisysort.estimators import MsConfig, ms_sort
from noisysort.experiments import ExperimentSpec, draw_stages
from noisysort.counting import count_at_most_k_inversions
from noisysort.model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    read_dataset,
    sample_with_replacement,
    star_matrix,
    write_dataset,
)
from noisysort.perms import Permutation, random_permutation

from oracles import BAD_HEADER_FILES, BAD_LINE_FILES, BAD_N_FILES, DISAGREEING_RECORDS


class TestSmallCommands:
    def test_count_inversions_prints_exact_decimal(self, capsys):
        assert main(["count-inversions", "--n", "20", "--k", "190"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == str(math.factorial(20))
        assert out == str(count_at_most_k_inversions(20, 190))

    def test_entropy_check_row(self, capsys):
        assert main(["entropy-check", "--n", "6", "--r", "10", "--eps", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n,r,eps,")
        fields = lines[1].split(",")
        assert fields[:3] == ["6", "10", "3"]
        assert fields[-1] == "true"

    def test_theory_kl(self, capsys):
        assert main(["theory", "--op", "kl", "--p", "0.75", "--q", "0.25"]) == 0
        value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[-1])
        assert abs(value - 0.5 * math.log(3)) < 1e-12

    def test_theory_model_kl_via_d_kt(self, capsys):
        code = main(["theory", "--op", "kl", "--model", "without", "--n", "10",
                     "--budget", "1.0", "--lambda", "0.25", "--d-kt", "1"])
        assert code == 0
        value = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[-1])
        assert abs(value - 0.5 * math.log(3)) < 1e-12

    @pytest.mark.parametrize("model, n, budget, lam, d_kt, message", [
        ("without", "1", "1.0", "0.25", "0", "need n >= 2"),
        ("with", "0", "30", "0.25", "0", "need n >= 2"),
        ("without", "10", "1.0", "0.7", "1", "lam must lie in (0, 1/2)"),
        ("without", "10", "1.0", "0.25", "-3", "disagree on 0..45 pairs, not -3"),
        ("without", "5", "1.0", "0.25", "99", "disagree on 0..10 pairs, not 99"),
        ("without", "10", "1.5", "0.25", "1", "per-pair probability 1.5 outside [0, 1]"),
        ("with", "10", "-30", "0.25", "1", "comparison count -30.0 is not finite"),
    ])
    def test_theory_model_kl_via_d_kt_checks_its_inputs(self, capsys, model, n, budget, lam,
                                                         d_kt, message):
        assert main(["theory", "--op", "kl", "--model", model, "--n", n, "--budget", budget,
                     "--lambda", lam, "--d-kt", d_kt]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("model, budget", [("with", "30"), ("without", "0.5")])
    def test_theory_model_kl_via_permutation_files(self, tmp_path, capsys, model, budget):
        # the files' orders differ in d_KT = 2 pairs: the --d-kt row for 2, and a file
        # of another n is a usage error
        files = {}
        for name, line in (("pi", "1 2 3 4 5 6"), ("sigma", "2 1 3 4 6 5"), ("short", "2 1 3")):
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(line + "\n")
        common = ["theory", "--op", "kl", "--model", model, "--n", "6", "--budget", budget,
                  "--lambda", "0.25"]
        assert main([*common, "--pi", str(files["pi"]), "--sigma", str(files["sigma"])]) == 0
        via_files = capsys.readouterr().out
        assert main([*common, "--d-kt", "2"]) == 0
        assert via_files == capsys.readouterr().out and float(via_files.split(",")[-1]) > 0
        assert main([*common, "--pi", str(files["pi"]), "--sigma", str(files["short"])]) == 1
        assert "permutation sizes disagree with n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--op", "tail"], "--op tail needs --n-draws, --p, --r, --s"),
        (["--op", "tail", "--n-draws", "10", "--p", "0.5"], "--op tail needs --r, --s"),
        (["--op", "rate"], "--op rate needs --n, --budget, --lambda"),
        (["--op", "rate", "--n", "10", "--lambda", "0.25"], "--op rate needs --budget"),
        (["--op", "kl", "--n", "10"], "--op kl needs --budget, --lambda"),
        (["--op", "kl", "--p", "0.5"], "--op kl needs --q"),  # Bernoulli KL, not the model's
        (["--op", "kl", "--q", "0.5", "--n", "5", "--budget", "1", "--lambda", "0.25"],
         "--op kl needs --p"),
        (["--op", "rate", "--n", "-5", "--budget", "1", "--lambda", "0.25"], "need n >= 2"),
        (["--op", "rate", "--n", "10", "--budget", "nan", "--lambda", "0.25"],
         "comparison count nan is not finite"),
        (["--op", "rate", "--kind", "minimax_o1", "--n", "10", "--budget", "2",
          "--lambda", "0.25"], "per-pair probability 2.0 outside [0, 1]"),
        (["--op", "kl", "--q", "0.5"], "--op kl needs --p"),
    ])
    def test_theory_usage_errors_exit_1(self, capsys, argv, message):
        # absent flags are named, not passed on as None, and bad values are refused
        assert main(["theory", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""

    def test_theory_tail(self, capsys):
        code = main(["theory", "--op", "tail", "--n-draws", "1000",
                     "--p", "0.5", "--r", "0.4", "--s", "0.6"])
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert abs(float(row[-2]) - math.exp(-1000 * 0.01 / 0.6)) < 1e-15

    def test_theory_rate(self, capsys):
        code = main(["theory", "--op", "rate", "--kind", "minimax_o2",
                     "--n", "10", "--budget", "1000", "--lambda", "0.25"])
        assert code == 0
        assert float(capsys.readouterr().out.strip().splitlines()[1].split(",")[-1]) == 16.0


class TestSimulateAndRunMs:
    def test_simulate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "data.txt"
        code = main(["simulate", "--n", "20", "--lambda", "0.25", "--model", "with",
                     "--budget", "500", "--seed", "7", "--out", str(out)])
        assert code == 0
        d = read_dataset(out)
        assert d.n == 20 and d.total_comparisons() == 500 and d.seed == 7

    def test_simulate_without(self, tmp_path):
        out = tmp_path / "data.txt"
        code = main(["simulate", "--n", "15", "--lambda", "0.3", "--model", "without",
                     "--budget", "0.5", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert read_dataset(out).tag.budget == 0.5

    @pytest.mark.parametrize("model, n", [("with", "0"), ("without", "0"), ("without", "-3")])
    def test_simulate_refuses_n_below_one(self, tmp_path, capsys, model, n):
        # read_dataset refuses a header n below 1, so no such file is written
        out = tmp_path / "data.txt"
        budget = "10" if model == "with" else "0.5"
        assert main(["simulate", "--n", n, "--lambda", "0.25", "--model", model,
                     "--budget", budget, "--seed", "0", "--out", str(out)]) == 1
        assert f"--n must be >= 1, got {n}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["simulate", "--n", "20", "--lambda", "0.25", "--model", "with", "--budget", "500"],
        ["run-ms", "--generate", "--n", "20", "--budget", "500", "--T", "1",
         "--lambda-hat", "0.25"]])
    def test_negative_seed_names_its_flag(self, tmp_path, capsys, args):
        out = tmp_path / "out.txt"
        assert main([*args, "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "argument --seed: must be an integer >= 0, got -1" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "run-ms"])
    def test_pi_star_file_sets_the_latent_order(self, tmp_path, capsys, command):
        # the output is the library's under the file's order, not the default identity's;
        # a file of another n is a usage error that writes nothing
        pi = random_permutation(12, np.random.default_rng(5))
        path = tmp_path / "pi_star.txt"
        path.write_text(pi.to_line() + "\n")
        args = ["simulate", "--lambda", "0.25", "--model", "with", "--budget", "500",
                "--seed", "3"] if command == "simulate" else [
                "run-ms", "--generate", "--budget", "500", "--seed", "3", "--T", "2",
                "--lambda-hat", "0.25"]
        outs = {name: tmp_path / f"{name}.txt" for name in ("file", "default", "want", "bad")}
        assert main([*args, "--n", "12", "--pi-star", str(path), "--out", str(outs["file"])]) == 0
        assert main([*args, "--n", "12", "--out", str(outs["default"])]) == 0
        law = star_matrix(12, 0.25)
        if command == "simulate":
            write_dataset(sample_with_replacement(pi, law, 500, 3), outs["want"])
        else:
            config = MsConfig(stages=2)
            pi_hat = ms_sort(*draw_stages(pi, law, WITH_REPLACEMENT, 500, 2, 3, 0.25), config)[0]
            outs["want"].write_text(pi_hat.to_line() + "\n")
        assert outs["file"].read_bytes() == outs["want"].read_bytes()
        assert outs["file"].read_bytes() != outs["default"].read_bytes()
        capsys.readouterr()
        assert main([*args, "--n", "13", "--pi-star", str(path), "--out", str(outs["bad"])]) == 1
        assert "pi-star file has n=12, expected 13" in capsys.readouterr().err
        assert not outs["bad"].exists()

    def test_run_ms_refuses_a_missing_margin_before_the_draw(self, tmp_path, capsys,
                                                             monkeypatch):
        # without replacement the margin is not estimated: no --lambda-hat is refused before
        # the memory rule and the draw
        monkeypatch.setattr(cli, "check_memory", lambda *a: pytest.fail("checked memory"))
        monkeypatch.setattr(cli, "draw_stages", lambda *a: pytest.fail("drew"))
        out = tmp_path / "p.txt"
        assert main(["run-ms", "--generate", "--n", "50", "--model", "without", "--budget",
                     "0.5", "--T", "2", "--out", str(out)]) == 1
        assert "explicit margin (--lambda-hat)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, message", [
        ("simulate --n 10 --lambda 0.25 --model with --budget 1e4 --seed 0 --out out.txt",
         "--budget '1e4' is neither a whole number of comparisons (--model with)"),
        ("run-ms --generate --n 10 --budget 0.5 --T 1 --lambda-hat 0.25 --out out.txt",
         "--budget '0.5' is neither a whole number of comparisons (--model with)"),
        ("run-ms --generate --n 10 --budget 2 --T 3 --out out.txt",
         "cell n=10, absolute=2, with_replacement: 2 comparisons, fewer than the 3 it needs"),
        ("run-ms --generate --n 3 --budget 10 --T 1 --out out.txt",
         "cell n=3, absolute=10, with_replacement: n must be >= 4"),  # to estimate the margin
        ("theory --op kl --n 3 --budget 1 --lambda 0.25 --pi data.txt --sigma data.txt",
         "--pi data.txt: invalid literal for int() with base 10: 'without_replacement'"),
        ("simulate --n 3 --lambda 0.25 --model with --budget 10 --seed 0 --pi-star data.txt "
         "--out out.txt", "--pi-star data.txt: invalid literal for int()"),
    ], ids=["simulate-budget", "run-ms-budget", "budget-below-T", "n-below-4", "theory-pi",
            "pi-star"])
    def test_input_errors_name_their_flag_before_the_draw(self, tmp_path, monkeypatch, capsys,
                                                           command, message):
        # refused ahead of any draw, naming the flag, the file or the cell
        monkeypatch.chdir(tmp_path)
        Path("data.txt").write_text("3 without_replacement 0.5 0\n1 2 1 1\n")
        for name in ("draw_stages", "sample_with_replacement"):
            monkeypatch.setattr(cli, name, lambda *a: pytest.fail("drew"))
        assert main(shlex.split(command)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert [p.name for p in tmp_path.iterdir()] == ["data.txt"]

    def test_run_ms_generate(self, tmp_path):
        out = tmp_path / "perm.txt"
        regions = tmp_path / "regions"
        code = main(["run-ms", "--generate", "--n", "50", "--lambda", "0.45",
                     "--model", "with", "--budget", "8000", "--seed", "1",
                     "--T", "2", "--lambda-hat", "0.45",
                     "--out", str(out), "--regions-dir", str(regions)])
        assert code == 0
        pi = Permutation.from_line(out.read_text().strip())
        assert pi.n == 50
        assert (regions / "stage_2.pbm").exists()

    def test_run_ms_from_files(self, tmp_path):
        stage_files = []
        for t in range(2):
            f = tmp_path / f"stage{t}.txt"
            main(["simulate", "--n", "30", "--lambda", "0.4", "--model", "with",
                  "--budget", "400", "--seed", str(t), "--out", str(f)])
            stage_files.append(str(f))
        out = tmp_path / "perm.txt"
        code = main(["run-ms", "--in", *stage_files, "--T", "2",
                     "--lambda-hat", "0.4", "--out", str(out)])
        assert code == 0
        assert Permutation.from_line(out.read_text().strip()).n == 30

    def test_pair_numbers_on_both_sides_of_2_to_the_32(self, tmp_path, monkeypatch):
        # C(n,2) < 2^32 up to n = 92682: the pair numbers the gaps sum to pass 2^31 there and
        # 2^32 above; p = 2e-6 draws about 8.6k pairs
        monkeypatch.chdir(tmp_path)
        sort = ["--T", "3", "--lambda-hat", "0.25", "--out"]
        for n in ("92682", "92683"):
            assert main(["run-ms", "--generate", "--n", n, "--model", "without", "--budget",
                         "0.000002", *sort, f"gen_{n}.txt"]) == 0
        edges = [f"edge_{seed}.txt" for seed in (1, 2, 3)]
        for seed, edge in enumerate(edges, start=1):
            assert main(["simulate", "--n", "92683", "--lambda", "0.25", "--model", "without",
                         "--budget", "0.000002", "--seed", str(seed), "--out", edge]) == 0
        assert main(["run-ms", "--in", *edges, *sort, "pi_edge.txt"]) == 0
        for name, n in (("gen_92682.txt", 92682), ("gen_92683.txt", 92683),
                        ("pi_edge.txt", 92683)):
            assert Permutation.from_line(Path(name).read_text()).n == n

    def test_run_ms_files_require_margin(self, tmp_path):
        f = tmp_path / "stage0.txt"
        main(["simulate", "--n", "10", "--lambda", "0.4", "--model", "with",
              "--budget", "50", "--seed", "0", "--out", str(f)])
        code = main(["run-ms", "--in", str(f), "--T", "1", "--out",
                     str(tmp_path / "p.txt")])
        assert code == 1

    @pytest.mark.parametrize("lines", DISAGREEING_RECORDS)
    def test_run_ms_rejects_disagreeing_records(self, tmp_path, capsys, lines):
        f = tmp_path / "stage0.txt"
        f.write_text("\n".join(["3 with_replacement 3 0", *lines]) + "\n")
        code = main(["run-ms", "--in", str(f), "--T", "1", "--lambda-hat", "0.3",
                     "--out", str(tmp_path / "p.txt")])
        assert code == 1
        assert "inconsistent records" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", BAD_HEADER_FILES)
    def test_run_ms_rejects_header_disagreeing_with_records(self, tmp_path, capsys, lines):
        f = tmp_path / "stage0.txt"
        f.write_text("\n".join(lines) + "\n")
        code = main(["run-ms", "--in", str(f), "--T", "1", "--lambda-hat", "0.3",
                     "--out", str(tmp_path / "p.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", BAD_LINE_FILES + BAD_N_FILES)
    def test_run_ms_rejects_bad_lines_and_header_n(self, tmp_path, capsys, lines):
        f = tmp_path / "stage0.txt"
        f.write_text("\n".join(lines) + "\n")
        code = main(["run-ms", "--in", str(f), "--T", "1", "--lambda-hat", "0.3",
                     "--out", str(tmp_path / "p.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "p.txt").exists()


    def test_run_ms_names_the_bad_file_among_several(self, tmp_path, capsys):
        paths = [str(tmp_path / f"stage_{k}.txt") for k in (1, 2, 3)]
        for k, path in enumerate(paths):
            assert main(["simulate", "--n", "30", "--lambda", "0.25", "--model", "with",
                         "--budget", "90", "--seed", str(k), "--out", path]) == 0
        lines = Path(paths[1]).read_text().split("\n", 1)
        Path(paths[1]).write_text(lines[0].replace("with_replacement", "foo") + "\n" + lines[1])
        assert main(["run-ms", "--in", *paths, "--T", "3", "--lambda-hat", "0.25",
                     "--out", str(tmp_path / "pi.txt")]) == 1
        err = capsys.readouterr().err
        assert paths[1] in err and paths[0] not in err and paths[2] not in err

# one value per config key, and the flags that say the same
CONFIG_CASES = [
    ("n_values", "24, 30", ["--n-values", "24", "30"]),
    ("alphas", "0.3", ["--alphas", "0.3"]),
    ("budgets", "200", ["--budgets", "200"]),
    ("lam", "0.3", ["--lambda", "0.3"]),
    ("lambda_hat", "none", ["--lambda-hat", "none"]),
    ("stages", "2", ["--stages", "2"]),
    ("replicates", "2", ["--replicates", "2"]),
    ("master_seed", "7", ["--master-seed", "7"]),
    ("estimators", "ms, borda, random", ["--estimators", "ms", "borda", "random"]),
    ("sampling", "with, without", ["--sampling", "with", "without"]),
    ("workers", "2", ["--workers", "2"]),
    ("pi_star", "random", ["--pi-star", "random"]),
    ("regions_dir", "reg", ["--regions-dir", "reg"]),
    ("out", "r.csv", ["--out", "r.csv"]),
    ("summary_out", "s.csv", ["--summary-out", "s.csv"]),
    ("timings_out", "t.csv", ["--timings-out", "t.csv"]),
]
# a small scaling-n grid, as flags: each case drops the key it sets
CONFIG_BASE = {"n_values": ["--n-values", "24"], "alphas": ["--alphas", "0.5"],
               "replicates": ["--replicates", "1"], "stages": ["--stages", "1"],
               "estimators": ["--estimators", "ms", "borda"], "sampling": ["--sampling", "with"]}


def experiment_parser():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["experiment"]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The commands of README's CLI block, continuations joined and comments skipped."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.strip() and not line.lstrip().startswith("#")]


class TestReadme:
    def test_cli_block_parses(self):
        commands = readme_commands()
        assert len(commands) >= 10 and all(c.startswith("noisysort ") for c in commands)
        for command in commands:
            build_parser().parse_args(shlex.split(command)[1:])

    def test_memory_rule_bytes_are_the_constants(self):
        # each figure of the memory-rule table's Bytes column, in order, is its constant
        table = README.read_text().split("| Term | Bytes", 1)[1].split("\n\n", 1)[0]
        rows = re.findall(r"^\| ([^|]+?) \| ([^|]+?) \|", table, re.M)
        record, block = experiments._RECORD_BYTES, experiments._BLOCK_BYTES
        assert {term: [int(f) for f in re.findall(r"\b\d+\b", cell)] for term, cell in rows} == {
            "fixed": [experiments._FIXED_BYTES], "per item": [experiments._ITEM_BYTES],
            "per item per stage": [experiments._STAGE_BYTES],
            "per record, with": [record[WITH_REPLACEMENT]],
            "per record, without": [record[WITHOUT_REPLACEMENT]],
            "per block record, with": [block[WITH_REPLACEMENT]],
            "per block record, without": [block[WITHOUT_REPLACEMENT]],
            "written": [record[experiments.WRITTEN], block[experiments.WRITTEN],
                        model._WRITE_BLOCK_ROWS],
            "dataset lines": [record[experiments.DATASET_LINES]],
            "read lines": [record[experiments.READ_LINES]]}

    def test_config_keys_are_the_setting_flags(self):
        text = " ".join(README.read_text().split())
        keys = re.search(r"config keys, one per `experiment` flag, are (.*?)\.", text).group(1)
        assert re.findall(r"`(\w+)`", keys) == list(_setting_flags(experiment_parser()))


class TestExperimentCommand:
    def test_tiny_grid_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main(["experiment", "scaling-n", "--n-values", "25", "--alphas", "0.5",
                     "--replicates", "1", "--stages", "2", "--estimators", "ms",
                     "--sampling", "with", "--master-seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,n,sampling,budget,lam,seed,estimator,d_kt,l1,linf"
        assert len(lines) == 3  # ms + appended random control

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "n_values = 20\nalphas = 0.4\nreplicates = 2\nstages = 1\n"
            "estimators = ms\nsampling = with\nmaster_seed = 9\n"
        )
        out = tmp_path / "r.csv"
        code = main(["experiment", "scaling-n", "--config", str(cfg),
                     "--replicates", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3  # flag override: 1 replicate, not 2
        assert all(",20," in line for line in lines[1:])

    def test_every_spec_field_is_a_config_key_and_a_flag(self):
        parser = experiment_parser()
        flags = {a.dest for a in parser._actions}
        config_keys = set(_setting_flags(parser))
        fields = {f.name for f in dataclasses.fields(ExperimentSpec)} - {"kind"}
        outputs = {"out", "summary_out", "timings_out"}
        assert fields | outputs <= config_keys
        assert fields | outputs <= flags
        assert config_keys == fields | outputs == {key for key, _, _ in CONFIG_CASES}

    @pytest.mark.parametrize("key, value, flags", CONFIG_CASES)
    def test_a_config_line_is_the_flag_it_names(self, tmp_path, monkeypatch, key, value, flags):
        if key == "regions_dir":
            base = ["regions", "--n-values", "30", "--stages", "2"]
        else:
            base = ["scaling-n", *(token for k, tokens in CONFIG_BASE.items()
                                   if k != key and (k, key) != ("alphas", "budgets")
                                   for token in tokens)]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{key} = {value}  # the one setting under test\n")

        def outputs(name, extra):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main(["experiment", *base, *extra]) == 0
            return {p.relative_to(tmp_path / name): p.read_bytes()
                    for p in (tmp_path / name).rglob("*") if p.is_file()}

        from_file = outputs("file", ["--config", str(cfg)])
        from_flags = outputs("flags", flags)
        named = {"out": "r.csv", "summary_out": "s.csv", "timings_out": "t.csv",
                 "regions_dir": "reg/region_sizes.csv"}.get(key, "results.csv")
        assert from_file.keys() == from_flags.keys() and Path(named) in from_file
        for path in from_file.keys() - {Path("t.csv")}:  # timings are wall-clock
            assert from_file[path] == from_flags[path], path

    @pytest.mark.parametrize("line", [
        "master_seed = none", "replicates = none", "lam = none", "stages = none",
        "workers = none", "sampling = with_replacement", "estimators = ms, oracle",
        "pi_star = reversed",
    ])
    def test_config_values_are_checked_by_their_flag(self, tmp_path, monkeypatch, capsys, line):
        # master_seed = none once ran on OS entropy, replicates / lam = none raised TypeError
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"n_values = 20\n{line}\n")
        assert main(["experiment", "scaling-n", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / "results.csv").exists()

    def test_kind_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = region_snapshot\n")
        assert main(["experiment", "scaling-n", "--config", str(cfg),
                     "--out", str(tmp_path / "r.csv")]) == 1
        assert "unknown config key 'kind'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_regions_preset_writes_to_regions(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", "regions", "--n-values", "30", "--stages", "2"]) == 0
        assert (tmp_path / "regions" / "stage_2.pbm").exists()
        assert (tmp_path / "regions" / "region_sizes.csv").exists()

    def test_lambda_hat_none_flag_estimates_the_margin(self, tmp_path):
        args = ["experiment", "scaling-n", "--n-values", "40", "--alphas", "0.5",
                "--replicates", "2", "--stages", "2", "--estimators", "ms", "borda",
                "--sampling", "with"]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lambda_hat = none\n")
        outs = {name: tmp_path / f"{name}.csv" for name in ("flag", "config", "fixed")}
        assert main([*args, "--lambda-hat", "none", "--out", str(outs["flag"])]) == 0
        assert main([*args, "--config", str(cfg), "--out", str(outs["config"])]) == 0
        assert main([*args, "--out", str(outs["fixed"])]) == 0
        assert outs["flag"].read_bytes() == outs["config"].read_bytes()
        assert outs["flag"].read_bytes() != outs["fixed"].read_bytes()

    @pytest.mark.parametrize("which,extra", [
        ("regions", ["--pi-star", "random"]),
        ("regions", ["--estimators", "borda"]),
        ("regions", ["--n-values", "30", "40"]),
        ("regions", ["--sampling", "with", "without"]),
        ("lambda", ["--sampling", "without"]),
        ("scaling-n", ["--lambda-hat", "none", "--sampling", "with", "without"]),
        # cells that cannot run are rejected before the first job starts
        ("scaling-n", ["--n-values", "300", "2", "--sampling", "with", "--replicates", "3"]),
        ("scaling-n", ["--n-values", "1"]),
        ("scaling-n", ["--alphas", "0"]),
        ("scaling-n", ["--sampling", "without", "--alphas", "1.5"]),
        ("scaling-n", ["--lambda", "0.5"]),
        ("scaling-n", ["--lambda-hat", "0.7"]),
        ("scaling-n", ["--n-values", "3", "--lambda-hat", "none", "--sampling", "with"]),
        ("scaling-n", ["--estimators", "ms", "ms", "borda"]),
        # fewer pairs expected than stages: a run would draw an empty stage
        ("scaling-n", ["--alphas", "0.003", "--sampling", "without", "--replicates", "20"]),
    ])
    def test_spec_constraints_exit_one(self, tmp_path, capsys, which, extra):
        # only region snapshots take a regions directory: elsewhere it is refused on its own
        regions = ["--regions-dir", str(tmp_path / "reg")] if which == "regions" else []
        code = main(["experiment", which, "--n-values", "30", *extra, *regions,
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--regions-dir" not in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("which, key, flag", [
        ("lambda", "summary_out", "--summary-out"), ("lambda", "timings_out", "--timings-out"),
        ("scaling-n", "regions_dir", "--regions-dir"), ("mle-small", "regions_dir",
                                                        "--regions-dir")])
    @pytest.mark.parametrize("form", ["flag", "config key"])
    def test_outputs_the_kind_never_writes_exit_one(self, tmp_path, monkeypatch, capsys, which,
                                                    key, flag, form):
        # these used to exit 0 and write nothing where they named
        monkeypatch.chdir(tmp_path)
        Path("exp.cfg").write_text(f"{key} = named\n")
        given = [flag, "named"] if form == "flag" else ["--config", "exp.cfg"]
        assert main(["experiment", which, "--n-values", "30", "--replicates", "1", *given,
                     "--out", "r.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_lambda_experiment(self, tmp_path):
        out = tmp_path / "lam.csv"
        code = main(["experiment", "lambda", "--n-values", "60", "--budgets", "4000",
                     "--replicates", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,budget,lam,seed,lambda_hat,abs_error"
        assert len(lines) == 3

    def test_regions_experiment(self, tmp_path):
        out = tmp_path / "r.csv"
        regions = tmp_path / "regions"
        code = main(["experiment", "regions", "--n-values", "30", "--alphas", "1.0",
                     "--stages", "2", "--out", str(out),
                     "--regions-dir", str(regions)])
        assert code == 0
        assert (regions / "stage_1.pbm").exists()


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert main(["count-inversions", "--n", "5"]) == 1  # missing --k
        assert main(["no-such-command"]) == 1

    def test_c0_is_no_longer_settable(self, tmp_path, capsys):
        # the threshold coefficient is threshold_scale * 12: c0 only duplicated the scale;
        # c1 and the scale are MsConfig's calibrated defaults, set by no flag or config key
        out, config = tmp_path / "out", tmp_path / "constant.cfg"
        for flag, key in (("--c0", "c0"), ("--c1", "c1"), ("--threshold-scale", "threshold_scale")):
            assert main(["run-ms", "--generate", "--n", "30", "--budget", "900", "--T", "2",
                         "--lambda-hat", "0.25", "--out", str(out), flag, "0.2"]) == 1
            assert main(["experiment", "scaling-n", flag, "0.2", "--out", str(out)]) == 1
            assert capsys.readouterr().err.count(f"unrecognized arguments: {flag} 0.2") == 2
            config.write_text(f"{key} = 0.2\n")
            assert main(["experiment", "scaling-n", "--config", str(config),
                         "--out", str(out)]) == 1
            assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_value_is_one(self, capsys):
        assert main(["count-inversions", "--n", "4", "--k", "99"]) == 1

    def test_bad_worker_count_is_one(self, tmp_path, capsys, monkeypatch):
        args = ["experiment", "scaling-n", "--n-values", "20", "--alphas", "0.4",
                "--replicates", "1", "--estimators", "ms", "--sampling", "with",
                "--out", str(tmp_path / "r.csv")]
        assert main([*args, "--workers", "0"]) == 1
        assert "workers" in capsys.readouterr().err
        monkeypatch.setenv("NOISYSORT_WORKERS", "abc")
        assert main(args) == 1
        assert "NOISYSORT_WORKERS" in capsys.readouterr().err

    def test_enumeration_and_count_refusals_are_two(self, tmp_path, capsys, monkeypatch):
        # mle past the enumeration cap is refused when the spec is built, and a count whose
        # tables pass physical memory before they are allocated
        out = tmp_path / "r.csv"
        assert main(["experiment", "scaling-n", "--n-values", "11", "--estimators", "mle",
                     "--replicates", "1", "--out", str(out)]) == 2
        assert "enumerate S_n" in capsys.readouterr().err and not out.exists()
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2**20, "SC_PAGE_SIZE": 1}.get)
        assert main(["count-inversions", "--n", "200", "--k", "19900"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("refused: counting n=200, k=19900: ")
        assert captured.out == ""

    def test_cap_refusal_is_two(self, tmp_path, capsys):
        # the memory rule comes before the count rules, from experiment and run-ms alike: at
        # n = 10^13, p = 1e-30 the 5e-05 pairs expected are fewer than the 5 stages of ms
        out = tmp_path / "r.csv"
        far = f"cell n={10**13}, alpha=1e-30, without_replacement: "
        for command, cell in [
                ("experiment scaling-n --n-values 1000000 --alphas 1.0 --replicates 1",
                 "cell n=1000000, alpha=1, with_replacement: "),
                (f"experiment scaling-n --n-values 1000000 --budgets {10**30} --replicates 1",
                 "cell n=1000000, absolute=1e+30, with_replacement: "),
                (f"experiment scaling-n --n-values {10**13} --alphas 1e-30 --sampling without "
                 "--estimators ms --replicates 1", far),
                (f"run-ms --generate --n {10**13} --model without --budget 1e-30 --T 5 "
                 "--lambda-hat 0.25", far)]:
            assert main([*command.split(), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"refused: {cell}") and "physical memory" in err
        assert not out.exists()

    def test_the_north_star_cell_fits(self, tmp_path):
        # n = 20000, alpha = 0.1: estimated at about 67 MB, where n = 10^6 at alpha = 1 is refused
        out = tmp_path / "big.csv"
        assert main(["experiment", "scaling-n", "--n-values", "20000", "--alphas", "0.1",
                     "--replicates", "1", "--sampling", "with", "--pi-star", "random",
                     "--estimators", "ms", "borda", "random", "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "kind,n,sampling,budget,lam,seed,estimator,d_kt,l1,linf"
        assert [row.split(",")[6] for row in rows] == ["borda", "ms", "random"]

    @pytest.mark.parametrize("command", [
        ["simulate", "--lambda", "0.25", "--model", "with", "--budget", "1", "--seed", "0"],
        ["simulate", "--lambda", "0.25", "--model", "without", "--budget", "1e-30",
         "--seed", "0"],
        ["run-ms", "--generate", "--budget", "1", "--T", "1", "--lambda-hat", "0.25"],
        ["run-ms", "--generate", "--model", "without", "--budget", "1e-30", "--T", "1",
         "--lambda-hat", "0.25"],
    ])
    @pytest.mark.parametrize("n, memory", [(10**13, None), (5 * 10**8, 2**30)])
    def test_oversized_draws_are_refused_before_allocation(self, tmp_path, capsys, monkeypatch,
                                                           command, n, memory):
        # n items alone take n * _ITEM_BYTES, past physical memory: the identity pi* is never
        # built (at n = 5e8 its rank array would take 4 GB before failing)
        if memory is not None:
            monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": memory, "SC_PAGE_SIZE": 1}.get)
        out = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            code = main([*command, "--n", str(n), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        prefix = f"cell n={n}, " if command[0] == "run-ms" else f"simulate n={n}: "
        assert code == 2 and err.startswith(f"refused: {prefix}")
        assert "physical memory" in err and "Traceback" not in err
        assert not out.exists() and peak < 4 * 2**20

    def test_run_ms_refuses_a_file_past_memory(self, tmp_path, capsys):
        data = tmp_path / "big.txt"
        data.write_text(f"{10**13} with_replacement 1 0\n1 2 1 1\n2 1 1 0\n")
        out = tmp_path / "pi.txt"
        assert main(["run-ms", "--in", str(data), "--T", "1", "--lambda-hat", "0.25",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"refused: run-ms n={10**13}: ") and "physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("head, code, message", [
        (f"+{10**11}", 2, f"refused: run-ms n={10**11}: "),  # the reader takes a sign
        (str(2**63), 1, "error: bad header"),  # past int64: the reader names it
        ("-4", 1, "error: bad header in"),
    ])
    def test_run_ms_reads_the_header_n_by_the_readers_rule(self, tmp_path, capsys, head, code,
                                                           message):
        # the memory rule charges the n that read_dataset would read, or 1 if it would
        # refuse the header, which it then names
        data = tmp_path / "stage.txt"
        data.write_text(f"{head} with_replacement 1 0\n1 2 1 1\n")
        out = tmp_path / "pi.txt"
        assert main(["run-ms", "--in", str(data), "--T", "1", "--lambda-hat", "0.25",
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err
        assert not out.exists()

    def test_run_ms_refuses_files_before_reading_them(self, tmp_path, capsys, monkeypatch):
        # the rule takes each header's n and one record line per 8 bytes of file
        data = tmp_path / "stage.txt"
        assert main(["simulate", "--n", "30", "--lambda", "0.25", "--model", "with",
                     "--budget", "400", "--seed", "0", "--out", str(data)]) == 0
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2**15, "SC_PAGE_SIZE": 1}.get)

        def unread(path):
            raise AssertionError(f"{path} was read before the memory rule refused it")

        monkeypatch.setattr(cli, "read_dataset", unread)
        out = tmp_path / "pi.txt"
        assert main(["run-ms", "--in", str(data), str(data), "--T", "2", "--lambda-hat", "0.25",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("refused: run-ms n=30: ") and "physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("model, n, budget, fits", [
        ("with", 400, "40000", 2), ("with", 1000, "400000", 2), ("without", 400, "0.5", 2),
        ("without", 1000, "1.0", 2),
        # under one writer's block of 32768 lines, which sets the peak
        ("without", 600, "0.1", 2), ("without", 300, "0.5", 2), ("with", 600, "18000", 2),
        # the draw and the write are charged apart: summed, they charged 2.0 times the peak
        ("with", 1000, "499500", 1.5)])
    def test_simulate_estimate_bounds_the_traced_peak(self, tmp_path, monkeypatch, model, n,
                                                      budget, fits):
        # the dataset is held while write_dataset orders and formats its lines
        out = tmp_path / "stage.txt"
        args = ["simulate", "--n", str(n), "--lambda", "0.25", "--model", model,
                "--budget", budget, "--seed", "0", "--out", str(out)]
        assert main(args) == 0  # numpy imports some modules on first use
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.unlink()
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": peak, "SC_PAGE_SIZE": 1}.get)
        assert main(args) == 2 and not out.exists()
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": int(fits * peak),
                                            "SC_PAGE_SIZE": 1}.get)
        assert main(args) == 0

    def test_simulate_with_replacement_peak_per_comparison(self, tmp_path):
        # nearly one pair per comparison: the draw peaks at about 7 B per comparison, and the
        # write, at about 11, adds the pairs' 4-byte places in (second, first) order to the 6 B
        # per pair held
        out = tmp_path / "stage.txt"

        def args(n, total):
            return ["simulate", "--n", str(n), "--lambda", "0.25", "--model", "with",
                    "--budget", str(total), "--seed", "0", "--out", str(out)]

        assert main(args(300, 5000)) == 0  # numpy imports some modules on first use
        tracemalloc.start()
        try:
            assert main(args(20000, 4 * 10**6)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (4 * 10**6) <= 26

    @pytest.mark.parametrize("model, budget", [("with", "40000"), ("without", "0.5")])
    @pytest.mark.parametrize("files", [1, 2, 3])
    def test_file_estimate_bounds_the_traced_peak(self, tmp_path, monkeypatch, model, budget,
                                                  files):
        paths = [str(tmp_path / f"stage_{k}.txt") for k in range(files)]
        for k, path in enumerate(paths):
            assert main(["simulate", "--n", "400", "--lambda", "0.25", "--model", model,
                         "--budget", budget, "--seed", str(k), "--out", path]) == 0
        args = ["run-ms", "--in", *paths, "--T", str(files), "--lambda-hat", "0.25",
                "--out", str(tmp_path / "pi.txt")]
        assert main(args) == 0  # numpy imports some modules on first use
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": peak, "SC_PAGE_SIZE": 1}.get)
        assert main(args) == 2
        # every file is held, and the largest one's read comes on top
        monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2 * peak, "SC_PAGE_SIZE": 1}.get)
        assert main(args) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--n", "30"), ("--budget", "900"), ("--model", "with"), ("--seed", "0"),
        ("--lambda", "0.25"), ("--pi-star", "pi.txt")])
    def test_run_ms_files_refuse_the_generate_flags(self, tmp_path, monkeypatch, capsys, flag,
                                                    value):
        # they were ignored with --in, even at their defaults
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--n", "30", "--lambda", "0.25", "--model", "with",
                     "--budget", "900", "--seed", "0", "--out", "stage.txt"]) == 0
        assert main(["run-ms", "--in", "stage.txt", flag, value, "--T", "1", "--lambda-hat",
                     "0.25", "--out", "out.txt"]) == 1
        assert f"{flag} is read only with --generate" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    @pytest.mark.parametrize("source", [
        [],  # neither: --n and --budget once generated data without --generate
        ["--in", "stage.txt", "--generate"],  # both: the files were sorted, --n ignored
    ])
    def test_run_ms_takes_exactly_one_source(self, tmp_path, monkeypatch, capsys, source):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--n", "30", "--lambda", "0.25", "--model", "with",
                     "--budget", "900", "--seed", "0", "--out", "stage.txt"]) == 0
        assert main(["run-ms", *source, "--n", "30", "--budget", "900", "--T", "2",
                     "--lambda-hat", "0.25", "--out", "pi.txt"]) == 1
        assert "--in" in capsys.readouterr().err
        assert not (tmp_path / "pi.txt").exists()

    def test_non_finite_budget_names_the_cell(self, capsys):
        for alpha in ("inf", "nan"):
            assert main(["experiment", "scaling-n", "--n-values", "30", "--alphas", alpha,
                         "--sampling", "with"]) == 1
            assert f"cell n=30, alpha={alpha}, with_replacement" in capsys.readouterr().err

    def test_budget_past_float_range_names_the_cell(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["experiment", "scaling-n", "--n-values", "30", "--budgets",
                     "1" + "0" * 400, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cell n=30, absolute=inf, with_replacement: the budget is not a finite" in err
        assert "Traceback" not in err and not out.exists()

    def test_paper_scale_is_gone(self, tmp_path, capsys):
        # it overrode --n-values; the grid it named is --n-values 1000 2000 4000 7000 10000
        out = tmp_path / "out.csv"
        assert main(["experiment", "scaling-n", "--n-values", "500", "--paper-scale",
                     "--out", str(out)]) == 1
        assert "unrecognized arguments: --paper-scale" in capsys.readouterr().err
        assert not out.exists()

    def test_count_caps_are_gone(self, tmp_path, capsys):
        # the memory rule replaced the max_n / max_budget caps
        out = str(tmp_path / "out")
        for flag in ("--max-n", "--max-budget"):
            assert main(["experiment", "scaling-n", flag, "20000", "--out", out]) == 1
            assert f"unrecognized arguments: {flag} 20000" in capsys.readouterr().err
        config = tmp_path / "caps.cfg"
        for key in ("max_n", "max_budget"):
            config.write_text(f"{key} = 20000\n")
            assert main(["experiment", "scaling-n", "--config", str(config), "--out", out]) == 1
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == 0
