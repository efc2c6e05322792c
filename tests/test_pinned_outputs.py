"""Pinned outputs: a fixed seed writes the same bytes.

Each row runs CLI commands through ``cli.main`` in a fresh directory that holds
INPUTS.  A PINNED row compares the sha256 of the files it names with digests
computed before the change its reason names; an EQUAL row runs two command
lists, each in its own directory, and compares one output file's lines that
hold ``keep``.
"""

import hashlib
import shlex

import pytest

from noisysort.cli import main

INPUTS = {
    # a hand-written with-replacement file: CRLF, tabs, runs of spaces, signs, leading zeros,
    # -0, blank lines around the records, pairs stated on one side and a repeated line
    "hand.txt": b" \r\n6 with_replacement 11 7\r\n2\t1 3 1\r\n1  2\t3 2\r\n3 1 2 +2\r\n6 5 1 1\r\n"
                b"4 3 002 1\r\n3 4 2 1\r\n5 4 1 -0\r\n6 4 1 1\r\n2 6 1 0\r\n2 6 1 0\r\n\t\r\n",
    "exp.cfg": b"n_values = 500, 1000\nreplicates = 2\nestimators = ms, borda\n"
               b"sampling = with, without\nlambda_hat = 0.25\nmaster_seed = 5\n",
}
SORT = "--T 1 --lambda-hat 0.25"  # run-ms on one file


def simulate(n, model, budget, out):
    return f"simulate --n {n} --lambda 0.25 --model {model} --budget {budget} --seed 0 --out {out}"


PINNED = [
    ("With-replacement draws on both sides of 2^32: pair numbers are uint32 to n = 92682 and "
     "int64 above, compacted 65536 at a time (400000 draws are seven blocks)",
     [simulate(n, "with", "400000", f"with_{n}.txt") for n in (92682, 92683)],
     {"with_92682.txt": "f1f2ee17bab3584f364ee2b112c20d00550d751febb5861c2f3cc58b9027e37f",
      "with_92683.txt": "e0679c68709ce0e365499bd15a158c93826a23bdd6314d1631c859a81d0593cc"}),
    ("Sieve radius from the minimax rate: theory.rate_curve's n/(p lam^2), capped at n(n-1)/2",
     ["experiment mle-small --out m.csv"],
     {"m.csv": "7f3d80eae83ebf2747a7db5cdec64a8fb95eaf18b52eff2bb1e3c29f840e9a74"}),
    ("Column offsets on both sides of uint16: the held draw keeps them uint16 to n = 65537 and "
     "uint32 above",
     [command for n in (65537, 65538) for command in (
         simulate(n, "without", "0.00001", f"s_{n}.txt"),
         f"run-ms --generate --n {n} --model without --budget 0.00001 --T 3 --lambda-hat 0.25 "
         f"--seed 0 --out pi_{n}.txt")],
     {"s_65537.txt": "0b6594f97991f9a79c1f1d524ed74c94f91330dc7a7e75459af8cb3dc00e38a2",
      "s_65538.txt": "f9294bd2f488134aeb5323fbf8b3fa4476e2e911737c4b5354d810e81bd9385c",
      "pi_65537.txt": "53b02b78e94b20b50c5657a9fd0bf00523e6d8d94bd3be59781d8f13928724db",
      "pi_65538.txt": "d3445f856a1534401a3d572d64b05de0e4cb0bc73eb5d1bd9489e6a76f4e5760"}),
    ("With-replacement files keep their bytes: counts and wins at the largest count's width, "
     "pair numbers sorted as uint32",
     [simulate(3000, "with", "400000", "stage.txt"),
      f"run-ms --in stage.txt {SORT} --out pi_in.txt",
      "run-ms --generate --n 3000 --model with --budget 400000 --T 3 --lambda-hat 0.25 --seed 0 "
      "--out pi_gen.txt"],
     {"stage.txt": "f869a195e7b45d94b724642609554a997655e135cb4585fe89560bc9d5e1d848",
      "pi_in.txt": "075fdd20487142787c0f384aa3492597fb9cba79b6e3348fb98f0e484b7c0393",
      "pi_gen.txt": "35fe9a7cbb1d8a398a5eb861fa36057ac0debe0d2244ed670fe9086ccedce49e"}),
    ("Items on both sides of int16 and counts on both sides of int8: items int16 to n = 32767, "
     "counts int8 to 127 (about 330 per pair at n = 3, N = 1000)",
     [command for n in (32767, 32768)
      for model, budget in (("with", "200000"), ("without", "0.0002"))
      for command in (simulate(n, model, budget, f"{model}_{n}.txt"),
                      f"run-ms --in {model}_{n}.txt {SORT} --out pi_{model}_{n}.txt")]
     + [simulate(3, "with", "1000", "few.txt"), f"run-ms --in few.txt {SORT} --out pi_few.txt"],
     {"with_32767.txt": "0749c2e3b8326531eda7e5a024f8048ea58ec0e384a1ee6a9fab103011d80fe9",
      "pi_with_32767.txt": "d8b8c6a66969aac94b584b9dc388f252c34c599819c69400ea572440661725ed",
      "without_32767.txt": "baf03bc61cd3d842fb6bf731cea618de8fe52e7b46f06048337561ddfad9b687",
      "pi_without_32767.txt": "ef9e5e8bc55c7045655c704138e79de6b7a0902b6ae01970753fd5622865be53",
      "with_32768.txt": "67e574a5d654dfc346bc50b21f8c878e612b2eaded0ad794ae3c9e912dc07f18",
      "pi_with_32768.txt": "7a05ac8f0a46e4d40d56c76e0a3175b2893c1e4d13c435d5115e7df715eb4981",
      "without_32768.txt": "a8fc97b72e6df8c3b638182a4e063acba9200f60bb1b2167f8d7e57553e2dd97",
      "pi_without_32768.txt": "0f4dd7320e970bc7088f159dac85d79e6e17b7a824e5243b5bb88eff4feb33b2",
      "few.txt": "0aa12e705a10d3cf73877b5c5801dc640be19e9d730f7f3e47aeca5ac1264df4",
      "pi_few.txt": "1def07dbe06eeb097aafec8a40329937cd20c93a83634b8221ea2b41a894310c"}),
    ("Without-replacement and hand-written files keep their bytes: lines placed by per-item pair "
     "counts, records read at the header's width",
     [simulate(3000, "without", "0.3", "stage.txt"),
      f"run-ms --in stage.txt {SORT} --out pi_in.txt",
      f"run-ms --in hand.txt {SORT} --out pi_hand.txt"],
     {"stage.txt": "b6be2198fb8c86a5365ea01c3a6db5b4916f00007768acc8ab0d3fcb77e5bb9a",
      "pi_in.txt": "655e6b5f02b26eb7bbfaab046d4bf1a555ed9cbcd8098be4b2a7039832a28969",
      "pi_hand.txt": "5f6261633ca2d121c41ac0c3185473b5c58647c2b7ddb59c030fc0e6a248979f"}),
]

POOL = ("experiment scaling-n --n-values 500 1000 --replicates 4 --estimators ms borda random "
        "--out r.csv")
BUDGET = ("experiment scaling-budget --n-values 600 --alphas 1.0 --sampling without --replicates 2 "
          "--out r.csv")
LAMBDA = "experiment lambda --replicates 3 --out l.csv"
ONE_STAGE = ("run-ms --generate --n 2000 --model without --budget 1.0 --T 1 --lambda-hat 0.25 "
             "--seed 3 --out pi.txt")
EQUAL = [
    ("Borda sums per replicate under the thread pool: summed inside each replicate's ms pass",
     [POOL + " --workers 1"], [POOL + " --workers 2"], "r.csv", ""),
    ("Without-replacement stages under the thread pool: each replicate's own compact draw",
     [POOL + " --sampling without --lambda-hat 0.25 --workers 1"],
     [POOL + " --sampling without --lambda-hat 0.25 --workers 2"], "r.csv", ""),
    ("Replayed star-law win draw under the thread pool: at lambda 0.2 the law's two sides "
     "invert at different tables",
     [POOL + " --lambda 0.2 --lambda-hat 0.2 --pi-star random --workers 1"],
     [POOL + " --lambda 0.2 --lambda-hat 0.2 --pi-star random --workers 2"], "r.csv", ""),
    ("Margin estimates under the thread pool: each replicate draws its halves from its own seed",
     [LAMBDA + " --workers 1"], [LAMBDA + " --workers 2"], "l.csv", ""),
    ("Borda rows do not depend on ms: with ms, borda's totals come from ms's pass, whose gate "
     "fires on every stage here",
     [BUDGET + " --estimators ms borda random"], [BUDGET + " --estimators borda random"],
     "r.csv", ",borda,"),
    ("Config lines are the flags they name: each key = value parsed by its flag's type",
     ["experiment scaling-n --config exp.cfg --out r.csv"],
     ["experiment scaling-n --n-values 500 1000 --replicates 2 --estimators ms borda "
      "--sampling with without --lambda-hat 0.25 --master-seed 5 --out r.csv"], "r.csv", ""),
    ("One stage is the whole without-replacement draw: gathered as any stage is, every label 0",
     [ONE_STAGE], [ONE_STAGE], "pi.txt", ""),
]


def run(directory, monkeypatch, commands):
    """Run ``commands`` through main in a new ``directory`` holding INPUTS; each exits 0."""
    directory.mkdir()
    for name, data in INPUTS.items():
        (directory / name).write_bytes(data)
    monkeypatch.chdir(directory)
    for command in commands:
        assert main(shlex.split(command)) == 0, command
    return directory


@pytest.mark.parametrize("reason, commands, digests", PINNED,
                         ids=[row[0].split(":")[0] for row in PINNED])
def test_pinned_outputs(tmp_path, monkeypatch, reason, commands, digests):
    out = run(tmp_path / "run", monkeypatch, commands)
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests, reason


@pytest.mark.parametrize("reason, first, second, out, keep", EQUAL,
                         ids=[row[0].split(":")[0] for row in EQUAL])
def test_equal_outputs(tmp_path, monkeypatch, reason, first, second, out, keep):
    kept = []
    for side, commands in (("first", first), ("second", second)):
        text = (run(tmp_path / side, monkeypatch, commands) / out).read_bytes()
        kept.append([line for line in text.splitlines(keepends=True) if keep.encode() in line])
    assert kept[0] and kept[0] == kept[1], reason


def test_one_stage_writes_a_permutation(tmp_path, monkeypatch):
    out = run(tmp_path / "run", monkeypatch, [ONE_STAGE])
    assert sorted(map(int, (out / "pi.txt").read_text().split())) == list(range(1, 2001))
