"""Command-line interface.

Subcommands: simulate, run-ms, count-inversions, entropy-check, theory,
experiment.  Exit codes: 0 success, 1 usage error, 2 resource-cap refusal.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path

from .counting import count_at_most_k_inversions, entropy_bounds
from .errors import ResourceCapError
from .estimators import MsConfig, ms_sort
from .experiments import (
    DATASET_LINES,
    READ_LINES,
    WRITTEN,
    ExperimentSpec,
    _replicates,
    check_memory,
    draw_stages,
    emit_regions,
    lambda_results_to_csv,
    largest_draw,
    rows_to_csv,
    run_experiment,
    run_lambda_accuracy,
    summarize,
    summary_to_csv,
)
from .model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    _cell_dtype,
    _int64,
    _item_dtype,
    read_dataset,
    sample_with_replacement,
    sample_without_replacement,
    star_matrix,
    write_dataset,
)
from .perms import Permutation
from .theory import (
    RATE_KINDS,
    bernoulli_kl,
    binomial_tail_bounds,
    kl_at_distance,
    model_kl,
    rate_curve,
)

_SAMPLING_TOKENS = {"with": WITH_REPLACEMENT, "without": WITHOUT_REPLACEMENT}


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_permutation(path: str | None, n: int | None, flag: str = "--pi-star") -> Permutation:
    """The permutation in the file ``flag`` names, of n items unless n is None; else identity."""
    if path is None:
        return Permutation.identity(n)
    try:
        pi = Permutation.from_line(Path(path).read_text().strip())
    except ValueError as exc:
        raise ValueError(f"{flag} {path}: {exc}") from None
    if n is not None and pi.n != n:
        raise ValueError(f"pi-star file has n={pi.n}, expected {n}")
    return pi


def _budget(args) -> tuple[str, float]:
    kind = _SAMPLING_TOKENS[args.model]
    try:
        return kind, int(args.budget) if kind == WITH_REPLACEMENT else float(args.budget)
    except ValueError:  # int("1e4")
        raise ValueError(f"--budget {args.budget!r} is neither a whole number of comparisons "
                         f"(--model with) nor a probability (--model without)") from None


def _cmd_simulate(args) -> int:
    if args.n < 1:  # read_dataset refuses such a file
        raise ValueError(f"--n must be >= 1, got {args.n}")
    kind, budget = _budget(args)
    matrix = star_matrix(args.n, args.lam)
    n, records = args.n, largest_draw(args.n, kind, budget, 1, False)
    # the draw, then its write with the dataset held: min(N, C(n,2)) pairs, or all N draws
    # where a with-replacement dataset's seconds view them (items as wide as cells)
    view = kind == WITH_REPLACEMENT and _item_dtype(n)().itemsize == _cell_dtype(n)().itemsize
    for phase in {kind: records}, {WRITTEN: records if view else min(records, n * (n - 1) // 2)}:
        check_memory(f"simulate n={n}", n, phase)
    pi_star = _read_permutation(args.pi_star, args.n)
    if kind == WITH_REPLACEMENT:
        dataset = sample_with_replacement(pi_star, matrix, budget, args.seed)
    else:
        dataset = sample_without_replacement(pi_star, matrix, budget, args.seed)
    write_dataset(dataset, args.out)
    print(f"wrote {dataset.total_comparisons()} comparisons over "
          f"{dataset.num_pairs} pairs to {args.out}")
    return 0


def _check_files(paths: list[str], stages: int) -> None:
    """Refuse dataset files that would not fit once read, before any is parsed: the largest
    header n, by the reader's rule (a header n it refuses counts as 1: read_dataset names
    it), at most one record line per 8 bytes of each file held, the largest file's read on
    top, and ms's state of ``stages`` stages."""
    n = 1
    for path in paths:
        with open(path, "rb") as f:
            head = next((line.split()[0] for line in f if line.strip()), b"")
        n = max(n, _int64(head.decode(errors="replace")) or 1)
    lines = [os.path.getsize(path) // 8 for path in paths]
    check_memory(f"run-ms n={n}", n, {DATASET_LINES: sum(lines), READ_LINES: max(lines)},
                 stages=stages)


def _cmd_run_ms(generate_only: list[argparse.Action], args) -> int:
    config = MsConfig(stages=args.stages)
    if args.infiles:
        if given := [a.option_strings[0] for a in generate_only if a.dest in args]:
            raise ValueError(f"{given[0]} is read only with --generate, not with --in")
        if args.lambda_hat is None:
            raise ValueError("--lambda-hat is required when stages come from files")
        _check_files(args.infiles, args.stages)  # every file is held while ms sorts
        samples, lam_hat = [read_dataset(f) for f in args.infiles], args.lambda_hat
    else:
        if "n" not in args or "budget" not in args:
            raise ValueError("--generate needs --n and --budget")
        args = argparse.Namespace(**{"model": "with", "seed": 0, "lam": 0.25, "pi_star": None,
                                     **vars(args)})
        kind, budget = _budget(args)
        given = "budgets" if kind == WITH_REPLACEMENT else "alphas"  # an experiment cell's rules
        spec = ExperimentSpec("scaling_n", (args.n,), lambda_hat=args.lambda_hat,
                              stages=args.stages, estimators=("ms",), sampling=(kind,),
                              workers=1, **{given: (budget,)})
        _, _, budget, stages, _ = next(_replicates(spec))  # the cell's plan; the seed is --seed
        samples, lam_hat = draw_stages(_read_permutation(args.pi_star, args.n),
                                       star_matrix(args.n, args.lam), kind, budget,
                                       stages, args.seed, args.lambda_hat)
    pi_hat, states = ms_sort(samples, lam_hat, config)
    Path(args.out).write_text(pi_hat.to_line() + "\n")
    if args.regions_dir:
        emit_regions(states, args.regions_dir)
    print(f"wrote permutation to {args.out}")
    return 0


def _cmd_count_inversions(args) -> int:
    print(count_at_most_k_inversions(args.n, args.k))
    return 0


def _cmd_entropy_check(args) -> int:
    report = entropy_bounds(args.n, args.r, args.eps)
    print("n,r,eps,prop_lower,prop_upper,log_greedy_size,within_bounds")
    size = "" if report.log_greedy_size is None else repr(report.log_greedy_size)
    within = "" if report.within_bounds is None else str(report.within_bounds).lower()
    print(f"{report.n},{report.r},{report.epsilon},{report.prop_lower!r},"
          f"{report.prop_upper!r},{size},{within}")
    return 0


def _cmd_theory(args) -> int:
    bernoulli = args.op == "kl" and (args.p is not None or args.q is not None)
    flags = (dict(p="--p", q="--q") if bernoulli
             else dict(n_draws="--n-draws", p="--p", r="--r", s="--s") if args.op == "tail"
             else dict(n="--n", budget="--budget", lam="--lambda"))
    if missing := [flag for dest, flag in flags.items() if getattr(args, dest) is None]:
        raise ValueError(f"--op {args.op} needs {', '.join(missing)}")
    if bernoulli:
        print("op,p,q,kl")
        print(f"kl,{args.p!r},{args.q!r},{bernoulli_kl(args.p, args.q)!r}")
        return 0
    if args.op == "kl":
        kind = _SAMPLING_TOKENS[args.model]
        if args.pi and args.sigma:
            value = model_kl(_read_permutation(args.pi, None, "--pi"),
                             _read_permutation(args.sigma, None, "--sigma"),
                             kind, args.n, args.budget, args.lam)
        elif args.d_kt is not None:
            value = kl_at_distance(args.d_kt, kind, args.n, args.budget, args.lam)
        else:
            raise ValueError("model KL needs --pi/--sigma files or --d-kt")
        print("op,model,n,budget,lam,kl")
        print(f"kl,{args.model},{args.n},{args.budget!r},{args.lam!r},{value!r}")
        return 0
    if args.op == "tail":
        lower, upper = binomial_tail_bounds(args.n_draws, args.p, args.r, args.s)
        print("op,n_draws,p,r,s,lower_tail_bound,upper_tail_bound")
        print(f"tail,{args.n_draws},{args.p!r},{args.r!r},{args.s!r},{lower!r},{upper!r}")
        return 0
    # rate
    value = rate_curve(args.kind, args.n, args.budget, args.lam)
    print("op,kind,n,budget,lam,value")
    print(f"rate,{args.kind},{args.n},{args.budget!r},{args.lam!r},{value!r}")
    return 0


# each preset states only what it changes of ExperimentSpec's defaults
_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "scaling-n": dict(kind="scaling_n", n_values=(500, 1000, 2000, 4000), alphas=(0.1,),
                      sampling=(WITH_REPLACEMENT, WITHOUT_REPLACEMENT)),
    "scaling-budget": dict(kind="scaling_budget", n_values=(2000,),
                           alphas=(0.01, 0.02, 0.05, 0.1),
                           sampling=(WITH_REPLACEMENT, WITHOUT_REPLACEMENT)),
    "regions": dict(kind="region_snapshot", n_values=(2000,), alphas=(1.0,), stages=3,
                    replicates=1, estimators=("ms",), regions_dir="regions"),
    "lambda": dict(kind="lambda_accuracy", n_values=(500,), budgets=(1_000_000,)),
    "mle-small": dict(kind="mle_small_n", n_values=(6,), alphas=(1.0,), stages=1,
                      replicates=20, estimators=("mle", "sieve", "borda", "random"),
                      sampling=(WITHOUT_REPLACEMENT,)),
}


def _margin(text: str) -> float | None:
    return None if text == "none" else float(text)


def _seed(text: str) -> int:
    if (seed := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {seed}")
    return seed


def _setting_flags(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The experiment parser's settings by dest, which are also a config file's keys: the
    ExperimentSpec fields but ``kind``, and the output files."""
    return {a.dest: a for a in parser._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _read_config(parser: argparse.ArgumentParser, which: str, path: str) -> argparse.Namespace:
    """Flat ``key = value`` lines, '#' comments.  Each line is parsed as the flag whose dest
    is ``key``, by its own type and choices; a list flag's value is split on commas."""
    flags, argv = _setting_flags(parser), [which]
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (want key = value): {raw!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in flags:
            raise ValueError(f"unknown config key {key!r}")
        flag = flags[key].option_strings[0]
        if flags[key].nargs:
            argv += [flag, *(tok.strip() for tok in val.split(",") if tok.strip())]
        else:
            argv.append(f"{flag}={val}")
    return parser.parse_args(argv)


def _layer(settings: dict, parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Lay the settings given in ``args`` over ``settings``: the experiment parser suppresses
    absent flags.  Giving alphas or budgets drops the other."""
    flags = _setting_flags(parser)
    values = {key: tuple(v) if isinstance(v, list) else v
              for key, v in vars(args).items() if key in flags}
    for key, other in (("alphas", "budgets"), ("budgets", "alphas")):
        if key in values:
            settings.pop(other, None)
    settings.update(values)
    if "sampling" in values:
        settings["sampling"] = tuple(_SAMPLING_TOKENS[s] for s in values["sampling"])


def _cmd_experiment(parser: argparse.ArgumentParser, args) -> int:
    settings = dict(_EXPERIMENT_DEFAULTS[args.which])
    if "config" in args:
        _layer(settings, parser, _read_config(parser, args.which, args.config))
    _layer(settings, parser, args)
    out = settings.pop("out", None) or "results.csv"
    summary_out = settings.pop("summary_out", None)
    timings_out = settings.pop("timings_out", None)
    if settings["kind"] == "lambda_accuracy" and (summary_out, timings_out) != (None, None):
        flag = "--summary-out" if summary_out is not None else "--timings-out"
        raise ValueError(f"{flag} is not written by experiment lambda")
    spec = ExperimentSpec(**settings)

    if spec.kind == "lambda_accuracy":
        results = run_lambda_accuracy(spec)
        lambda_results_to_csv(results, out)
        print(f"wrote {len(results)} margin-estimation rows to {out}")
        return 0
    rows = run_experiment(spec)
    rows_to_csv(rows, out, timings_path=timings_out)
    if summary_out:
        summary_to_csv(summarize(rows), summary_out)
    print(f"wrote {len(rows)} result rows to {out}")
    if spec.kind == "region_snapshot":
        print(f"wrote region bitmaps to {spec.regions_dir}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="noisysort", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[], help="generate a comparison dataset")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sim.add_argument("--model", choices=("with", "without"), required=True)
    p_sim.add_argument("--budget", required=True,
                       help="N for --model with, per-pair probability for without")
    p_sim.add_argument("--seed", type=_seed, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--pi-star", dest="pi_star", default=None,
                       help="file with the latent permutation (default identity)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_ms = sub.add_parser("run-ms", help="run the multistage sorter")
    source = p_ms.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infiles", nargs="+",
                        help="stage dataset files (one per stage)")
    source.add_argument("--generate", action="store_true",
                        help="generate data instead of reading files")
    generate = p_ms.add_argument_group("--generate only", argument_default=argparse.SUPPRESS)
    generate.add_argument("--n", type=int)
    generate.add_argument("--lambda", dest="lam", type=float, help="default 0.25")
    generate.add_argument("--model", choices=("with", "without"), help="default with")
    generate.add_argument("--budget")
    generate.add_argument("--seed", type=_seed, help="default 0")
    generate.add_argument("--pi-star", dest="pi_star", help="default identity")
    p_ms.add_argument("--T", dest="stages", type=int, required=True)
    p_ms.add_argument("--lambda-hat", dest="lambda_hat", type=float, default=None)
    p_ms.add_argument("--out", required=True)
    p_ms.add_argument("--regions-dir", dest="regions_dir", default=None)
    p_ms.set_defaults(func=partial(_cmd_run_ms, generate._group_actions))

    p_ct = sub.add_parser("count-inversions",
                          help="count permutations within k inversions of identity")
    p_ct.add_argument("--n", type=int, required=True)
    p_ct.add_argument("--k", type=int, required=True)
    p_ct.set_defaults(func=_cmd_count_inversions)

    p_en = sub.add_parser("entropy-check", help="ball metric-entropy bounds")
    p_en.add_argument("--n", type=int, required=True)
    p_en.add_argument("--r", type=int, required=True)
    p_en.add_argument("--eps", type=int, required=True)
    p_en.set_defaults(func=_cmd_entropy_check)

    p_th = sub.add_parser("theory", help="closed-form reference quantities")
    p_th.add_argument("--op", choices=("kl", "tail", "rate"), required=True)
    for flag in ("--p", "--q", "--r", "--s"):
        p_th.add_argument(flag, type=float, default=None)
    p_th.add_argument("--n-draws", dest="n_draws", type=int, default=None)
    p_th.add_argument("--model", choices=("with", "without"), default="with")
    p_th.add_argument("--n", type=int, default=None)
    p_th.add_argument("--budget", type=float, default=None)
    p_th.add_argument("--lambda", dest="lam", type=float, default=None)
    p_th.add_argument("--pi", default=None)
    p_th.add_argument("--sigma", default=None)
    p_th.add_argument("--d-kt", dest="d_kt", type=int, default=None)
    p_th.add_argument("--kind", choices=RATE_KINDS, default="minimax_o2")
    p_th.set_defaults(func=_cmd_theory)

    p_ex = sub.add_parser("experiment", help="run a seeded experiment grid",
                          argument_default=argparse.SUPPRESS)
    p_ex.add_argument("which", choices=tuple(_EXPERIMENT_DEFAULTS))
    p_ex.add_argument("--config", help="flat key = value file; keys are flag dests")
    p_ex.add_argument("--n-values", dest="n_values", type=int, nargs="+")
    p_ex.add_argument("--alphas", type=float, nargs="+")
    p_ex.add_argument("--budgets", type=int, nargs="+")
    p_ex.add_argument("--lambda", dest="lam", type=float)
    p_ex.add_argument("--lambda-hat", dest="lambda_hat", type=_margin,
                      help="fixed margin, or 'none' to estimate it")
    p_ex.add_argument("--stages", type=int)
    p_ex.add_argument("--replicates", type=int)
    p_ex.add_argument("--master-seed", dest="master_seed", type=int)
    p_ex.add_argument("--estimators", nargs="+")
    p_ex.add_argument("--sampling", nargs="+", choices=("with", "without"))
    p_ex.add_argument("--workers", type=int)
    p_ex.add_argument("--pi-star", dest="pi_star", choices=("identity", "random"))
    p_ex.add_argument("--out", help="results CSV (default results.csv)")
    p_ex.add_argument("--summary-out", dest="summary_out")
    p_ex.add_argument("--timings-out", dest="timings_out")
    p_ex.add_argument("--regions-dir", dest="regions_dir")
    p_ex.set_defaults(func=partial(_cmd_experiment, p_ex))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits; normalize the code
        code = exc.code if isinstance(exc.code, int) else 1
        return code
    except ResourceCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
