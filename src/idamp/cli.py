"""Command-line entry point.

Subcommands:
    run <file> [--output csv|json] [--classes boson,fermion,dist]
    verify [--seed S] [--tol T] [--samples N] [--json FILE]
    sample <file> --draws N --seed S [--class C]
    bench [--max-n N] [--reps R]

Exit code 0 iff all checks and validations pass. The IDAMP_SEED environment
variable overrides the default seed for `verify`; the --seed flag wins over
both.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from ._version import __version__
from .derivation import (
    format_report_table,
    reports_to_json,
    run_full_derivation_suite,
    suite_passed,
    three_particle_sign_survivors,
)
from .errors import IdampError
from .experiments import (
    bench_permanent,
    bench_to_csv,
    parse_experiment,
    run_experiment,
    sample_outcomes,
)
from .kernels import ExchangeClass

DEFAULT_VERIFY_SEED = 42

_CLASS_ALIASES = {
    "boson": ExchangeClass.BOSON,
    "fermion": ExchangeClass.FERMION,
    "dist": ExchangeClass.DISTINGUISHABLE,
    "distinguishable": ExchangeClass.DISTINGUISHABLE,
}


def _parse_class(name: str) -> ExchangeClass:
    try:
        return _CLASS_ALIASES[name.strip().lower()]
    except KeyError:
        raise IdampError(
            f"unknown exchange class {name!r}; choose from boson, fermion, dist"
        ) from None


def _parse_class_list(text: str) -> tuple[ExchangeClass, ...]:
    classes = []
    for part in text.split(","):
        cls = _parse_class(part)
        if cls not in classes:
            classes.append(cls)
    if not classes:
        raise IdampError("at least one exchange class is required")
    return tuple(classes)


def _parse_seed(value) -> int:
    """A seed from a flag or the environment: an integer >= 0."""
    try:
        if int(value) >= 0:
            return int(value)
    except ValueError:
        pass
    raise IdampError(f"seed must be an integer >= 0, got {value!r}")


def _cmd_run(args) -> int:
    spec = parse_experiment(Path(args.file).read_bytes())
    if args.classes:
        spec = spec.with_classes(_parse_class_list(args.classes))
    table = run_experiment(spec)
    sys.stdout.write(table.to_csv() if args.output == "csv" else table.to_json())
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        seed = os.environ.get("IDAMP_SEED", DEFAULT_VERIFY_SEED)
    seed = _parse_seed(seed)
    reports = run_full_derivation_suite(seed=seed, tol=args.tol, samples=args.samples)
    print(format_report_table(reports))
    survivors = three_particle_sign_survivors()
    print(
        "three-particle sign survivors by filter: "
        f"product-rule={len(survivors['product-rule'])}, "
        f"probability-pair={len(survivors['probability-pair'])}, "
        f"both={len(survivors['both'])}"
    )
    if args.json:
        Path(args.json).write_text(reports_to_json(reports) + "\n", encoding="utf-8")
    return 0 if suite_passed(reports) else 1


def _cmd_sample(args) -> int:
    spec = parse_experiment(Path(args.file).read_bytes())
    exchange_class = _parse_class(args.exchange_class) if args.exchange_class else None
    seed = _parse_seed(args.seed)
    pairs = sample_outcomes(spec, args.draws, seed, exchange_class=exchange_class)
    print("final,count")
    for config, count in pairs:
        print(f"{config.text},{count}")
    return 0


def _cmd_bench(args) -> int:
    rows = bench_permanent(max_n=args.max_n, repetitions=args.reps)
    sys.stdout.write(bench_to_csv(rows))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idamp",
        description="Identical-particle amplitude calculus: run experiments, "
        "verify the derivation, sample outcomes, benchmark the permanent kernel.",
    )
    parser.add_argument("--version", action="version", version=f"idamp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment file and print the result table")
    run_p.add_argument("file", help="path to a JSON experiment document")
    run_p.add_argument("--output", choices=("csv", "json"), default="csv")
    run_p.add_argument(
        "--classes", help="comma-separated subset: boson,fermion,dist (default: spec's list)"
    )
    run_p.set_defaults(func=_cmd_run)

    verify_p = sub.add_parser("verify", help="run the full derivation check suite")
    verify_p.add_argument("--seed", type=int, default=None)
    verify_p.add_argument("--tol", type=float, default=1e-12)
    verify_p.add_argument("--samples", type=int, default=10000)
    verify_p.add_argument("--json", metavar="FILE", help="also write the report as JSON")
    verify_p.set_defaults(func=_cmd_verify)

    sample_p = sub.add_parser("sample", help="draw outcomes from an experiment distribution")
    sample_p.add_argument("file", help="path to a JSON experiment document")
    sample_p.add_argument("--draws", type=int, required=True)
    sample_p.add_argument("--seed", type=int, required=True)
    sample_p.add_argument("--class", dest="exchange_class", default=None)
    sample_p.set_defaults(func=_cmd_sample)

    bench_p = sub.add_parser("bench", help="time the permanent kernel")
    bench_p.add_argument("--max-n", type=int, default=12)
    bench_p.add_argument("--reps", type=int, default=3)
    bench_p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (IdampError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
