"""Command line front end.

Subcommands: sample, campaign, moment-exact, cl-table, defect, verify, report.
The process exits 0 iff no verification identity failed.
"""

import argparse
import contextlib
import json
import sys

from .defect import bonferroni_lower, corank_tail_floor, isolated_double_probability, mc_corank_tail
from .errors import DegenerateHostError, InvalidInputError, SizeLimitError
from .experiment import (
    ExperimentConfig,
    build_report,
    load_trials,
    report_csv,
    run_campaign,
    verify_suite,
)
from .groups import (
    FiniteAbelianGroup,
    cl_corank_probability,
    cl_probability,
    is_prime,
    p_groups_up_to,
)
from .moments import surjection_moment_exact
from .sampling import PRECISIONS, sample_hypertree, sample_matrix
from .snf import cokernel, sylow


def _parse_ints(text, option):
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise InvalidInputError(f"{option} takes comma-separated integers, got {text!r}") from None


def _parse_group(text):
    return FiniteAbelianGroup(_parse_ints(text, "--group"))


def _parse_primes(text):
    primes = _parse_ints(text, "--primes")
    for p in primes:
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
    return primes


def _add_common(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--precision", choices=PRECISIONS, default="float64")


def cmd_sample(args):
    primes = _parse_primes(args.primes)  # before the draw, so a bad prime prints no matrix
    if args.model == "hypertree":
        if args.k is not None:
            raise InvalidInputError("the hypertree model takes no --k")
        faces, mat = sample_hypertree(args.n, args.seed, args.precision)
        print("faces:", " ".join("".join(map(str, f)) for f in faces))
    else:
        if args.k is None:
            raise InvalidInputError("--k is required for the bn_matrix model")
        mat = sample_matrix(args.n, args.k, args.seed, args.precision)
    for row in mat:
        print(" ".join(f"{x:3d}" for x in row))
    cok = cokernel(mat)
    print("free rank:", cok.free_rank)
    print("divisors:", list(cok.divisors))
    for p in primes:
        print(f"sylow {p}:", list(sylow(cok, p).partition))
    return 0


def cmd_campaign(args):
    cfg = ExperimentConfig(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        model=args.model,
        k=args.k,
        k_schedule=args.k_schedule,
        primes=_parse_primes(args.primes),
        precision=args.precision,
    )
    records, report = run_campaign(cfg, out_dir=args.out, tv_cap=args.cap)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        print(f"# wrote {len(records)} trials under {args.out}", file=sys.stderr)
    return 0


def cmd_moment_exact(args):
    G = _parse_group(args.group)
    value = surjection_moment_exact(G, args.n, args.k)
    print(f"E(#Sur(cok, {G.label()})) at n={args.n}, k={args.k}")
    print(f"exact    : {value.numerator}/{value.denominator}")
    print(f"float    : {float(value):.12g}")
    return 0


def cmd_cl_table(args):
    p = args.prime
    if args.law == "sylow":
        groups = p_groups_up_to(p, args.cap)  # before the header, so a bad cap prints none
        print("group,partition,cl_probability")
        for G in groups:
            part = G.primary_partitions().get(p, ())
            print(f"{G.label()},{'+'.join(map(str, part)) or '0'},{cl_probability(G, p):.9f}")
    else:
        if p != 2:
            raise InvalidInputError("the corank law is tabulated at p=2")
        if args.cap < 0:
            raise InvalidInputError(f"the corank cap must be >= 0, got {args.cap}")
        print("corank,cl_probability")
        for r in range(args.cap + 1):
            print(f"{r},{cl_corank_probability(r):.9f}")
    return 0


def cmd_defect(args):
    print(f"isolated-double probability p(n={args.n}, k={args.k}, r={args.r}):",
          float(isolated_double_probability(args.n, args.k, args.r)))
    bound = bonferroni_lower(args.n, args.k, args.r)
    print(f"bonferroni lower bound  : {float(bound):.9f}")
    print(f"asymptotic floor        : {corank_tail_floor(args.k, args.r):.9f}")
    if args.trials:
        est, se = mc_corank_tail(args.n, args.k, args.r, args.trials, args.seed, args.precision)
        print(f"monte carlo estimate    : {est:.6f} +- {se:.6f} ({args.trials} trials)")
    return 0


def cmd_verify(args):
    try:  # opened first, so a path that cannot be written is refused before any identity runs
        out = open(args.json_out, "w") if args.json_out else contextlib.nullcontext()
    except OSError as exc:
        raise InvalidInputError(f"cannot write {args.json_out}: {exc.strerror}") from None
    with out as fh:
        ledger = verify_suite(args.level)
        if fh is not None:
            json.dump(ledger, fh, indent=2, sort_keys=True)
            fh.write("\n")
    failures = 0
    for entry in ledger:
        print(f"[{entry['status'].upper():4s}] {entry['name']:32s} "
              f"{entry['elapsed_ms']:10.1f} ms  {entry['detail']}")
        failures += entry["status"] != "pass"
    print(f"{len(ledger) - failures}/{len(ledger)} identities verified")
    return 1 if failures else 0


def cmd_report(args):
    try:
        records = load_trials(args.trials)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {args.trials}: {exc.strerror}") from None
    if not records:
        raise InvalidInputError("trial file is empty")
    first = records[0]
    cfg = ExperimentConfig(
        n=first.n, trials=len(records), seed=first.seed[0],
        model="bn_matrix" if first.k else "hypertree",
        k=first.k if first.k else None, primes=tuple(sorted(first.sylow)),
    )
    groups = [_parse_group(args.group)] if args.group else None
    report = build_report(cfg, records, tv_prime=args.prime, tv_cap=args.cap,
                          moment_groups=groups)
    if args.csv:
        print(report_csv(report), end="")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rowsparse",
        description="Determinantal sampling of row-sparse integer matrices "
        "and exact cokernel statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one matrix and print its cokernel data")
    _add_common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--model", choices=["bn_matrix", "hypertree"], default="bn_matrix")
    p.add_argument("--primes", default="2,3")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("campaign", help="run a seeded Monte Carlo campaign")
    _add_common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--k-schedule", dest="k_schedule")
    p.add_argument("--model", choices=["bn_matrix", "hypertree"], default="bn_matrix")
    p.add_argument("--primes", default="2,3")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--cap", type=int, default=81, help="Sylow order cap for reports")
    p.add_argument("--out", help="output directory for trials.jsonl and reports")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("moment-exact", help="exact surjection moment")
    p.add_argument("--group", required=True, help="invariant factors, e.g. 2 or 2,4")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(fn=cmd_moment_exact)

    p = sub.add_parser("cl-table", help="Cohen-Lenstra reference tables")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--cap", type=int, default=81)
    p.add_argument("--law", choices=["sylow", "corank"], default="sylow")
    p.set_defaults(fn=cmd_cl_table)

    p = sub.add_parser("defect", help="mod-2 corank bounds and Monte Carlo tail")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--trials", type=int, default=0)
    p.set_defaults(fn=cmd_defect)

    p = sub.add_parser("verify", help="run the exact-identity suite")
    p.add_argument("--level", choices=["fast", "full"], default="fast")
    p.add_argument("--json-out", dest="json_out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="rebuild reports from a trials file")
    p.add_argument("--trials", required=True, help="path to trials.jsonl")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--cap", type=int, default=81)
    p.add_argument("--group", help="moment group, e.g. 3")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInputError, SizeLimitError, DegenerateHostError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
