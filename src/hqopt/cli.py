"""Command-line front end: solve, round, experiment sweeps, lemma checks.

Exit codes: 0 success, 2 input error, 3 unbounded or infeasible relaxation,
4 rounding produced no feasible point, 5 a verification check failed.  A
numerically failed solve exits 1.  No environment variable is read.
"""

import argparse
import json
import os
import sys

from .experiment import ExperimentConfig, run_experiment, write_csv
from .instances import CANONICAL_IDS, CASE_A, CASE_B, CASE_C, CASE_D, canonical
from .lowrank import reduce_rank
from .probability import CHECK_IDS, run_lemma_check
from .rounding import (
    GAUSSIAN_MAX,
    GAUSSIAN_MIN,
    SIGN_MAX,
    RoundingParams,
    complex_exact_extraction,
    round_solution,
)
from .sdp import (
    COMPLEX,
    INFEASIBLE,
    NUMERICAL_FAILURE,
    OPTIMAL,
    REAL,
    UNBOUNDED,
    QcqpInstance,
    solve_instance,
)

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2
EXIT_NOT_OPTIMAL = 3
EXIT_ROUNDING = 4
EXIT_VERIFY = 5

_CASE_ALIASES = {"a": CASE_A, "b": CASE_B, "c": CASE_C, "d": CASE_D}
_EXACT_SCHEME = "ComplexExact"


def _load_instance(path: str) -> QcqpInstance:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "instance" in data:
        data = data["instance"]
    return QcqpInstance.from_json_dict(data)


def _status_exit(status: str) -> int:
    if status == OPTIMAL:
        return EXIT_OK
    if status in (INFEASIBLE, UNBOUNDED):
        return EXIT_NOT_OPTIMAL
    return EXIT_NUMERICAL


def _emit(payload: dict, out) -> None:
    out.write(json.dumps(payload, indent=2) + "\n")


def cmd_solve(args, out) -> int:
    inst = _load_instance(args.instance)
    sol = solve_instance(inst)
    _emit(sol.to_json_dict(), out)
    return _status_exit(sol.status)


def cmd_round(args, out) -> int:
    inst = _load_instance(args.instance)
    sol = solve_instance(inst)
    if sol.status != OPTIMAL:
        _emit(sol.to_json_dict(), out)
        return _status_exit(sol.status)
    if args.scheme == _EXACT_SCHEME:
        report = complex_exact_extraction(inst, reduce_rank(sol, inst))
    else:
        report = round_solution(inst, sol, RoundingParams(args.scheme, args.samples, args.seed))
    _emit(report.to_json_dict(), out)
    return EXIT_ROUNDING if report.failed else EXIT_OK


def _parse_cases(raw: str) -> tuple:
    cases = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        cases.append(_CASE_ALIASES.get(token.lower(), token))
    return tuple(cases)


def _parse_m_list(raw: str) -> tuple:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ValueError(f"malformed m list {raw!r}") from exc


def cmd_experiment(args, out) -> int:
    if args.paper_scale:
        cases = _parse_cases(args.cases) if args.cases else (CASE_A, CASE_B, CASE_C, CASE_D)
        m_list = _parse_m_list(args.m_list) if args.m_list else tuple(range(5, 101, 5))
        instances = args.instances_per_m if args.instances_per_m is not None else 1000
    else:
        cases = _parse_cases(args.cases) if args.cases else (CASE_A,)
        m_list = _parse_m_list(args.m_list) if args.m_list else (5, 10, 15, 20, 25, 30)
        instances = args.instances_per_m if args.instances_per_m is not None else 100
    config = ExperimentConfig(
        cases=cases,
        m_list=m_list,
        instances_per_m=instances,
        samples=args.samples,
        root_seed=args.seed,
        n=args.n,
        scheme=args.scheme,
        field=COMPLEX if args.complex_field else REAL,
    )
    # checked first: open() would find a bad path only after the whole sweep
    folder = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(folder):
        raise ValueError(f"--out directory {folder} does not exist")
    if os.path.isdir(args.out):
        raise ValueError(f"--out {args.out} is a directory, not a file")
    result = run_experiment(config)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(result, fh)
    out.write(f"root_seed={config.root_seed}\n")
    out.write(f"wrote {len(result.records)} records to {args.out}\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    ids = CHECK_IDS if args.lemma == "all" else (args.lemma,)
    outcomes = [
        run_lemma_check(check_id, samples=args.samples, seed=args.seed) for check_id in ids
    ]
    payload = {
        "root_seed": args.seed,
        "checks": [o.to_dict() for o in outcomes],
        "all_passed": all(o.passed for o in outcomes),
    }
    _emit(payload, out)
    return EXIT_OK if payload["all_passed"] else EXIT_VERIFY


def cmd_example(args, out) -> int:
    ex = canonical(args.id, args.M)
    payload = {
        "id": ex.id,
        "M": ex.M,
        "known_values": ex.known_values,
        "instance": ex.instance.to_json_dict(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        out.write(f"wrote {args.id} to {args.out}\n")
    else:
        _emit(payload, out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqopt",
        description="Homogeneous QCQP relaxation solver, rounding schemes, and verifications.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file and print the solution")
    p_solve.add_argument("instance", help="instance JSON path")

    p_round = sub.add_parser("round", help="solve then round one instance file")
    p_round.add_argument("instance", help="instance JSON path")
    p_round.add_argument(
        "--scheme",
        default=GAUSSIAN_MIN,
        choices=[GAUSSIAN_MIN, SIGN_MAX, GAUSSIAN_MAX, _EXACT_SCHEME],
    )
    p_round.add_argument("--samples", type=int, default=100)
    p_round.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="run a ratio sweep and write CSV")
    p_exp.add_argument("--cases", default=None, help="comma list: a,b,c,d or full tokens")
    p_exp.add_argument("--m-list", dest="m_list", default=None, help="comma list of m values")
    p_exp.add_argument("--instances-per-m", dest="instances_per_m", type=int, default=None)
    p_exp.add_argument("--samples", type=int, default=100)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--n", type=int, default=10)
    p_exp.add_argument(
        "--scheme", default=GAUSSIAN_MIN, choices=[GAUSSIAN_MIN, SIGN_MAX, GAUSSIAN_MAX]
    )
    p_exp.add_argument("--complex-field", action="store_true", dest="complex_field")
    p_exp.add_argument(
        "--paper-scale",
        action="store_true",
        dest="paper_scale",
        help="all cases, m up to 100, 1000 instances per cell",
    )
    p_exp.add_argument("--out", default="hqopt_experiment.csv")

    p_verify = sub.add_parser("verify", help="run registered probability checks")
    p_verify.add_argument("--lemma", default="all", choices=["all", *CHECK_IDS])
    p_verify.add_argument("--samples", type=int, default=200_000)
    p_verify.add_argument("--seed", type=int, default=0)

    p_example = sub.add_parser("example", help="emit a canonical instance as JSON")
    p_example.add_argument("--id", required=True, choices=list(CANONICAL_IDS))
    p_example.add_argument("--M", type=float, default=None)
    p_example.add_argument("--out", default=None)

    return parser


_DISPATCH = {
    "solve": cmd_solve,
    "round": cmd_round,
    "experiment": cmd_experiment,
    "verify": cmd_verify,
    "example": cmd_example,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args, out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
