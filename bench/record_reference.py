#!/usr/bin/env python3
"""Record `reference.json`, the expected output of every benchmark command.

Run from the repository root, at the commit whose outputs are the reference:

    python3 bench/record_reference.py

Each command of `WORKLOADS` and `SMOKE_WORKLOADS` runs once as a CLI
subprocess, exactly as the benchmark runs it.  A command that exits with the
known digit-limit error is listed under `known_seed_failures` with its last
error line; any other failure aborts the recording.  The exact lower endpoint
of every bound report, the crashing ones included, is computed in-process on
the exact-Fraction path and stored as hexadecimal numerator and denominator,
which avoids the str(int) digit limit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import Runner, git_sha, src_digest
from workloads import (KNOWN_SEED_ERROR, REFERENCE_PATH, SMOKE_WORKLOADS, WORKLOADS, Verdict,
                       json_tables, sha256, survey_counts, tables_rows_digest)


def exact_lower_endpoint(argv: list[str]) -> list[str]:
    from ecstats import cli

    args = cli.build_parser().parse_args(argv)
    maker = {"growth": cli.bounds.selmer_growth_bound,
             "euler": cli.bounds.euler_divisibility_bound,
             "mu-lambda": cli.bounds.mu_lambda_bound}[args.kind]
    lo = maker(args.p, args.n, truncation=args.trunc, zeta_terms=args.zeta_terms).value.lo
    return [f"{lo.numerator:x}", f"{lo.denominator:x}"]


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    reference = {
        "recorded_from": {"git_sha": git_sha(root), "src_sha256": src_digest(root)},
        "known_seed_failures": {},
        "commands": {},
    }

    def record(command, argv, code, stdout, stderr, cwd) -> Verdict:
        if code != 0:
            if KNOWN_SEED_ERROR not in stderr:
                raise RuntimeError(f"{command} failed (exit {code}):\n{stderr}")
            reference["known_seed_failures"][command] = stderr.strip().splitlines()[-1]
        entry = {}
        if argv[0] == "tables" and json_tables(argv):
            entry["rows_sha256"] = tables_rows_digest(stdout)
        elif argv[0] == "tables":
            entry["stdout_sha256"] = sha256(stdout)
        elif argv[0] == "survey":
            entry["blocks"] = survey_counts(stdout)
            if "--csv" in argv:
                entry["csv_rows"] = json.loads(stdout)["csv"]["rows"]
                entry["csv_sha256"] = sha256((cwd / argv[argv.index("--csv") + 1]).read_bytes())
        elif argv[0] == "bounds":
            entry["lo_exact_hex"] = exact_lower_endpoint(argv)
        reference["commands"][command] = entry
        print(f"recorded {command}", file=sys.stderr)
        return Verdict(True)

    runner = Runner(root, reference)
    runner.judge = record
    try:
        for workloads in (WORKLOADS, SMOKE_WORKLOADS):
            for workload in workloads.values():
                for command in workload.commands:
                    if command not in reference["commands"]:
                        runner.subprocess_command(command)
    finally:
        runner.close()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
