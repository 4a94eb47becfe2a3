"""Workloads of the ecstats benchmark and the checks on their outputs.

A workload is a fixed list of `ecstats` CLI commands.  A command is written
as one string of space-separated arguments; the token `{tmp}` stands for the
fresh directory the command runs in.  Every command's output is compared with
reference data recorded once from the seed commit (`reference.json`, written
by `record_reference.py`), so a faster program that answers differently
counts as failed.

The checks look only at the parts of each output that define the answer:
the CSV bytes of `tables`, the rows of `tables --format json`, the `counts`
of every survey block (which hold the histogram tails), the survey CSV bytes,
the verify summary line, and the certified lower endpoint of each bound
report.  Version strings and any timing or provenance blocks a later report
format adds are ignored.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# A serialized lower bound must not exceed the exact lower endpoint, and may
# fall below it by at most this share of it.  Rounding to 40 significant
# digits loses less than 1e-39; the slack leaves room for certified
# bounded-precision sums that round toward zero at every step.
BOUND_REL_GAP = Fraction(1, 10**20)

# At the seed commit three bound reports exit 1 while serializing: their
# exact endpoints have more than 4,300 decimal digits, Python's default limit
# for str(int).  They stay in the `bounds` workload and count as failures.
KNOWN_SEED_ERROR = "Exceeds the limit (4300 digits) for integer string conversion"


def _flag(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _primes(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, hi + 1, q)))
    return [q for q in range(lo, hi + 1) if sieve[q]]


def _icbrt(n: int) -> int:
    r = round(n ** (1 / 3))
    while r**3 > n:
        r -= 1
    while (r + 1) ** 3 <= n:
        r += 1
    return r


def box_pairs(x: int) -> int:
    """Pairs (a, b) with max(4|a|^3, 27 b^2) <= x."""
    return (2 * _icbrt(x // 4) + 1) * (2 * math.isqrt(x // 27) + 1)


def census_pairs(argv: list[str]) -> int:
    """Residue pairs a `tables` command classifies: p^2 summed over its primes."""
    if argv[0] != "tables":
        return 0
    return sum(p * p for p in _primes(_flag(argv, "--pmin"), _flag(argv, "--pmax")))


def survey_pairs(argv: list[str]) -> int:
    return box_pairs(_flag(argv, "--x")) if argv[0] == "survey" else 0


def csv_rows(argv: list[str]) -> int:
    return box_pairs(_flag(argv, "--x")) if "--csv" in argv else 0


def bound_reports(argv: list[str]) -> int:
    return 1 if argv[0] == "bounds" else 0


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[str, ...]
    # `work_per_s` on this workload: units of `work` done by the commands it
    # counts, divided by their wall time.
    work_name: str
    work: Callable[[list[str]], int]


def _workloads(census, survey, oracles, bounds) -> dict[str, Workload]:
    return {
        "census": Workload("census", census, "census_pairs_per_s", census_pairs),
        "survey": Workload("survey", survey, "survey_pairs_per_s", survey_pairs),
        "oracles": Workload("oracles", oracles, "csv_rows_per_s", csv_rows),
        "bounds": Workload("bounds", bounds, "bound_reports_per_s", bound_reports),
    }


WORKLOADS = _workloads(
    census=("tables --pmin 5 --pmax 350 --compare-reference",
            "tables --pmin 5 --pmax 149 --format json"),
    survey=("survey --x 100000000 --p 7",
            "survey --x 100000000 --p 11"),
    oracles=("survey --x 1000000 --p 7 --csv {tmp}/rows.csv",
             "verify --suite all"),
    bounds=("bounds --p 7 --n 1",
            "bounds --p 7 --n 2 --kind euler --trunc 500",
            "bounds --p 5 --n 2 --kind mu-lambda --trunc 800",
            "bounds --p 7 --n 2 --trunc 1000",
            "bounds --p 11 --n 2 --trunc 2000",
            "bounds --p 13 --n 3 --trunc 3000"),
)

# Tiny versions of the four workloads for the harness's own test.  The
# `bounds` one keeps a command that crashes at the seed, so the handling of
# known failures is exercised too.
SMOKE_WORKLOADS = _workloads(
    census=("tables --pmin 5 --pmax 13 --compare-reference",
            "tables --pmin 5 --pmax 13 --format json"),
    survey=("survey --x 100000 --p 7",
            "survey --x 100000 --p 11"),
    oracles=("survey --x 5000 --p 7 --csv {tmp}/rows.csv",
             "verify --suite tables"),
    bounds=("bounds --p 7 --n 1",
            "bounds --p 7 --n 2 --trunc 1000"),
)


def expand(command: str, tmp: str) -> list[str]:
    return [arg.replace("{tmp}", tmp) for arg in command.split()]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def json_tables(argv: list[str]) -> bool:
    return "--format" in argv and argv[argv.index("--format") + 1] == "json"


def tables_rows_digest(stdout: bytes) -> str:
    rows = json.loads(stdout)["rows"]
    return sha256(json.dumps(rows, sort_keys=True, separators=(",", ":")).encode())


def survey_counts(stdout: bytes) -> dict:
    return {name: block["counts"] for name, block in json.loads(stdout)["blocks"].items()}


def exact_from_hex(pair: list[str]) -> Fraction:
    return Fraction(int(pair[0], 16), int(pair[1], 16))


@dataclass(frozen=True)
class Verdict:
    ok: bool
    known_failure: bool = False
    reason: str = ""


def check(command: str, argv: list[str], returncode: int, stdout: bytes,
          stderr: str, cwd: Path, reference: dict) -> Verdict:
    """Compare one command's result with its reference entry."""
    if returncode != 0:
        last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
        known = (command in reference.get("known_seed_failures", {})
                 and KNOWN_SEED_ERROR in stderr)
        return Verdict(False, known, f"exit {returncode}: {last}")
    expected = reference["commands"].get(command)
    if expected is None:
        return Verdict(False, reason="no reference entry")
    try:
        reason = _mismatch(argv, stdout, cwd, expected)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return Verdict(not reason, reason=reason)


def _mismatch(argv: list[str], stdout: bytes, cwd: Path, expected: dict) -> str:
    kind = argv[0]
    if kind == "tables":
        if json_tables(argv):
            if tables_rows_digest(stdout) != expected["rows_sha256"]:
                return "tables rows differ"
        elif sha256(stdout) != expected["stdout_sha256"]:
            return "tables CSV differs"
        return ""
    if kind == "survey":
        if survey_counts(stdout) != expected["blocks"]:
            return "survey block counts differ"
        if "--csv" in argv:
            doc = json.loads(stdout)
            if doc["csv"]["rows"] != expected["csv_rows"]:
                return "survey CSV row count differs"
            csv_path = Path(argv[argv.index("--csv") + 1])
            if sha256((cwd / csv_path).read_bytes()) != expected["csv_sha256"]:
                return "survey CSV differs"
        return ""
    if kind == "verify":
        lines = stdout.decode().strip().splitlines()
        summary = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1] if lines else "")
        if not summary or summary[1] != summary[2] or int(summary[2]) < 1:
            return "verify summary missing or not all checks passed"
        if any(line.startswith("FAIL") for line in lines):
            return "verify reported a failing check"
        return ""
    if kind == "bounds":
        doc = json.loads(stdout)
        want = {"p": _flag(argv, "--p"), "n": _flag(argv, "--n")}
        if "--trunc" in argv:
            want["truncation"] = _flag(argv, "--trunc")
        if any(doc[key] != value for key, value in want.items()):
            return "bound report is for another (p, n, truncation)"
        lo = Fraction(doc["lower_bound_rational_lo"])
        exact = exact_from_hex(expected["lo_exact_hex"])
        if lo > exact:
            return "serialized lower bound exceeds the exact lower endpoint"
        if exact - lo > exact * BOUND_REL_GAP:
            return "serialized lower bound is further than 1e-20 (relative) below exact"
        return ""
    return f"no check for subcommand {kind!r}"
