import ast
import contextlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ecstats
from ecstats import arith, bounds, cli, density, errors, ffcurve, intervals, localdata, survey
from ecstats.arith import is_prime


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_densities_output(capsys):
    code, out, _ = run_cli(["densities", "--ell", "5", "--type", "In", "--n", "1"], capsys)
    assert code == 0
    assert out.strip() == "16/125 = 0.128000000000000"


def test_densities_igeq(capsys):
    code, out, _ = run_cli(["densities", "--ell", "5", "--type", "Igeq", "--n", "1"], capsys)
    assert code == 0
    assert out.strip().startswith("4/25 = 0.160000000000000")


@pytest.mark.parametrize("kind", ["In", "Igeq"])
def test_densities_refuse_a_huge_power_before_building_it(kind, capsys):
    """At --n = 10^8, 5^(n + 2) would take minutes to build; its digit count,
    bounded from ell and the exponent, is refused with the digit limit's one
    line in well under a second."""
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["densities", "--ell", "5", "--type", kind, "--n", "100000000"])
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert exc.value.code == 2 and len(err.splitlines()) == 1 and "cannot be printed" in err


@pytest.mark.parametrize("kind, last", [("In", 6149), ("Igeq", 6150)])
def test_densities_digit_limit_boundary(kind, last, capsys):
    """The last n whose exact density prints within the 4300-digit limit
    prints, and the next exits 2, as before the early refusal."""
    code, out, _ = run_cli(["densities", "--ell", "5", "--type", kind, "--n", str(last)], capsys)
    assert code == 0 and out.endswith("\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["densities", "--ell", "5", "--type", kind, "--n", str(last + 1)])
    assert exc.value.code == 2 and "cannot be printed" in capsys.readouterr().err


@pytest.mark.parametrize("ell", [5, 7, 17, 257, 1009, 65537, 1048573])
def test_densities_early_refusal_refuses_no_printable_value(ell, capsys, monkeypatch):
    """The first n that `densities --type In` refuses without building the
    value, where (n + 2) (bits of ell - 1) reaches 4 x the digit limit, has a
    value the exact check refuses too (ell = 2^k + 1 puts the bound closest
    to ell^(n+2)), and the n before it is built and checked exactly."""
    limit = sys.get_int_max_str_digits()
    first = -(-4 * limit // (ell.bit_length() - 1)) - 2
    with pytest.raises(errors.DomainError):
        intervals.check_printable(density.density_In(ell, first))
    built = []
    monkeypatch.setattr(density, "density_In", lambda *args: built.append(args) or Fraction(1))
    for n, want in ((first - 1, [(ell, first - 1)]), (first, [])):
        with contextlib.suppress(SystemExit):
            cli.main(["densities", "--ell", str(ell), "--type", "In", "--n", str(n)])
        assert built == want and ("cannot be printed" in capsys.readouterr().err) == (not want)
        built.clear()


def test_densities_ignore_a_raised_digit_limit():
    """check_printable decides by bit length, so a raised int-to-str digit
    limit costs no power 10^limit: at 10^7 digits, a three-digit density
    prints in well under a second, start-up included."""
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "10000000",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "ecstats", "densities", "--ell", "5", "--type", "In",
                           "--n", "1"], env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1
    assert done.returncode == 0 and done.stdout == "16/125 = 0.128000000000000\n"


def test_only_the_cli_opens_files_or_prints():
    """Every call of open or print in src/ecstats is in cli.py: the CLI owns
    each output file and stream, and the library writes to handles it is given."""
    callers = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "ecstats").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("open", "print"):
                    callers.add(path.name)
    assert callers == {"cli.py"}


def test_only_functions_read_twice_in_one_command_are_cached():
    """functools caches sit on exactly these five functions in src/ecstats,
    each read more than once within one command: the sieve by every list of
    primes, _chi by count_points for each curve, residue_class_counts by both
    bound reports of a survey, class_code_table by the census and the CSV of
    survey --csv, and _certificate_table by every _certify call.  A cache
    that no command reads twice only holds memory and shared values."""
    cached = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "ecstats").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if getattr(target, "id", getattr(target, "attr", None)) in ("lru_cache", "cache"):
                        cached.add(f"{path.stem}.{node.name}")
    assert cached == {"arith.sieve_primes", "ffcurve._chi", "ffcurve.residue_class_counts",
                      "ffcurve.class_code_table", "survey._certificate_table"}


def test_every_refusal_is_a_domain_error():
    """errors.py defines DomainError alone, and every raise in src/ecstats raises
    it, except the internal faults below: a caller catches one type, and its
    message names the fault."""
    internal = {("intervals.py", "QInterval.__new__", "ValueError"),
                ("arith.py", "integer_nth_root", "ValueError"),
                ("arith.py", "factorize", "ValueError"),
                ("arith.py", "_pollard_rho", "ArithmeticError"),
                ("intervals.py", "QInterval.reciprocal", "ZeroDivisionError"),
                ("__init__.py", "__getattr__", "AttributeError"),
                ("cli.py", "__getattr__", "AttributeError"),
                ("__main__.py", "", "SystemExit")}

    def raised(node, scope=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from raised(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                yield scope, ast.unparse(exc) if exc else "raise"
            yield from raised(child, scope)

    src = Path(__file__).resolve().parents[1] / "src" / "ecstats"
    error_classes = [node.name for node in ast.parse((src / "errors.py").read_text()).body
                     if isinstance(node, ast.ClassDef)]
    assert error_classes == ["DomainError"]
    faults = {(path.name, scope, name) for path in src.glob("*.py")
              for scope, name in raised(ast.parse(path.read_text(encoding="utf-8")))
              if name != "DomainError"}
    assert faults <= internal


@pytest.mark.parametrize("argv, line", [
    ("densities --ell 4 --type I0", "4 is not prime"),
    ("densities --ell 3 --type In", "prime 3 is below the supported minimum 5"),
    ("bounds --p 1048583 --n 1", "p = 1048583 exceeds the supported cap 2^20"),
    ("survey --x 10 --p 1031", "p = 1031 exceeds 1024, the cap on per-p tables"),
    ("bounds --p 5 --n 1 --trunc 10", "truncation must be >= 11"),
    ("bounds --p 7 --n 1 --trunc 16777217", "truncation 16777217 exceeds the cap 2^24"),
])
def test_refusal_lines_are_pinned(argv, line, capsys):
    """Each refusal exits 2 with the one stderr line users see, whatever
    exception type carries it inside the library."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2 and capsys.readouterr().err == f"ecstats: error: {line}\n"


def test_documented_commands_parse():
    """Every command in README's command block, and every inline code span
    that starts with a subcommand, parses.  A span that names a command or an
    option without the rest of its arguments is a mention, not a command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split("#")[0].removeprefix("ecstats ") for line in block.strip().splitlines()]
    commands += re.findall(r"`(?:ecstats )?((?:tables|bounds|densities|survey|verify)(?:\s[^`]*)?)`",
                           readme)
    mention = ("the following arguments are required", "expected one argument")
    refused = {}
    for command in commands:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                cli.build_parser().parse_args(command.split())
        except SystemExit:
            if not any(phrase in err.getvalue() for phrase in mention):
                refused[command] = err.getvalue().strip()
    assert len(commands) > 50 and refused == {}


def test_tables_compare_subset(capsys):
    code, out, _ = run_cli(
        ["tables", "--pmin", "7", "--pmax", "31", "--compare-reference"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,n_ordinary,n_anomalous")
    assert len(lines) == 1 + 8  # primes 7, 11, ..., 31
    assert lines[1].startswith("7,32,4,0.653061224489796,0.081632653061224")


def test_tables_compare_reference_failure_exits_1(capsys, monkeypatch):
    """A census row off its reference density by more than 1e-12 is counted
    on stderr, and the command exits 1: verification failed."""
    from ecstats import reference_tables
    monkeypatch.setitem(reference_tables.REFERENCE_DENSITIES, 7,
                        ("0.653061224489796", "0.0816326530712245"))  # 4/49 + 1e-11
    code, out, err = run_cli(["tables", "--pmin", "7", "--pmax", "31", "--compare-reference"], capsys)
    assert code == 1 and len(out.strip().splitlines()) == 1 + 8
    assert err == "1 row(s) off reference by more than 1e-12\n"


def test_tables_json_format(capsys):
    code, out, _ = run_cli(["tables", "--pmin", "7", "--pmax", "13",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [row["p"] for row in doc["rows"]] == [7, 11, 13]
    assert doc["rows"][0]["n_ordinary"] == 32


def test_tables_beyond_reference(capsys):
    code, out, _ = run_cli(["tables", "--pmin", "151", "--pmax", "160",
                            "--compare-reference"], capsys)
    assert code == 0
    assert "no-reference" in out


def test_tables_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables", "--pmin", "31", "--pmax", "7"])
    assert exc.value.code == 2


def test_missing_required_args_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--p", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["bounds", "--p", "9", "--n", "1"],
    ["bounds", "--p", "7", "--n", "2", "--trunc", "5"],
    ["bounds", "--p", "7", "--n", "0", "--kind", "euler", "--trunc", "0"],
    ["bounds", "--p", "7", "--n", "0", "--kind", "euler", "--trunc", "-5"],
    ["survey", "--x", "-1", "--p", "7"],
    ["survey", "--x", "4611686018427387904", "--p", "7"],
    ["survey", "--x", "4611686018427387903", "--p", "4"],
    ["survey", "--x", "4611686018427387903", "--p", "7", "--n", "0"],
    ["tables", "--pmin", "5", "--pmax", "10000000000000"],
    ["bounds", "--p", "1048583", "--n", "1"],
    ["survey", "--x", "100", "--p", "1031"],
    ["bounds", "--p", "1009", "--n", "1", "--trunc", "5"],
    ["densities", "--ell", "5", "--type", "In", "--n", "8000"],
    ["bounds", "--p", "7", "--n", "1", "--trunc", "10000000000"],
    ["bounds", "--p", "7", "--n", "1", "--zeta-terms", "100000"],
    ["bounds", "--p", "5", "--n", "1000000000"],
    ["survey", "--x", "1000", "--p", "5", "--n", "1000000000"],
])
def test_domain_error_exit_2(argv, capsys, monkeypatch):
    # input must be rejected before the first pass: near x = 2^62 a pass
    # over the height box (about 1.7e15 pairs) would run for years, a
    # sieve up to --pmax = 10^13 would allocate 10 TB, the census and the
    # sums at p = 1048583 would not finish in minutes, and neither the
    # census nor the zeta sum at p = 1009 may run before a truncation below
    # 11 is refused.  The exact density of I_8000 at 5 has too many digits
    # to print within Python's 4300-digit int-to-str limit, a sieve up to
    # --trunc = 10^10 would allocate 10 GB, --zeta-terms = 10^5 passes the
    # cap of 2^12 terms, a resource limit on the zeta sum's one division per
    # term, and the sums at order --n = 10^9 would keep lists of 8 GB each,
    # past the cap of 2^10 orders.
    from_height = survey.HeightWindow.from_height
    primes_in = arith.primes_in
    sieve_primes = bounds.sieve_primes
    trunc = int(argv[argv.index("--trunc") + 1]) if "--trunc" in argv else None
    zeta_terms = int(argv[argv.index("--zeta-terms") + 1]) if "--zeta-terms" in argv else None

    def guard(name, p_index=None):
        fn = getattr(bounds, name)

        def guarded(*args):
            assert trunc is None or 11 <= trunc <= 2**24, \
                f"bounds ran {name} before refusing --trunc {trunc}"
            assert zeta_terms is None or zeta_terms <= 2**12, \
                f"bounds ran {name} before refusing --zeta-terms {zeta_terms}"
            if p_index is not None:
                p = args[p_index]
                assert p < ffcurve.MAX_FIELD_PRIME, f"bounds ran {name} at p = {p} before its cap check"
            if name == "_symmetric_sums":
                assert args[0] <= bounds.MAX_ORDER, f"bounds summed order {args[0]} past the cap"
            return fn(*args)
        monkeypatch.setattr(bounds, name, guarded)

    def small_box_only(x):
        assert x < 10**6, f"survey scanned the box at x = {x} before validating its input"
        return from_height(x)

    def small_sieve_only(lo, hi):
        assert hi < 2**20, f"tables sieved up to {hi} before validating its input"
        return primes_in(lo, hi)

    def small_bound_sieve(limit):
        assert limit <= 2**24, f"bounds sieved up to {limit} before refusing its truncation"
        return sieve_primes(limit)

    monkeypatch.setattr(survey.HeightWindow, "from_height", small_box_only)
    monkeypatch.setattr(arith, "primes_in", small_sieve_only)
    monkeypatch.setattr(bounds, "sieve_primes", small_bound_sieve)
    guard("class_weights")  # the cap on p is checked inside it
    guard("zeta_reciprocal", 0)
    guard("_symmetric_sums", 1)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ecstats: error: ")
    if "1031" in argv:  # a capped p is named in the error
        assert "1031" in lines[0]


def test_internal_value_error_keeps_traceback(monkeypatch):
    """Only DomainError becomes a one-line exit 2; a plain ValueError from
    inside a subcommand is a fault and propagates."""
    def broken(ell, n):
        raise ValueError("internal fault")

    monkeypatch.setattr(density, "density_In", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["densities", "--ell", "5", "--type", "In"])


def test_survey_runs_one_pass(capsys, monkeypatch):
    calls = []
    census = survey._growth_census
    monkeypatch.setattr(survey, "_growth_census", lambda *args: calls.append(args) or census(*args))
    code, out, _ = run_cli(["survey", "--x", "10000", "--p", "11"], capsys)
    assert code == 0
    assert set(json.loads(out)["blocks"]) == {"minimal", "selmer_growth", "euler_divisibility",
                                              "kodaira_I1_at_5", "kodaira_I1_at_7"}
    assert calls == [(11, 10000)]


_INTS = st.integers(min_value=-3, max_value=50)
_ARGV = st.one_of(
    st.tuples(st.just("densities"), st.just("--ell"), _INTS,
              st.just("--type"), st.sampled_from(["I0", "In", "Igeq", "minimal"]),
              st.just("--n"), st.integers(min_value=-2, max_value=10**4)),
    st.tuples(st.just("bounds"), st.just("--p"), _INTS,
              st.just("--n"), st.integers(min_value=-2, max_value=4),
              st.just("--kind"), st.sampled_from(["growth", "euler", "mu-lambda"]),
              st.just("--trunc"), st.integers(min_value=-2, max_value=40)),
    st.tuples(st.just("survey"), st.just("--x"), st.integers(min_value=-5, max_value=10**4),
              st.just("--p"), _INTS, st.just("--n"), st.integers(min_value=-2, max_value=4)),
    st.tuples(st.just("tables"), st.just("--pmin"), _INTS, st.just("--pmax"), _INTS,
              st.just("--format"), st.sampled_from(["csv", "json"])),
)


@settings(max_examples=100, deadline=None)
@given(_ARGV)
@example(("densities", "--ell", 5, "--type", "In", "--n", 10**4))
def test_cli_never_raises(argv):
    """Any argv of these shapes exits 0, 1 or 2 without a traceback, and a
    survey with a prime p >= 5, n >= 1 and x >= 0 exits 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if argv[0] == "survey" and argv[2] >= 0 and argv[4] >= 5 and is_prime(argv[4]) \
            and argv[6] >= 1:
        assert code == 0, err.getvalue()


def test_bounds_json(capsys):
    code, out, _ = run_cli(["bounds", "--p", "7", "--n", "1", "--kind", "growth"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "selmer_growth"
    assert doc["p"] == 7 and doc["n"] == 1
    lo = Fraction(doc["lower_bound_rational_lo"])
    assert Fraction("0.0805") < lo < Fraction("0.0815")
    assert doc["value"]["lo"] == doc["lower_bound_rational_lo"]
    assert_rounded_outward(doc["value"], bounds.selmer_growth_bound(7, 1).value)


def assert_rounded_outward(js, exact):
    """A serialized interval holds the exact one, each endpoint within 1e-39 of
    it, relative, so an endpoint reads 0 only where the exact one is 0."""
    lo, hi = Fraction(js["lo"]), Fraction(js["hi"])
    assert lo <= exact.lo and exact.lo - lo <= exact.lo / 10**39
    assert hi >= exact.hi and hi - exact.hi <= exact.hi / 10**39


@pytest.mark.parametrize("argv", [
    "bounds --p 2003 --n 3 --trunc 20",
    "bounds --p 10007 --n 1 --trunc 11",
    "bounds --p 1009 --n 3 --trunc 20",
    "bounds --p 7 --n 400",
    "bounds --p 7 --n 400 --kind euler",
])
def test_bound_endpoints_print_at_any_size(argv, capsys):
    """Bounds whose exact endpoints pass Python's 4,300-digit int-to-str limit,
    or lie below the smallest float, print as 40-digit decimals rounded outward."""
    code, out, _ = run_cli(argv.split(), capsys)
    assert code == 0
    doc = json.loads(out)
    maker = bounds.euler_divisibility_bound if "euler" in argv else bounds.selmer_growth_bound
    report = maker(doc["p"], doc["n"], doc["truncation"])
    assert Fraction(doc["lower_bound_rational_lo"]) == Fraction(doc["value"]["lo"])
    assert_rounded_outward(doc["value"], report.value)
    for name in ("zeta_reciprocal", "sym_main", "sym_aux"):
        assert_rounded_outward(doc["terms"][name], getattr(report.terms, name))
    if doc["p"] == 1009:  # every copy of the positive lower endpoint reads positive
        lows = [value for key, value in doc.items() if key.startswith("lower_bound")]
        assert all(0 < Fraction(lo) < Fraction(1, 10**1500) for lo in lows + [doc["value"]["lo"]])


def test_survey_endpoints_print_at_any_size(capsys):
    """The survey's bound blocks at n = 500 print; each theoretical endpoint is
    rounded outward from the bound the block compares with."""
    code, out, _ = run_cli(["survey", "--x", "100", "--p", "7", "--n", "500"], capsys)
    assert code == 0
    blocks = json.loads(out)["blocks"]
    for name, maker in (("selmer_growth", bounds.selmer_growth_bound),
                        ("euler_divisibility", bounds.euler_divisibility_bound)):
        assert_rounded_outward(blocks[name]["theoretical"], maker(7, 500).value)


def test_zeta_terms_default_owned_by_bounds(capsys, monkeypatch):
    """bounds reports the default zeta_terms that `bounds` owns, read when the
    command runs, and a count below 10 is still a one-line exit 2.  The makers
    take the parsed None as that default, and `cli.bounds` is still the module,
    as bench/record_reference.py reads them."""
    code, out, _ = run_cli(["bounds", "--p", "7", "--n", "1"], capsys)
    assert code == 0 and json.loads(out)["zeta_terms"] == bounds.DEFAULT_ZETA_TERMS
    args = cli.build_parser().parse_args(["bounds", "--p", "7", "--n", "1", "--kind", "euler"])
    assert cli.bounds is bounds and args.zeta_terms is None
    report = cli.bounds.euler_divisibility_bound(args.p, args.n, truncation=args.trunc,
                                                 zeta_terms=args.zeta_terms)
    assert report.zeta_terms == bounds.DEFAULT_ZETA_TERMS
    with pytest.raises(AttributeError):
        cli.no_such_name
    monkeypatch.setattr(bounds, "DEFAULT_ZETA_TERMS", 100)
    code, out, _ = run_cli(["bounds", "--p", "7", "--n", "1"], capsys)
    assert code == 0 and json.loads(out)["zeta_terms"] == 100
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--p", "7", "--n", "1", "--zeta-terms", "5"])
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ecstats: error: zeta_terms 5")


def test_bounds_kinds_agree(capsys):
    code, growth_out, _ = run_cli(["bounds", "--p", "7", "--n", "2"], capsys)
    assert code == 0
    code, ml_out, _ = run_cli(["bounds", "--p", "7", "--n", "2", "--kind", "mu-lambda"], capsys)
    assert code == 0
    g, m = json.loads(growth_out), json.loads(ml_out)
    assert g["value"] == m["value"]
    assert (g["kind"], m["kind"]) == ("selmer_growth", "mu_lambda")


@pytest.mark.parametrize("argv", [["survey", "--x", "100", "--p", "1021"],
                                  ["bounds", "--p", "1009", "--n", "1"]])
def test_bounds_near_p_1000_finish(argv, capsys):
    """The bound sums cost about one integer division per prime and order on a
    fixed scale, so a bound near p = 1000 at its default truncation takes
    about a second; exact rational sums, whose denominators grow like
    p * pi(L) * log L, would make this test hang."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    value = doc["value"] if argv[0] == "bounds" else doc["blocks"]["selmer_growth"]["theoretical"]
    assert 0 < Fraction(value["lo"]) <= Fraction(value["hi"]) < 1


@pytest.mark.parametrize("p, n, lo", [
    (3001, 1, "0.004996668332592901111159103802009349183898"),
    (10007, 1, "0.001298960818363490115727824339291066254621"),
    (10007, 3, "1.981356750160838849644809297368252997021E-15455"),
])
def test_bounds_at_large_p_print_the_full_sweeps_lo(p, n, lo, capsys):
    """At large p the sweep stops within the first primes, and the report
    keeps its default truncation 10 p + 100 and the lower endpoint that the
    sweep over every prime up to it printed (pinned from that sweep)."""
    code, out, _ = run_cli(["bounds", "--p", str(p), "--n", str(n)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["truncation"], doc["lower_bound_rational_lo"]) == (10 * p + 100, lo)


def test_survey_json_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(["survey", "--x", "1000", "--p", "7",
                            "--csv", str(csv_path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["blocks"]) >= {"minimal", "selmer_growth", "euler_divisibility",
                                  "kodaira_I1_at_5"}
    assert doc["blocks"]["minimal"]["counts"]["pairs"] == 169
    assert doc["csv"]["rows"] == 169
    assert csv_path.read_text().splitlines()[0].startswith("a,b,height")


def test_survey_minimal_block_pinned(capsys):
    """The minimal block of `survey --x 100000000 --p 7`, and the swept family
    product at p = 7 outside (5,), keep their pinned bytes: both read
    density.congruence_density, with the default truncation and at L = 200."""
    code, out, _ = run_cli(["survey", "--x", "100000000", "--p", "7"], capsys)
    assert code == 0
    assert json.loads(out)["blocks"]["minimal"] == {
        "schema_version": 3, "kind": "minimal_density", "version": ecstats.__version__,
        "x": 100000000, "p": None, "ell": None, "n": None,
        "counts": {"pairs": 2251665, "singular": 19, "nonminimal": 2284, "curves": 2249362},
        "empirical": {"fraction": "2249362/2251665", "decimal": 0.998977201315471},
        "theoretical": {"lo": "0.9990064130690307817522253179981042804149",
                        "hi": "0.9990064130690307817522253181091049929783"},
        "absolute_gap": 2.9211753559785845e-05, "extras": {}}
    assert density.congruence_density({2, 3, 5, 7}, 200, 7).to_json() == {
        "lo": "0.9999999348435926148157875393191258003218",
        "hi": "0.9999999348435952189825015417230909446877"}


@pytest.mark.parametrize("argv", [
    ["survey", "--x", "1000", "--p", "7", "--csv", "{tmp}/missing/rows.csv"],
    ["survey", "--x", "1000", "--p", "7", "--csv", "{tmp}"],
    ["survey", "--x", "1000", "--p", "7", "--out", "{tmp}/missing/doc.json"],
    ["tables", "--pmax", "31", "--out", "{tmp}/missing/x.csv"],
    ["densities", "--ell", "5", "--type", "I0", "--out", "{tmp}"],
])
def test_unwritable_output_exits_2(argv, tmp_path, capsys):
    """An --out or --csv path in a missing directory, or naming a directory,
    exits 2 with one line that names it, as a domain error does."""
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"ecstats: error: cannot write {argv[-1]}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ["--csv", "--out"])
def test_unwritable_output_is_refused_before_the_census(option, tmp_path, monkeypatch, capsys):
    """A bad --csv or --out path is reported before the command's first pass,
    not after the census has run."""
    def no_census(*args):
        raise AssertionError("the census ran before the output path was checked")

    monkeypatch.setattr(survey, "_growth_census", no_census)
    path = str(tmp_path / "missing" / "x")
    with pytest.raises(SystemExit) as exc:
        cli.main(["survey", "--x", "100000000000", "--p", "5", option, path])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"ecstats: error: cannot write {path}: No such file or directory\n"


@pytest.mark.parametrize("x", ["100000000000", "1000000000000"])
def test_csv_past_its_cap_is_refused_before_the_census(x, tmp_path, monkeypatch, capsys):
    """survey --csv above x = 10^10, whose root table alone would take
    gigabytes, exits 2 with one line in well under a second: before the
    census, and leaving no file."""
    def no_census(*args):
        raise AssertionError("the census ran before the CSV cap was checked")

    monkeypatch.setattr(survey, "_growth_census", no_census)
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["survey", "--x", x, "--p", "7", "--csv", str(tmp_path / "big.csv")])
    assert time.perf_counter() - start < 1 and exc.value.code == 2
    assert capsys.readouterr().err == \
        f"ecstats: error: height bound x = {x} exceeds 10^10, the cap on the survey CSV\n"
    assert list(tmp_path.iterdir()) == []


def test_refused_command_leaves_no_file(tmp_path, capsys):
    """The early path check makes no file that outlives a refusal, and leaves
    the bytes of a file already there."""
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    for path in (tmp_path / "x.csv", kept):
        with pytest.raises(SystemExit) as exc:
            cli.main(["survey", "--x", "10", "--p", "4", "--csv", str(path)])
        assert exc.value.code == 2 and capsys.readouterr().err == "ecstats: error: 4 is not prime\n"
    assert list(tmp_path.iterdir()) == [kept] and kept.read_text() == "kept\n"


def test_survey_csv_factors_no_curve_one_by_one(tmp_path, capsys, monkeypatch):
    """survey --csv writes its rows from the numpy blocks of the height box:
    no per-curve factorization and no per-curve local-data call."""
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    for module, name in ((arith, "factorize"), (localdata, "factorize"),
                         (localdata, "tamagawa_anomaly_count")):
        counting(module, name)
    code, out, _ = run_cli(["survey", "--x", "10000", "--p", "7",
                            "--csv", str(tmp_path / "rows.csv")], capsys)
    assert code == 0
    assert json.loads(out)["csv"]["rows"] == survey.HeightWindow.from_height(10**4).pair_count
    assert calls == Counter()


@pytest.mark.parametrize("argv", [
    ["survey", "--x", "100", "--p", "19", "--n", "2"],
    ["survey", "--x", "10000", "--p", "47", "--n", "4"],
])
def test_survey_large_p_exit_0(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 3
    assert '"None"' not in out
    for block in doc["blocks"].values():
        assert block["schema_version"] == 3
        assert "bound_lo" not in block["extras"]


def test_verify_tables_suite(capsys):
    code, out, _ = run_cli(["verify", "--suite", "tables"], capsys)
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("checks passed")


def test_verify_bounds_suite(capsys):
    code, out, _ = run_cli(["verify", "--suite", "bounds"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "dens.txt"
    code, out, _ = run_cli(["densities", "--ell", "7", "--type", "I0",
                            "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.read_text().strip() == "6/7 = 0.857142857142857"


def test_traced_layers_exist():
    """Every (module, attribute) the bench tracer wraps names a callable,
    so renaming or deleting one fails here and not only in a bench run."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr in tracing.LAYERS:
        target = importlib.import_module(f"ecstats.{module}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module, attr)


def _bench_modules(*names):
    """The modules bench/<name>.py, loaded as the bench loads them, with no
    bytecode written under bench/ and none of them left in sys.modules."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    fresh = {"record_reference", "run", "tracing", "workloads"} - set(sys.modules)
    sys.path.insert(0, str(bench))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(bench))
        for name in fresh:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("command", ["bounds --p 7 --n 1", "bounds --p 5 --n 2 --kind mu-lambda --trunc 800"])
def test_bench_bound_hook(command):
    """The bench records each bound report's exact lower endpoint in process,
    through cli.build_parser, the cli.bounds module, the bound maker of each
    --kind and args.zeta_terms.  bench/record_reference.py, loaded as it is,
    gives for two bench commands an endpoint that passes the bench's own
    check against bench/reference.json: at most the recorded exact endpoint
    and below it by at most BOUND_REL_GAP of it."""
    record_reference, workloads = _bench_modules("record_reference", "workloads")
    expected = workloads.load_reference()["commands"][command]["lo_exact_hex"]
    exact = workloads.exact_from_hex(expected)
    lo = workloads.exact_from_hex(record_reference.exact_lower_endpoint(command.split()))
    assert exact * (1 - workloads.BOUND_REL_GAP) <= lo <= exact


def test_bench_bound_and_survey_commands_pass_the_bench_check(capsys):
    """Every bounds and survey command of the bench workloads, run in process,
    prints what the bench's own check accepts against bench/reference.json."""
    workloads, = _bench_modules("workloads")
    reference = workloads.load_reference()
    for command in workloads.WORKLOADS["bounds"].commands + workloads.WORKLOADS["survey"].commands:
        argv = workloads.expand(command, "")
        code, out, err = run_cli(argv, capsys)
        verdict = workloads.check(command, argv, code, out.encode(), err, Path("."), reference)
        assert verdict.ok, (command, verdict.reason)


def test_bench_smoke():
    """bench/run.py --smoke, run from the repository root as the bench runs
    it, prints `smoke: ok`: its tiny tables, survey, survey --csv, verify and
    bounds commands match bench/reference.json in both modes, every metric of
    BENCHMARK.json is printed with its unit, and a corrupted digest is caught.
    No bytecode is written under bench/."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=170)
    assert proc.stdout.splitlines()[-1:] == ["smoke: ok"], proc.stderr


STARTUP = """
import contextlib, io, sys
from ecstats import cli

def run(argv, absent):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with contextlib.suppress(SystemExit):
            cli.main(argv)
    loaded = {name[len("ecstats."):] for name in sys.modules if name.startswith("ecstats.")}
    assert not loaded & absent, (argv, sorted(loaded))
    assert not {"numpy", "dataclasses", "inspect"} & sys.modules.keys(), argv
    return loaded

for argv in (["--version"], ["--help"], ["bounds", "--p", "7"]):  # the last a usage error
    assert run(argv, set()) == {"cli", "_version", "errors"}, argv
    assert "fractions" not in sys.modules, argv
run(["tables", "--pmin", "5", "--pmax", "13"],
    {"bounds", "density", "localdata", "survey", "verify"})
run(["bounds", "--p", "7", "--n", "1"],
    {"density", "localdata", "reference_tables", "survey", "verify"})
run(["densities", "--ell", "5", "--type", "In"], {"localdata", "reference_tables", "survey", "verify"})
assert run(["verify", "--suite", "all"], {"survey"}) == {
    "cli", "_version", "errors", "arith", "ffcurve", "intervals", "density", "bounds",
    "localdata", "reference_tables", "verify"}
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["survey", "--x", "10000000", "--p", "5"]) == 0  # with growth hits and doubt
assert '"blocks"' in out.getvalue() and "numpy" in sys.modules
assert "numpy.ma" not in sys.modules  # np.unique with no index output loads it
"""


def test_startup_loads_no_numpy():
    """Each command loads only the modules it runs: --version, --help and a
    usage error load no math module (nor fractions), tables no bound,
    density, local-data, survey or verify module, bounds and densities no
    local-data, reference, survey or verify module (bounds no density
    module either), and verify --suite all
    no survey module; none of them loads numpy, dataclasses or inspect, and
    survey, the one command that imports numpy, still runs after them
    without loading numpy.ma.  A fresh interpreter, since this one has
    loaded them all."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", STARTUP], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_m_ecstats_version():
    """`python -m ecstats --version` prints the version and imports no
    ecstats module but the package, the CLI, `_version` and `errors`."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ecstats", "--version"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ecstats.__version__
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert {name for name in imported if name.startswith("ecstats")} == \
        {"ecstats", "ecstats._version", "ecstats.cli", "ecstats.errors"}
    assert not {"numpy", "fractions", "dataclasses", "inspect"} & imported


@pytest.mark.parametrize("user, want", [(None, "1"), ("3", "3")])
def test_cli_pins_openblas_to_one_thread(user, want):
    """Importing the CLI sets OPENBLAS_NUM_THREADS to 1 unless the user set
    it, and loads no numpy.  A fresh interpreter, since numpy reads the
    variable once, when it is first imported."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    code = ("import os, sys\nfrom ecstats import cli\nassert 'numpy' not in sys.modules\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want


LAZY_IMPORT = """
import sys
import ecstats
assert {name for name in sys.modules if name.startswith("ecstats.")} == {"ecstats._version"}
from ecstats import *
assert all(name in globals() for name in ecstats.__all__)
"""


def test_public_names_resolve():
    """Every name in __all__ resolves through the module __getattr__ to the
    object its defining module holds, and dir() lists it; an unknown name is
    still an AttributeError.  In a fresh interpreter, `import ecstats` loads
    no submodule but `_version`, and `from ecstats import *` binds every
    public name."""
    assert len(set(ecstats.__all__)) == len(ecstats.__all__)
    for name in ecstats.__all__:
        value = getattr(ecstats, name)
        assert value.__module__.startswith("ecstats."), name
        assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert vars(ecstats)[name] is value, name  # bound once; later reads skip __getattr__
    assert set(ecstats.__all__) <= set(dir(ecstats))
    assert ecstats.HeightWindow is survey.HeightWindow and ecstats.DomainError is errors.DomainError
    with pytest.raises(AttributeError):
        ecstats.no_such_name
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", LAZY_IMPORT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
