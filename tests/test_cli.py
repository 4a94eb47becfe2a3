import contextlib
import importlib
import importlib.util
import io
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ecstats import arith, bounds, cli, ffcurve, localdata, survey
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


def test_tables_compare_subset(capsys):
    code, out, _ = run_cli(
        ["tables", "--pmin", "7", "--pmax", "31", "--compare-reference"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,n_ordinary,n_anomalous")
    assert len(lines) == 1 + 8  # primes 7, 11, ..., 31
    assert lines[1].startswith("7,32,4,0.653061224489796,0.081632653061224")


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
    ["survey", "--x", "-1", "--p", "7"],
    ["survey", "--x", "4611686018427387904", "--p", "7"],
    ["survey", "--x", "4611686018427387903", "--p", "4"],
    ["survey", "--x", "4611686018427387903", "--p", "7", "--n", "0"],
    ["tables", "--pmin", "5", "--pmax", "10000000000000"],
    ["bounds", "--p", "1048583", "--n", "1"],
    ["survey", "--x", "100", "--p", "1031"],
    ["bounds", "--p", "1009", "--n", "1", "--trunc", "5"],
    ["bounds", "--p", "7", "--n", "400"],
    ["survey", "--x", "100", "--p", "7", "--n", "500"],
    ["densities", "--ell", "5", "--type", "In", "--n", "8000"],
    ["bounds", "--p", "7", "--n", "1", "--trunc", "10000000000"],
])
def test_domain_error_exit_2(argv, capsys, monkeypatch):
    # input must be rejected before the first pass: near x = 2^62 a pass
    # over the height box (about 1.7e15 pairs) would run for years, a
    # sieve up to --pmax = 10^13 would allocate 10 TB, the zeta and
    # symmetric sums at p = 1048583 would not finish in minutes, and the
    # census and exact zeta sum at p = 1009 take seconds before a
    # truncation below 11 is refused.  The next three compute exact values
    # too small to print within Python's 4300-digit int-to-str limit, and a
    # sieve up to --trunc = 10^10 would allocate 10 GB.
    from_height = survey.HeightWindow.from_height
    primes_in = cli.primes_in
    sieve_primes = bounds.sieve_primes
    trunc = int(argv[argv.index("--trunc") + 1]) if "--trunc" in argv else None

    def guard(name, p_index=None):
        fn = getattr(bounds, name)

        def guarded(*args):
            assert trunc is None or 11 <= trunc <= 2**24, \
                f"bounds ran {name} before refusing --trunc {trunc}"
            if p_index is not None:
                p = args[p_index]
                assert p < ffcurve.MAX_FIELD_PRIME, f"bounds ran {name} at p = {p} before its cap check"
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
    monkeypatch.setattr(cli, "primes_in", small_sieve_only)
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

    monkeypatch.setattr(cli.density, "density_In", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli.main(["densities", "--ell", "5", "--type", "In"])


def test_survey_runs_one_pass(capsys):
    survey._growth_census.cache_clear()
    code, out, _ = run_cli(["survey", "--x", "10000", "--p", "11"], capsys)
    assert code == 0
    assert set(json.loads(out)["blocks"]) == {"minimal", "selmer_growth", "euler_divisibility",
                                              "kodaira_I1_at_5", "kodaira_I1_at_7"}
    assert survey._growth_census.cache_info().misses == 1


_INTS = st.integers(min_value=-3, max_value=50)
_ARGV = st.one_of(
    st.tuples(st.just("densities"), st.just("--ell"), _INTS,
              st.just("--type"), st.sampled_from(["I0", "In", "Igeq", "minimal"]),
              st.just("--n"), st.integers(min_value=-2, max_value=10**4)),
    st.tuples(st.just("bounds"), st.just("--p"), _INTS,
              st.just("--n"), st.integers(min_value=-2, max_value=4),
              st.just("--kind"), st.sampled_from(["growth", "euler", "mu-lambda"])),
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
    assert doc["lower_bound_decimal"] == pytest.approx(float(lo))


def test_bounds_kinds_agree(capsys):
    code, growth_out, _ = run_cli(["bounds", "--p", "7", "--n", "2"], capsys)
    assert code == 0
    code, ml_out, _ = run_cli(["bounds", "--p", "7", "--n", "2", "--kind", "mu-lambda"], capsys)
    assert code == 0
    g, m = json.loads(growth_out), json.loads(ml_out)
    assert g["value"] == m["value"]
    assert (g["kind"], m["kind"]) == ("selmer_growth", "mu_lambda")


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
    assert code == 0 and json.loads(out)["csv"]["rows"] == survey.count_pairs(10**4)
    assert calls == Counter()


@pytest.mark.parametrize("argv", [
    ["survey", "--x", "100", "--p", "19", "--n", "2"],
    ["survey", "--x", "10000", "--p", "47", "--n", "4"],
])
def test_survey_large_p_exit_0(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert '"None"' not in out
    for block in doc["blocks"].values():
        assert block["schema_version"] == 2
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
