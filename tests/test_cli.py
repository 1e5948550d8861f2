import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from conftest import ledger_json_dict

import monolab
from monolab import fixtures
from monolab.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from monolab.selmer_arith import balanced_ledger


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_subcommand(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "E6")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["exponents"] == [1, 4, 5, 7, 8, 11]


def test_kostant_subcommand(capsys):
    code, out, _ = run_cli(capsys, "kostant", "--type", "G2")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["exponents"] == [1, 5]


def test_primescan_check_paper_ok(capsys):
    code, out, _ = run_cli(capsys, "primescan", "--type", "G2", "--check-paper")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["bad_primes"] == [2, 3, 5]
    assert doc["check_paper"]["ok"] is True


def test_primescan_corrupted_fixture_exits_2(capsys, monkeypatch):
    # negative control: a mutated reference list must be reported, exit 2
    monkeypatch.setitem(fixtures.OBSTRUCTION_PRIMES, "G2", (2, 3, 7))
    code, out, err = run_cli(capsys, "primescan", "--type", "G2", "--check-paper")
    assert code == EXIT_MISMATCH
    assert "mismatch" in err
    doc = json.loads(out)
    assert doc["check_paper"]["ok"] is False


def test_primescan_without_check(capsys):
    code, out, _ = run_cli(capsys, "primescan", "--type", "A2")
    assert code == EXIT_OK
    assert json.loads(out)["informational"] is True


def test_selmer_subcommand(tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(ledger_json_dict(balanced_ledger("E6", 2)), indent=2, sort_keys=True))
    code, out, _ = run_cli(capsys, "selmer", "--ledger", str(path))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {"wiles_difference": 0, "oddness_deficit": 0, "lgroup_euler_difference": 0}


def test_selmer_missing_file(capsys):
    code, _, err = run_cli(capsys, "selmer", "--ledger", "/nonexistent/ledger.json")
    assert code == EXIT_USAGE
    assert "error" in err


G2_LEDGER = ledger_json_dict(balanced_ledger("G2", 1))


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"schema_version": 1}, "ledger is missing the key 'h0_global'"),
        ([], "a ledger must be a JSON object, got list"),
        ({**G2_LEDGER, "h0_global": "3"}, "h0_global must be an int, got '3'"),
        ({**G2_LEDGER, "locals": [{"kind": "steinberg"}]}, "local condition 0 is missing the key 'h0_local'"),
        ({**G2_LEDGER, "h0_global": 1.5}, "h0_global must be an int, got 1.5"),
        ({**G2_LEDGER, "dim_n": True}, "dim_n must be an int, got True"),
        ({**G2_LEDGER, "archimedean_fixed_dims": [2.5]}, "archimedean_fixed_dims[0] must be an int"),
        ({**G2_LEDGER, "archimedean_fixed_dims": 6}, "archimedean_fixed_dims must be a list"),
        ({**G2_LEDGER, "locals": [{"kind": "custom", "h0_local": 0, "custom_dim": 2.5}]}, "custom_dim must be an int"),
        ({**G2_LEDGER, "locals": [{"kind": "ordinary", "h0_local": False}]}, "h0_local must be an int, got False"),
        ({**G2_LEDGER, "locals": [3]}, "locals a list of objects"),
        (
            {
                **G2_LEDGER,
                "locals": [{"kind": "steinberg", "h0_local": 0, "field_degree": 3}, {"kind": "ordinary", "h0_local": 0}],
            },
            "field_degree is read only when kind='ordinary', got it on kind='steinberg'",
        ),
    ],
)
def test_selmer_malformed_ledger_is_a_clean_error(tmp_path, capsys, doc, message):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "selmer", "--ledger", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert message in err, err


# sha256 of stdout on the shipped sample ledger, computed while the
# lgroup_euler_difference key still came from a second formula in its own
# archimedean grouping
@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("json", "b4c7110465b5e214687333bc46254a5614e3ea15fb17a9f172446c7e9caf3db1"),
        ("csv", "fab0c9f3b669199815e6ed10cc5f0478155db3c60b14122d69abc692a1e7ce76"),
        ("text", "9211e1c3ac974c723964e665885b6447efe1988667aacf1a792af1d365e63acd"),
    ],
)
def test_selmer_sample_ledger_stdout_pinned(capsys, fmt, digest):
    path = os.path.join(os.path.dirname(monolab.__file__), "data", "sample_ledger.json")
    code, out, _ = run_cli(capsys, "selmer", "--ledger", path, "--format", fmt)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bounds_subcommand(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--type", "E6")
    assert code == EXIT_OK
    assert json.loads(out)["principal_sl2_bound"] == 47


def test_cohomology_single(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--ell", "7", "--sym", "2", "--twist", "-1")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["h1"] == 0 and doc["h0"] == 0
    code, out, _ = run_cli(capsys, "cohomology", "--ell", "7", "--sym", "2", "--twist", "-1", "--naive")
    assert code == EXIT_OK
    assert json.loads(out)["h1"] == 0


def test_cohomology_sweep(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "sweep", "--type", "G2", "--ell", "13..17")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["sweep"] == [{"ell": 13, "h1_total": 1}, {"ell": 17, "h1_total": 0}]
    code, out, _ = run_cli(capsys, "cohomology", "sweep", "--type", "G2", "--ell", "24..28")  # no prime in range
    assert (code, json.loads(out)) == (EXIT_OK, {"simple_type": "G2", "sweep": []})


# sha256 of stdout, computed with the per-edge closure and propagation that
# preceded the level-batched ones; sym8 re-pinned when its "solver" value
# became "borel", the one byte change in that output
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("cohomology", "sweep", "--type", "G2", "--ell", "13..29"),
            "14210a29afe4a5203b2feabb236b7611f6e60135b4f816d6c695304ec60e338d",
        ),
        (
            ("cohomology", "--ell", "29", "--sym", "8"),
            "c8238fb35d5e001b2295928db5ee98c51e457280e6fc9a01d5dd9654304544b4",
        ),
    ],
    ids=["sweep-G2", "sym8"],
)
def test_cohomology_stdout_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cohomology_beyond_closure_cap(capsys):
    # SL2(F_127) has 2,048,256 elements, past the closure cap; the Borel solver never builds them
    code, out, _ = run_cli(capsys, "cohomology", "--ell", "127", "--sym", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["h1"] == 0 and doc["solver"] == "borel"


def test_cohomology_sym_at_or_beyond_ell(capsys):
    # Sym^r is a (reducible) module for every r >= ell as well, so these answer;
    # the Cayley solver on the swapped generators gives the same values
    for r, h0, h1 in (("7", 0, 0), ("8", 1, 0), ("10", 0, 1)):
        code, out, _ = run_cli(capsys, "cohomology", "--ell", "7", "--sym", r)
        doc = json.loads(out)
        assert code == EXIT_OK and (doc["h0"], doc["h1"]) == (h0, h1)


def test_cohomology_usage_error(capsys):
    code, _, err = run_cli(capsys, "cohomology", "--ell", "7")
    assert code == EXIT_USAGE
    assert err == "error: --sym is needed outside sweep mode\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cohomology", "--ell", "13..17", "--sym", "2"), "--ell 13..17: a range is read only in sweep mode"),
        (("cohomology", "sweep", "--ell", "13..17"), "sweep mode needs --type"),
        (
            ("cohomology", "sweep", "--type", "G2", "--ell", "31..13"),
            "--ell 31..13: the range runs downwards; expected low..high like 13..31",
        ),
    ],
    ids=["range-outside-sweep", "sweep-without-type", "reversed-range"],
)
def test_cohomology_usage_errors_take_the_error_path(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["13..", "x", "13..x"])
def test_cohomology_malformed_ell_is_a_usage_error(capsys, value):
    code, out, err = run_cli(capsys, "cohomology", "sweep", "--type", "G2", "--ell", value)
    expected = f"error: --ell {value}: expected a prime like 13, or a range like 13..31 in sweep mode\n"
    assert (code, out, err) == (EXIT_USAGE, "", expected)


def test_invalid_type_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "roots", "--type", "Z9")
    assert code == EXIT_USAGE
    assert "error" in err


def test_cohomology_sweep_checks_type(capsys):
    # an unknown type fails even over a range without primes; a lowercase one is echoed as parsed
    code, out, err = run_cli(capsys, "cohomology", "sweep", "--type", "Z9", "--ell", "24..28")
    assert (code, out) == (EXIT_USAGE, "") and "not a classified simple type: Z9" in err
    code, out, _ = run_cli(capsys, "cohomology", "sweep", "--type", "g2", "--ell", "13..17")
    assert code == EXIT_OK
    assert json.loads(out) == {"simple_type": "G2", "sweep": [{"ell": 13, "h1_total": 1}, {"ell": 17, "h1_total": 0}]}


@pytest.mark.parametrize(
    "argv, named",
    [
        (("cohomology", "--type", "Z9", "--ell", "7", "--sym", "2"), "--type not read outside sweep mode"),
        (("cohomology", "sweep", "--type", "G2", "--ell", "13", "--sym", "4", "--naive"), "--sym, --naive not read in sweep mode"),
        (("cohomology", "sweep", "--type", "G2", "--ell", "13", "--twist", "0"), "--twist not read in sweep mode"),
    ],
    ids=["type-outside-sweep", "sym-and-naive-in-sweep", "twist-in-sweep"],
)
def test_cohomology_rejects_options_its_mode_does_not_read(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {named}\n")


def test_csv_and_json_carry_same_numbers(capsys, tmp_path):
    code, json_out, _ = run_cli(capsys, "bounds", "--type", "E8")
    code2, csv_out, _ = run_cli(capsys, "bounds", "--type", "E8", "--format", "csv")
    assert code == code2 == EXIT_OK
    doc = json.loads(json_out)
    rows = {r["key"]: r["value"] for r in csv.DictReader(io.StringIO(csv_out))}
    assert rows["maximal_image_bound"] == str(doc["maximal_image_bound"])
    assert rows["principal_sl2_bound"] == str(doc["principal_sl2_bound"])
    assert rows["e8_exclusions.disputed.0"] == "367"


def test_out_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(capsys, "roots", "--type", "A2", "--out", str(target))
    assert code == EXIT_OK
    assert out == ""
    assert json.loads(target.read_text())["coxeter_number"] == 3


def test_repeat_runs_bit_identical(capsys):
    _, out1, _ = run_cli(capsys, "primescan", "--type", "F4")
    _, out2, _ = run_cli(capsys, "primescan", "--type", "F4")
    assert out1 == out2


def test_verify_subset(capsys):
    code, out, err = run_cli(capsys, "verify-paper", "--only", "prime-lists", "--only", "selmer-identities")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [c["name"] for c in doc["criteria"]] == ["prime-lists", "selmer-identities"]
    assert doc["all_ok"] is True
    assert "PASS prime-lists" in err


def test_verify_unknown_criterion(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "--only", "nonsense")
    assert code == EXIT_USAGE


def test_verify_has_no_nightly_option(capsys):
    # criterion 5 is exhaustive on every type; there is no mode to select
    code, out, err = run_cli(capsys, "verify-paper", "--nightly")
    assert code == EXIT_USAGE
    assert out == "" and "unrecognized arguments: --nightly" in err


def test_verify_reports_raising_criterion_as_fail(capsys, monkeypatch):
    # a constructor that refuses the structure a criterion checks gives a FAIL
    # line and exit 2, not exit 1 with "error:"
    from monolab import verify

    def refuse(t):
        raise ArithmeticError("eigenvalue 2*1: got 0 eigenvectors, expected 1")

    monkeypatch.setattr(verify, "principal_kostant", refuse)
    code, out, err = run_cli(capsys, "verify-paper", "--only", "kostant-structure")
    assert code == EXIT_MISMATCH
    assert "FAIL kostant-structure" in err and "error:" not in err
    doc = json.loads(out)
    assert doc["all_ok"] is False
    assert doc["criteria"] == [
        {
            "name": "kostant-structure",
            "ok": False,
            "details": ["ArithmeticError: eigenvalue 2*1: got 0 eigenvectors, expected 1"],
        }
    ]


def test_verify_fixture_corruption_exits_2(capsys, monkeypatch):
    # a mutated embedded table first trips the embedded-vs-file sync guard
    monkeypatch.setitem(fixtures.OBSTRUCTION_PRIMES, "F4", (2, 3))
    code, out, err = run_cli(capsys, "verify-paper", "--only", "prime-lists")
    assert code == EXIT_MISMATCH
    assert "fixture-sync" in err
    # with the guard bypassed, the named criterion itself reports the mismatch
    monkeypatch.setattr(fixtures, "assert_data_file_sync", lambda: None)
    code, out, err = run_cli(capsys, "verify-paper", "--only", "prime-lists")
    assert code == EXIT_MISMATCH
    assert "FAIL prime-lists" in err
    doc = json.loads(out)
    assert doc["all_ok"] is False


def test_fixture_data_file_in_sync():
    fixtures.assert_data_file_sync()


def test_python_dash_m_runs_the_cli():
    # `python -m monolab` is the same program as `python -m monolab.cli`
    src = os.path.dirname(os.path.dirname(monolab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    package, module = (
        subprocess.run([sys.executable, "-m", name, "roots", "--type", "G2"], env=env, capture_output=True, text=True, timeout=60)
        for name in ("monolab", "monolab.cli")
    )
    assert package.returncode == module.returncode == EXIT_OK
    assert package.stdout == module.stdout != ""
