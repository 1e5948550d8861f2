"""The CLI contract: one row per invocation, with its exit code, the sha256 of its stdout and the start of its stderr.

A change that alters an output re-pins that row and names it in CHANGES.md.
"""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys

import pytest

import monolab
from monolab import cli, fixtures
from monolab.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main

EMPTY = hashlib.sha256(b"").hexdigest()
E8_EXCLUSIONS = {"certain": [229, 269], "disputed": [367, 397]}
G2_13_17 = [{"ell": 13, "h1_total": 1, "solver": "borel"}, {"ell": 17, "h1_total": 0, "solver": "borel"}]


def row(cmd, code, digest, err=None, **expect):
    """One invocation of `monolab cmd`, {tmp} filled in.

    digest is the sha256 of stdout, or of the file that --out names; err is
    the start of stderr, None for an empty one; expect holds report values,
    by top-level or flattened key, that a re-pin must keep.
    """
    return pytest.param(cmd, code, digest, err, expect, id=cmd)


ROWS = [
    row("roots --type G2", 0, "b982d6738a9122078a81f21084315bfa9c94820d2eb9e540700419cc3f21dcb3"),
    row("roots --type F4", 0, "519721bda12862d978b69698e9587dfa01c029fecb146c971194bc073f4a2f0b"),
    row("roots --type E6", 0, "07b69c3460ad1cf2d15918585df5cc9660403273c0f34c92ec13ca73c2713652", None, exponents=[1, 4, 5, 7, 8, 11]),
    row("roots --type E7", 0, "ea67668888161437c39fefd1c6646c3c323df59503874534a3740d6686ba1499"),
    row("roots --type E8", 0, "0161a726b24611112285922797af16678d909f73e525b6522310c6a518cc92b0"),
    row("roots --type A2", 0, "d1083968e92be1b9878d998b98cc09c7a9daf938c38e0c7611536a181e3a0f16"),
    row("roots --type A3", 0, "25c73180d9710c8dff394b5e79d685ddee400e37b3ceb5d5252278f34a01d88f"),
    row("roots --type A" + "0" * 5000 + "3", 0, "25c73180d9710c8dff394b5e79d685ddee400e37b3ceb5d5252278f34a01d88f"),
    row("roots --type B3", 0, "9c160f1bc13fe4eb2e038a8adff24d03b3873ba77cb04e5d08e10c30003bcc51"),
    row("roots --type D4", 0, "60b4be4468f9ec986507e64f3e1e9cca7ba5faaea5b51261245d1b94ba0a89fd"),
    row("kostant --type G2", 0, "f1ea4c5a41b160ec8111525a9221b1c57019fdecfc2af42afef1d29497ec1573", None, exponents=[1, 5]),
    row("kostant --type F4", 0, "8f216b9950511ec910d4bdabc4289e03996347f58603e6e8c19b95d596eab468"),
    row("kostant --type E6", 0, "88e972af7569a5d90860958027999e779ea66892a822e10a1329bdc208b6c724"),
    row("kostant --type E7", 0, "ace1bd0dfa3845b4b76be4d5f737f7023fde34f24c2a58c4bec44928c0ce839c"),
    row("kostant --type E8", 0, "813e48148b7b2455a7a0956d419d32fc27d38a4ee6953cece4dc541e8e197f16"),
    row("kostant --type A2", 0, "ac5a83ea9e0e25eb88d141130a0d30051ad5d7029316e75447fec627dbe7e3bf"),
    row("kostant --type B3", 0, "96b17bc9b2104699694b2d3d1b13642db77804b18c3f6cf63857596d7158fc46"),
    row("kostant --type D4", 0, "96ad51d26bf77f60464c502e589fc8b6333f2a774617d253b6769173415a2e59"),
    row("primescan --type G2", 0, "930b51cb37d56b60b77d0341bd0aaf34623552fa923abcc3e39b22ecf127ba49"),
    row("primescan --type F4", 0, "43bbee4fb56122acb0fad457d892066e5111f609fb75eeed4b536925f29f009f"),
    row("primescan --type E6", 0, "1e2d4de8bf2f9340689513ca13cb680ab8191f6f1cb9f46c79cdd2736784e331"),
    row("primescan --type E7", 0, "0b0dda54bd3d820be0f7e62eb5b80c68a1e17c5a362dea9f100f18a7de2407f3"),
    row("primescan --type E8", 0, "4bb40c719665e43f1ef7f79b55ae17e52f6e00daab1000bcd4b7b21a96b7ef91"),
    row("primescan --type A2", 0, "4b47f9a7108c5616be00e380ca178bd43877f48ccb78db20b842b06035df7215", None, informational=True),
    row("primescan --type B3", 0, "9ce0fe1d7ba4d32828d582cd49a48c7d46137bb61e8d5e8fdcd1fdd6c2da4e22"),
    row("primescan --type D4", 0, "41f83f11e82d65be0eda9df4024d731223f0b43a7953a86dcde38f6ba5ef58c6"),
    row("primescan --type G2 --check-paper", 0, "753a8cea2b3d77494c63e308d4f31374d880778c6351df3bd83216dc23c7ff0b", None, bad_primes=[2, 3, 5], check_paper={"expected": [2, 3, 5], "note": "", "ok": True}),
    row("primescan --type F4 --check-paper", 0, "761d1dced9d4777c5bf8502732f7c949ba03cbe86789ad1a02ad9ecb3f3f7e35"),
    row("primescan --type E6 --check-paper", 0, "5e0307ac4368ecb804db0f5ed470bbfd50da57b4c369d7ab5227f7e727400ce7"),
    row("primescan --type E7 --check-paper", 0, "26ea915c313ea70f75b2a568fd9d3decc8b50eb1a747cb82b6c2949f12daf312"),
    row("primescan --type E8 --check-paper", 0, "1b26228156d97e3d17b7e001dd004b410ec28b80a967c4c74564622a5e25becf"),
    row("bounds --type G2", 0, "502be3377e012b48c4b549d6bc463b278863f2611bb0a37f8a549b88c6d43a30"),
    row("bounds --type F4", 0, "1c8ea9c5a0f7133156f726a3684857c139a3d485370847b86d4c4318586c353d"),
    row("bounds --type E6", 0, "b5d5d5bdff6bd3e369929ca5dfcaaf6852b7ae65dd056cf82e050b5212e032fc", None, principal_sl2_bound=47),
    row("bounds --type E7", 0, "2801e8ccff41668ad1a4c9d88ba6e7dd9c49c9335017128cdbfc7ecda812ca0f"),
    row("bounds --type E8", 0, "d646ca0230ba4b5c3bc15d22603d9e1af0e89d99ae5b9ad9d97fdac7162a6b60", None, maximal_image_bound=59, principal_sl2_bound=119, e8_exclusions=E8_EXCLUSIONS),
    row("bounds --type A2", 0, "fbc7ac71f962e13eb5645e27da5dc6b3d8f4ed05af059ec032d2a41238288c0c"),
    row("bounds --type B3", 0, "f4e0d3924a43a507d2eb30de466b3cf3e39c32c1572163c6a7bfd5e281b9c251"),
    row("bounds --type D4", 0, "d8d9fa5961c7f3513ed68557d28ac010fc4467d6a0b431683e17f21a40ec2db6"),
    row("bounds --type A32", 0, "29f0e377de7bddece8ffdc7d46845b603e3eef575864aabace034e57dabbc53a"),
    row("cohomology --ell 7 --sym 2", 0, "ec35aa44681448681eba90442aa8a32ce116fa1316fc80ccdb9211c42e589dfd"),
    row("cohomology --ell 7 --sym 7", 0, "6ab295be12721931371ce8a4b0493b6ca79686046605cfb87b1b1f122a6c019b", None, h0=0, h1=0),
    row("cohomology --ell 7 --sym 8", 0, "917cca733a61b838d571fbbbd76cfc4efae6d4d92ee2ff9a316bcd18aed03215", None, h0=1, h1=0),
    row("cohomology --ell 7 --sym 10", 0, "d3edc99393bd502d0bbab981968f94d35be26e9193312dc96b66a570be6f32bb", None, h0=0, h1=1),
    row("cohomology --ell 7 --sym 2 --twist -1", 0, "ec35aa44681448681eba90442aa8a32ce116fa1316fc80ccdb9211c42e589dfd", None, h0=0, h1=0),
    row("cohomology --ell 7 --sym 2 --twist 0", 0, "3ef2be1051ae3cf44ceb97f748c4b6e654375302427de9586b6e3df145111d98"),
    row("cohomology --ell 7 --sym 2 --twist 5", 0, "ff9d6352099b6cff66262a504863c7bae46831624518eb45e0b04e0a2ba1e29c"),
    row("cohomology --ell 7 --sym 2 --twist -" + "0" * 5000 + "1", 0, "ec35aa44681448681eba90442aa8a32ce116fa1316fc80ccdb9211c42e589dfd", None, twist=-1),
    row("cohomology --ell 127 --sym 4", 0, "3eaf3eeaee767ad3da7659d41696d929f4c688b7b02a2f188d06fd87ce1dfd36", None, h1=0, solver="borel"),
    row("cohomology --ell 29 --sym 8", 0, "c8238fb35d5e001b2295928db5ee98c51e457280e6fc9a01d5dd9654304544b4"),
    row("cohomology sweep --type G2 --ell 13..17", 0, "f1d90303bfc6a7ab4ff5f5846bd7478331663dbf7d1a9dcec873fb854e599754", None, sweep=G2_13_17),
    row("cohomology sweep --type g2 --ell 13..17", 0, "f1d90303bfc6a7ab4ff5f5846bd7478331663dbf7d1a9dcec873fb854e599754", None, simple_type="G2", sweep=G2_13_17),
    row("cohomology sweep --type G2 --ell 13..29", 0, "45067fab6044d755a01095397ba4196932f8eb66f61437ff278380661e75c24b"),
    row("cohomology sweep --type G2 --ell 24..28", 0, "35ecf42b6dc00bac72313160d3c8932e26ca78f9b34c0c301f00784898d15eb9", None, simple_type="G2", sweep=[]),
    row("verify-paper", 0, "e5fc51d80b1d4256f7572db950acaca8724dc14a6846ccbf813932459fedd788", "PASS prime-lists"),
    row("verify-paper --only prime-lists --only selmer-identities", 0, "981a3d13a914dd196bae6c3d19588164bae16b4abaaf4fb43681a398326f0ffc", "PASS prime-lists", all_ok=True, **{"criteria.0.name": "prime-lists", "criteria.1.name": "selmer-identities"}),
    row("roots --type A2 --out {tmp}/roots.json", 0, "d1083968e92be1b9878d998b98cc09c7a9daf938c38e0c7611536a181e3a0f16", None, coxeter_number=3),
    # rejected: exit 1, nothing on stdout
    row("primescan --type A2 --check-paper", 1, EMPTY, "error: --check-paper: no reference list for A2; the bundled lists cover G2, F4, E6, E7, E8"),
    row("cohomology --ell 7", 1, EMPTY, "error: --sym is needed outside sweep mode"),
    row("cohomology --ell 7 --sym -1", 1, EMPTY, "error: --sym -1: expected a symmetric power r >= 0"),
    row("cohomology --ell 7 --sym -1 --twist 3", 1, EMPTY, "error: --sym -1: expected a symmetric power r >= 0"),
    row("cohomology --ell 7 --sym ٣", 1, EMPTY, "error: --sym ٣: expected a symmetric power r >= 0"),
    row("cohomology --ell 7 --sym 4_0", 1, EMPTY, "error: --sym 4_0: expected a symmetric power r >= 0"),
    row("cohomology --ell 7 --sym +2", 1, EMPTY, "error: --sym +2: expected a symmetric power r >= 0"),
    row("cohomology --ell 7 --sym " + "9" * 5000, 1, EMPTY, f"error: --sym {'9' * 5000}: more than 4300 digits"),
    row("cohomology --ell 7 --sym 2 '--twist= -1_0'", 1, EMPTY, "error: --twist  -1_0: expected a determinant exponent t like -5"),
    row("cohomology --ell 13..17 --sym 2", 1, EMPTY, "error: --ell 13..17: a range is read only in sweep mode"),
    row("cohomology sweep --ell 13..17", 1, EMPTY, "error: sweep mode needs --type"),
    row("cohomology sweep --type G2 --ell 31..13", 1, EMPTY, "error: --ell 31..13: the range runs downwards; expected low..high like 13..31"),
    row("cohomology sweep --type G2 --ell 13..", 1, EMPTY, "error: --ell 13..: expected a prime like 13, or a range like 13..31 in sweep mode"),
    row("cohomology sweep --type G2 --ell x", 1, EMPTY, "error: --ell x: expected a prime like 13, or a range like 13..31 in sweep mode"),
    row("cohomology sweep --type G2 --ell 13..x", 1, EMPTY, "error: --ell 13..x: expected a prime like 13, or a range like 13..31 in sweep mode"),
    row("cohomology sweep --type G2 --ell ١٣", 1, EMPTY, "error: --ell ١٣: expected a prime like 13, or a range like 13..31 in sweep mode"),
    row("cohomology sweep --type G2 --ell 13..100000000000000", 1, EMPTY, "error: --ell 13..100000000000000: primes are read only below 2**31"),
    row("cohomology --ell " + "9" * 5000 + " --sym 2", 1, EMPTY, f"error: --ell {'9' * 5000}: primes are read only below 2**31"),
    row("cohomology --type Z9 --ell 7 --sym 2", 1, EMPTY, "error: --type not read outside sweep mode"),
    row("cohomology sweep --type G2 --ell 13 --sym 4", 1, EMPTY, "error: --sym not read in sweep mode"),
    row("cohomology sweep --type G2 --ell 13 --twist 0", 1, EMPTY, "error: --twist not read in sweep mode"),
    row("cohomology sweep --type Z9 --ell 24..28", 1, EMPTY, "error: not a classified simple type: Z9"),
    row("roots --type Z9", 1, EMPTY, "error: not a classified simple type: Z9"),
    row("kostant --type E9", 1, EMPTY, "error: not a classified simple type: E9"),
    row("bounds --type C2", 1, EMPTY, "error: not a classified simple type: C2"),
    row("primescan --type A0", 1, EMPTY, "error: not a classified simple type: A0"),
    row("roots --type A10000000000", 1, EMPTY, "error: A10000000000: ranks above 32 are not built"),
    row("primescan --type A99", 1, EMPTY, "error: A99: ranks above 32 are not built"),
    row("bounds --type A33", 1, EMPTY, "error: A33: ranks above 32 are not built"),
    row("roots --type A³", 1, EMPTY, "error: cannot parse simple type 'A³'"),
    row("roots --type A٣", 1, EMPTY, "error: cannot parse simple type 'A٣'"),
    row("roots --type A" + "9" * 5000, 1, EMPTY, f"error: A{'9' * 5000}: ranks above 32 are not built"),
    row("verify-paper --only nonsense", 1, EMPTY, "error: unknown criteria: ['nonsense']"),
    row("cohomology --ell 7 --sym 2 --naive", 1, EMPTY, "usage: monolab [-h] {roots,kostant,primescan,cohomology,bounds,verify-paper} ...\nmonolab: error: unrecognized arguments: --naive"),
    row("verify-paper --nightly", 1, EMPTY, "usage: monolab [-h] {roots,kostant,primescan,cohomology,bounds,verify-paper} ...\nmonolab: error: unrecognized arguments: --nightly"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fields(doc, prefix=""):
    """The (key, value) leaves of a parsed JSON report, keyed by their dotted path: {"a": [5]} gives [("a.0", 5)]."""
    if isinstance(doc, dict):
        return [pair for k in sorted(doc) for pair in fields(doc[k], f"{prefix}{k}.")]
    if isinstance(doc, (list, tuple)):
        return [pair for i, v in enumerate(doc) for pair in fields(v, f"{prefix}{i}.")]
    return [(prefix[:-1], doc)]


def subtree(pairs, key):
    """The pairs at `key` or below it, values as text, so an empty list is an empty subtree."""
    return {k: str(v) for k, v in pairs if k == key or k.startswith(f"{key}.")}


@pytest.mark.parametrize("cmd, code, digest, err, expect", ROWS)
def test_cli_contract(tmp_path, capsys, monkeypatch, cmd, code, digest, err, expect):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps its usage line at the terminal width
    argv = [arg.format(tmp=tmp_path) for arg in shlex.split(cmd)]
    got, out, stderr = run_cli(capsys, *argv)
    if "--out" in argv:
        assert out == ""
        with open(argv[argv.index("--out") + 1]) as fh:
            out = fh.read()
    sha = hashlib.sha256(out.encode()).hexdigest()
    assert (got, sha) == (code, digest), out[:2000]
    assert stderr.startswith(err) if err else stderr == "", stderr
    pairs = fields(json.loads(out)) if expect else ()
    for key, value in expect.items():
        assert subtree(pairs, key) == subtree(fields(value, f"{key}."), key), key


def test_every_subcommand_option_and_choice_has_a_row():
    # a new subcommand, option or choice joins the contract only with a row that runs it
    heads, tokens = {EXIT_OK: set(), EXIT_USAGE: set()}, set()
    for param in ROWS:
        argv, code = shlex.split(param.values[0]), param.values[1]
        heads[code].add(argv[0])
        tokens.update(argv if code == EXIT_OK else ())
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        assert name in heads[EXIT_OK] and name in heads[EXIT_USAGE], name
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                assert not action.option_strings or set(action.option_strings) & tokens, (name, action.option_strings)
                assert set(action.choices or ()) - {action.default} <= tokens, (name, action.choices)


def test_repeat_runs_bit_identical(capsys):
    _, out1, _ = run_cli(capsys, "primescan", "--type", "F4")
    _, out2, _ = run_cli(capsys, "primescan", "--type", "F4")
    assert out1 == out2


def test_primescan_corrupted_fixture_exits_2(capsys, monkeypatch):
    # negative control: a mutated reference list must be reported, exit 2
    monkeypatch.setitem(fixtures.OBSTRUCTION_PRIMES, "G2", (2, 3, 7))
    code, out, err = run_cli(capsys, "primescan", "--type", "G2", "--check-paper")
    assert code == EXIT_MISMATCH
    assert "mismatch" in err
    doc = json.loads(out)
    assert doc["check_paper"]["ok"] is False


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
