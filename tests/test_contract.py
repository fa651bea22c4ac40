"""The CLI contract: exact stdout, stderr and exit code of fixed invocations.

Verdicts, numerals, reason strings, printed terms, parse errors and exit
codes are part of covtt's contract, so these runs must reproduce the
recorded output byte for byte.  A change that alters any of them on purpose
re-records the expectations with ``python tests/test_contract.py --record``
and says why in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
DATA = ROOT / "tests" / "data" / "contract"
EXITS = DATA / "exit_codes.json"

OMEGA = "Ap(lam x . Ap(x, x), lam x . Ap(x, x))"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for path in sorted(CORPUS.glob("*.judg")):
        cases[f"check_{path.stem}"] = ["check", str(path)]
        cases[f"check_{path.stem}_structured"] = [
            "check", str(path), "--format", "structured"]
        cases[f"verify_{path.stem}_structured"] = [
            "verify", str(path), "--format", "structured"]
    cases.update({
        "check_fuel": ["check", str(DATA / "fuel.judg"), "--fuel", "50"],
        "check_fuel_structured": ["check", str(DATA / "fuel.judg"),
                                  "--fuel", "50", "--format", "structured"],
        "check_syntax_error": ["check", str(DATA / "bad.judg")],
        "check_indented_syntax_error": ["check", str(DATA / "indented.judg")],
        "check_types": ["check", str(DATA / "types.judg")],
        "verify_types_structured": ["verify", str(DATA / "types.judg"),
                                    "--format", "structured"],
        "verify_golden_stage0_structured": [
            "verify", str(CORPUS / "golden.judg"), "--stage", "0",
            "--format", "structured"],
        "eval_syntax_error": ["eval", "succ(0"],
        "eval_superscript_digit": ["eval", "\u00b2"],
        "eval_judgment": ["eval", "term [] |- 0 : N"],
        "cover_cantor2": ["cover", str(CORPUS / "cantor2.cover")],
        "cover_cantor2_structured": ["cover", str(CORPUS / "cantor2.cover"),
                                     "--format", "structured"],
        "cover_cantor2_empty_query": ["cover", str(CORPUS / "cantor2.cover"),
                                      "--query", "e <|"],
        "cover_cantor2_unknown_query": ["cover", str(CORPUS / "cantor2.cover"),
                                        "--query", "e <| l2"],
        "cover_bad_member": ["cover", str(DATA / "bad.cover")],
        "cover_repeated_pair": ["cover", str(DATA / "repeated.cover")],
        "cover_tree4_structured": ["cover", str(DATA / "tree4.cover"),
                                   "--format", "structured"],
        "wp_wp3": ["wp", str(CORPUS / "wp3.rel")],
        "wp_wp3_structured": ["wp", str(CORPUS / "wp3.rel"),
                              "--format", "structured"],
        "wp_bad_relation": ["wp", str(DATA / "bad.rel")],
        "wp_wp60_structured": ["wp", str(DATA / "wp60.rel"),
                               "--format", "structured"],
        "eval_ind": ["eval", "ind(rf(a, r); x w . Ap(Ap(q1, x), w); x h k f . 0)"],
        "eval_beta": ["eval", "Ap(lam x . succ(x), 1)", "--format", "structured"],
        "eval_omega": ["eval", OMEGA, "--fuel", "500"],
        "eval_omega_structured": ["eval", OMEGA, "--fuel", "500",
                                  "--format", "structured"],
        "eval_formers": ["eval", "@" + str(DATA / "formers.term")],
        "realize_zero": ["realize", "0"],
        "realize_rf": ["realize", "rf(3, 9)", "--format", "structured"],
        "realize_open": ["realize", "rf(a, r)"],
        "realize_open_structured": ["realize", "rf(a, r)", "--format", "structured"],
        "realize_var": ["realize", "x"],
        "realize_open_lam": ["realize", "lam x . Ap(f, x)"],
        "realize_deep_numeral": ["realize", "10000"],
        "realize_lam": ["realize", "lam x . natrec(x; 0; k r . succ(succ(r)))"],
        "realize_omega": ["realize", OMEGA, "--fuel", "500"],
        "examples_judgments": ["examples", "judgments"],
        "examples_cover": ["examples", "cover"],
    })
    return cases


def _run(argv: list[str]) -> tuple[int, str, str]:
    from covtt import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv, out=out)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(_cases()))
def test_contract(name):
    rc, out, err = _run(_cases()[name])
    expected = json.loads(EXITS.read_text(encoding="utf-8"))[name]
    assert (rc, err) == (expected["exit"], expected["stderr"])
    assert out == (DATA / f"{name}.stdout").read_text(encoding="utf-8")


def _record():
    exits = {}
    for name, argv in sorted(_cases().items()):
        rc, out, err = _run(argv)
        (DATA / f"{name}.stdout").write_text(out, encoding="utf-8")
        exits[name] = {"exit": rc, "stderr": err}
    EXITS.write_text(json.dumps(exits, indent=1, sort_keys=True) + "\n",
                     encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_contract.py --record")
    sys.path.insert(0, str(ROOT / "src"))
    _record()
