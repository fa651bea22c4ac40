import io
import json

import pytest

from covtt import cli


def run(argv):
    out = io.StringIO()
    rc = cli.main(argv, out=out)
    return rc, out.getvalue()


def test_check_exit_codes(corpus_dir):
    rc, out = run(["check", str(corpus_dir / "golden.judg")])
    assert rc == 0
    assert "rejected" not in out
    rc, out = run(["check", str(corpus_dir / "illtyped.judg")])
    assert rc == 1
    rc, out = run(["check", str(corpus_dir / "xi.judg")])
    assert rc == 1
    assert "not admitted" in out


def test_check_empty_file(tmp_path):
    f = tmp_path / "empty.judg"
    f.write_text("# nothing here\n\n")
    rc, out = run(["check", str(f)])
    assert rc == 0 and out == ""


def test_input_errors_exit_2(tmp_path, capsys):
    """Every input error leaves by one exit: code 2, nothing on stdout and
    one 'error: ' line on stderr."""
    missing = tmp_path / "missing.judg"
    (tmp_path / "bad.judg").write_text("term [] |- (x : N\n")
    (tmp_path / "bad.cover").write_text("cover a j : b\n")
    (tmp_path / "ok.cover").write_text("carrier a b\nquery a <| b\n")
    (tmp_path / "bad.rel").write_text("carrier 0 1\nrel 0 5\n")
    cases = [
        (["check", str(missing)], f"cannot read {missing}: [Errno 2] "
                                  f"No such file or directory: '{missing}'"),
        (["check", str(tmp_path / "bad.judg")], "1:13: unbound identifier 'x'"),
        (["cover", str(tmp_path / "bad.cover")], "line 1: unknown element 'a'"),
        (["cover", str(tmp_path / "ok.cover"), "--query", "a <| z"],
         "--query: unknown element 'z'"),
        (["wp", str(tmp_path / "bad.rel")], "line 2: unknown element in ['0', '5']"),
        (["eval", "N"], "expected a term, found a type"),
    ]
    for argv, err in cases:
        assert run(argv) == (2, ""), argv
        assert capsys.readouterr().err == f"error: {err}\n", argv


def test_structured_format(corpus_dir):
    rc, out = run(["check", str(corpus_dir / "xi.judg"),
                   "--format", "structured"])
    assert rc == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["verdict"] == "rejected"
    assert records[0]["rule"] == "xi"


def test_eval_and_realize():
    rc, out = run(["eval", "ind(rf(a, r); x w . Ap(Ap(q1, x), w); x h k f . 0)"])
    assert rc == 0 and out.strip() == "Ap(Ap(q1, a), r)"
    rc, out = run(["eval", "Ap(lam x . x, 0)"])
    assert rc == 0 and out.strip() == "0"
    rc, out = run(["eval", "Ap(lam x . Ap(x, x), lam x . Ap(x, x))",
                   "--fuel", "500"])
    assert rc == 1 and "500" in out
    rc, out = run(["realize", "0"])
    assert rc == 0 and out.strip() == "0"
    rc, out = run(["realize", "rf(3, 9)", "--format", "structured"])
    assert rc == 0
    from covtt.kleene import pair
    assert json.loads(out)["numeral"] == pair(7, pair(3, 9))
    rc, out = run(["realize", "rf(a, r)"])
    assert rc == 0 and "a" in out and "(" in out


def test_deep_terms_print_and_check(tmp_path):
    rc, out = run(["realize", "Ap(f, 25000)"])
    assert rc == 0
    assert out.strip() == "{f}(" + "{13}(" * 25000 + "0" + ")" * 25001
    rc, out = run(["realize", "rf(a, r)"])
    assert rc == 0 and out.strip() == "{{15}(7)}({{15}(a)}(r))"
    f = tmp_path / "deep.judg"
    f.write_text("term [] |- 25000 : N\ntermeq [] |- 25000 == 25000 : N\n")
    rc, out = run(["check", str(f)])
    assert rc == 0 and out.splitlines() == ["1: accepted", "2: accepted"]
    # a numeral under a binder: opened, substituted and abstracted in loops
    assert run(["eval", "lam x . 25000"]) == (0, "lam x . 25000\n")
    assert run(["eval", "Ap(lam x . 25000, 0)"]) == (0, "25000\n")
    from covtt.kleene import apply
    rc, out = run(["realize", "lam x . 25000"])
    assert rc == 0 and apply(int(out), 7) == 25000
    assert run(["realize", "Ap(lam x . 25000, 0)"]) == (0, "25000\n")
    f.write_text("termeq [] |- Ap(lam x . 25000, 0) == 25000 : N\n"
                 "term [] |- lam x . 25000 : N -> N\n")
    rc, out = run(["check", str(f)])
    assert rc == 0 and out.splitlines() == ["1: accepted", "2: accepted"]
    rc, out = run(["verify", str(f)])
    assert rc == 0 and out.splitlines() == ["1: yes", "2: unknown(sampling)"]


def test_verify(corpus_dir, tmp_path):
    rc, out = run(["verify", str(corpus_dir / "ct.judg")])
    assert rc == 0
    assert all(line.endswith("yes") for line in out.strip().splitlines())
    f = tmp_path / "false.judg"
    f.write_text("termeq [] |- 0 == succ(0) : N\n")
    rc, out = run(["verify", str(f)])
    assert rc == 1 and "no" in out


# a list code past Python's default 4300-digit int-to-str limit
HUGE = "natrec(13; 0; k r . cons(r, r))"


def test_numerals_past_the_int_str_limit_print(tmp_path):
    from covtt import realizability
    from covtt.syntax import parse
    rc, text = run(["realize", HUGE])
    rc2, structured = run(["realize", HUGE, "--format", "structured"])
    numeral = realizability.realize(parse(HUGE))
    assert len(str(numeral)) > 4300         # str() works: main lifted the limit
    assert (rc, text) == (0, f"{numeral}\n")
    assert rc2 == 0 and json.loads(structured)["numeral"] == numeral
    f = tmp_path / "huge.judg"
    f.write_text(f"termeq [] |- {HUGE} == 0 : List(N)\n")
    rc, out = run(["verify", str(f), "--format", "structured"])
    record = json.loads(out)
    assert rc == 1 and record["verdict"] == "no"
    assert record["reason"] == f"the sides evaluate to {numeral} and 0"


def test_cover_and_wp(corpus_dir):
    rc, out = run(["cover", str(corpus_dir / "cantor2.cover")])
    assert rc == 0
    assert out.count("covered") == 2
    rc, out = run(["cover", str(corpus_dir / "cantor2.cover"),
                   "--query", "e <|"])
    assert rc == 1 and "not-covered" in out
    rc, out = run(["wp", str(corpus_dir / "wp3.rel")])
    assert rc == 0 and "{0}" in out


def test_cover_query_is_validated_like_a_file_query(corpus_dir, capsys):
    path = str(corpus_dir / "cantor2.cover")
    for query, message in [("zz <|", "unknown element 'zz'"),
                           ("e <| l0 zz", "unknown element 'zz'"),
                           ("e l0 <| l0 l1", "exactly one element before '<|'"),
                           ("e l0 l1", "expected 'query ELEM <| MEMBERS...'")]:
        rc, out = run(["cover", path, "--query", query])
        assert (rc, out) == (2, ""), query
        assert message in capsys.readouterr().err, query


def test_negative_stage_bound_and_fuel_exit_2(corpus_dir, capsys):
    path = str(corpus_dir / "ct.judg")
    for argv in (["verify", path, "--stage", "-1"],
                 ["verify", path, "--bound", "-1"],
                 ["verify", path, "--fuel", "-5"],
                 ["check", path, "--fuel", "-1"],
                 ["eval", "0", "--fuel", "-1"]):
        with pytest.raises(SystemExit) as exit_:
            run(argv)
        assert exit_.value.code == 2, argv
        assert "must be >= 0" in capsys.readouterr().err, argv
    rc, _ = run(["verify", path, "--stage", "0", "--bound", "0", "--fuel", "0"])
    assert rc in (0, 1)


def test_eval_and_realize_reject_a_type(capsys):
    for command in ("eval", "realize"):
        for src in ("N", "(N -> N)", "Sigma x : N . T(x)", "Id(N, 0, 0)"):
            rc, out = run([command, src])
            assert (rc, out) == (2, ""), (command, src)
            assert capsys.readouterr().err == "error: expected a term, found a type\n"


def test_eval_from_file(tmp_path):
    f = tmp_path / "t.term"
    f.write_text("Ap(lam x . succ(x), 1)\n")
    rc, out = run(["eval", f"@{f}"])
    assert rc == 0 and out.strip() == "2"


def test_check_skips_ct_lines(tmp_path):
    f = tmp_path / "mix.judg"
    f.write_text("ct lam x . x\nterm [] |- 0 : N\n")
    rc, out = run(["check", str(f)])
    assert rc == 0 and "skipped" in out


def test_examples_parse_back(tmp_path):
    from covtt.covers import parse_axiom_file, parse_relation_file
    from covtt.syntax import parse_file
    rc, out = run(["examples", "judgments"])
    assert rc == 0 and parse_file(out)
    rc, out = run(["examples", "cover"])
    assert rc == 0 and parse_axiom_file(out)
    rc, out = run(["examples", "relation"])
    assert rc == 0 and parse_relation_file(out)


def test_runs_are_reproducible(corpus_dir):
    a = run(["verify", str(corpus_dir / "golden.judg"), "--stage", "4",
             "--bound", "16", "--fuel", "200000"])
    b = run(["verify", str(corpus_dir / "golden.judg"), "--stage", "4",
             "--bound", "16", "--fuel", "200000"])
    assert a == b
