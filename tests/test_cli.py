import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from relmod import cli
from relmod.corpus import builtin_json
from relmod import identities
from relmod.identities import catalog_entry, parse_identity


# the tree the tests import relmod from, so `python -m relmod` runs it too
SRC = str(pathlib.Path(cli.__file__).resolve().parents[1])


def _env():
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "relmod", *argv], capture_output=True, text=True, env=_env())


_IMPORT_CLI = """
import json, sys
before = set(sys.modules)
import relmod.cli
print(json.dumps({"loaded": sorted(set(sys.modules) - before), "built": sorted(relmod.corpus._BUILT)}))
"""


def test_cli_import_generates_no_code():
    out = subprocess.run([sys.executable, "-c", _IMPORT_CLI], capture_output=True, text=True, env=_env())
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    # a command builds only the corpus algebra it names
    assert report["built"] == []
    loaded = set(report["loaded"])
    # dataclasses, with inspect behind it, would add about 20 ms to every
    # command's start
    assert not {"dataclasses", "inspect"} & loaded
    # the benchmark's tracer (bench/tracing.py) finds the functions it wraps
    # in these modules through sys.modules, so the CLI's import loads them all
    assert {"relmod.algebras", "relmod.relations", "relmod.identities", "relmod.maltsev"} <= loaded


def test_check_holds_exit_zero():
    res = run_cli("check", "--algebra", "l2", "--identity", "(1.1)")
    assert res.returncode == 0
    assert "HOLDS" in res.stdout
    assert "checked=8" in res.stdout


def test_check_identical_runs_are_byte_identical():
    args = ("check", "--algebra", "z2xz2", "--identity", "(1.4)")
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_check_counterexample_exit_codes():
    args = (
        "check", "--algebra", "z2xz2", "--identity", "(dist)",
        "--sort", "Theta=CON", "--sort", "S=CON", "--sort", "T=CON",
    )
    res = run_cli(*args)
    assert res.returncode == 1
    assert "FAILS" in res.stdout
    res = run_cli(*args, "--assert-holds")
    assert res.returncode == 4


def test_check_label_without_parens():
    res = run_cli("check", "--algebra", "l2", "--identity", "1.1")
    assert res.returncode == 0
    assert "(1.1)" in res.stdout


def test_check_unknown_label_exit_two():
    res = run_cli("check", "--algebra", "l2", "--identity", "(9.9)")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "error" in res.stderr


def test_check_bad_identity_text_exit_two():
    res = run_cli("check", "--algebra", "l2", "--identity-text", "S:REFL |- S <= T")
    assert res.returncode == 2
    assert "unquantified" in res.stderr


def test_check_inline_identity_text():
    res = run_cli("check", "--algebra", "sl3", "--identity-text", "S:REFL |- S <= star(S)")
    assert res.returncode == 0


@pytest.mark.parametrize(
    "args, message",
    [
        (("--identity-text", "S:REFL |- S <= S", "--param", "m=3"), "--param"),
        (("--identity", "(1.1)", "--identity-text", "S:REFL |- S <= S"), "not allowed with"),
        ((), "one of the arguments --identity --identity-text is required"),
    ],
    ids=["param-with-text", "label-and-text", "neither"],
)
def test_check_statement_options_exit_two(args, message):
    # --param only fills catalog templates, and a check runs one statement
    res = run_cli("check", "--algebra", "l2", *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert message in res.stderr


def test_check_sample_mode():
    res = run_cli(
        "check", "--algebra", "l2", "--identity", "(perm)",
        "--mode", "sample", "--seed", "5", "--samples", "300",
    )
    assert res.returncode == 1
    assert "FAILS" in res.stdout


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_check_sample_count_must_be_positive(samples):
    res = run_cli(
        "check", "--algebra", "l2", "--identity", "(B1)", "--param", "m=inf",
        "--mode", "sample", "--samples", samples,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"samples must be >= 1, got {samples}" in res.stderr


@pytest.mark.parametrize(
    "args, flag",
    [
        (("--samples", "0", "--seed", "9"), "--samples"),
        (("--seed", "9"), "--seed"),
        (("--mode", "exhaustive", "--samples", "10"), "--samples"),
    ],
    ids=["samples-and-seed", "seed", "explicit-exhaustive"],
)
def test_check_sampling_flags_need_sample_mode(args, flag):
    # an exhaustive check draws nothing, so a sample count or seed given to
    # it is a usage error rather than silently ignored
    res = run_cli("check", "--algebra", "l2", "--identity", "1.1", *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"{flag} applies only to --mode sample" in res.stderr


def test_check_sample_mode_defaults():
    # in sample mode --samples defaults to 1000 and --seed to 0
    base = ("check", "--algebra", "l2", "--identity", "(B1)", "--mode", "sample")
    res = run_cli(*base)
    assert res.returncode == 0
    assert "[check] (B1): HOLDS checked=1000" in res.stdout
    explicit = run_cli(*base, "--seed", "0", "--samples", "1000")
    assert res.stdout.splitlines()[1:] == explicit.stdout.splitlines()[1:]  # all but the command line


def test_check_bad_sort_exit_two():
    res = run_cli("check", "--algebra", "l2", "--identity", "(1.1)", "--sort", "Theta=XX")
    assert res.returncode == 2
    assert "bad sort 'XX', expected REFL, TOL or CON" in res.stderr


def test_sort_messages_list_every_sort(capsys):
    base = ["check", "--algebra", "l2", "--identity", "(1.1)"]
    assert cli.main(base + ["--sort", "Theta"]) == 2
    assert "bad --sort 'Theta', expected NAME=REFL|TOL|CON" in capsys.readouterr().err


def test_params_pass_only_what_is_given():
    # the catalog's own defaults fill the rest
    assert cli._parse_params(None) == {}
    assert cli._parse_params(["m=inf", "k=3"]) == {"m": identities.INF, "k": 3}


@pytest.mark.parametrize(
    "args, message",
    [
        (("catalog", "--param", "k=3", "--param", "k=4"), "--param k is given twice"),
        (("catalog", "--param", "m=inf", "--param", "k=3", "--param", "m=4"), "--param m is given twice"),
        (
            ("check", "--algebra", "l2", "--identity", "(1.1)", "--sort", "S=CON", "--sort", "S=REFL"),
            "--sort S is given twice",
        ),
    ],
    ids=["param-k", "param-m", "sort-s"],
)
def test_repeated_param_or_sort_exit_two(args, message):
    # a second value for the same name is a usage error, not a silent override
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert message in res.stderr


def test_check_bad_param_value_exit_two():
    res = run_cli("check", "--algebra", "l2", "--identity", "(1.1)", "--param", "k=x")
    assert res.returncode == 2
    assert "bad --param 'k=x': k must be an integer or inf" in res.stderr
    assert "int()" not in res.stderr


def test_structured_output_is_json():
    res = run_cli(
        "check", "--algebra", "l2", "--identity", "(1.1)", "--format", "structured"
    )
    data = json.loads(res.stdout)
    assert data["exit_code"] == res.returncode == 0
    assert data["algebra"] == {"name": "l2", "size": 2}
    assert data["results"][0]["holds"] is True


def test_algebra_from_file(tmp_path):
    path = tmp_path / "z2.json"
    path.write_text(builtin_json("z2"), encoding="utf-8")
    res = run_cli("find-terms", "--algebra", str(path), "--family", "dgumm")
    assert res.returncode == 0
    assert "FOUND k=1" in res.stdout
    assert "xor(xor(x,y),z)" in res.stdout


def test_find_terms_on_a_corpus_group_needs_no_file():
    res = run_cli("find-terms", "--algebra", "s3", "--family", "dgumm")
    assert res.returncode == 0, res.stderr
    assert "[find-terms] dgumm: FOUND k=1" in res.stdout


def test_bad_algebra_file_exit_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "bad", "size": 2, "operations": ', encoding="utf-8")
    res = run_cli("enumerate", "--algebra", str(path), "--kind", "refl")
    assert res.returncode == 2
    assert "syntax error" in res.stderr


def test_bool_algebra_size_exit_two(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(
        '{"name":"b","size":true,"operations":[{"symbol":"f","arity":1,"table":[false]}]}', encoding="utf-8"
    )
    res = run_cli("enumerate", "--algebra", str(path), "--kind", "refl", "--format", "structured")
    assert res.returncode == 2
    assert "size must be a positive integer" in res.stderr
    assert res.stdout == ""


def test_unknown_algebra_name_exit_two():
    res = run_cli("enumerate", "--algebra", "nope", "--kind", "refl")
    assert res.returncode == 2


def test_enumerate_sl2():
    res = run_cli("enumerate", "--algebra", "sl2", "--kind", "refl")
    assert res.returncode == 0
    assert "4 members" in res.stdout
    assert "delta+0-1" in res.stdout


def test_find_terms_definitive_no():
    res = run_cli("find-terms", "--algebra", "sl2", "--family", "dgumm")
    assert res.returncode == 1
    assert "definitive" in res.stdout


@pytest.mark.parametrize("name", ["l2", "m3"])
def test_find_terms_day(name):
    res = run_cli("find-terms", "--algebra", name, "--family", "day")
    assert res.returncode == 0
    assert "FOUND k=3" in res.stdout


def test_find_terms_cap_exit_three():
    res = run_cli("find-terms", "--algebra", "l2", "--family", "dgumm", "--cap", "3")
    assert res.returncode == 3
    assert "vector-length cap exceeded" in res.stderr
    assert "[find-terms] dgumm: CAP-EXCEEDED\n" in res.stdout
    assert "nodes=" not in res.stdout


def test_find_terms_cap_structured_has_no_node_count():
    res = run_cli(
        "find-terms", "--algebra", "l2", "--family", "day", "--cap", "3", "--format", "structured"
    )
    assert res.returncode == 3
    (item,) = json.loads(res.stdout)["results"]
    assert set(item) == {"family", "status", "node_count", "definitive", "k", "terms"}
    assert item["status"] == "cap-exceeded"
    assert item["node_count"] is None


@pytest.mark.parametrize("name, family", [("z2", "dgumm"), ("sl2", "day"), ("l2", "dgumm")])
def test_find_terms_structured_keys(name, family):
    res = run_cli("find-terms", "--algebra", name, "--family", family, "--format", "structured")
    (item,) = json.loads(res.stdout)["results"]
    assert set(item) == {"family", "status", "node_count", "definitive", "k", "terms"}


_L2_TERMS = {
    "dgumm": {"p": "x", "j1": "meet(meet(join(x,y),join(x,z)),join(y,z))", "j2": "z"},
    "day": {
        "d0": "x",
        "d1": "meet(meet(join(x,y),join(x,w)),join(y,w))",
        "d2": "meet(meet(join(x,z),join(x,w)),join(z,w))",
        "d3": "w",
    },
}


@pytest.mark.parametrize("family", _L2_TERMS)
def test_find_terms_names_the_terms(family):
    # t_0..t_k are named p, j1..jk for directed Gumm terms and d0..dk for
    # Day terms, in chain order
    res = run_cli("find-terms", "--algebra", "l2", "--family", family, "--format", "structured")
    (item,) = json.loads(res.stdout)["results"]
    assert list(item["terms"].items()) == list(_L2_TERMS[family].items())


def test_witness_turt():
    res = run_cli(
        "witness", "--algebra", "l2", "--theorem", "turt",
        "--rel", "R=nabla", "--rel", "V=nabla", "--rel", "W=nabla",
        "--rel", "S1=delta+0-1", "--rel", "S2=nabla",
        "--a", "0", "--b", "1", "--chain", "0,1,1",
    )
    assert res.returncode == 0
    assert "valid: true" in res.stdout
    assert "lam_blocks=1" in res.stdout


def test_witness_cap_exit_three():
    res = run_cli(
        "witness", "--algebra", "l2", "--theorem", "turt",
        "--rel", "R=nabla", "--rel", "V=nabla", "--rel", "W=nabla",
        "--rel", "S1=delta+0-1", "--rel", "S2=nabla",
        "--a", "0", "--b", "1", "--chain", "0,1,1", "--cap", "3",
    )
    assert res.returncode == 3
    assert "vector-length cap exceeded" in res.stderr


def test_witness_day():
    res = run_cli(
        "witness", "--algebra", "z2", "--theorem", "day",
        "--rel", "Theta=nabla", "--rel", "S=nabla",
        "--a", "0", "--b", "1", "--c", "1",
    )
    assert res.returncode == 0
    assert "valid: true" in res.stdout


def test_witness_turtt():
    res = run_cli(
        "witness", "--algebra", "l2", "--theorem", "turtt",
        "--rel", "R=nabla", "--rel", "V=nabla", "--rel", "W=nabla",
        "--rel", "S1=nabla",
        "--a", "0", "--b", "1", "--chain", "0,1",
    )
    assert res.returncode == 0
    assert "valid: true" in res.stdout
    assert "R & conv(R) & cl(conv(V)|W)" in res.stdout


def test_golden_check_report():
    res = run_cli(
        "check", "--algebra", "z2xz2", "--identity", "(dist)",
        "--sort", "Theta=CON", "--sort", "S=CON", "--sort", "T=CON",
    )
    assert res.stdout == (
        "command: relmod check --algebra z2xz2 --identity '(dist)' "
        "--sort Theta=CON --sort S=CON --sort T=CON\n"
        "algebra: z2xz2 (n=4)\n"
        "[check] (dist): FAILS checked=39\n"
        "  Theta = delta+0-3+1-2+2-1+3-0\n"
        "  S = delta+0-2+1-3+2-0+3-1\n"
        "  T = delta+0-1+1-0+2-3+3-2\n"
        "  witness: 0-3\n"
        "exit-code: 1\n"
    )


def test_witness_precondition_exit_one():
    res = run_cli(
        "witness", "--algebra", "l2", "--theorem", "turt",
        "--rel", "R=delta", "--rel", "V=nabla", "--rel", "W=nabla",
        "--rel", "S1=nabla",
        "--a", "0", "--b", "1", "--chain", "0,1",
    )
    assert res.returncode == 1
    assert "in R fails" in res.stderr


def test_witness_on_semilattice_fails():
    res = run_cli(
        "witness", "--algebra", "sl2", "--theorem", "turt",
        "--rel", "R=nabla", "--rel", "V=nabla", "--rel", "W=nabla", "--rel", "S1=nabla",
        "--a", "0", "--b", "1", "--chain", "0,1",
    )
    assert res.returncode == 1
    assert "no directed Gumm system" in res.stderr


_DAY = ("--theorem", "day", "--rel", "Theta=nabla", "--rel", "S=nabla", "--b", "1")
_TURTT = (
    "--theorem", "turtt", "--rel", "R=nabla", "--rel", "V=nabla", "--rel", "W=nabla",
    "--rel", "S1=nabla", "--a", "0", "--b", "1",
)


@pytest.mark.parametrize(
    "args, bad",
    [
        (_DAY + ("--a", "-1", "--c", "1"), "a=-1"),
        (_DAY + ("--a", "0", "--c", "9"), "c=9"),
        (_DAY + ("--a", "0", "--c", "-1"), "c=-1"),
        (_TURTT + ("--chain", "0,-1"), "chain[1]=-1"),
    ],
    ids=["a-negative", "c-too-big", "c-negative", "chain-negative"],
)
def test_witness_element_outside_universe_exit_two(args, bad):
    res = run_cli("witness", "--algebra", "l2", *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"element {bad} is outside the universe 0..1" in res.stderr


_TURT_BASE = (
    "--theorem", "turt", "--rel", "R=nabla", "--rel", "V=nabla", "--rel", "W=nabla",
    "--a", "0", "--b", "1", "--chain", "0,1",
)
_DAY_BASE = ("--theorem", "day", "--a", "0", "--b", "1", "--c", "1")


@pytest.mark.parametrize(
    "args, message",
    [
        (_TURT_BASE + ("--rel", "S1=nabla", "--rel", "S3=nabla"), "--rel S2 is missing"),
        (_TURT_BASE + ("--rel", "S2=nabla"), "--rel S1 is missing"),
        (_TURT_BASE + ("--rel", "S1=nabla", "--rel", "X=nabla"), "unknown --rel name 'X'"),
        (_TURT_BASE + ("--rel", "S1=nabla", "--rel", "S01=nabla"), "unknown --rel name 'S01'"),
        (_TURT_BASE + ("--rel", "S1=nabla", "--rel", "Theta=nabla"), "unknown --rel name 'Theta'"),
        (_TURT_BASE + ("--rel", "S1=nabla", "--rel", "S1=delta"), "--rel S1 is given twice"),
        (_TURT_BASE + ("--rel", "S1=nabla", "--rel", "R=delta"), "--rel R is given twice"),
        (_DAY_BASE + ("--rel", "Theta=nabla", "--rel", "S=nabla", "--rel", "X=delta"), "unknown --rel name 'X'"),
        (_DAY_BASE + ("--rel", "Theta=nabla", "--rel", "S=nabla", "--rel", "S1=delta"), "unknown --rel name 'S1'"),
        (_DAY_BASE + ("--rel", "Theta=nabla", "--rel", "S=nabla", "--rel", "S=delta"), "--rel S is given twice"),
    ],
    ids=[
        "turt-gap", "turt-no-s1", "turt-unknown", "turt-leading-zero", "turt-day-name",
        "turt-s-twice", "turt-r-twice", "day-unknown", "day-chain-name", "day-s-twice",
    ],
)
def test_witness_rel_names_exit_two(args, message):
    # every --rel is used: a name the theorem does not read, a gap in the
    # S-chain or a name given twice is a usage error, not silently dropped
    res = run_cli("witness", "--algebra", "l2", *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert message in res.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (_TURT_BASE + ("--rel", "S1=nabla", "--c", "7"), "--c does not apply to turt/turtt"),
        (
            ("--theorem", "turtt", "--rel", "R=nabla", "--rel", "V=nabla", "--rel", "W=nabla",
             "--rel", "S1=nabla", "--a", "0", "--b", "1", "--chain", "0,1", "--c", "1"),
            "--c does not apply to turt/turtt",
        ),
        (
            _DAY_BASE + ("--rel", "Theta=nabla", "--rel", "S=nabla", "--chain", "0,1"),
            "--chain does not apply to day",
        ),
    ],
    ids=["turt-c", "turtt-c", "day-chain"],
)
def test_witness_unused_element_flags_exit_two(args, message):
    # turt/turtt take c from --chain and day takes no chain, so the other
    # flag would be dropped unread
    res = run_cli("witness", "--algebra", "l2", *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert message in res.stderr


def test_witness_bad_chain_exit_two():
    res = run_cli(
        "witness", "--algebra", "l2", "--theorem", "turt",
        "--rel", "R=nabla", "--rel", "V=nabla", "--rel", "W=nabla", "--rel", "S1=nabla",
        "--a", "0", "--b", "1", "--chain", "0,x,1",
    )
    assert res.returncode == 2
    assert "bad --chain '0,x,1': expected comma-separated integers" in res.stderr
    assert "int()" not in res.stderr


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_cap_must_be_positive(cap):
    res = run_cli("check", "--algebra", "l2", "--identity", "(1.1)", "--cap", cap)
    assert res.returncode == 2
    assert res.stdout == ""
    assert f"cap must be a positive integer, got '{cap}'" in res.stderr
    assert "cap exceeded" not in res.stderr


def test_catalog_lists_labels():
    res = run_cli("catalog")
    assert res.returncode == 0
    for label in ("(1.1)", "(turt)", "(a3)", "(D5)", "(day)"):
        assert label in res.stdout


def test_catalog_params():
    res = run_cli("catalog", "--param", "m=inf", "--param", "k=3")
    assert res.returncode == 0
    assert ";^inf" in res.stdout


def test_catalog_exponent_bounds_are_tight():
    # the printed numbers must fit the interpreter's int-to-text limit; the
    # largest h or k a usage error names is accepted, and one more is not
    argv = ["check", "--algebra", "l2", "--identity", "(a1)", "--param"]
    assert cli.main(argv + ["h=14283"]) == 0
    assert cli.main(argv + ["h=14284"]) == 2
    with pytest.raises(ValueError, match="k must be at most") as e:
        catalog_entry("(a1)", k=10**4300)
    k_max = int(re.search(r"at most (\d+)", str(e.value)).group(1))
    catalog_entry("(a1)", k=k_max)
    with pytest.raises(ValueError, match="k must be at most"):
        catalog_entry("(a1)", k=k_max + 1)


def test_catalog_chain_length_bound_is_tight(capsys):
    # the right sides of (turt) and (turtt) nest l+3 operators deep; the
    # largest l a usage error names reaches the parser's depth bound, runs,
    # and one more is refused
    argv = ["check", "--algebra", "l2", "--identity", "(turt)", "--mode", "sample", "--samples", "1", "--param"]
    assert cli.main(argv + ["l=1000"]) == 2
    l_max = int(re.search(r"l must be at most (\d+)", capsys.readouterr().err).group(1))
    for label in ("(turt)", "(turtt)"):
        assert identities._depth(catalog_entry(label, l=l_max).rhs) == identities._MAX_DEPTH
    assert cli.main(argv + [f"l={l_max}"]) == 0
    assert cli.main(argv + [f"l={l_max + 1}"]) == 2
    assert f"l must be at most {l_max}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("S:REFL |- " + "(" * 400 + "S" + ")" * 400 + " <= S", "more than 100 parentheses deep"),
        ("S:REFL |- " + "conv(" * 101 + "S" + ")" * 101 + " <= S", "more than 100 parentheses deep"),
        ("S:REFL |- S <= S" + " ; S" * 101, "more than 100 operators deep"),
    ],
    ids=["parentheses", "calls", "chain"],
)
def test_deeply_nested_text_exit_two(text, message, capsys):
    # the parser refuses what it, the printer and the compiler could not
    # recurse through, instead of raising RecursionError
    assert cli.main(["check", "--algebra", "l2", "--identity-text", text]) == 2
    assert message in capsys.readouterr().err


def test_nesting_at_the_depth_bound_parses():
    parse_identity("S:REFL |- " + "conv(" * 100 + "S" + ")" * 100 + " <= S")
    parse_identity("S:REFL |- S <= S" + " ; S" * 100)


def test_exhaustive_check_over_the_cap_exit_three(capsys):
    # (turt) with l=50 quantifies 53 relations, 4^53 assignments on l2; the
    # count is refused before the first assignment runs
    argv = ["check", "--algebra", "l2", "--identity", "(turt)", "--param", "l=50"]
    assert cli.main(argv) == 3
    assert f"assignments cap exceeded: reached {4**53}, limit {2**20}" in capsys.readouterr().err
    # (turt) with l=2 runs 4^5 = 1024 assignments: a cap of 1024 admits them
    assert cli.main(["check", "--algebra", "l2", "--identity", "(turt)", "--cap", "1024"]) == 0
    assert cli.main(["check", "--algebra", "l2", "--identity", "(turt)", "--cap", "1023"]) == 3


def test_sampled_check_over_the_cap_exit_three(capsys):
    # 10^8 draws exceed the default cap of 2^20, so none is drawn
    argv = ["check", "--algebra", "l2", "--identity", "(B1)", "--param", "m=inf", "--mode", "sample"]
    assert cli.main(argv + ["--samples", "100000000"]) == 3
    assert f"samples cap exceeded: reached 100000000, limit {2**20}" in capsys.readouterr().err
    assert cli.main(argv + ["--samples", "8", "--cap", "8"]) == 0
    assert cli.main(argv + ["--samples", "9", "--cap", "8"]) == 3


def test_image_tables_over_the_cap_exit_three(tmp_path, capsys):
    # a binary operation on 400 elements would take 5.12 M image-table
    # entries, above the cap of 2^22
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "size": 400, "operations": [{"symbol": "f", "arity": 2, "table": [0] * 400**2}]}))
    assert cli.main(["enumerate", "--algebra", str(path), "--kind", "tol"]) == 3
    assert f"image-table cap exceeded: reached 5120000, limit {2**22}" in capsys.readouterr().err


def test_timings_flag_off_by_default():
    plain = run_cli("check", "--algebra", "l2", "--identity", "(1.1)")
    timed = run_cli("check", "--algebra", "l2", "--identity", "(1.1)", "--timings")
    assert "time-ms" not in plain.stdout
    assert "time-ms" in timed.stdout


def test_one_element_algebra_day(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(
        json.dumps(
            {"name": "unit", "size": 1, "operations": [{"symbol": "f", "arity": 1, "table": [0]}]}
        ),
        encoding="utf-8",
    )
    res = run_cli("find-terms", "--algebra", str(path), "--family", "day")
    assert res.returncode == 0
    assert "FOUND k=0" in res.stdout


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    # only user mistakes exit 2; a KeyError from inside a command is a bug
    # and must surface as one
    from relmod import cli

    def broken(args, alg):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "_cmd_enumerate", broken)
    with pytest.raises(KeyError):
        cli.main(["enumerate", "--algebra", "l2", "--kind", "refl"])


def test_internal_value_error_is_not_a_usage_error(patch_kernel):
    # a ValueError from a relation operator's kernel is a bug, not a user
    # mistake, so it surfaces instead of exiting 2
    def broken(*args, **kwargs):
        raise ValueError("internal")

    patch_kernel("_compose", broken)
    with pytest.raises(ValueError, match="internal"):
        cli.main(["check", "--algebra", "l2", "--identity", "(1.1)"])


_DAY_L2 = ("witness", "--algebra", "l2") + _DAY_BASE


@pytest.mark.parametrize(
    "args, message",
    [
        (("catalog", "--param", "k=1"), "k must be an integer >= 2, got 1"),
        (("check", "--algebra", "l2", "--identity", "(A1)", "--param", "m=1"), "m must be an integer >= 2"),
        (("check", "--algebra", "l2", "--identity", "(a1)", "--param", "h=20000"), "h must be at most 14283 when k=2"),
        (("check", "--algebra", "l2", "--identity", "(1.1)", "--sort", "X=CON"), "no quantifier named 'X'"),
        (_DAY_L2 + ("--rel", "Theta=nabla", "--rel", "S=0-7"), "bad --rel 'S=0-7'"),
        (_DAY_L2 + ("--rel", "Theta=nabla", "--rel", "S=delta+x"), "bad --rel 'S=delta+x'"),
    ],
    ids=["catalog-k", "check-m", "check-h", "sort-name", "rel-range", "rel-term"],
)
def test_library_input_errors_exit_two(args, message, capsys):
    # the user-input errors the library reports as ValueError reach the
    # user as usage errors
    assert cli.main(list(args)) == 2
    assert message in capsys.readouterr().err


def test_unreadable_algebra_file_exit_two(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    assert cli.main(["enumerate", "--algebra", str(binary), "--kind", "refl"]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err
    assert cli.main(["enumerate", "--algebra", str(tmp_path), "--kind", "refl"]) == 2
    assert "cannot read algebra file" in capsys.readouterr().err


def test_readme_cli_commands_parse():
    # every relmod command the README shows, backslash-continued lines joined,
    # is accepted by the parser, so a deleted flag cannot linger in the docs
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    lines = text.replace("\\\n", " ").splitlines()
    commands = [line for line in lines if line.startswith("relmod ")]
    assert len(commands) >= 10
    for line in commands:
        cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
