import ast
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import nestedamc
from nestedamc import cli, programs
from nestedamc.circuit import NestedInstance
from nestedamc.cli import main
from nestedamc.cnf import parse_cnf
from nestedamc.errors import CapacityError, ConfigError

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"

LEX = "0.4::a.\n0.6::b.\nc :- a.\nd :- b.\nquery(c).\n"
LEX_MAP = "0.4::a.\n0.6::b.\nc :- a.\nd :- b.\nmap(c).\n"
LEU = "?::a.\n0.6::b.\nc :- a.\nd :- b.\nutility(c, 40).\nutility(\\+d, 20).\n"
LSM = "0.4::a.\n0.6::b.\nc :- a.\nd :- b.\ne :- \\+f.\nf :- \\+e.\nquery(e).\n"
AEX_CNF = """\
p cnf 4 4
c s probability maxtimes identity
c o 3 0
c n 1 a
c n 2 b
c n 3 c
c n 4 d
c wi 1 0.4 0
c wi -1 0.6 0
c wi 2 0.6 0
c wi -2 0.4 0
-1 3 0
1 -3 0
-2 4 0
2 -4 0
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("lex.pl", LEX),
        ("lex_map.pl", LEX_MAP),
        ("leu.pl", LEU),
        ("lsm.pl", LSM),
        ("aex.cnf", AEX_CNF),
    ):
        f = tmp_path / name
        f.write_text(text)
        paths[name] = str(f)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_succ(files, capsys):
    code, out, _ = run(capsys, "solve", "--task", "succ", files["lex.pl"])
    assert code == 0
    assert "value: 0.4" in out


def test_solve_meu_with_witness(files, capsys):
    code, out, _ = run(capsys, "solve", "--task", "meu", files["leu.pl"])
    assert code == 0
    assert "value: 48.0" in out
    assert "witness: a" in out


def test_solve_smp(files, capsys):
    code, out, _ = run(capsys, "solve", "--task", "smp", files["lsm.pl"])
    assert code == 0
    assert "value: 0.5" in out


def test_solve_and_oracle_agree_on_examples(files, capsys):
    for task, path in (
        ("succ", "lex.pl"),
        ("map", "lex_map.pl"),
        ("meu", "leu.pl"),
        ("smp", "lsm.pl"),
    ):
        _, out1, _ = run(capsys, "solve", "--task", task, files[path], "--format", "kv")
        _, out2, _ = run(capsys, "oracle", "--task", task, files[path], "--format", "kv")
        solved = [l for l in out1.splitlines() if l.startswith("result ")]
        oracled = [l for l in out2.splitlines() if l.startswith("result ")]
        assert solved == oracled


def test_compile_eval_verify_round(files, capsys, tmp_path):
    nnf = str(tmp_path / "out.nnf")
    code, _, _ = run(capsys, "compile", files["aex.cnf"], "-o", nnf, "--mode", "xd")
    assert code == 0
    code, out, _ = run(capsys, "eval", nnf, files["aex.cnf"])
    assert code == 0
    assert "value: 0.6" in out
    # pre-smoothed emission evaluates identically
    smoothed = str(tmp_path / "smoothed.nnf")
    code, out, _ = run(
        capsys, "compile", files["aex.cnf"], "-o", smoothed, "--mode", "xd",
        "--smooth", "--format", "kv",
    )
    assert code == 0
    assert any(line.startswith("smooth nodes ") for line in out.splitlines())
    code, out, _ = run(capsys, "eval", smoothed, files["aex.cnf"])
    assert code == 0
    assert "value: 0.6" in out
    code, out, _ = run(capsys, "verify", nnf, files["aex.cnf"], "--smooth", "--format", "kv")
    assert code == 0
    assert "verify decomposable True" in out
    assert "verify outer_first_mod_defs True" in out
    assert "verify model_equivalent True" in out


LSM_CNF = """\
p cnf 6 8
c s natpair probability ratio
c o 1 2 0
c n 1 a
c n 2 b
c n 3 c
c n 4 d
c n 5 e
c n 6 f
c wi -5 0 1 0
c wo 1 0.4 0
c wo -1 0.6 0
c wo 2 0.6 0
c wo -2 0.4 0
-1 3 0
1 -3 0
-2 4 0
2 -4 0
-5 -6 0
5 6 0
"""


def test_counting_pair_cnf_through_compile_and_eval(capsys, tmp_path):
    # the even-choice-pair completion as a labeled file: every world has two
    # models, one containing e, so the normalised query value is one half
    cnf = tmp_path / "lsm.cnf"
    cnf.write_text(LSM_CNF)
    nnf = str(tmp_path / "lsm.nnf")
    code, _, _ = run(capsys, "compile", str(cnf), "-o", nnf, "--mode", "xd")
    assert code == 0
    code, out, _ = run(capsys, "eval", nnf, str(cnf))
    assert code == 0
    assert "value: 0.5" in out
    code, out, _ = run(capsys, "oracle", str(cnf))
    assert code == 0
    assert "value: 0.5" in out


def test_eval_var_count_mismatch_is_input_error(files, capsys, tmp_path):
    nnf = tmp_path / "bad.nnf"
    nnf.write_text("nnf 1 0 9\nL 9\n")
    code, _, err = run(capsys, "eval", str(nnf), files["aex.cnf"])
    assert code == 1
    assert "error" in err


def test_eval_refuses_a_circuit_with_other_models(capsys, tmp_path):
    # the true circuit over two variables has four models, (1 2) three:
    # verification passes every structural check and fails equivalence
    cnf = tmp_path / "t.cnf"
    cnf.write_text("p cnf 2 1\nc o 1 0\n1 2 0\n")
    nnf = tmp_path / "c.nnf"
    nnf.write_text("nnf 1 0 2\nA 0\n")
    code, out, err = run(capsys, "eval", str(nnf), str(cnf))
    assert code == 1
    assert out == ""
    assert err.startswith("error: circuit failed verification")
    assert "model_equivalent=False" in err
    code, out, _ = run(capsys, "eval", "--no-verify", str(nnf), str(cnf))
    assert code == 0
    assert "value: 4.0" in out


def test_verify_rejects_variables_beyond_the_cnf(capsys, tmp_path):
    cnf = tmp_path / "two.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    nnf = tmp_path / "three.nnf"
    nnf.write_text("nnf 3 2 3\nL 1\nL 3\nA 2 0 1\n")
    for extra in ((), ("--smooth",)):
        code, out, err = run(capsys, "verify", str(nnf), str(cnf), "--format", "kv", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_defined_subcommand(files, capsys):
    code, out, _ = run(capsys, "defined", files["aex.cnf"])
    assert code == 0
    assert "base: c" in out
    assert "defined: a" in out
    assert "queries: 3" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.pl"
    bad.write_text("p :- p.\nquery(p).\n")
    code, _, err = run(capsys, "solve", "--task", "succ", str(bad))
    assert code == 1
    assert "error" in err


def test_capacity_exit_code(files, capsys, tmp_path):
    big = tmp_path / "big.cnf"
    lines = ["p cnf 30 0"]
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "oracle", str(big), "--max-oracle-vars", "24")
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("eval", "t.nnf", "t.cnf", "--seed", "1"), "error: unrecognized arguments: --seed 1"),
    (("solve", "prog.pl"), "error: the following arguments are required: --task"),
])
def test_usage_error_is_input_error(capsys, argv, message):
    # exit code 2 is the capacity error's
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    err = capsys.readouterr().err
    assert e.value.code == 1
    assert err.startswith("usage: nestedamc")
    assert err.rstrip().endswith(message)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["solve", "--help"])
    assert e.value.code == 0
    assert "--task" in capsys.readouterr().out


@pytest.mark.parametrize("mb", ["0", "-1"])
def test_non_positive_cache_budget_is_input_error(files, capsys, mb):
    code, out, err = run(capsys, "solve", "--task", "succ", files["lex.pl"], f"--cache-mb={mb}")
    assert code == 1
    assert err.startswith("error: cache budget must be positive")
    assert out == ""


def test_negative_oracle_guard_is_input_error(files, capsys):
    code, out, err = run(capsys, "oracle", files["aex.cnf"], "--max-oracle-vars=-1")
    assert code == 1
    assert err.startswith("error: oracle guard must not be negative")
    assert out == ""


def test_structured_output_deterministic(files, capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "solve", "--task", "smp", files["lsm.pl"], "--format", "kv",
            "--seed", "11",
        )
        assert code == 0
        outs.append(out.encode())
    assert outs[0] == outs[1]
    assert b"result value 0.5" in outs[0]


@pytest.mark.parametrize("span", ["5..2", "-2..1"])
def test_separation_empty_or_negative_range_is_input_error(capsys, span):
    code, out, err = run(capsys, "separation", f"--n={span}", "--format", "kv")
    assert code == 1
    assert err.startswith(f"error: bad range '{span}'")
    assert out == ""


def test_separation_table_monotone(capsys):
    code, out, _ = run(capsys, "separation", "--n", "2..6", "--format", "kv")
    assert code == 0
    kv = {}
    for line in out.splitlines():
        stage, metric, value = line.split()
        kv[metric] = int(value)
    for n in range(2, 7):
        assert kv[f"n{n}_x_boundary"] >= 2 ** n
        assert kv[f"n{n}_xd_nodes"] <= 32 * n
    xs = [kv[f"n{n}_x_nodes"] for n in range(2, 7)]
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_stats_file_written(capsys, tmp_path):
    stats = tmp_path / "stats.kv"
    code, out, _ = run(
        capsys, "solve", "--task", "succ", str(PROGRAMS / "lex.pl"),
        "--mode", "xd", "--format", "kv", "--stats", str(stats),
    )
    assert code == 0
    # the memory lines go to the stats file only: stdout is the kv golden
    assert out == GOLDEN_SOLVE["succ", "lex.pl"]
    lines = stats.read_text().splitlines()
    metrics = out.splitlines()[:-1]  # all but the result line
    assert lines[:len(metrics)] == metrics
    assert lines[len(metrics):len(metrics) + 3] == [
        "compile bytes_estimate 5252", "smooth nodes 15", "smooth edges 14",
    ]
    assert [l.split()[:2] for l in lines[len(metrics) + 3:]] == [
        ["time", stage] for stage in ("build", "order", "compile", "evaluate")
    ]


# `solve --format kv` stdout of the committed examples (mode xd), byte for byte
GOLDEN_SOLVE = {
    ("succ", "lex.pl"): """\
definability defined 0
definability queries 0
order separator 0
order width 1
compile nodes 15
compile edges 14
compile decisions 2
compile propagations 4
compile cache_hits 0
compile cache_entries 2
result value 0.4
""",
    ("map", "lex_map.pl"): """\
definability defined 1
definability queries 3
order separator 0
order width 1
compile nodes 15
compile edges 14
compile decisions 2
compile propagations 4
compile cache_hits 0
compile cache_entries 2
result value 0.6
result witness ~c
""",
    ("meu", "leu.pl"): """\
definability defined 1
definability queries 3
order separator 0
order width 1
compile nodes 15
compile edges 14
compile decisions 2
compile propagations 4
compile cache_hits 0
compile cache_entries 2
result value 48.0
result witness a
""",
    ("smp", "lsm.pl"): """\
definability defined 2
definability queries 3
order separator 0
order width 1
compile nodes 22
compile edges 21
compile decisions 3
compile propagations 6
compile cache_hits 0
compile cache_entries 3
result value 0.5
""",
}

# the same examples in mode x (strict outer-first: no definability, the
# outer atoms form the separator); mode free prints the xd bytes above, since
# it also reports the defined inner atoms and these orders need no separator
GOLDEN_SOLVE_X = {
    ("succ", "lex.pl"): """\
definability defined 0
definability queries 0
order separator 0
order width 1
compile nodes 15
compile edges 14
compile decisions 2
compile propagations 4
compile cache_hits 0
compile cache_entries 2
result value 0.4
""",
    ("map", "lex_map.pl"): """\
definability defined 0
definability queries 0
order separator 1
order width 1
compile nodes 16
compile edges 16
compile decisions 2
compile propagations 4
compile cache_hits 1
compile cache_entries 2
result value 0.6
result witness ~c
""",
    ("meu", "leu.pl"): """\
definability defined 0
definability queries 0
order separator 1
order width 1
compile nodes 16
compile edges 16
compile decisions 2
compile propagations 4
compile cache_hits 1
compile cache_entries 2
result value 48.0
result witness a
""",
    ("smp", "lsm.pl"): """\
definability defined 0
definability queries 0
order separator 2
order width 1
compile nodes 28
compile edges 36
compile decisions 4
compile propagations 10
compile cache_hits 3
compile cache_entries 4
result value 0.5
""",
}

GOLDEN_SEPARATION = """\
separation n2_x_nodes 21
separation n2_x_boundary 4
separation n2_xd_nodes 15
separation n3_x_nodes 41
separation n3_x_boundary 8
separation n3_xd_nodes 22
separation n4_x_nodes 77
separation n4_x_boundary 16
separation n4_xd_nodes 29
separation n5_x_nodes 145
separation n5_x_boundary 32
separation n5_xd_nodes 36
"""


@pytest.mark.parametrize("task,program", sorted(GOLDEN_SOLVE))
def test_solve_kv_golden(capsys, task, program):
    code, out, err = run(
        capsys, "solve", "--task", task, str(PROGRAMS / program),
        "--mode", "xd", "--format", "kv",
    )
    assert (code, err) == (0, "")
    assert out == GOLDEN_SOLVE[task, program]


@pytest.mark.parametrize("mode", ["x", "free"])
@pytest.mark.parametrize("task,program", sorted(GOLDEN_SOLVE))
def test_solve_kv_golden_in_x_and_free_modes(capsys, task, program, mode):
    code, out, err = run(
        capsys, "solve", "--task", task, str(PROGRAMS / program),
        "--mode", mode, "--format", "kv",
    )
    assert (code, err) == (0, "")
    assert out == (GOLDEN_SOLVE_X if mode == "x" else GOLDEN_SOLVE)[task, program]


def test_separation_kv_golden(capsys):
    code, out, err = run(capsys, "separation", "--n", "2..5", "--format", "kv")
    assert (code, err) == (0, "")
    assert out == GOLDEN_SEPARATION


# malformed inputs end with exit code 1 and one `error:` line, not a traceback


def test_nnf_header_with_non_integer_fields_is_input_error(files, capsys, tmp_path):
    nnf = tmp_path / "bad.nnf"
    nnf.write_text("nnf x y z\nL 1\n")
    code, out, err = run(capsys, "eval", str(nnf), files["aex.cnf"])
    assert code == 1
    assert err.startswith("error: line 1: malformed header")
    assert out == ""


def test_truncated_circuit_is_input_error(capsys, tmp_path):
    # the chain has 30 variables, above the equivalence check's 20, so a
    # circuit cut short used to evaluate to 11.0 instead of 31.0
    cnf = tmp_path / "chain.cnf"
    cnf.write_text("p cnf 30 29\n" + "".join(f"-{i} {i + 1} 0\n" for i in range(1, 30)))
    nnf = tmp_path / "chain.nnf"
    assert run(capsys, "compile", str(cnf), "-o", str(nnf), "--mode", "free")[0] == 0
    lines = nnf.read_text().splitlines(keepends=True)
    assert lines[0] == "nnf 171 413 30\n"
    code, out, _ = run(capsys, "eval", str(nnf), str(cnf))
    assert (code, out) == (0, "value: 31.0\n")
    nnf.write_text("".join(lines[:-3]))
    code, out, err = run(capsys, "eval", str(nnf), str(cnf))
    assert (code, out) == (1, "")
    assert err == "error: header declares 171 nodes and 413 edges, the file has 168 and 409\n"


def test_defined_non_integer_base_is_input_error(files, capsys):
    code, out, err = run(capsys, "defined", files["aex.cnf"], "--base", "a")
    assert code == 1
    assert err.startswith("error: bad --base 'a'")
    assert out == ""


def test_non_ascii_input_is_input_error(capsys, tmp_path):
    src = tmp_path / "accent.pl"
    src.write_bytes(LEX.encode() + "% caf\u00e9\n".encode("utf-8"))
    code, out, err = run(capsys, "solve", "--task", "succ", str(src))
    assert code == 1
    assert err.startswith("error: line 6: non-ASCII byte in ")
    assert out == ""


@pytest.mark.parametrize("task, text", [
    ("map", "0.5::f0. ?::d0. r0 :- f0, d0. map(f0)."),
    ("succ", "0.5::f0. ?::d0. ?::d1. r0 :- d1, d0. query(r0)."),
])
def test_decision_facts_in_success_and_map_tasks_are_input_errors(capsys, tmp_path, task, text):
    # both literals of a decision fact would weigh 1 in these tasks, and the
    # value would sum over the decisions: the MAP program solved to 1.0 with
    # witness ~f0, where the optimum is 0.5, and the success program to 1.0
    src = tmp_path / "decisions.pl"
    src.write_text(text)
    code, out, err = run(capsys, "solve", "--task", task, str(src))
    assert (code, out) == (1, "")
    assert err == "error: decision facts are not supported for success or MAP tasks\n"


PAIRING_ERRORS = [
    ("natpair mapargmax prob2map", "prob2map expects inner semiring probability"),
    ("eu probability euproject", "euproject expects outer semiring meuargmax"),
    ("natpair maxtimes ratio", "ratio expects outer semiring probability"),
    ("probability eu identity",
     "identity transform between incompatible value domains (probability -> eu)"),
    ("probability mapargmax identity",
     "identity transform between incompatible value domains (probability -> mapargmax)"),
]


@pytest.mark.parametrize("header, message", PAIRING_ERRORS)
def test_transform_that_does_not_fit_the_semirings_is_input_error(
    capsys, tmp_path, header, message
):
    path = tmp_path / "t.cnf"
    path.write_text(f"p cnf 1 1\nc s {header}\n1 0\n")
    with pytest.raises(ConfigError) as e:
        NestedInstance(parse_cnf(path.read_text()))
    assert str(e.value) == message
    code, _, err = run(capsys, "oracle", str(path))
    assert code == 1
    assert err == f"error: {message}\n"


def test_mapargmax_label_outside_its_domain_is_input_error(capsys, tmp_path):
    # accepted, these labels would make oracle and eval print different values
    path = tmp_path / "neg.cnf"
    path.write_text(
        "p cnf 2 1\nc s probability mapargmax prob2map\nc o 1 0\n"
        "c wo 1 -0.3 0\nc wo -1 nan 0\n1 2 0\n"
    )
    for argv in (["oracle", str(path)], ["compile", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: line 4: mapargmax label -0.3 outside the semiring's domain\n"


def test_infinite_probability_label_is_input_error(capsys, tmp_path):
    # accepted, inf times the zero labels of 2 made oracle and the compiled
    # circuit's eval both print nan and exit 0
    path = tmp_path / "inf.cnf"
    path.write_text("p cnf 2 0\nc wi 1 inf 0\nc wi 2 0 0\nc wi -2 0 0\n")
    for argv in (["oracle", str(path)], ["compile", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "error: line 2: probability label inf outside the semiring's domain\n"


# one labeled CNF per parse error: (text, line or None, message)
CNF_ERRORS = [
    ("p cnf 1 0\np cnf 1 0\n", 2, "duplicate problem line"),
    ("p dnf 1 0\n", 1, "malformed problem line"),
    ("p cnf one 0\n", 1, "malformed problem line"),
    ("p cnf -1 0\n", 1, "negative counts in problem line"),
    ("p cnf 1 0\nc s probability probability\n", 2, "semiring header needs three tokens"),
    ("p cnf 1 0\nc s probability probability sum\n", 2, "unknown token sum"),
    ("p cnf 1 0\nc o 1\n", 2, "outer variable list not terminated by 0"),
    ("p cnf 1 0\nc o x 0\n", 2, "bad variable x"),
    ("p cnf 1 0\nc wi 1 0.5\n", 2, "weight line not terminated by 0"),
    ("p cnf 1 0\nc wi 1 0\n", 2, "weight line too short"),
    ("p cnf 1 0\nc wi x 0.5 0\n", 2, "bad literal x"),
    ("p cnf 1 0\nc wi 1 half 0\n", 2, "bad weight fields half"),
    ("p cnf 1 0\nc o 1 0\nc wi 1 0.5 0\n", 3, "inner weight on outer literal 1"),
    ("p cnf 1 0\nc wo -1 0.5 0\n", 2, "outer weight on inner literal -1"),
    ("1 0\np cnf 1 1\n", 1, "clause before problem line"),
    ("p cnf 1 1\n1 x 0\n", 2, "bad literal in clause"),
    ("p cnf 1 1\n1\n", 2, "clause not terminated by 0"),
    ("c no problem line\n", None, "missing problem line"),
    ("p cnf 1 0\nc o 2 0\n", None, "outer variable 2 out of range"),
]

# one circuit per parse error, read against `p cnf 2 0`
NNF_ERRORS = [
    ("nnf 1 0 2\nnnf 1 0 2\nL 1\n", 2, "duplicate header"),
    ("nnf 1 0\nL 1\n", 1, "malformed header"),
    ("L 1\nnnf 1 0 2\n", 1, "node line before header"),
    ("nnf 1 0 2\nL 0\n", 2, "0 is not a literal"),
    ("nnf 3 2 2\nL 1\nL 2\nA 3 0 1\n", 4, "child count mismatch"),
    ("nnf 3 2 2\nL 1\nL -1\nO 1 1 0 1\n", 4, "child count mismatch"),
    ("nnf 1 0 2\nX 1\n", 2, "unknown node kind X"),
    ("nnf 1 0 2\nL one\n", 2, "malformed node line"),
    ("nnf 0 0 2\n", None, "empty circuit"),
]

# one program per parse or task error: (task, text, line or None, message)
PROGRAM_ERRORS = [
    ("succ", "1.5::a.\nquery(a).\n", 1, "probability 1.5 outside [0,1]"),
    ("succ", "0.5::a.\n0.4::a.\nquery(a).\n", 2, "duplicate probabilistic fact a"),
    ("meu", "?::d.\n?::d.\nutility(d, 1).\n", 2, "duplicate decision fact d"),
    ("meu", "?::d.\n0.5::e.\nd :- e.\n", None, "atom d is both a decision fact and a rule head"),
    ("succ", "0.5::a.\nquery(a).\nfoo bar.\n", 3, "unrecognised statement 'foo bar'"),
    ("map", "0.5::a.\nmap(a).\nevidence(a, true).\n", None,
     "an atom cannot be both a map query and evidence"),
    ("meu", "?::d.\n0.5::a.\nutility(a, 1).\nevidence(a, true).\n", None,
     "evidence is not supported for expected-utility tasks"),
]


def _error_line(line, message):
    return f"error: {message}\n" if line is None else f"error: line {line}: {message}\n"


@pytest.mark.parametrize("text, line, message", CNF_ERRORS)
def test_malformed_cnf_is_input_error(capsys, tmp_path, text, line, message):
    path = tmp_path / "bad.cnf"
    path.write_text(text)
    assert run(capsys, "oracle", str(path)) == (1, "", _error_line(line, message))


@pytest.mark.parametrize("text, line, message", NNF_ERRORS)
def test_malformed_circuit_is_input_error(capsys, tmp_path, text, line, message):
    cnf, nnf = tmp_path / "t.cnf", tmp_path / "bad.nnf"
    cnf.write_text("p cnf 2 0\n")
    nnf.write_text(text)
    assert run(capsys, "eval", str(nnf), str(cnf)) == (1, "", _error_line(line, message))


@pytest.mark.parametrize("task, text, line, message", PROGRAM_ERRORS)
def test_malformed_program_is_input_error(capsys, tmp_path, task, text, line, message):
    path = tmp_path / "bad.pl"
    path.write_text(text)
    expected = (1, "", _error_line(line, message))
    assert run(capsys, "solve", "--task", task, str(path)) == expected


@pytest.mark.parametrize("header, label, value", [
    ("eu eu identity", "0.5 2", "1.5 2.0"),
    ("natpair natpair identity", "2 3", "3 4"),
])
def test_pair_values_print_both_fields(capsys, tmp_path, header, label, value):
    # the label of 1 plus the unit label of -1, the whole theory inner
    path = tmp_path / "pair.cnf"
    path.write_text(f"p cnf 1 0\nc s {header}\nc wi 1 {label} 0\n")
    assert run(capsys, "oracle", str(path), "--format", "kv") == (0, f"result value {value}\n", "")


def run_huge(tmp_path, count, command):
    """Run `command` on a CNF declaring `count` variables in a child process
    whose address space alone is limited to 512 MiB."""
    path = tmp_path / "huge.cnf"
    path.write_text(f"p cnf {count} 1\n1 0\n")
    src = str(Path(nestedamc.__file__).resolve().parents[1])
    limit = 512 << 20
    return subprocess.run(
        [sys.executable, "-m", "nestedamc.cli", command, str(path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


@pytest.mark.parametrize("count", ["100000000", "99999999999999999999"])
def test_huge_variable_count_meets_the_oracle_guard(tmp_path, count):
    # the declared variables used to be listed in sets before any check, a
    # MemoryError traceback at 10^8 and unbounded growth at 10^20. The
    # address-space limit makes such a regression fail as that MemoryError
    done = run_huge(tmp_path, count, "oracle")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"capacity error: {count} variables exceed the oracle guard of 24\n"


@pytest.mark.parametrize("count", ["100000000", "99999999999999999999"])
def test_huge_variable_count_is_a_capacity_error_when_compiling(tmp_path, count):
    # compile listed every declared variable and ran out of memory: that was
    # a MemoryError traceback with exit 1 and no error line. The theory's own
    # share of the budget now refuses both counts before anything is listed;
    # the limit still bounds a regression that lists them first
    done = run_huge(tmp_path, count, "compile")
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "capacity error: compilation exceeded the cache budget\n"


def test_theory_over_the_budget_is_refused_before_planning(tmp_path, capsys, monkeypatch):
    # 10^6 variables at 360 B each pass the 256 MB budget before the compile
    # builds a node; compile used to plan an order for about 100 s first
    def plan_order(*args, **kwargs):
        raise AssertionError("an order was planned")

    monkeypatch.setattr(cli, "plan_order", plan_order)
    monkeypatch.setattr(programs, "plan_order", plan_order)
    path = tmp_path / "huge.cnf"
    path.write_text("p cnf 1000000 1\n1 0\n")
    code, out, err = run(capsys, "compile", str(path))
    assert (code, out, err) == (2, "", "capacity error: compilation exceeded the cache budget\n")
    with pytest.raises(CapacityError) as e:
        programs.solve_instance(NestedInstance(parse_cnf(path.read_text())))
    assert str(e.value) == "compilation exceeded the cache budget"
    assert e.value.stats.bytes_estimate == 360 * 10**6 + 160


def test_non_finite_utility_is_input_error(capsys, tmp_path):
    # accepted, 1e400 overflowed to inf: solve printed nan and oracle -inf
    path = tmp_path / "inf.pl"
    path.write_text("0.0::b.\n?::a.\nd :- b.\nutility(d, 1e400).\n")
    for cmd in ("solve", "oracle"):
        code, out, err = run(capsys, cmd, "--task", "meu", str(path))
        assert (code, out) == (1, "")
        assert err == "error: line 4: utility 1e400 is not a finite number\n"


def test_conflicting_evidence_is_input_error(capsys, tmp_path):
    # accepted, the last evidence line won: solve printed 0.36
    path = tmp_path / "clash.pl"
    path.write_text("0.4::a.\n0.6::b.\nc :- a.\nquery(b).\nevidence(c, true).\nevidence(c, false).\n")
    code, out, err = run(capsys, "solve", "--task", "succ", str(path))
    assert (code, out) == (1, "")
    assert err == "error: line 6: conflicting evidence for c\n"


def test_meu_value_of_minus_inf_prints_as_minus_inf(capsys, tmp_path):
    # every decision leaves probability 0, which euproject maps to -inf
    cnf = tmp_path / "neginf.cnf"
    cnf.write_text(
        "p cnf 2 1\nc s eu meuargmax euproject\nc o 1 0\n"
        "c wi 2 0 0 0\nc wi -2 0 0 0\nc wo 1 5 0\nc wo -1 0 0\n-1 2 0\n"
    )
    nnf = tmp_path / "neginf.nnf"
    assert run(capsys, "compile", str(cnf), "-o", str(nnf))[0] == 0
    expected = "result value -inf\nresult witness (empty)\n"
    assert run(capsys, "oracle", str(cnf), "--format", "kv") == (0, expected, "")
    assert run(capsys, "eval", str(nnf), str(cnf), "--format", "kv") == (0, expected, "")


def test_cli_imports_only_the_standard_library():
    # -S keeps site-packages off the path, so a third-party import fails outright
    src = str(Path(nestedamc.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, nestedamc.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout.split()
    top = {m.split(".")[0] for m in loaded}
    assert top - set(sys.stdlib_module_names) == {"__main__", "nestedamc"}


ROOT = Path(nestedamc.__file__).resolve().parents[2]


def names_used_by_code():
    """Every name, attribute and string constant in the code of src/,
    scripts/ and perfbench/."""
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    return used


def package_definitions():
    """(qualified name, name) of every top-level function and class of the
    package and of every method of its classes."""
    defined = []
    for path in sorted(Path(nestedamc.__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body if isinstance(item, ast.FunctionDef)
                ]
    return defined


def test_every_public_definition_is_used_or_documented():
    # a public top-level function or class of the package, and a public
    # method of one of its classes, must be referenced by code in src/,
    # scripts/ or perfbench/ (a name, an attribute or a string naming it) or
    # be named in README.md; otherwise only tests reach it
    used = names_used_by_code()
    readme = (ROOT / "README.md").read_text()
    unused = [
        qualified
        for qualified, name in package_definitions()
        if not name.startswith("_")
        and name not in used
        and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def test_every_private_definition_is_used_by_code():
    # a private function, class or method must be referenced by code in
    # src/, scripts/ or perfbench/; a README mention does not count, and
    # dunder methods are called by the language itself
    used = names_used_by_code()
    unused = [
        qualified
        for qualified, name in package_definitions()
        if name.startswith("_") and not name.endswith("__") and name not in used
    ]
    assert unused == []
