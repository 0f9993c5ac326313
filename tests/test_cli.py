import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nestedamc
from nestedamc.circuit import NestedInstance
from nestedamc.cli import main
from nestedamc.cnf import parse_cnf
from nestedamc.errors import ConfigError

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
        "compile bytes_estimate 4456", "smooth nodes 15", "smooth edges 14",
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
definability queries 4
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


def test_non_finite_utility_is_input_error(capsys, tmp_path):
    # accepted, 1e400 overflowed to inf: solve printed nan and oracle -inf
    path = tmp_path / "inf.pl"
    path.write_text("0.0::b.\n?::a.\nd :- b.\nutility(d, 1e400).\n")
    for cmd in ("solve", "oracle"):
        code, out, err = run(capsys, cmd, "--task", "meu", str(path))
        assert (code, out) == (1, "")
        assert err == "error: line 4: utility 1e400 is not a finite number\n"


def test_cli_imports_only_the_standard_library():
    # -S keeps site-packages off the path, so a third-party import fails outright
    src = str(Path(nestedamc.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, nestedamc.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout.split()
    top = {m.split(".")[0] for m in loaded}
    assert top - set(sys.stdlib_module_names) == {"__main__", "nestedamc"}


def test_every_public_definition_is_used_or_documented():
    # a public top-level function or class of the package must be referenced
    # by code in src/, scripts/ or perfbench/ (a name, an attribute or a
    # string naming it) or be named in README.md; otherwise only tests reach it
    root = Path(nestedamc.__file__).resolve().parents[2]
    package = Path(nestedamc.__file__).resolve().parent
    used = set()
    for folder in ("src", "scripts", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    used.add(node.value)
    readme = (root / "README.md").read_text()
    unused = [
        f"{path.stem}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and not re.search(rf"\b{node.name}\b", readme)
    ]
    assert unused == []
