"""Tests of the benchmark itself: generators, references and tracing.

Run from the repository root: python3 -m pytest -q perfbench
"""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import families  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gen import equivalence_cnf  # noqa: E402
from nestedamc import programs  # noqa: E402
from nestedamc.circuit import NestedInstance, brute_force_nested  # noqa: E402
from nestedamc.cli import format_value  # noqa: E402

SMALL = [("chain", 6, "map"), ("chain", 4, "meu"), ("chain", 6, "meu"),
         ("forest", 2, "map"), ("forest", 2, "meu")]


def _instance(family, size, task, seed):
    rng = random.Random(seed)
    if family == "bicond":
        return families.bicond(rng, size)
    return getattr(families, family)(rng, size, task)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_programs_parse_as_tight(name):
    for inst in workloads.generate(workloads.WORKLOADS[name], seed=3):
        if inst.text is not None:
            p = programs.parse_program(inst.text)  # raises unless ground and tight
            assert p.rules


@pytest.mark.parametrize("n", [1, 4, 12])
def test_bicond_emits_the_equivalence_clauses(n):
    assert _instance("bicond", n, "map", 0).cnf.clauses == equivalence_cnf(n).clauses


@pytest.mark.parametrize("family,size,task", SMALL + [("bicond", 8, "map")])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_agrees_with_brute_force(family, size, task, seed):
    inst = _instance(family, size, task, seed)
    if inst.cnf is not None:
        nested, names = NestedInstance(inst.cnf), inst.cnf.names
    else:
        p = programs.parse_program(inst.text)
        nested = programs.build_instance(p, programs.TaskKind(task))
        names = nested.cnf.names
    value, witness = format_value(brute_force_nested(nested), nested.cnf.outer_sr, names)
    assert families.close(float(value), inst.value)
    assert witness == inst.witness_string()


def test_spans_nest_within_the_instance_time():
    batch = [_instance("chain", 6, "meu", 0), _instance("forest", 2, "map", 0),
             _instance("bicond", 4, "map", 0)]
    originals = [getattr(o, a) for o, a, _, _ in spans.TARGETS]
    for mode in ("xd", "x"):
        runner = run.Runner(batch, mode)
        tracer = spans.Tracer()
        with tracer.installed():
            runner.run_pass(tracer)
        assert not runner.failures
        assert [getattr(o, a) for o, a, _, _ in spans.TARGETS] == originals
        roots = [s for s in tracer.spans if s.parent < 0]
        assert [s.name for s in roots] == ["solve"] * len(batch)
        names = {s.name for s in tracer.spans}
        assert {"compiler", "circuit.smooth", "circuit.verify", "circuit.evaluate",
                "treedecomp.decompose", "treedecomp.order"} <= names
        assert ("definability" in names) == (mode == "xd")
        for s, self_s in zip(tracer.spans, tracer.self_times()):
            assert s.start <= s.end
            assert self_s >= 0
            if s.parent >= 0:
                parent = tracer.spans[s.parent]
                assert parent.start <= s.start and s.end <= parent.end
                assert parent.instance == s.instance
        traced_times = [s for _, s in runner.times[True]]
        assert [r.duration for r in roots] == traced_times


def test_runner_flags_a_wrong_reference():
    good = _instance("forest", 2, "map", 0)
    bad_value = families.Instance(good.name, good.task, good.value * 1.01,
                                  good.witness, text=good.text)
    flipped = ((good.witness[0][0], not good.witness[0][1]),) + good.witness[1:]
    bad_witness = families.Instance(good.name, good.task, good.value, flipped,
                                    text=good.text)
    runner = run.Runner([good, bad_value, bad_witness], "xd")
    runner.run_pass()
    assert runner.failures == {"wrong_value": 1, "wrong_witness": 1}
    assert runner.attempted == 3
