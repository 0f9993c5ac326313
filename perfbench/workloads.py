"""The benchmark's workloads: which generated instances each one solves, in
which mode, why it was chosen and which layer it should load most.

Sizes were chosen for run length on a 2-core machine, never by whether an
instance fails. Two known scale failures lie outside them by design and stay
with the scale-regression work: map/meu chains at n=80 stop with
CapacityError (the compiler's cache estimate passes its 256 MB budget), and
programs of about 1100 atoms hit RecursionError in order planning.

The instances of one batch take similar time, so the median and the tail
describe the whole batch instead of one size class: with sizes far apart, a
percentile near the jump between two classes moves by the size of the jump.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import families


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # compile mode handed to the pipeline: "xd" or "x"
    batch: tuple  # (family, size, task) per instance
    # Whole passes over the batch in every timed run; with the batch size it
    # fixes the tail percentile.
    min_passes: int
    dominant: str  # the layer predicted to take most of the time
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain-xd", "xd",
            tuple(("chain", n, "map") for n in (24, 25, 26))
            + tuple(("chain", n, "meu") for n in (30, 31, 32)),
            4, "compiler",
            "Compile-bound: most time is in the compiler, so the compiler's "
            "residual-formula rewrite should show here.",
        ),
        Workload(
            "forest-xd", "xd",
            tuple(("forest", k, "map") for k in (15, 16, 17))
            + tuple(("forest", k, "meu") for k in (13, 14, 15)),
            7, "definability+treedecomp",
            "Bound by definability and order planning: Padoa queries per "
            "cluster and min-fill over the separator clique, with almost no "
            "compile time, so compiler changes should bring no gain here.",
        ),
        Workload(
            "strict-sep", "x",
            tuple(("bicond", 12, "map") for _ in range(5)),
            5, "compiler",
            "Strict outer-first mode: circuits grow exponentially, the "
            "component cache gets no hits and definability does not run; the "
            "only workload where smoothing, verification and evaluation get a "
            "visible share, so a compiler change that helps xd but slows "
            "strict mode shows here.",
        ),
    )
}


def generate(workload: Workload, seed: int) -> list:
    """The workload's instances for a seed. Each instance has its own random
    stream, keyed by the seed and its position, so one instance's draws do
    not depend on another's."""
    out = []
    for i, (family, size, task) in enumerate(workload.batch):
        rng = random.Random(f"{seed}:{workload.name}:{i}")
        if family == "bicond":
            out.append(families.bicond(rng, size))
        else:
            out.append(getattr(families, family)(rng, size, task))
    return out
