"""The three benchmark workloads and the shared trial loop.

Every workload checks f = exp on [0.5, 2] with the identity map and the
default quadrature (16 nodes, rtol 1e-11), so each trial meets every
hypothesis and none is skipped.  Trials run through the public suite pair
``harness.generate_instance`` + ``harness.run_instance``, which is what
``run_suite`` runs for each trial with one worker.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Timed and traced trials start at index 1.  The untimed warm-up trial is
# index 0 of a fixed seed, so set-up does the same work for every --seed.
WARMUP_SEED = 0
WARMUP_INDEX = 0
FIRST_INDEX = 1


@dataclass(frozen=True)
class Workload:
    name: str
    theorem: str
    n: int
    # Untraced trials per second seen on 2 cores with BLAS on one thread.
    # Only sizes the traced run, so its trial count is fixed per seconds.
    nominal_rate: float
    # Speed-gauge kernels (see speed.py) resembling the workload's hot layers.
    gauge: tuple[str, ...]

    def spec(self, harness, seed: int):
        return harness.InstanceSpec(
            n=self.n, interval=(0.5, 2.0), function="exp", map_desc="identity",
            trials=1, seed=seed, quad_nodes=16, quad_rtol=1e-11,
        )


INTERPRETER_BOUND = ("eigh4", "eigh48", "floats", "fractions")

# Why each workload was chosen is in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("t4_exp_n4", "t4", 4, 55.0, INTERPRETER_BOUND),
        Workload("norm_chain_exp_n48", "norm_chain", 48, 3.5, ("eigh4", "eigh24", "eigh48")),
        Workload("bourin_exp_n48", "bourin", 48, 20.0, INTERPRETER_BOUND),
    )
}


class MissingProgram(RuntimeError):
    """The checkout has no hhmat sources to benchmark."""


def import_hhmat():
    """Import hhmat from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "hhmat" / "__init__.py").is_file():
        raise MissingProgram(f"no hhmat package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hhmat
    from hhmat import harness

    if Path(hhmat.__file__).resolve().parent != SRC / "hhmat":
        raise MissingProgram(f"hhmat was imported from {hhmat.__file__}, not {SRC}")
    return harness


def setup(workload: Workload, seed: int):
    """Import hhmat, build the spec and run the warm-up trial.

    Returns (harness module, spec, seconds taken).
    """
    start = time.perf_counter()
    harness = import_hhmat()
    spec = workload.spec(harness, seed)
    warmup = workload.spec(harness, WARMUP_SEED)
    harness.run_instance(harness.generate_instance(workload.theorem, warmup, WARMUP_INDEX))
    return harness, spec, time.perf_counter() - start


def run_trial(harness, workload: Workload, spec, index: int):
    """One generate + run pair; returns (seconds, TrialResult)."""
    start = time.perf_counter()
    inst = harness.generate_instance(workload.theorem, spec, index)
    result = harness.run_instance(inst)
    return time.perf_counter() - start, result
