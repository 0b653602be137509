"""Seeded random instance generation, suite orchestration and reporting.

Per-trial randomness is derived from (root seed, trial index), so suites are
bit-reproducible for a fixed root seed regardless of worker count, and every
failing instance is dumped as replayable JSON.  A trial runs from arrays:
instances become JSON (instance_to_json) only where they leave the process.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import hhcheck, orders
from .errors import BadInterval, BadParams, Error, HypothesisUnmet, UnknownTheorem
from .funcat import from_descriptor
from .matcore import (HermitianMatrix, NormSpec, array_from_json, array_to_json, count_field,
                      hermitian_from, json_field, list_field, matrix_from_json, matrix_to_json,
                      number_field)
from .plmaps import (
    Compression,
    CongruenceSum,
    IdentityMap,
    Pinching,
    PositiveLinearMap,
    factor_from_json,
    map_from_json,
)
from .segquad import QuadratureSpec

# random_hermitian shrinks the requested spectrum window by at least this
# fraction on each side, keeping boundary-domain errors away.
SPECTRUM_SHRINK = 0.1


@dataclass(frozen=True)
class InstanceSpec:
    """Configuration for one randomized suite."""

    n: int = 4
    m: int | None = None
    interval: tuple[float, float] = (0.0, 2.0)
    function: str = "power:2"
    map_desc: str = "identity"
    trials: int = 100
    seed: int = 0
    chain_k: int = 2
    chain_p: int = 1
    quad_nodes: int = 16
    quad_rtol: float = 1e-11

    def __post_init__(self):
        if self.n < 1 or (self.m is not None and self.m < 1):
            raise BadParams(f"dimensions must be >= 1, got n={self.n}, m={self.m}")
        if self.trials < 1:
            raise BadParams(f"trial count must be >= 1, got {self.trials}")
        lo, hi = self.interval
        if not lo < hi:
            raise BadInterval(f"need omega < Omega, got [{lo}, {hi}]")
        QuadratureSpec(self.quad_nodes, self.quad_rtol)  # BadParams when out of range


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one trial, hashed from (root seed, index)."""
    return np.random.default_rng([int(seed), int(index)])


def random_hermitian(n: int, omega: float, Omega: float, seed) -> HermitianMatrix:
    """Random Hermitian matrix with spectrum strictly inside [omega, Omega].

    A complex Gaussian is symmetrized, then affinely rescaled so the extreme
    eigenvalues land a random 1-10% of the interval width inside each
    endpoint.  ``seed`` may be an int or a Generator.
    """
    if not omega < Omega:
        raise BadInterval(f"need omega < Omega, got [{omega}, {Omega}]")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(int(seed))
    width = Omega - omega
    lo = omega + SPECTRUM_SHRINK * width * rng.uniform(0.1, 1.0)
    hi = Omega - SPECTRUM_SHRINK * width * rng.uniform(0.1, 1.0)
    if n == 1:
        return hermitian_from([[rng.uniform(lo, hi)]])
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (g + g.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    span = float(w[-1] - w[0])
    if span < 1e-12:
        w = np.linspace(lo, hi, n)
    else:
        w = lo + (w - w[0]) * ((hi - lo) / span)
    return hermitian_from((v * w) @ v.conj().T)


def _random_isometry(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    q, _ = np.linalg.qr(g)
    return q[:, :m]


def _random_partition(n: int, rng: np.random.Generator) -> tuple[tuple[int, ...], ...]:
    order = list(rng.permutation(n))
    blocks, start = [], 0
    while start < n:
        size = int(rng.integers(1, n - start + 1))
        blocks.append(tuple(int(i) for i in order[start:start + size]))
        start += size
    return tuple(blocks)


def make_map(desc: str, n: int, m: int | None, rng: np.random.Generator) -> PositiveLinearMap:
    """Build a positive linear map from a descriptor.

    identity | compress[:m] | pinch[:b1,b2,...] | congruence[:k] |
    subcongruence[:k] | congruence@<file.json>.  Random choices draw from
    ``rng``; explicit parameters are deterministic.
    """
    kind, _, arg = desc.partition(":")
    if kind == "identity":
        return IdentityMap(n)
    if kind == "compress":
        if arg:
            target = int(arg)
            return Compression(np.eye(n, target, dtype=complex))
        target = m if m is not None else int(rng.integers(1, n + 1))
        return Compression(_random_isometry(n, target, rng))
    if kind == "pinch":
        if arg:
            sizes = [int(s) for s in arg.split(",")]
            if sum(sizes) != n:
                raise BadParams(f"pinch block sizes {sizes} do not sum to {n}")
            blocks, start = [], 0
            for size in sizes:
                blocks.append(tuple(range(start, start + size)))
                start += size
            return Pinching(tuple(blocks))
        return Pinching(_random_partition(n, rng))
    if kind in ("congruence", "subcongruence"):
        if kind == "congruence" and arg.endswith(".json"):
            with open(arg, "r", encoding="utf-8") as fh:
                factors = [factor_from_json(obj) for obj in json.load(fh)]
            return CongruenceSum(tuple(factors))
        k = int(arg) if arg else int(rng.integers(1, 4))
        target = m if m is not None else n
        stacked = _random_isometry(k * n, target, rng)
        factors = tuple(stacked[i * n:(i + 1) * n, :] for i in range(k))
        if kind == "subcongruence":
            # scale below unital so Phi(I) = s^2 I with 0 < s < 1
            s = float(rng.uniform(0.4, 0.9))
            factors = tuple(s * x for x in factors)
        return CongruenceSum(factors)
    raise BadParams(f"unknown map descriptor {desc!r}")


def default_norm_specs(m: int) -> list[str]:
    """Every Ky Fan norm of an m x m matrix, the trace and Frobenius norms
    and the operator norm, as norm spec strings."""
    specs = [NormSpec.ky_fan(k) for k in range(1, m + 1)]
    specs += [NormSpec.schatten(1.0), NormSpec.schatten(2.0), NormSpec.operator()]
    return [str(spec) for spec in specs]


def instance_to_json(obj):
    """The JSON form of an instance: each numpy array in it (the "re" and
    "im" grids of its matrix, map-factor and vector literals) becomes nested
    lists of floats; everything else is kept.  A float survives json.dumps
    and json.loads exactly, so replaying the JSON rebuilds the same matrices
    bit for bit and gives the same verdict and margin."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: instance_to_json(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [instance_to_json(value) for value in obj]
    return obj


# -- the theorem registry ---------------------------------------------------------
#
# generate(spec, rng, phi) returns a theorem's instance fields, phi being the
# trial's map (None if the suite takes none).  run(inst, f, phi, quad) judges
# an instance with f and phi loaded (None if not read) and returns the
# checker's report, looking the checker up on hhcheck at call time so that
# rebinding one there reaches it.

@dataclass(frozen=True)
class TrialResult:
    status: str  # pass | fail | skip
    margin: float | None
    detail: str = ""


@dataclass(frozen=True)
class Theorem:
    """A theorem suite: its instance generator and runner, and what it reads."""

    generate: Callable
    run: Callable
    reads_f: bool = True
    takes_map: bool = True
    trials: int | None = None  # fixed trial count, whatever the spec asks
    power_f: bool = False  # f must be a power


def _pair(spec: InstanceSpec, rng: np.random.Generator, phi=None, lo: float | None = None) -> dict:
    """A random pair A, B with spectra in the spec interval (above lo if given)."""
    lo, hi = (spec.interval[0] if lo is None else lo), spec.interval[1]
    return {"a": matrix_to_json(random_hermitian(spec.n, lo, hi, rng)),
            "b": matrix_to_json(random_hermitian(spec.n, lo, hi, rng))}


def _load_pair(inst: dict) -> tuple[HermitianMatrix, HermitianMatrix]:
    return matrix_from_json(json_field(inst, "a")), matrix_from_json(json_field(inst, "b"))


def _gen_scalar(spec, rng, phi) -> dict:
    lo, hi = spec.interval
    width = hi - lo
    return {"xy": [float(rng.uniform(lo, lo + 0.4 * width)),
                   float(rng.uniform(lo + 0.6 * width, hi))]}


def _gen_jensen(spec, rng, phi) -> dict:
    a = matrix_to_json(random_hermitian(spec.n, *spec.interval, rng))
    x = rng.standard_normal(phi.target_dim) + 1j * rng.standard_normal(phi.target_dim)
    x /= np.linalg.norm(x)
    x.flags.writeable = False
    return {"a": a, "x": array_to_json(x)}


def _gen_bourin(spec, rng, phi) -> dict:
    # k single-factor congruence maps whose identity images sum to I_n
    n, k = spec.n, int(rng.integers(1, 4))
    stacked = _random_isometry(k * n, n, rng)
    maps = [CongruenceSum((stacked[i * n:(i + 1) * n, :],)) for i in range(k)]
    return {"maps": [m.to_jsonable() for m in maps],
            "a_list": [matrix_to_json(random_hermitian(n, *spec.interval, rng))
                       for _ in range(k)]}


def _gen_t3(spec, rng, phi) -> dict:
    # simultaneously diagonalizable pair so the identity works as the
    # uniform unitary whenever the map preserves the common basis
    lo, hi = spec.interval
    basis = _random_isometry(spec.n, spec.n, rng)
    da = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), spec.n))
    db = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), spec.n))
    return {"a": matrix_to_json(hermitian_from((basis * da) @ basis.conj().T)),
            "b": matrix_to_json(hermitian_from((basis * db) @ basis.conj().T))}


def _gen_power_norm(spec, rng, phi) -> dict:
    # PSD inputs are required, so clamp the sampling window at zero
    lo, hi = spec.interval
    if not max(lo, 0.0) < hi:
        raise BadInterval(f"interval [{lo}, {hi}] leaves no room above 0")
    return {**_pair(spec, rng, lo=max(lo, 0.0)), "specs": default_norm_specs(phi.target_dim)}


def _run_counterexample(inst, f, phi, quad) -> orders.OrderVerdict:
    passes = hhcheck.reproduce_counterexample().passes
    return orders.OrderVerdict(holds=passes, margin=0.0 if passes else -1.0)


def _run_scalar(inst, f, phi, quad):
    x, y = number_field(inst, "xy", (2,)).tolist()
    return hhcheck.check_scalar_hh(f, x, y)


def _run_jensen(inst, f, phi, quad):
    a = matrix_from_json(json_field(inst, "a"))
    x = array_from_json(json_field(inst, "x"), (phi.target_dim,), "vector")
    return hhcheck.check_jensen_map(f, phi, a, x)


def _run_power_norm(inst, f, phi, quad):
    a, b = _load_pair(inst)
    specs = [NormSpec.parse(s) for s in list_field(inst, "specs", str)]
    r = _power_exponent(json_field(inst, "f"))
    return hhcheck.check_power_norm_corollary(r, phi, a, b, specs, quad)


def _run_bourin(inst, f, phi, quad):
    maps = [map_from_json(obj) for obj in list_field(inst, "maps", dict)]
    a_list = [matrix_from_json(obj) for obj in list_field(inst, "a_list", dict)]
    return hhcheck.check_bourin_t2(f, maps, a_list)


def _run_norm_chain(inst, f, phi, quad):
    a, b = _load_pair(inst)
    specs = [NormSpec.parse(s) for s in list_field(inst, "specs", str)]
    interval = tuple(number_field(inst, "interval", (2,)).tolist())
    return hhcheck.check_norm_chain_corollary(f, phi, a, b, specs, interval, quad)


THEOREMS: dict[str, Theorem] = {
    "scalar": Theorem(_gen_scalar, _run_scalar, takes_map=False),
    "jensen": Theorem(_gen_jensen, _run_jensen),
    "t1": Theorem(_pair, lambda inst, f, phi, quad: hhcheck.check_theorem_t1(
        f, phi, *_load_pair(inst), quad)),
    "trace": Theorem(_pair, lambda inst, f, phi, quad: hhcheck.check_trace_corollary(
        f, *_load_pair(inst), quad), takes_map=False),
    "power_norm": Theorem(_gen_power_norm, _run_power_norm, power_f=True),
    "bourin": Theorem(_gen_bourin, _run_bourin, takes_map=False),
    "t3": Theorem(_gen_t3, lambda inst, f, phi, quad: hhcheck.check_theorem_t3(
        f, phi, *_load_pair(inst), quad)),
    "t4": Theorem(_pair, lambda inst, f, phi, quad: hhcheck.check_theorem_t4(
        f, phi, *_load_pair(inst), tuple(number_field(inst, "interval", (2,)).tolist()), quad)),
    "chain": Theorem(
        lambda spec, rng, phi: {**_pair(spec, rng), "k": spec.chain_k, "p": spec.chain_p},
        lambda inst, f, phi, quad: hhcheck.check_refinement_chain(
            f, *_load_pair(inst), count_field(inst, "k"), count_field(inst, "p"), quad),
        takes_map=False),
    "norm_chain": Theorem(
        lambda spec, rng, phi: {**_pair(spec, rng), "specs": default_norm_specs(phi.target_dim)},
        _run_norm_chain),
    "counterexample": Theorem(lambda spec, rng, phi: {}, _run_counterexample,
                              reads_f=False, takes_map=False, trials=1),
}
THEOREM_IDS = tuple(THEOREMS)


def _theorem(theorem) -> Theorem:
    try:
        return THEOREMS[theorem]
    except (KeyError, TypeError):  # TypeError: an unhashable id read from JSON
        raise UnknownTheorem(f"unknown theorem id {theorem!r}; choose from {THEOREM_IDS}") from None


def generate_instance(theorem: str, spec: InstanceSpec, index: int) -> dict:
    """Build the replayable instance for one trial.

    The instance has the shape of its JSON form, except that the "re" and
    "im" grids of its matrix, map-factor and vector literals are read-only
    numpy arrays (views of the generated entries) rather than nested lists.
    run_instance reads either form; instance_to_json gives the JSON form,
    which run_suite records for a failed trial.
    """
    entry = _theorem(theorem)
    rng = trial_rng(spec.seed, index)
    lo, hi = spec.interval
    inst: dict = {
        "theorem": theorem,
        "f": spec.function,
        "interval": [lo, hi],
        "seed": [spec.seed, index],
        "quad_nodes": spec.quad_nodes,
        "quad_rtol": spec.quad_rtol,
    }
    phi = None
    if entry.takes_map:
        phi = make_map(spec.map_desc, spec.n, spec.m, rng)
        inst["map"] = phi.to_jsonable()
    inst.update(entry.generate(spec, rng, phi))
    return inst


# -- instance execution ---------------------------------------------------------

def _power_exponent(descriptor: str) -> float:
    name, _, rest = descriptor.partition("@")[0].partition(":")
    if name not in ("power", "cube"):
        raise BadParams(f"power-norm suite needs a power function, got {descriptor!r}")
    return 3.0 if name == "cube" else float(rest)


def run_instance(inst: dict) -> TrialResult:
    """Execute one instance and classify the outcome.

    The instance is what generate_instance returns (literal grids as
    arrays) or its JSON form (nested lists, as read from a replay file);
    both give the same matrices bit for bit, so the same verdict and margin.
    This is the one place a checker's report becomes a TrialResult: a pass
    or a fail as it holds, with its margin.  An unmet hypothesis makes a
    skip.  Any other package error, a missing or malformed field included,
    makes a failed trial whose detail names the error; only an unknown
    theorem id raises (UnknownTheorem).
    """
    try:
        entry = _theorem(json_field(inst, "theorem"))
        quad = QuadratureSpec(
            nodes=count_field(inst, "quad_nodes") if "quad_nodes" in inst else 16,
            rtol=float(number_field(inst, "quad_rtol", ())) if "quad_rtol" in inst else 1e-11)
        f = from_descriptor(json_field(inst, "f")) if entry.reads_f else None
        phi = map_from_json(json_field(inst, "map")) if entry.takes_map else None
        report = entry.run(inst, f, phi, quad)
    except HypothesisUnmet as exc:
        return TrialResult("skip", None, str(exc))
    except UnknownTheorem:
        raise
    except Error as exc:
        # A checker error with hypotheses supposedly satisfiable is a bug
        # signal; record it as a deterministic failure rather than crashing.
        return TrialResult("fail", None, f"{type(exc).__name__}: {exc}")
    return TrialResult("pass" if report.holds else "fail", report.margin)


# -- suite orchestration ----------------------------------------------------------

@dataclass
class SuiteReport:
    theorem: str
    spec: InstanceSpec
    trials: int
    passes: int
    skips: int
    worst_margin: float | None
    records: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    def to_jsonable(self) -> dict:
        """Canonical content; wall time is excluded so runs compare equal."""
        return {
            "theorem": self.theorem,
            "trials": self.trials,
            "passes": self.passes,
            "skips": self.skips,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "records": self.records,
            "seed": self.spec.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))

    def write_csv(self, path: str):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theorem", "trial", "seed", "verdict", "margin"])
            for rec in self.records:
                writer.writerow([
                    self.theorem, rec["trial"], rec["seed"], rec["verdict"],
                    "" if rec["margin"] is None else repr(rec["margin"]),
                ])

    def summary(self) -> str:
        worst = "n/a" if self.worst_margin is None else f"{self.worst_margin:.3e}"
        return (f"{self.theorem}: trials={self.trials} passes={self.passes} "
                f"skips={self.skips} failures={self.failure_count} "
                f"worst_margin={worst} time={self.wall_time_s:.2f}s")


def _run_one(args) -> tuple[int, dict, dict | None]:
    spec, theorem, index = args
    inst = generate_instance(theorem, spec, index)
    result = run_instance(inst)
    record = {
        "trial": index,
        "seed": f"{spec.seed}:{index}",
        "verdict": result.status,
        "margin": result.margin,
    }
    if result.detail:
        record["detail"] = result.detail
    failure = ({"trial": index, "instance": instance_to_json(inst)}
               if result.status == "fail" else None)
    return index, record, failure


def run_suite(spec: InstanceSpec, theorem: str, workers: int = 1) -> SuiteReport:
    """Run the named checker over seeded trials; deterministic per root seed.

    The spec is checked against the registry entry before any trial runs.
    A suite with a fixed trial count (counterexample: one fixed trial) runs
    that many.  The function descriptor of a suite that reads f is parsed,
    so a malformed one raises its package error (BadParams, UnknownName) up
    front; so does a power_norm suite whose function is not a power, and a
    suite that takes no map given one other than the identity (BadParams).
    """
    entry = _theorem(theorem)
    if entry.trials is not None:
        spec = replace(spec, trials=entry.trials)
    if entry.reads_f:
        from_descriptor(spec.function)
    if entry.power_f:
        _power_exponent(spec.function)
    if not entry.takes_map and spec.map_desc != "identity":
        raise BadParams(f"the {theorem} suite takes no map, got {spec.map_desc!r}")
    start = time.perf_counter()
    jobs = [(spec, theorem, i) for i in range(spec.trials)]
    if workers > 1:
        # Imported here: it loads multiprocessing, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one, jobs, chunksize=max(1, spec.trials // (4 * workers))))
    else:
        outcomes = [_run_one(job) for job in jobs]
    outcomes.sort(key=lambda item: item[0])
    records = [rec for _, rec, _ in outcomes]
    failures = [fail for _, _, fail in outcomes if fail is not None]
    margins = [rec["margin"] for rec in records if rec["margin"] is not None]
    passes = sum(1 for rec in records if rec["verdict"] == "pass")
    skips = sum(1 for rec in records if rec["verdict"] == "skip")
    return SuiteReport(
        theorem=theorem,
        spec=spec,
        trials=spec.trials,
        passes=passes,
        skips=skips,
        worst_margin=min(margins) if margins else None,
        records=records,
        failures=failures,
        wall_time_s=time.perf_counter() - start,
    )


def replay(obj: dict) -> list[tuple[dict, TrialResult]]:
    """Re-run instances from a report, a failure entry, or a bare instance."""
    if not isinstance(obj, dict):
        raise BadParams("replay input is not a JSON object")
    if "failures" in obj:
        instances = [json_field(fail, "instance", "failure entry") for fail in obj["failures"]]
    elif "instance" in obj:
        instances = [obj["instance"]]
    elif "theorem" in obj:
        instances = [obj]
    else:
        raise BadParams("replay input has no recognizable instance payload")
    return [(inst, run_instance(inst)) for inst in instances]
