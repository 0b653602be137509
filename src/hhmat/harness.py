"""Seeded random instance generation, suite orchestration and reporting.

Per-trial randomness is derived from (root seed, trial index), so suites are
bit-reproducible for a fixed root seed regardless of worker count, and every
failing instance is dumped as replayable JSON.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import hhcheck, orders, plmaps
from .errors import BadInterval, BadParams, Error, HypothesisUnmet, UnknownTheorem
from .funcat import from_descriptor
from .matcore import HermitianMatrix, NormSpec, hermitian_from, matrix_from_json, matrix_to_json
from .plmaps import (
    Compression,
    CongruenceSum,
    IdentityMap,
    Pinching,
    PositiveLinearMap,
    map_from_json,
)
from .segquad import QuadratureSpec

THEOREM_IDS = (
    "scalar", "jensen", "t1", "trace", "power_norm", "bourin",
    "t3", "t4", "chain", "norm_chain", "counterexample",
)

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

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(nodes=self.quad_nodes, rtol=self.quad_rtol)


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
                factors = [plmaps._cplx_from_json(obj) for obj in json.load(fh)]
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


def _split_congruence_maps(k: int, n: int, rng: np.random.Generator) -> list[PositiveLinearMap]:
    """k single-factor congruence maps whose identity images sum to I_n."""
    stacked = _random_isometry(k * n, n, rng)
    return [CongruenceSum((stacked[i * n:(i + 1) * n, :],)) for i in range(k)]


def _random_unit_vector(m: int, rng: np.random.Generator) -> np.ndarray:
    x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return x / np.linalg.norm(x)


def default_norm_specs(m: int) -> list[NormSpec]:
    specs = [NormSpec.ky_fan(k) for k in range(1, m + 1)]
    specs += [NormSpec.schatten(1.0), NormSpec.schatten(2.0), NormSpec.operator()]
    return specs


# -- instance generation -------------------------------------------------------

def _vec_to_json(x: np.ndarray) -> dict:
    return {"re": x.real.tolist(), "im": x.imag.tolist()}


def _vec_from_json(obj: dict) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def generate_instance(theorem: str, spec: InstanceSpec, index: int) -> dict:
    """Build the replayable JSON instance for one trial."""
    if theorem not in THEOREM_IDS:
        raise UnknownTheorem(f"unknown theorem id {theorem!r}; choose from {THEOREM_IDS}")
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
    if theorem == "counterexample":
        return inst
    if theorem == "scalar":
        width = hi - lo
        inst["xy"] = [float(rng.uniform(lo, lo + 0.4 * width)),
                      float(rng.uniform(lo + 0.6 * width, hi))]
        return inst
    if theorem == "chain":
        inst["a"] = matrix_to_json(random_hermitian(spec.n, lo, hi, rng))
        inst["b"] = matrix_to_json(random_hermitian(spec.n, lo, hi, rng))
        inst["k"] = spec.chain_k
        inst["p"] = spec.chain_p
        return inst
    if theorem == "trace":
        inst["a"] = matrix_to_json(random_hermitian(spec.n, lo, hi, rng))
        inst["b"] = matrix_to_json(random_hermitian(spec.n, lo, hi, rng))
        return inst
    if theorem == "bourin":
        k = int(rng.integers(1, 4))
        maps = _split_congruence_maps(k, spec.n, rng)
        inst["maps"] = [phi.to_jsonable() for phi in maps]
        inst["a_list"] = [matrix_to_json(random_hermitian(spec.n, lo, hi, rng))
                          for _ in range(k)]
        return inst

    phi = make_map(spec.map_desc, spec.n, spec.m, rng)
    inst["map"] = phi.to_jsonable()
    if theorem == "jensen":
        inst["a"] = matrix_to_json(random_hermitian(spec.n, lo, hi, rng))
        inst["x"] = _vec_to_json(_random_unit_vector(phi.target_dim, rng))
        return inst
    if theorem == "t3":
        # simultaneously diagonalizable pair so the identity works as the
        # uniform unitary whenever the map preserves the common basis
        basis = _random_isometry(spec.n, spec.n, rng)
        da = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), spec.n))
        db = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), spec.n))
        inst["a"] = matrix_to_json(hermitian_from((basis * da) @ basis.conj().T))
        inst["b"] = matrix_to_json(hermitian_from((basis * db) @ basis.conj().T))
        return inst
    if theorem == "power_norm":
        # PSD inputs are required, so clamp the sampling window at zero
        lo_eff = max(lo, 0.0)
        if not lo_eff < hi:
            raise BadInterval(f"interval [{lo}, {hi}] leaves no room above 0")
        inst["a"] = matrix_to_json(random_hermitian(spec.n, lo_eff, hi, rng))
        inst["b"] = matrix_to_json(random_hermitian(spec.n, lo_eff, hi, rng))
        inst["specs"] = [str(s) for s in default_norm_specs(phi.target_dim)]
        return inst
    # t1, t4, norm_chain share the (f, Phi, A, B) shape
    inst["a"] = matrix_to_json(random_hermitian(spec.n, lo, hi, rng))
    inst["b"] = matrix_to_json(random_hermitian(spec.n, lo, hi, rng))
    if theorem == "norm_chain":
        inst["specs"] = [str(s) for s in default_norm_specs(phi.target_dim)]
    return inst


# -- instance execution ---------------------------------------------------------

@dataclass(frozen=True)
class TrialResult:
    status: str  # pass | fail | skip
    margin: float | None
    detail: str = ""


def _power_exponent(descriptor: str) -> float:
    name, _, rest = descriptor.partition("@")[0].partition(":")
    if name not in ("power", "cube"):
        raise BadParams(f"power-norm suite needs a power function, got {descriptor!r}")
    return 3.0 if name == "cube" else float(rest)


def run_instance(inst: dict) -> TrialResult:
    """Execute one replayable instance and classify the outcome."""
    theorem = inst["theorem"]
    quad = QuadratureSpec(nodes=int(inst.get("quad_nodes", 16)),
                          rtol=float(inst.get("quad_rtol", 1e-11)))
    tol = orders.DEFAULT_TOL
    try:
        if theorem == "counterexample":
            report = hhcheck.reproduce_counterexample()
            return TrialResult("pass" if report.passes else "fail",
                               0.0 if report.passes else -1.0)
        f = from_descriptor(inst["f"])
        if theorem == "scalar":
            x, y = inst["xy"]
            report = hhcheck.check_scalar_hh(f, x, y, tol)
            return TrialResult("pass" if report.holds else "fail", report.min_margin)
        if theorem == "chain":
            a, b = matrix_from_json(inst["a"]), matrix_from_json(inst["b"])
            report = hhcheck.check_refinement_chain(
                f, a, b, int(inst["k"]), int(inst["p"]), tol, quad)
            return TrialResult("pass" if report.holds else "fail", report.min_margin)
        if theorem == "trace":
            a, b = matrix_from_json(inst["a"]), matrix_from_json(inst["b"])
            verdict = hhcheck.check_trace_corollary(f, a, b, tol, quad)
            return TrialResult("pass" if verdict.holds else "fail", verdict.margin)
        if theorem == "bourin":
            maps = [map_from_json(obj) for obj in inst["maps"]]
            a_list = [matrix_from_json(obj) for obj in inst["a_list"]]
            report = hhcheck.check_bourin_t2(f, maps, a_list, tol)
            margin = report.dominance.margin
            if report.witness_verdict is not None:
                margin = min(margin, report.witness_verdict.margin)
            ok = report.holds and (report.witness_verdict is None or report.witness_verdict.holds)
            return TrialResult("pass" if ok else "fail", margin)

        phi = map_from_json(inst["map"])
        if theorem == "jensen":
            a = matrix_from_json(inst["a"])
            x = _vec_from_json(inst["x"])
            verdict = hhcheck.check_jensen_map(f, phi, a, x, tol)
            return TrialResult("pass" if verdict.holds else "fail", verdict.margin)
        a, b = matrix_from_json(inst["a"]), matrix_from_json(inst["b"])
        if theorem == "t1":
            report = hhcheck.check_theorem_t1(f, phi, a, b, tol, quad)
            return TrialResult("pass" if report.holds else "fail", report.min_deficit)
        if theorem == "t3":
            report = hhcheck.check_theorem_t3(f, phi, a, b, None, None, tol, quad)
            return TrialResult("pass" if report.holds else "fail", report.min_margin)
        if theorem == "t4":
            verdict = hhcheck.check_theorem_t4(
                f, phi, a, b, tuple(inst["interval"]), tol, quad)
            return TrialResult("pass" if verdict.holds else "fail", verdict.margin)
        if theorem == "power_norm":
            specs = [NormSpec.parse(s) for s in inst["specs"]]
            report = hhcheck.check_power_norm_corollary(
                _power_exponent(inst["f"]), phi, a, b, specs, tol, quad)
            return TrialResult("pass" if report.holds else "fail", report.min_margin)
        if theorem == "norm_chain":
            specs = [NormSpec.parse(s) for s in inst["specs"]]
            report = hhcheck.check_norm_chain_corollary(
                f, phi, a, b, specs, tuple(inst["interval"]), tol, quad)
            if all(c.skipped for c in report.comparisons):
                return TrialResult("skip", None, "all norm comparisons skipped (non-PSD terms)")
            margin = report.min_margin
            return TrialResult("pass" if report.holds else "fail", margin)
        raise UnknownTheorem(f"unknown theorem id {theorem!r}")
    except HypothesisUnmet as exc:
        return TrialResult("skip", None, str(exc))
    except UnknownTheorem:
        raise
    except Error as exc:
        # A checker error with hypotheses supposedly satisfiable is a bug
        # signal; record it as a deterministic failure rather than crashing.
        return TrialResult("fail", None, f"{type(exc).__name__}: {exc}")


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
    failure = {"trial": index, "instance": inst} if result.status == "fail" else None
    return index, record, failure


def run_suite(spec: InstanceSpec, theorem: str, workers: int = 1) -> SuiteReport:
    """Run the named checker over seeded trials; deterministic per root seed.

    The counterexample suite is a single fixed trial regardless of the
    requested count and function.  The function descriptor of any other
    suite is parsed before any trial runs, so a malformed one raises its
    package error (BadParams, UnknownName) up front; so is a power_norm
    suite whose function is not a power.
    """
    if theorem not in THEOREM_IDS:
        raise UnknownTheorem(f"unknown theorem id {theorem!r}; choose from {THEOREM_IDS}")
    if theorem == "counterexample":
        spec = replace(spec, trials=1)
    else:
        from_descriptor(spec.function)
    if theorem == "power_norm":
        _power_exponent(spec.function)
    start = time.perf_counter()
    jobs = [(spec, theorem, i) for i in range(spec.trials)]
    if workers > 1:
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
        instances = [fail["instance"] for fail in obj["failures"]]
    elif "instance" in obj:
        instances = [obj["instance"]]
    elif "theorem" in obj:
        instances = [obj]
    else:
        raise BadParams("replay input has no recognizable instance payload")
    return [(inst, run_instance(inst)) for inst in instances]
