"""Seeded random instance generation, suite orchestration and reporting.

Per-trial randomness is derived from (root seed, trial index), so suites are
bit-reproducible for a fixed root seed regardless of worker count, and every
failing instance is dumped as replayable JSON.  A trial runs from arrays:
instances become JSON (instance_to_json) only where they leave the process.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import hhcheck
from .errors import BadParams, Error, HypothesisUnmet, UnknownTheorem
from .funcat import from_descriptor, working_interval
from .matcore import (HermitianMatrix, _hermitian_part, array_from_json, array_to_json,
                      count_field, json_field, list_field, matrix_from_json, matrix_to_json,
                      number_field, random_hermitian, str_field)
from .plmaps import (CongruenceSum, IdentityMap, PositiveLinearMap, factor_from_json,
                     map_from_json)
from .segquad import QuadratureSpec

# Factor files whose congruence sums _congruence_from_file keeps.
CONGRUENCE_FILE_MEMO_SIZE = 8


@dataclass(frozen=True)
class InstanceSpec:
    """Configuration for one randomized suite.  map_desc alone sets the
    map's target size (see make_map)."""

    n: int = 4
    interval: tuple[float, float] = (0.0, 2.0)
    function: str = "power:2"
    map_desc: str = "identity"
    trials: int = 100
    seed: int = 0
    panels: int = 2
    quad_nodes: int = QuadratureSpec.nodes
    quad_rtol: float = QuadratureSpec.rtol

    def __post_init__(self):
        if self.n < 1:
            raise BadParams(f"dimension must be >= 1, got n={self.n}")
        if self.trials < 1:
            raise BadParams(f"trial count must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise BadParams(f"seed must be >= 0, got {self.seed}")
        hhcheck.chain_panels(self.panels)  # BadParams when out of range
        working_interval(*self.interval)  # BadInterval: trials draw spectra inside it
        QuadratureSpec(self.quad_nodes, self.quad_rtol)  # BadParams when out of range


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one trial, hashed from (root seed, index)."""
    return np.random.default_rng([int(seed), int(index)])


def _random_isometry(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """A random n x m matrix with orthonormal columns, for m <= n."""
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


@functools.lru_cache(maxsize=CONGRUENCE_FILE_MEMO_SIZE)
def _congruence_from_file(path: str) -> CongruenceSum:
    """The congruence sum of the JSON list of factor literals in the file,
    read once per process and path, as generate_instance builds the map of
    every trial; the map is immutable, so the trials share it.  BadParams
    naming the file when it cannot be read, is not JSON or holds no list; a
    malformed literal raises as factor_from_json does.  Errors are not
    memoized."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            literals = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise BadParams(f"cannot read congruence factors from {path}: {exc}") from None
    if not isinstance(literals, list):
        raise BadParams(f"congruence factor file {path} does not hold a list")
    return CongruenceSum(tuple(factor_from_json(obj) for obj in literals))


def _descriptor_count(desc: str, text: str, most: tuple[str, int] | None = None) -> int:
    """A count written in a map descriptor: an integer >= 1, and for a target
    size m with most = (name, rows) at most rows, the columns an isometry
    into C^rows can have; else BadParams naming the descriptor."""
    if not (text.isdecimal() and int(text) >= 1):
        raise BadParams(f"map descriptor {desc!r} needs integer counts >= 1, got {text!r}")
    if most and int(text) > most[1]:
        raise BadParams(f"map descriptor {desc!r} asks for m={text} > {most[0]}={most[1]}: "
                        f"an isometry into C^{most[1]} has at most {most[1]} columns")
    return int(text)


def make_map(desc: str, n: int, rng: np.random.Generator) -> PositiveLinearMap:
    """Build a positive linear map on n x n matrices from a descriptor.

    identity | compress[:m] | pinch[:b1,b2,...] | congruence[:k[,m]] |
    subcongruence[:k[,m]] | congruence:<file.json>.  Each but identity is a
    CongruenceSum; pinch is A -> sum_b P_b A P_b over the projections P_b
    onto its blocks.  The descriptor alone sets the target size: C^m for
    compress:m (m <= n) and congruence:k,m (m <= k*n), a drawn m for a
    random compress, the factors' column count for a file, else n.  Random
    choices draw from ``rng``; explicit parameters are deterministic.  Every
    written count must be an integer >= 1, and a congruence sum takes at
    most two (BadParams naming the descriptor).
    """
    kind, _, arg = desc.partition(":")
    if kind == "identity":
        return IdentityMap(n)
    if kind == "compress":
        if arg:
            target = _descriptor_count(desc, arg, ("n", n))
            return CongruenceSum((np.eye(n, target, dtype=complex),))
        return CongruenceSum((_random_isometry(n, int(rng.integers(1, n + 1)), rng),))
    if kind == "pinch":
        if arg:
            sizes = [_descriptor_count(desc, s) for s in arg.split(",")]
            if sum(sizes) != n:
                raise BadParams(f"pinch block sizes {sizes} do not sum to {n}")
            blocks = [range(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
        else:
            blocks = _random_partition(n, rng)
        return CongruenceSum(tuple(np.diag(np.isin(np.arange(n), b)).astype(complex)
                                   for b in blocks))
    if kind in ("congruence", "subcongruence"):
        if kind == "congruence" and arg.endswith(".json"):
            return _congruence_from_file(arg)
        counts = arg.split(",") if arg else []
        if len(counts) > 2:
            raise BadParams(f"map descriptor {desc!r} takes at most two counts, k and m")
        k = _descriptor_count(desc, counts[0]) if counts else int(rng.integers(1, 4))
        target = _descriptor_count(desc, counts[1], ("k*n", k * n)) if counts[1:] else n
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
    and the operator norm, as norm spec strings (see matcore.norm_spec)."""
    return [f"kyfan:{k}" for k in range(1, m + 1)] + ["schatten:1", "schatten:2", "operator"]


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
# trial's map (None if the suite takes none), or raises a package error for a
# spec the theorem cannot use.  run(inst, f, phi, quad) judges an instance
# with f and phi loaded and returns the checker's verdict (holds and margin),
# looking the checker up on hhcheck at call time so that rebinding one there
# reaches it.

@dataclass(frozen=True)
class TrialResult:
    status: str  # pass | fail | skip
    margin: float | None
    detail: str = ""


@dataclass(frozen=True)
class Theorem:
    """A theorem suite: its instance generator and runner, and whether it takes a map."""

    generate: Callable
    run: Callable
    takes_map: bool = True


def _pair(spec: InstanceSpec, rng: np.random.Generator, phi=None) -> dict:
    """A random pair A, B with spectra in the spec interval."""
    return {"a": matrix_to_json(random_hermitian(spec.n, *spec.interval, rng)),
            "b": matrix_to_json(random_hermitian(spec.n, *spec.interval, rng))}


def _load_pair(inst: dict) -> tuple[HermitianMatrix, HermitianMatrix]:
    return matrix_from_json(json_field(inst, "a")), matrix_from_json(json_field(inst, "b"))


def _gen_jensen(spec, rng, phi) -> dict:
    a = matrix_to_json(random_hermitian(spec.n, *spec.interval, rng))
    x = rng.standard_normal(phi.target_dim) + 1j * rng.standard_normal(phi.target_dim)
    x /= np.linalg.norm(x)
    x.flags.writeable = False
    return {"a": a, "x": array_to_json(x)}


def _gen_bourin(spec, rng, phi) -> dict:
    # the one-factor maps of a random unital congruence sum: their identity images sum to I_n
    factors = make_map("congruence", spec.n, rng).factors
    return {"maps": [CongruenceSum((x,)).to_jsonable() for x in factors],
            "a_list": [matrix_to_json(random_hermitian(spec.n, *spec.interval, rng))
                       for _ in factors]}


def _gen_t3(spec, rng, phi) -> dict:
    # simultaneously diagonalizable pair so the identity works as the
    # uniform unitary whenever the map preserves the common basis
    lo, hi = spec.interval
    basis = _random_isometry(spec.n, spec.n, rng)
    da = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), spec.n))
    db = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), spec.n))
    return {"a": matrix_to_json(_hermitian_part((basis * da) @ basis.conj().T)),
            "b": matrix_to_json(_hermitian_part((basis * db) @ basis.conj().T))}


def _run_jensen(inst, f, phi, quad):
    a = matrix_from_json(json_field(inst, "a"))
    phi.check_source(a)  # before x is read at phi's target dimension
    x = array_from_json(json_field(inst, "x"), (phi.target_dim,), "vector")
    return hhcheck.check_jensen_map(f, phi, a, x)


def _run_bourin(inst, f, phi, quad):
    maps = [map_from_json(obj) for obj in list_field(inst, "maps", dict)]
    a_list = [matrix_from_json(obj) for obj in list_field(inst, "a_list", dict)]
    return hhcheck.check_bourin_t2(f, maps, a_list)


def _run_norm_chain(inst, f, phi, quad):
    a, b = _load_pair(inst)
    interval = tuple(number_field(inst, "interval", (2,)).tolist())
    return hhcheck.check_norm_chain_corollary(
        f, phi, a, b, list_field(inst, "specs", str), interval, quad)


THEOREMS: dict[str, Theorem] = {
    "jensen": Theorem(_gen_jensen, _run_jensen),
    "t1": Theorem(_pair, lambda inst, f, phi, quad: hhcheck.check_theorem_t1(
        f, phi, *_load_pair(inst), quad)),
    "trace": Theorem(_pair, lambda inst, f, phi, quad: hhcheck.check_trace_corollary(
        f, *_load_pair(inst), quad), takes_map=False),
    "bourin": Theorem(_gen_bourin, _run_bourin, takes_map=False),
    "t3": Theorem(_gen_t3, lambda inst, f, phi, quad: hhcheck.check_theorem_t3(
        f, phi, *_load_pair(inst), quad)),
    "t4": Theorem(_pair, lambda inst, f, phi, quad: hhcheck.check_theorem_t4(
        f, phi, *_load_pair(inst), tuple(number_field(inst, "interval", (2,)).tolist()), quad)),
    "chain": Theorem(
        lambda spec, rng, phi: {**_pair(spec, rng), "panels": spec.panels},
        lambda inst, f, phi, quad: hhcheck.check_refinement_chain(
            f, *_load_pair(inst), count_field(inst, "panels"), quad),
        takes_map=False),
    "norm_chain": Theorem(
        lambda spec, rng, phi: {**_pair(spec, rng), "specs": default_norm_specs(phi.target_dim)},
        _run_norm_chain),
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
        phi = make_map(spec.map_desc, spec.n, rng)
        inst["map"] = phi.to_jsonable()
    inst.update(entry.generate(spec, rng, phi))
    return inst


# -- instance execution ---------------------------------------------------------

def run_instance(inst: dict) -> TrialResult:
    """Execute one instance and classify the outcome.

    The instance is what generate_instance returns (literal grids as
    arrays) or its JSON form (nested lists, as read from a replay file);
    both give the same matrices bit for bit, so the same verdict and margin.
    This is the one place a checker's report becomes a TrialResult: a pass
    or a fail as it holds, with its margin.  An unmet hypothesis makes a
    skip.  Any other package error, a missing or malformed field included,
    makes a failed trial whose detail names the error; only an unknown
    theorem id raises (UnknownTheorem).  numpy's own warnings are off in
    the checker: a value that overflows fails as a package error.
    """
    try:
        entry = _theorem(json_field(inst, "theorem"))
        quad = QuadratureSpec(
            nodes=count_field(inst, "quad_nodes") if "quad_nodes" in inst else QuadratureSpec.nodes,
            rtol=(float(number_field(inst, "quad_rtol", ())) if "quad_rtol" in inst
                  else QuadratureSpec.rtol))
        f = from_descriptor(str_field(inst, "f"))
        phi = map_from_json(json_field(inst, "map")) if entry.takes_map else None
        with np.errstate(all="ignore"):
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
    """Records, one per trial in trial order; the counts are read from them."""

    theorem: str
    spec: InstanceSpec
    records: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def trials(self) -> int:
        return len(self.records)

    @property
    def passes(self) -> int:
        return sum(rec["verdict"] == "pass" for rec in self.records)

    @property
    def skips(self) -> int:
        return sum(rec["verdict"] == "skip" for rec in self.records)

    @property
    def worst_margin(self) -> float | None:
        return min((r["margin"] for r in self.records if r["margin"] is not None), default=None)

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

    @property
    def judged(self) -> int:
        """Trials that met their hypotheses and so were judged pass or fail."""
        return self.trials - self.skips

    def summary(self) -> str:
        """One line of counts; when trials were skipped, a second line with
        the three commonest skip reasons, by count and then text."""
        worst = "n/a" if self.worst_margin is None else f"{self.worst_margin:.3e}"
        line = (f"{self.theorem}: trials={self.trials} passes={self.passes} "
                f"skips={self.skips} failures={self.failure_count} "
                f"judged={self.judged}/{self.trials} "
                f"worst_margin={worst} time={self.wall_time_s:.2f}s")
        reasons = Counter(rec["detail"] for rec in self.records if rec["verdict"] == "skip")
        if reasons:
            top = sorted(reasons.items(), key=lambda item: (-item[1], item[0]))[:3]
            line += "\n  skipped: " + "; ".join(f"{count}x {text}" for text, count in top)
        return line


def _run_one(args) -> tuple[dict, dict | None]:
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
    return record, failure


def run_suite(spec: InstanceSpec, theorem: str, workers: int = 1) -> SuiteReport:
    """Run the named checker over seeded trials; deterministic per root seed.

    The function descriptor is parsed before any trial runs, so a malformed
    one raises its package error (BadParams, UnknownName) up front; so does
    a suite that takes no map given one other than the identity (BadParams).
    A spec the theorem's generator refuses (a malformed map descriptor)
    raises from the first trial.
    A worker count below 1 is refused (BadParams).  Records keep trial
    order, as the serial loop and Executor.map both do.
    """
    entry = _theorem(theorem)
    if workers < 1:
        raise BadParams(f"worker count must be >= 1, got {workers}")
    from_descriptor(spec.function)
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
    return SuiteReport(
        theorem=theorem,
        spec=spec,
        records=[rec for rec, _ in outcomes],
        failures=[fail for _, fail in outcomes if fail is not None],
        wall_time_s=time.perf_counter() - start,
    )


def replay(obj: dict) -> list[tuple[dict, TrialResult]]:
    """Re-run instances from a report, a failure entry, or a bare instance."""
    if not isinstance(obj, dict):
        raise BadParams("replay input is not a JSON object")
    if "failures" in obj:
        instances = [json_field(fail, "instance", "failure entry")
                     for fail in list_field(obj, "failures", dict, "report")]
    elif "instance" in obj:
        instances = [obj["instance"]]
    elif "theorem" in obj:
        instances = [obj]
    else:
        raise BadParams("replay input has no recognizable instance payload")
    return [(inst, run_instance(inst)) for inst in instances]
