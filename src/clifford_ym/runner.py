"""Verification campaigns: the config reader, case construction, reports.

A run is described by one JSON config (signature, frame, gauge, samples,
sigma, seed, derivative mode). parse_config is its one reader: it refuses
every malformed entry and resolves the rest, the frame and the gauge
generator included, into a RunConfig. The runner then builds the field
vector, derives its connection and assembles the Yang-Mills solution. One
point_report call reduces the residual rows of the solution and of the pair
(h, C) at the sample points, and one more those of a random gauge transform
of both, the invariance check. Everything folds into one deterministic
report, each value held to the fixed tolerance _CHECKS names in the run's mode.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    CliffordError,
    Multivector,
    Signature,
    n_max,
    tables,
)
from . import golden
from .contraction import contraction_series, fraction_to_json, lambdas
from .fields import (
    FiniteDifferenceVector,
    FrameError,
    FrameField,
    FrameGaugeFieldVector,
    GaugeElement,
    PolyField,
    conjugate_jets,
    make_gauge_element,
    random_bivector_poly_field,
    random_frame,
    sample_points,
)
from .primitive import (
    PAIR_ROWS,
    DerivedConnection,
    flatness_residual,
    gauge_transform,
    max_per_point,
    point_report,
    transform_connection,
)
from .yang_mills import (
    SOLUTION_ROWS,
    YMSolution,
    epsilon_from_residuals,
    epsilon_value,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "EXACT_TOLERANCES",
    "FD_TOLERANCES",
    "parse_blade",
    "parse_config",
    "build_case",
    "run_verify",
    "run_demo",
    "explicit_connection",
    "breaches",
]


EXACT_TOLERANCES = {
    "primitive": 1e-8,
    "curvature": 1e-7,
    "eq1": 1e-7,
    "eq2": 1e-7,
    "conservation": 1e-7,
    "gauge": 1e-6,
    "center_leak": 1e-9,
    "conjugation": 1e-9,
    "epsilon_rel": 1e-10,
}

FD_TOLERANCES = {
    "primitive": 1e-5,
    "curvature": 1e-4,
    "eq1": 1e-4,
    "eq2": 1e-4,
    "conservation": 1e-4,
    "gauge": 1e-3,
    "center_leak": 1e-9,
    "conjugation": 1e-4,
    "epsilon_rel": 1e-6,
}

# The tolerances of each mode; no config entry moves them.
_TOLERANCES = {"exact": EXACT_TOLERANCES, "fd": FD_TOLERANCES}


# Work cap of a run: sample points (count plus the origin) times the 2^n
# blades of the algebra. It bounds the work any config can ask for.
MAX_POINT_BLADES = 1 << 16


class ConfigError(CliffordError):
    """Malformed or out-of-range run configuration."""


@dataclass
class RunConfig:
    """A run as parse_config resolves it. seed pins every random choice:
    the sample points and the four streams of _streams. frame and generator
    hold no memo, so one RunConfig serves any number of runs.
    """

    p: int
    q: int
    frame: FrameField
    generator: PolyField  # A of the run's gauge element S = exp(A)
    sigma: complex
    seed: int
    count: int
    box: tuple[float, float]
    mode: str
    epsilon_override: complex | None
    output: str | None

    @property
    def n(self) -> int:
        return self.p + self.q


def _streams(seed: int) -> list[np.random.Generator]:
    """The four random streams of a run: the frame and the gauge generator,
    which parse_config draws, and the check gauge and the perturbation,
    which build_case draws."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]


def _object(spec, key: str, keys) -> dict:
    """spec, the config object at key ("" for the root), once it is known to
    be an object whose keys are all among keys: a key that nothing reads is
    refused, so that a misspelled key cannot leave a default in force."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{key or 'config root'} must be an object")
    unknown = [f"{key}.{k}" if key else f"{k}" for k in spec if k not in keys]
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(unknown)}")
    return spec


def _kind(spec, key: str, kinds: dict) -> str:
    """The kind of the config object at key, the first of kinds when it names
    none, with the object's keys checked against those its kind reads."""
    default = next(iter(kinds))
    kind = spec.get("kind", default) if isinstance(spec, dict) else default
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"unknown {key} kind {kind!r}")
    _object(spec, key, kinds[kind])
    return kind


def _integer(value, key: str) -> int:
    """An integer config entry; booleans, fractional numbers and strings are refused,
    not truncated or parsed."""
    if (isinstance(value, (bool, str))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _real(value, key: str) -> float:
    """A finite number from a config entry; booleans and strings are refused,
    not converted or parsed."""
    try:
        out = math.nan if isinstance(value, (bool, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if not math.isfinite(out):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return out


def _as_complex(value, what: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real(value[0], what), _real(value[1], what))
    if isinstance(value, (int, float)):
        return complex(_real(value, what))
    raise ConfigError(f"{what} must be a finite number or [re, im] pair, got {value!r}")


def parse_blade(label: str, n: int) -> int:
    """Blade label like ``e12`` to its bitmask; ``e1.10`` for indices > 9.
    The indices must be strictly increasing, as Multivector.blade takes
    them: ``e21`` is e2 e1 = -e12, which a bitmask cannot carry."""
    if not isinstance(label, str) or not label.startswith("e"):
        raise ConfigError(f"blade label {label!r} must look like 'e12'")
    body = label[1:]
    parts = body.split(".") if "." in body else list(body)
    if not parts:
        raise ConfigError(f"blade label {label!r} names no generators")
    mask = 0
    for part in parts:
        if not (part.isascii() and part.isdigit()):  # int() refuses '²', isdigit() does not
            raise ConfigError(f"blade label {label!r} has a non-digit index")
        a = int(part)
        if not 1 <= a <= n:
            raise ConfigError(f"generator index {a} out of range 1..{n} in {label!r}")
        if mask >> (a - 1):  # a generator at or above a is already in the mask
            raise ConfigError(f"blade label {label!r} must list strictly increasing indices")
        mask |= 1 << (a - 1)
    return mask


def poly_rows(sig: Signature, data, key: str, mask: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows (T, n) and coefficient rows (T, dim), on blade mask, of
    a JSON polynomial {"monomials": [{"exps": [n integers], "coeff": [re, im]}, ...]}.

    Exponents follow the integer rule of config entries and lie in
    0..2^63 - 1; a coefficient is a list of two finite numbers. Anything
    else raises ConfigError naming key.
    """
    monos = _object(data, key, ("monomials",)).get("monomials")
    if not isinstance(monos, list):
        raise ConfigError(f"{key} must be an object with a 'monomials' list")
    exps = np.zeros((len(monos), sig.n), dtype=np.int64)
    coeffs = np.zeros((len(monos), sig.dim), dtype=np.complex128)
    for t, mono in enumerate(monos):
        where = f"{key}.monomials[{t}]"
        mono = _object(mono, where, ("exps", "coeff"))
        e, c = mono.get("exps"), mono.get("coeff")
        if not isinstance(e, list) or len(e) != sig.n:
            raise ConfigError(f"{where}.exps must be a list of {sig.n} integers, got {e!r}")
        if not isinstance(c, list) or len(c) != 2:
            raise ConfigError(f"{where}.coeff must be a [re, im] pair, got {c!r}")
        row = [_integer(v, f"{where}.exps") for v in e]
        if not all(0 <= v <= np.iinfo(np.int64).max for v in row):
            raise ConfigError(f"{where}.exps must lie in 0..2^63 - 1, got {e!r}")
        exps[t] = row
        coeffs[t, mask] = complex(_real(c[0], f"{where}.coeff"), _real(c[1], f"{where}.coeff"))
    return exps, coeffs


# The keys each kind of frame and gauge object reads; the first kind is the default.
_FRAME_KINDS = {"identity": ("kind",), "constant": ("kind", "matrix"),
                "rotation": ("kind", "generator", "poly", "base"), "random": ("kind", "scale")}
_GAUGE_KINDS = {"exp_bivector": ("kind", "terms"), "random": ("kind", "scale")}


def make_frame_field(sig: Signature, spec, rng=None) -> FrameField:
    """A frame from its config object: identity, constant (a matrix),
    rotation (a generator, a real scalar poly and an optional base) or
    random (an optional scale), drawn from rng, a Generator or seed as
    np.random.default_rng takes it. Any malformed entry, a frame that is
    not pseudo-orthogonal among them, raises ConfigError.
    """
    kind = _kind(spec, "frame", _FRAME_KINDS)

    def matrix(key):
        try:
            arr = np.asarray(spec.get(key))
        except ValueError:  # a ragged list
            arr = np.asarray(None)
        if arr.dtype.kind not in "iuf":  # a float cast would parse strings
            raise ConfigError(f"frame.{key} must be a matrix of numbers, got {spec.get(key)!r}")
        return arr.astype(float)

    try:
        if kind == "random":
            return random_frame(sig, np.random.default_rng(rng),
                                scale=_real(spec.get("scale", 0.4), "frame.scale"))
        if kind != "rotation":
            return FrameField(sig, matrix("matrix") if kind == "constant" else None)
        poly = PolyField(sig, *poly_rows(sig, spec.get("poly"), "frame.poly"))
        base = matrix("base") if spec.get("base") is not None else None
        return FrameField(sig, base, matrix("generator"), poly)
    except FrameError as exc:
        raise ConfigError(f"frame: {exc}") from None


def _gauge_generator(sig: Signature, spec, rng: np.random.Generator) -> PolyField:
    """The bivector generator A of the run's gauge element S = exp(A), from its
    config object: random (an optional nonnegative scale), drawn from rng, or
    exp_bivector (terms, each a bivector blade and a poly)."""
    if _kind(spec, "gauge", _GAUGE_KINDS) == "random":
        scale = _real(spec.get("scale", 0.3), "gauge.scale")
        if scale < 0:  # 0 is the identity gauge
            raise ConfigError(f"gauge.scale must be nonnegative, got {scale!r}")
        return random_bivector_poly_field(sig, rng, scale=scale)
    terms = spec.get("terms", [])
    if not isinstance(terms, list):
        raise ConfigError("gauge.terms must be a list")
    exps, coeffs = [np.zeros((0, sig.n), dtype=np.int64)], [np.zeros((0, sig.dim))]
    for k, term in enumerate(terms):
        where = f"gauge.terms[{k}]"
        if "blade" not in _object(term, where, ("blade", "poly")) or "poly" not in term:
            raise ConfigError(f"{where} needs 'blade' and 'poly'")
        mask = parse_blade(term["blade"], sig.n)
        if mask.bit_count() != 2:
            raise ConfigError(f"{where}.blade {term['blade']!r} is not a bivector")
        e, c = poly_rows(sig, term["poly"], f"{where}.poly", mask)
        exps.append(e)
        coeffs.append(c)
    return PolyField(sig, np.concatenate(exps), np.concatenate(coeffs))


# The keys of a config root.
_CONFIG_KEYS = ("signature", "samples", "seed", "sigma", "mode", "epsilon_override",
                "frame", "gauge", "output")


def parse_config(data: dict) -> RunConfig:
    """Resolve a config object into a RunConfig: the one reader of a run's input.

    Every malformed, non-finite or out-of-range entry and every key that
    nothing reads, at any level, raises ConfigError naming its key, before
    any case is built. Only what depends on the sample points, such as a
    rotation frame whose angle overflows there, is refused by build_case.
    """
    _object(data, "", _CONFIG_KEYS)
    sig_spec = _object(data.get("signature"), "signature", ("p", "q"))
    p = _integer(sig_spec.get("p"), "signature.p")
    q = _integer(sig_spec.get("q"), "signature.q")
    if p < 0 or q < 0:
        raise ConfigError("signature entries must be nonnegative")
    n = p + q
    if not 2 <= n <= n_max():
        raise ConfigError(f"verification needs 2 <= p+q <= {n_max()}, got {n}")

    samples = _object(data.get("samples", {}), "samples", ("count", "box"))
    count = _integer(samples.get("count", 16), "samples.count")
    if count < 1:
        raise ConfigError("samples.count must be positive")
    if (count + 1) << n > MAX_POINT_BLADES:
        raise ConfigError(
            f"samples.count must be at most {(MAX_POINT_BLADES >> n) - 1} for n = {n}: "
            f"(count + 1) points x 2^n blades may not exceed {MAX_POINT_BLADES}")
    box = samples.get("box", [-1.0, 1.0])
    box = (tuple(_real(v, "samples.box") for v in box)
           if isinstance(box, list) and len(box) == 2 else (0.0, 0.0))
    if not (box[0] < box[1] and math.isfinite(box[1] - box[0])):
        raise ConfigError("samples.box must be [lo, hi] with lo < hi and a finite width")

    seed = _integer(data.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")

    sigma = _as_complex(data.get("sigma", 1.0), "sigma")
    try:
        eps_finite = cmath.isfinite(epsilon_value(n, sigma))
    except OverflowError:
        eps_finite = False
    if not eps_finite:
        raise ConfigError(f"sigma {sigma!r} gives a non-finite epsilon = 4(n-1) sigma^3")

    mode = str(data.get("mode", "exact"))
    if mode not in _TOLERANCES:
        raise ConfigError(f"mode must be 'exact' or 'fd', got {mode!r}")

    epsilon_override = data.get("epsilon_override")
    if epsilon_override is not None:
        epsilon_override = _as_complex(epsilon_override, "epsilon_override")
    output = data.get("output")
    if output is not None and not (isinstance(output, str) and output and "\0" not in output):
        raise ConfigError(f"output must be a file path, got {output!r}")

    sig = Signature(p, q)
    rng_frame, rng_gauge = _streams(seed)[:2]
    return RunConfig(
        p=p, q=q,
        frame=make_frame_field(sig, data.get("frame", {}), rng_frame),
        generator=_gauge_generator(sig, data.get("gauge", {}), rng_gauge),
        sigma=sigma, seed=seed, count=count, box=box, mode=mode,
        epsilon_override=epsilon_override, output=output,
    )


def build_case(cfg: RunConfig) -> dict:
    """The objects of a run that carry memos, built afresh on every call:
    the sample points, the gauge element S = exp(cfg.generator), h = y S^-1
    e S (its finite-difference stand-in in fd mode) and its connection C,
    and, from streams 2 and 3 of the seed, the invariance check's gauge
    element and the perturbation of C_0. The frame and h are validated at
    the points."""
    sig = Signature(cfg.p, cfg.q)
    rng_check, rng_perturb = _streams(cfg.seed)[2:]
    gauge = make_gauge_element(cfg.generator)

    points = sample_points(sig.n, count=cfg.count, box=cfg.box, seed=cfg.seed)
    # The vector the run reads is the one validated: in fd mode its values
    # come from the stencil, so the exact vector is never evaluated with
    # derivatives at the sample points.
    h = FrameGaugeFieldVector(cfg.frame, gauge)
    if cfg.mode == "fd":
        h = FiniteDifferenceVector(h)
    cfg.frame.validate(points)
    h.validate(points)
    conn = DerivedConnection(h)

    check_gauge = make_gauge_element(random_bivector_poly_field(sig, rng_check, scale=0.25))
    offset = Multivector(sig, 0.01 * rng_perturb.standard_normal(sig.dim) / np.sqrt(sig.dim))
    return {"sig": sig, "points": points, "h": h, "conn": conn, "check_gauge": check_gauge,
            "perturbation": PolyField.constant(sig, offset)}


def _c2pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# The residual rows a run and its gauge check reduce by point_report. The
# solution rows go first, so that each covector computes its first-order
# jets before the primitive row reads their values.
_RUN_ROWS = SOLUTION_ROWS + PAIR_ROWS
_GAUGE_ROWS = SOLUTION_ROWS + PAIR_ROWS[:1]

# The certified quantities of each scope, as (report key, tolerance key)
# pairs: a run's, its gauge check's (every row held to "gauge"), and the
# demo's comparison with the literal formula.
_CHECKS = {
    "run": (("primitive_max", "primitive"), ("curvature_max", "curvature"),
            ("center_leak_max", "center_leak"), ("eq1_max", "eq1"), ("eq2_max", "eq2"),
            ("conservation_max", "conservation"), ("epsilon_rel_error", "epsilon_rel")),
    "gauge_check": (("center_leak", "center_leak"), *((key, "gauge") for key, _ in _GAUGE_ROWS),
                    ("conjugation_max", "conjugation")),
    "demo": (("explicit_formula_max_dev", "primitive"),),
}


def _breaches(values: dict, scope: str, mode: str) -> list[str]:
    """The checks of scope that values breach in mode, a NaN among them, each
    as "<key> <value> > <bound> (<tolerance key>)"."""
    tol = _TOLERANCES[mode]
    return [f"{key} {values[key]:.3e} > {tol[tk]:.1e} ({tk})"
            for key, tk in _CHECKS[scope] if not values[key] <= tol[tk]]


def breaches(report: dict) -> list[str]:
    """The breached checks of a run_verify or run_demo report, those of its
    gauge check prefixed "gauge_check."; the report passes exactly when there are none."""
    scopes, mode = ("run", "demo")[:1 + ("explicit_formula_max_dev" in report)], report["mode"]
    return ([b for scope in scopes for b in _breaches(report, scope, mode)]
            + [f"gauge_check.{b}" for b in _breaches(report["gauge_check"], "gauge_check", mode)])


def _gauge_check(case: dict, cfg: RunConfig, epsilon: complex) -> dict:
    """Invariance check: transform the case's pair (h, C) by a random
    admissible gauge element S, with the run's sigma and source strength epsilon.

    The transformed pair must pass every residual at every point, and at
    the first three points the residual of a non-flat pair (h, C + a
    perturbation of C_0) must transform as R -> S^-1 R S exactly. That
    check runs the kernels of primitive_residual, TransformedConnection and
    conjugation on [:3] slices of the jets of h, S, S^-1 and S^-1 h S and
    the values of C, so nothing is evaluated at a second point set.
    """
    points = case["points"]
    gauge2: GaugeElement = case["check_gauge"]
    leak = float(np.max(gauge2.center_leaks(points)))  # np.max keeps a NaN

    h, c, sig = case["h"], case["conn"], case["sig"]
    ht, ct = gauge_transform(h, c, gauge2)
    residuals = point_report(YMSolution(ht, ct, cfg.sigma, epsilon), points, _GAUGE_ROWS)
    del ct  # its jet entry is not held through the conjugation check

    t = tables(sig)
    cp = np.array(c.values(points)[:3])
    cp[:, 0] = cp[:, 0] + case["perturbation"].value(points)[:3]
    sj, wj = gauge2.jets(points, 1)[:3], gauge2.inv_jets(points, 0)[:3]
    ref = flatness_residual(h.jets(points, 1)[:3], cp, sig)
    ct_pert = transform_connection(cp[:, :, None], sj, wj, sig)[:, :, 0]
    got = flatness_residual(ht.jets(points, 1)[:3], ct_pert, sig)
    want = t.to_blades(conjugate_jets(wj[:, None, None], t.to_spinor(ref)[..., None, :],
                                      sj[:, None, None, :1], sig)[..., 0, :])

    report = {key: residuals[key] for key, _ in _GAUGE_ROWS}
    report.update(center_leak=leak, conjugation_max=float(np.max(max_per_point(got - want))))
    report["pass"] = not _breaches(report, "gauge_check", cfg.mode)
    return report


def run_verify(cfg: RunConfig) -> tuple[dict, int]:
    """Full pipeline: h, C, solution, residuals, gauge check. Returns (report, exit)."""
    return _certify(build_case(cfg), cfg)


def _certify(case: dict, cfg: RunConfig) -> tuple[dict, int]:
    """The report and exit code of run_verify for a case built from cfg."""
    points = case["points"]
    sol = YMSolution(case["h"], case["conn"], cfg.sigma, cfg.epsilon_override)
    residuals = point_report(sol, points, _RUN_ROWS)
    residuals["center_leak_max"] = residuals.pop("center_leak")  # per point: center_leak
    eps_solved = epsilon_from_residuals(sol, points)
    epsilon = sol.epsilon
    del sol  # B's jets and flux are not held through the gauge check
    eps_formula = epsilon_value(cfg.n, cfg.sigma)
    eps_rel = (abs(eps_solved - eps_formula) / abs(eps_formula)
               if eps_formula != 0 else abs(eps_solved))

    gauge_check = _gauge_check(case, cfg, epsilon)

    report = {
        "signature": {"p": cfg.p, "q": cfg.q},
        "sigma": _c2pair(cfg.sigma),
        "epsilon": _c2pair(epsilon),
        "epsilon_formula": _c2pair(eps_formula),
        "epsilon_solved": _c2pair(eps_solved),
        "epsilon_rel_error": float(eps_rel),
        "epsilon_override": (None if cfg.epsilon_override is None
                             else _c2pair(cfg.epsilon_override)),
        "seed": int(cfg.seed),
        "mode": cfg.mode,
        "box": [cfg.box[0], cfg.box[1]],
        **residuals,
        "gauge_check": gauge_check,
        "tolerances": dict(_TOLERANCES[cfg.mode]),
    }
    report["pass"] = ok = not breaches(report)
    return report, (0 if ok else 3)


# The frozen small-n connection weights (r for even n, s for odd n).
_GOLDEN_WEIGHTS = {2: golden.R_N2, 3: golden.S_N3, 4: golden.R_N4}


def explicit_connection(h, x) -> np.ndarray:
    """C_mu at the points x as spinor arrays, shape (P, n, dim), from the
    frozen small-n weights by nested products of values only.

    Independent of the table machinery and of the jet products: W_mu and
    the contractions F[h] are built from the field vector's values and
    first derivatives by plain row products, and the weights are golden's
    fractions for n in {2, 3, 4}.
    """
    sig, n = h.sig, h.sig.n
    if n not in _GOLDEN_WEIGHTS:
        raise ConfigError(f"explicit weights known only for n in (2, 3, 4), got {n}")
    metric = sig.metric()
    product = tables(sig).product
    hj = h.jets(x, 1)
    hv = hj[:, :, None, 0]  # hv[:, rho] broadcasts over mu
    w = 0
    for rho in range(n):
        w = w + metric[rho] * product(hj[:, rho, 1:], hv[:, rho])

    def contract_rows(u):
        acc = 0
        for rho in range(n):
            acc = acc + metric[rho] * product(product(hv[:, rho], u), hv[:, rho])
        return acc

    return contraction_series(w, _GOLDEN_WEIGHTS[n], contract_rows)


def run_demo(n: int) -> tuple[dict, int]:
    """End-to-end small-n showcase in Cl(n,0).

    Builds a seeded random field vector, checks the derived connection
    against the literal explicit-weight formula, certifies that same case
    as run_verify would, and reports the table data alongside.
    """
    if n not in (2, 3, 4):
        raise ConfigError(f"demo supports n in (2, 3, 4), got {n}")
    cfg = parse_config({"signature": {"p": n, "q": 0}, "frame": {"kind": "random"},
                        "gauge": {"kind": "random", "scale": 0.3}, "samples": {"count": 8},
                        "seed": 12345})
    case = build_case(cfg)

    # Both sides on the case's whole point set, compared at its first four
    # points in blade coordinates.
    derived = case["conn"].values(case["points"])[:4]
    literal = explicit_connection(case["h"], case["points"])[:4]
    explicit_dev = float(np.max(max_per_point(tables(case["sig"]).to_blades(derived - literal))))

    report = _certify(case, cfg)[0]
    report["explicit_weights"] = [fraction_to_json(f) for f in _GOLDEN_WEIGHTS[n]]
    report["explicit_formula_max_dev"] = explicit_dev
    report["lambdas"] = list(lambdas(n))
    report["pass"] = ok = not breaches(report)
    return report, (0 if ok else 3)
