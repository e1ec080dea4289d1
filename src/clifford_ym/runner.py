"""Verification campaigns: config parsing, case construction, reports.

A run is described by a JSON config (signature, frame, gauge, samples)
plus a handful of scalars (sigma, seed, derivative mode, tolerances).
The runner builds the field vector, derives its connection, assembles
the Yang-Mills solution, measures every residual at the sample points,
applies a random gauge transformation as an invariance check, and folds
everything into one deterministic report.
"""

from __future__ import annotations

import cmath
import copy
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    Multivector,
    Signature,
    n_max,
    tables,
)
from . import golden
from .contraction import contraction_series, fraction_to_json, lambdas
from .fields import (
    ConfigError,
    FiniteDifferenceVector,
    FrameGaugeFieldVector,
    GaugeElement,
    PolyField,
    _integer,
    _known_keys,
    _real,
    conjugate_jets,
    make_frame_field,
    make_gauge_element,
    poly_rows,
    random_bivector_poly_field,
    random_frame,
    sample_points,
)
from .primitive import (
    DerivedConnection,
    PrimitiveSolution,
    flatness_residual,
    gauge_transform,
    primitive_residual,
    transform_connection,
)
from .yang_mills import (
    YMSolution,
    epsilon_from_residuals,
    epsilon_value,
    verify_solution,
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


# Work cap of a run: sample points (count plus the origin) times the 2^n
# blades of the algebra. It bounds the work any config can ask for.
MAX_POINT_BLADES = 1 << 16


@dataclass
class RunConfig:
    """Fully resolved verification run parameters.

    seed drives every randomized choice through spawned child streams
    (frame, gauge generator, invariance-check gauge, perturbation), so a
    config plus seed pins the whole run. sample_seed tracks samples.seed
    when the config sets one explicitly, otherwise it follows seed.
    """

    p: int
    q: int
    sigma: complex = 1.0 + 0.0j
    seed: int = 0
    sample_seed: int = 0
    count: int = 16
    box: tuple[float, float] = (-1.0, 1.0)
    mode: str = "exact"
    fd_step: float = 1e-5
    tolerances: dict = field(default_factory=lambda: dict(EXACT_TOLERANCES))
    frame_spec: dict = field(default_factory=lambda: {"kind": "identity"})
    gauge_spec: dict = field(default_factory=lambda: {"kind": "exp_bivector", "terms": []})
    epsilon_override: complex | None = None
    output: str | None = None

    @property
    def n(self) -> int:
        return self.p + self.q


def parse_blade(label: str, n: int) -> int:
    """Blade label like ``e12`` to its bitmask; ``e1.10`` for indices > 9."""
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
        bit = 1 << (a - 1)
        if mask & bit:
            raise ConfigError(f"repeated generator index {a} in blade {label!r}")
        mask |= bit
    return mask


def _as_complex(value, what: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real(value[0], what), _real(value[1], what))
    if isinstance(value, complex) and cmath.isfinite(value):
        return value
    if isinstance(value, (int, float)):
        return complex(_real(value, what))
    raise ConfigError(f"{what} must be a finite number or [re, im] pair, got {value!r}")


# The keys of a config root; the objects below it are checked by their readers.
_CONFIG_KEYS = ("signature", "samples", "seed", "sigma", "mode", "tolerances",
                "epsilon_override", "frame", "gauge", "output", "fd_step")


def parse_config(data: dict, sigma_override: complex | None = None,
                 seed_override: int | None = None, fd: bool = False) -> RunConfig:
    """Resolve a config dict plus command-line overrides into a RunConfig.

    Every malformed, non-finite or out-of-range entry and every unread key
    raises ConfigError naming its key.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _known_keys(data, _CONFIG_KEYS, "")
    sig_spec = data.get("signature")
    if not isinstance(sig_spec, dict) or "p" not in sig_spec or "q" not in sig_spec:
        raise ConfigError("config needs signature: {\"p\": .., \"q\": ..}")
    _known_keys(sig_spec, ("p", "q"), "signature.")
    p = _integer(sig_spec["p"], "signature.p")
    q = _integer(sig_spec["q"], "signature.q")
    if p < 0 or q < 0:
        raise ConfigError("signature entries must be nonnegative")
    n = p + q
    if not 2 <= n <= n_max():
        raise ConfigError(f"verification needs 2 <= p+q <= {n_max()}, got {n}")

    samples = data.get("samples", {})
    if not isinstance(samples, dict):
        raise ConfigError("samples must be an object")
    _known_keys(samples, ("count", "box", "seed"), "samples.")
    count = _integer(samples.get("count", 16), "samples.count")
    if count < 1:
        raise ConfigError("samples.count must be positive")
    if (count + 1) << n > MAX_POINT_BLADES:
        raise ConfigError(
            f"samples.count must be at most {(MAX_POINT_BLADES >> n) - 1} for n = {n}: "
            f"(count + 1) points x 2^n blades may not exceed {MAX_POINT_BLADES}")
    box = samples.get("box", [-1.0, 1.0])
    if not isinstance(box, (list, tuple)) or len(box) != 2:
        raise ConfigError("samples.box must be [lo, hi] with lo < hi")
    box = (_real(box[0], "samples.box"), _real(box[1], "samples.box"))
    if not box[0] < box[1]:
        raise ConfigError("samples.box must be [lo, hi] with lo < hi")

    if seed_override is not None:
        seed = sample_seed = _integer(seed_override, "seed")
    else:
        seed = _integer(data.get("seed", samples.get("seed", 0)), "seed")
        sample_seed = _integer(samples.get("seed", seed), "samples.seed")
    if seed < 0 or sample_seed < 0:
        raise ConfigError("seed and samples.seed must be nonnegative")

    sigma = _as_complex(data.get("sigma", 1.0) if sigma_override is None else sigma_override,
                        "sigma")
    try:
        eps_finite = cmath.isfinite(epsilon_value(n, sigma))
    except OverflowError:
        eps_finite = False
    if not eps_finite:
        raise ConfigError(f"sigma {sigma!r} gives a non-finite epsilon = 4(n-1) sigma^3")

    mode = str(data.get("mode", "exact"))
    if fd:
        mode = "fd"
    if mode not in ("exact", "fd"):
        raise ConfigError(f"mode must be 'exact' or 'fd', got {mode!r}")

    tolerances = dict(FD_TOLERANCES if mode == "fd" else EXACT_TOLERANCES)
    extra = data.get("tolerances", {})
    if not isinstance(extra, dict):
        raise ConfigError("tolerances must be an object")
    _known_keys(extra, tolerances, "tolerances.")
    for key, val in extra.items():
        tolerances[key] = _real(val, f"tolerances.{key}", positive=True)

    epsilon_override = data.get("epsilon_override")
    if epsilon_override is not None:
        epsilon_override = _as_complex(epsilon_override, "epsilon_override")

    frame_spec = data.get("frame", {"kind": "identity"})
    gauge_spec = data.get("gauge", {"kind": "exp_bivector", "terms": []})
    if not isinstance(frame_spec, dict) or not isinstance(gauge_spec, dict):
        raise ConfigError("frame and gauge specs must be objects")
    output = data.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output must be a file path, got {output!r}")

    return RunConfig(
        p=p, q=q, sigma=sigma, seed=seed, sample_seed=sample_seed,
        count=count, box=box, mode=mode,
        fd_step=_real(data.get("fd_step", 1e-5), "fd_step", positive=True),
        tolerances=tolerances,
        frame_spec=copy.deepcopy(frame_spec), gauge_spec=copy.deepcopy(gauge_spec),
        epsilon_override=epsilon_override, output=output,
    )


def _gauge_generator(sig: Signature, spec: dict, rng: np.random.Generator) -> PolyField:
    kind = spec.get("kind", "exp_bivector")
    if kind == "random":
        _known_keys(spec, ("kind", "scale"), "gauge.")
        scale = _real(spec.get("scale", 0.3), "gauge.scale")
        if scale < 0:  # 0 is the identity gauge
            raise ConfigError(f"gauge.scale must be nonnegative, got {scale!r}")
        return random_bivector_poly_field(sig, rng, scale=scale)
    if kind != "exp_bivector":
        raise ConfigError(f"unknown gauge kind {kind!r}")
    _known_keys(spec, ("kind", "terms"), "gauge.")
    terms = spec.get("terms", [])
    if not isinstance(terms, (list, tuple)):
        raise ConfigError("gauge.terms must be a list")
    exps, coeffs = [np.zeros((0, sig.n), dtype=np.int64)], [np.zeros((0, sig.dim))]
    for k, term in enumerate(terms):
        if not isinstance(term, dict) or "blade" not in term or "poly" not in term:
            raise ConfigError("each gauge term needs 'blade' and 'poly'")
        _known_keys(term, ("blade", "poly"), f"gauge.terms[{k}].")
        e, c = poly_rows(sig, term["poly"], f"gauge.terms[{k}].poly",
                         parse_blade(term["blade"], sig.n))
        exps.append(e)
        coeffs.append(c)
    return PolyField(sig, np.concatenate(exps), np.concatenate(coeffs))


def build_case(cfg: RunConfig) -> dict:
    """Construct every object a verification run needs, seed-deterministically."""
    sig = Signature(cfg.p, cfg.q)
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_frame, rng_gauge, rng_gauge2, rng_perturb = (
        np.random.default_rng(s) for s in streams)

    if cfg.frame_spec.get("kind") == "random":
        _known_keys(cfg.frame_spec, ("kind", "scale"), "frame.")
        frame = random_frame(sig, rng_frame,
                             scale=_real(cfg.frame_spec.get("scale", 0.4), "frame.scale"))
    else:
        frame = make_frame_field(sig, cfg.frame_spec)
    generator = _gauge_generator(sig, cfg.gauge_spec, rng_gauge)
    gauge = make_gauge_element(generator)

    points = sample_points(sig.n, count=cfg.count, box=cfg.box, seed=cfg.sample_seed)
    # The vector the run reads is the one validated: in fd mode its values
    # come from the stencil, so the exact vector is never evaluated with
    # derivatives at the sample points.
    h = FrameGaugeFieldVector(frame, gauge)
    if cfg.mode == "fd":
        h = FiniteDifferenceVector(h, step=cfg.fd_step)
    frame.validate(points)
    h.validate(points)
    conn = DerivedConnection(h)

    check_gen = random_bivector_poly_field(sig, rng_gauge2, scale=0.25)
    check_gauge = make_gauge_element(check_gen)
    amp = 0.01
    offset = Multivector(
        sig, amp * rng_perturb.standard_normal(sig.dim) / np.sqrt(sig.dim))
    perturbation = PolyField.constant(sig, offset)

    return {
        "sig": sig,
        "points": points,
        "h": h,
        "conn": conn,
        "check_gauge": check_gauge,
        "perturbation": perturbation,
    }


def _c2pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


# The certified quantities, as (report key, tolerance key) pairs: those of a
# run, of its gauge check, and the demo's comparison with the literal formula.
_RUN_CHECKS = (("primitive_max", "primitive"), ("curvature_max", "curvature"),
               ("center_leak_max", "center_leak"), ("eq1_max", "eq1"), ("eq2_max", "eq2"),
               ("conservation_max", "conservation"), ("epsilon_rel_error", "epsilon_rel"))
_GAUGE_CHECKS = (("center_leak", "center_leak"), ("primitive_max", "gauge"),
                 ("eq1_max", "gauge"), ("eq2_max", "gauge"), ("conservation_max", "gauge"),
                 ("conjugation_max", "conjugation"))
_DEMO_CHECKS = (("explicit_formula_max_dev", "primitive"),)


def _within(values: dict, checks, tol: dict) -> bool:
    """Whether every checked value is at most its tolerance; a NaN is not."""
    return all(values[key] <= tol[tol_key] for key, tol_key in checks)


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
    leak, _ = gauge2.membership_report(points)

    # The residuals bring the transformed connection to first order, and
    # the primitive residual reads the value rows of the same jets.
    h, c, sig = case["h"], case["conn"], case["sig"]
    ht, ct = gauge_transform(h, c, gauge2)
    ym = verify_solution(YMSolution(ht, ct, cfg.sigma, epsilon), points)
    prim_max = float(np.abs(primitive_residual(ht, ct, points)).max())
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
    conj_max = float(np.abs(got - want).max())

    report = {"center_leak": leak, "primitive_max": prim_max,
              **{key: ym[key] for key in ("eq1_max", "eq2_max", "conservation_max")},
              "conjugation_max": conj_max}
    report["pass"] = _within(report, _GAUGE_CHECKS, cfg.tolerances)
    return report


def run_verify(cfg: RunConfig) -> tuple[dict, int]:
    """Full pipeline: h, C, solution, residuals, gauge check. Returns (report, exit)."""
    return _certify(build_case(cfg), cfg)


def _certify(case: dict, cfg: RunConfig) -> tuple[dict, int]:
    """The report and exit code of run_verify for a case built from cfg."""
    points = case["points"]
    tol = cfg.tolerances

    prim = PrimitiveSolution(case["conn"]).campaign(points)

    sol = YMSolution(case["h"], case["conn"], cfg.sigma, cfg.epsilon_override)
    ym = verify_solution(sol, points)
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
        "samples": int(len(points)),
        "seed": int(cfg.seed),
        "mode": cfg.mode,
        "box": [cfg.box[0], cfg.box[1]],
        "primitive_max": prim["primitive_max"],
        "curvature_max": prim["curvature_max"],
        "center_leak_max": prim["center_leak"],
        "eq1_max": ym["eq1_max"],
        "eq2_max": ym["eq2_max"],
        "conservation_max": ym["conservation_max"],
        "gauge_check": gauge_check,
        "per_point": [{**a, **b} for a, b in zip(prim["per_point"], ym["per_point"])],
        "tolerances": dict(tol),
    }
    report["pass"] = ok = _within(report, _RUN_CHECKS, tol) and gauge_check["pass"]
    return report, (0 if ok else 3)


# The frozen small-n connection weights (r for even n, s for odd n).
_GOLDEN_WEIGHTS = {2: golden.R_N2, 3: golden.S_N3, 4: golden.R_N4}


def explicit_connection(h, x, n: int) -> np.ndarray:
    """C_mu at the points x as spinor arrays, shape (P, n, dim), from the
    frozen small-n weights by nested products of values only.

    Independent of the table machinery and of the jet products: W_mu and
    the contractions F[h] are built from the field vector's values and
    first derivatives by plain row products, and the weights are golden's
    fractions for n in {2, 3, 4}.
    """
    if n not in _GOLDEN_WEIGHTS:
        raise ConfigError(f"explicit weights known only for n in (2, 3, 4), got {n}")
    sig = h.sig
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


def run_demo(n: int, seed: int = 12345) -> tuple[dict, int]:
    """End-to-end small-n showcase in Cl(n,0).

    Builds a seeded random field vector, checks the derived connection
    against the literal explicit-weight formula, certifies that same case
    as run_verify would, and reports the table data alongside.
    """
    if n not in (2, 3, 4):
        raise ConfigError(f"demo supports n in (2, 3, 4), got {n}")
    cfg = RunConfig(p=n, q=0, sigma=1.0, seed=seed, sample_seed=seed,
                    count=8, frame_spec={"kind": "random"},
                    gauge_spec={"kind": "random", "scale": 0.3})
    case = build_case(cfg)

    # Both sides on the case's whole point set, compared at its first four
    # points in blade coordinates.
    derived = case["conn"].values(case["points"])[:4]
    literal = explicit_connection(case["h"], case["points"], n)[:4]
    explicit_dev = float(np.abs(tables(case["sig"]).to_blades(derived - literal)).max())

    report, code = _certify(case, cfg)
    report["explicit_weights"] = [fraction_to_json(f) for f in _GOLDEN_WEIGHTS[n]]
    report["explicit_formula_max_dev"] = explicit_dev
    report["lambdas"] = list(lambdas(n))
    if not _within(report, _DEMO_CHECKS, cfg.tolerances):
        report["pass"] = False
        code = 3
    return report, code
