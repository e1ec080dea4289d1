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
from .contraction import build_table, contraction_series, fraction_to_json
from .fields import (
    ConfigError,
    FiniteDifferenceVector,
    FrameGaugeFieldVector,
    GaugeElement,
    PolyField,
    _integer,
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


def parse_config(data: dict, sigma_override: complex | None = None,
                 seed_override: int | None = None, fd: bool = False) -> RunConfig:
    """Resolve a config dict plus command-line overrides into a RunConfig.

    Every malformed, non-finite or out-of-range entry raises ConfigError
    naming its key.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    sig_spec = data.get("signature")
    if not isinstance(sig_spec, dict) or "p" not in sig_spec or "q" not in sig_spec:
        raise ConfigError("config needs signature: {\"p\": .., \"q\": ..}")
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
    for key, val in extra.items():
        if key not in tolerances:
            raise ConfigError(f"unknown tolerance {key!r}")
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
        scale = _real(spec.get("scale", 0.3), "gauge.scale")
        if scale < 0:  # 0 is the identity gauge
            raise ConfigError(f"gauge.scale must be nonnegative, got {scale!r}")
        return random_bivector_poly_field(sig, rng, scale=scale)
    if kind != "exp_bivector":
        raise ConfigError(f"unknown gauge kind {kind!r}")
    terms = spec.get("terms", [])
    if not isinstance(terms, (list, tuple)):
        raise ConfigError("gauge.terms must be a list")
    exps, coeffs = [np.zeros((0, sig.n), dtype=np.int64)], [np.zeros((0, sig.dim))]
    for k, term in enumerate(terms):
        if not isinstance(term, dict) or "blade" not in term or "poly" not in term:
            raise ConfigError("each gauge term needs 'blade' and 'poly'")
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
    table = build_table(sig.n)
    conn = DerivedConnection(h, table)

    check_gen = random_bivector_poly_field(sig, rng_gauge2, scale=0.25)
    check_gauge = make_gauge_element(check_gen)
    amp = 0.01
    offset = Multivector(
        sig, amp * rng_perturb.standard_normal(sig.dim) / np.sqrt(sig.dim))
    perturbation = PolyField.constant(sig, offset)

    return {
        "sig": sig,
        "frame": frame,
        "gauge": gauge,
        "points": points,
        "h": h,
        "table": table,
        "conn": conn,
        "check_gauge": check_gauge,
        "perturbation": perturbation,
    }


def _c2pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _gauge_check(case: dict, sol: YMSolution, cfg: RunConfig,
                 epsilon: complex | None) -> dict:
    """Invariance check: transform by a random admissible gauge element S.

    The transformed pair must pass every residual at every point, and at
    the first three points the residual of a non-flat pair (h, C + a
    perturbation of C_0) must transform as R -> S^-1 R S exactly. That
    check runs the kernels of primitive_residual, TransformedConnection and
    conjugation on [:3] slices of the jets of h, S, S^-1 and S^-1 h S and
    the values of C, so nothing is evaluated at a second point set.
    """
    tol = cfg.tolerances
    points = case["points"]
    gauge2: GaugeElement = case["check_gauge"]
    leak, _ = gauge2.membership_report(points)

    # The residuals bring the transformed connection to first order, and
    # the primitive residual reads the value rows of the same jets.
    ht, ct = gauge_transform(sol.h, sol.c, gauge2)
    ym = verify_solution(YMSolution(ht, ct, sol.sigma), points, epsilon=epsilon)
    prim_max = float(np.abs(primitive_residual(ht, ct, points)).max())
    del ct  # its jet entry is not held through the conjugation check

    sig, t = sol.sig, tables(sol.sig)
    cp = np.array(sol.c.values(points)[:3])
    cp[:, 0] = cp[:, 0] + case["perturbation"].value(points)[:3]
    sj, wj = gauge2.jet(points, 1)[:3], gauge2.inv_jet(points, 0)[:3]
    ref = flatness_residual(sol.h.jets(points, 1)[:3], cp, sig)
    ct_pert = transform_connection(cp[:, :, None], sj, wj, sig)[:, :, 0]
    got = flatness_residual(ht.jets(points, 1)[:3], ct_pert, sig)
    want = t.to_blades(conjugate_jets(wj[:, None, None], t.to_spinor(ref)[..., None, :],
                                      sj[:, None, None, :1], sig)[..., 0, :])
    conj_max = float(np.abs(got - want).max())

    ok = (leak <= tol["center_leak"]
          and prim_max <= tol["gauge"]
          and ym["eq1_max"] <= tol["gauge"]
          and ym["eq2_max"] <= tol["gauge"]
          and ym["conservation_max"] <= tol["gauge"]
          and conj_max <= tol["conjugation"])
    return {
        "center_leak": leak,
        "primitive_max": prim_max,
        "eq1_max": ym["eq1_max"],
        "eq2_max": ym["eq2_max"],
        "conservation_max": ym["conservation_max"],
        "conjugation_max": conj_max,
        "pass": bool(ok),
    }


def run_verify(cfg: RunConfig) -> tuple[dict, int]:
    """Full pipeline: h, C, solution, residuals, gauge check. Returns (report, exit)."""
    case = build_case(cfg)
    points = case["points"]
    tol = cfg.tolerances

    prim = PrimitiveSolution(case["h"], conn=case["conn"]).campaign(points)
    prim_summary = prim["summary"]

    sol = YMSolution(case["h"], case["conn"], cfg.sigma)
    eps_used = cfg.epsilon_override if cfg.epsilon_override is not None else sol.epsilon
    ym = verify_solution(sol, points, epsilon=cfg.epsilon_override)
    eps_solved = epsilon_from_residuals(sol, points)
    eps_formula = sol.epsilon
    eps_rel = (abs(eps_solved - eps_formula) / abs(eps_formula)
               if eps_formula != 0 else abs(eps_solved))

    gauge_check = _gauge_check(case, sol, cfg, cfg.epsilon_override)

    per_point = []
    for prim_entry, ym_entry in zip(prim["per_point"], ym["per_point"]):
        merged = dict(prim_entry)
        merged.update({k: v for k, v in ym_entry.items() if k != "point"})
        per_point.append(merged)

    ok = (prim_summary["primitive_max"]["max"] <= tol["primitive"]
          and prim_summary["curvature_max"]["max"] <= tol["curvature"]
          and prim_summary["center_leak"]["max"] <= tol["center_leak"]
          and ym["eq1_max"] <= tol["eq1"]
          and ym["eq2_max"] <= tol["eq2"]
          and ym["conservation_max"] <= tol["conservation"]
          and eps_rel <= tol["epsilon_rel"]
          and gauge_check["pass"])

    report = {
        "signature": {"p": cfg.p, "q": cfg.q},
        "sigma": _c2pair(cfg.sigma),
        "epsilon": _c2pair(complex(eps_used)),
        "epsilon_formula": _c2pair(eps_formula),
        "epsilon_solved": _c2pair(eps_solved),
        "epsilon_rel_error": float(eps_rel),
        "epsilon_override": (None if cfg.epsilon_override is None
                             else _c2pair(cfg.epsilon_override)),
        "samples": int(len(points)),
        "seed": int(cfg.seed),
        "mode": cfg.mode,
        "box": [cfg.box[0], cfg.box[1]],
        "primitive_max": prim_summary["primitive_max"]["max"],
        "curvature_max": prim_summary["curvature_max"]["max"],
        "center_leak_max": prim_summary["center_leak"]["max"],
        "eq1_max": ym["eq1_max"],
        "eq2_max": ym["eq2_max"],
        "conservation_max": ym["conservation_max"],
        "gauge_check": gauge_check,
        "per_point": per_point,
        "tolerances": dict(tol),
        "pass": bool(ok),
    }
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
    against the literal explicit-weight formula, runs the residual
    campaign, and reports the table data alongside.
    """
    if n not in (2, 3, 4):
        raise ConfigError(f"demo supports n in (2, 3, 4), got {n}")
    cfg = RunConfig(p=n, q=0, sigma=1.0, seed=seed, sample_seed=seed,
                    count=8, frame_spec={"kind": "random"},
                    gauge_spec={"kind": "random", "scale": 0.3})
    case = build_case(cfg)
    table = case["table"]

    # Both sides on the case's whole point set, compared at its first four
    # points in blade coordinates.
    derived = case["conn"].values(case["points"])[:4]
    literal = explicit_connection(case["h"], case["points"], n)[:4]
    explicit_dev = float(np.abs(tables(case["sig"]).to_blades(derived - literal)).max())

    report, code = run_verify(cfg)
    report["explicit_weights"] = [fraction_to_json(f) for f in _GOLDEN_WEIGHTS[n]]
    report["explicit_formula_max_dev"] = explicit_dev
    report["lambdas"] = [int(v) for v in table.lambdas]
    if explicit_dev > cfg.tolerances["primitive"]:
        report["pass"] = False
        code = 3
    return report, code
