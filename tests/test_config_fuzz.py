"""Property-based fuzzing of parse_config, of the cases build_case builds
from its frame and gauge, and of whole verify campaigns.

Whatever JSON object a config file holds, parse_config either resolves it
into a RunConfig, frame and gauge generator included, or refuses it with
ConfigError, and build_case either builds the case at the sample points or
refuses it with a CliffordError. The
command line maps both refusals to exit 2; any other exception would
surface as a traceback. A whole campaign exits 0, 2 or 3 and prints the
same report when run again.
"""

import collections
import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from clifford_ym.algebra import CliffordError  # noqa: E402
from clifford_ym.cli import EXIT_CONFIG, EXIT_OK, EXIT_TOLERANCE, main  # noqa: E402
from clifford_ym.runner import ConfigError, RunConfig, build_case, parse_config  # noqa: E402

VALID = {
    "signature": {"p": 2, "q": 1},
    "samples": {"count": 4, "box": [-1.0, 1.0]},
    "seed": 5,
    "sigma": [1.0, 0.5],
    "mode": "exact",
    "epsilon_override": [2.0, 0.0],
    "frame": {"kind": "rotation", "generator": [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
              "poly": {"monomials": [{"exps": [1, 0, 1], "coeff": [0.5, 0.0]}]}},
    "gauge": {"kind": "exp_bivector", "terms": [{
        "blade": "e12", "poly": {"monomials": [{"exps": [1, 0, 0], "coeff": [0.3, 0.0]}]}}]},
    "output": "report.json",
}

# Keys the parser looks for, so arbitrary objects reach past the first check.
KEYS = sorted({"p", "q", "count", "box", "kind", "scale", "matrix", "base", "generator",
               "terms", "blade", "monomials", "exps", "coeff"}
              | set(VALID))

SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=6)
           | st.floats(allow_nan=True, allow_infinity=True))
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), inner,
                                     max_size=5)),
    max_leaves=16,
)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def resolves_or_refuses(data):
    try:
        cfg = parse_config(data)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def test_valid_config_resolves():
    cfg = parse_config(copy.deepcopy(VALID))
    assert (cfg.p, cfg.q, cfg.count, cfg.seed) == (2, 1, 4, 5)


@FUZZ
@given(st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), JSON, max_size=8))
def test_arbitrary_objects_resolve_or_refuse(data):
    resolves_or_refuses(data)


def _paths(node, prefix=()):
    """Every key path into a JSON tree, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


PATHS = list(_paths(VALID))
DELETE = object()


def _mutate(data, mutations):
    """Replace the entry at each path with arbitrary JSON, or delete it; a
    path that an earlier mutation removed is skipped."""
    data = copy.deepcopy(data)
    for path, value in mutations:
        parent = data
        for key in path[:-1]:
            parent = parent[key] if _has(parent, key) else None
            if not isinstance(parent, (dict, list)):
                break
        else:
            if not _has(parent, path[-1]):
                continue
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
    return data


MUTATIONS = st.lists(st.tuples(st.sampled_from(PATHS), st.just(DELETE) | JSON),
                     min_size=1, max_size=3)


@FUZZ
@given(MUTATIONS)
def test_nested_mutations_resolve_or_refuse(mutations):
    resolves_or_refuses(_mutate(VALID, mutations))


@FUZZ
@given(MUTATIONS.map(lambda ms: [m for m in ms if m[0][0] in ("frame", "gauge")]),
       st.sampled_from([{"kind": "random"}, {"kind": "constant"}, VALID["frame"]]))
def test_frame_and_gauge_specs_build_or_refuse(mutations, frame):
    try:
        build_case(parse_config(_mutate(dict(VALID, frame=frame), mutations)))
    except CliffordError:  # ConfigError included
        pass


# A monomial entry: arbitrary JSON, or a list of scalars as long as a valid
# exps (n = 3) or coeff (2) entry, so that its items reach the number rules.
ENTRY = JSON | st.lists(SCALARS | st.integers(min_value=2 ** 62), min_size=2, max_size=3)


@FUZZ
@given(st.sampled_from(["gauge", "frame"]), st.sampled_from(["exps", "coeff"]), ENTRY)
@example("gauge", "exps", [10 ** 30, 0, 0])
def test_monomial_entries_build_or_refuse(spec, key, value):
    data = copy.deepcopy(VALID)
    poly = data["gauge"]["terms"][0]["poly"] if spec == "gauge" else data["frame"]["poly"]
    poly["monomials"][0][key] = value
    try:
        build_case(parse_config(data))
    except CliffordError:
        pass


def _has(node, key):
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


# Whole campaigns, run through the command line. Small algebras and point
# sets keep an example to milliseconds. One entry of each config, or none,
# is an arbitrary float (NaN, infinities and huge magnitudes included); the
# others lie where a campaign runs to its verdict.
WILD = (None, "frame", "gauge", "box", "sigma")


@st.composite
def campaigns(draw):
    n = draw(st.integers(2, 4))
    p = draw(st.integers(0, n))
    wild = draw(st.sampled_from(WILD))

    def number(key, lo, hi):
        return draw(st.floats() if key == wild else st.floats(lo, hi))

    def poly(key, real):
        return {"monomials": [
            {"exps": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
             "coeff": [number(key, -0.5, 0.5), 0.0 if real else number(key, -0.5, 0.5)]}
            for _ in range(draw(st.integers(1, 2)))]}

    if draw(st.booleans()):
        frame = {"kind": "random", "scale": number("frame", 0.0, 1.0)}
    else:
        # A rotation in the (e1, e2) plane: M eta + eta M^T = 0.
        eta = [1.0] * p + [-1.0] * (n - p)
        generator = [[0.0] * n for _ in range(n)]
        generator[0][1], generator[1][0] = 1.0, -eta[1] / eta[0]
        frame = {"kind": "rotation", "generator": generator, "poly": poly("frame", real=True)}
    if draw(st.booleans()):
        gauge = {"kind": "random", "scale": number("gauge", 0.0, 1.0)}
    else:
        blades = [f"e{a}{b}" for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        gauge = {"kind": "exp_bivector", "terms": [
            {"blade": draw(st.sampled_from(blades)), "poly": poly("gauge", real=False)}
            for _ in range(draw(st.integers(0, 2)))]}
    lo = number("box", -2.0, 1.0)
    return {
        "signature": {"p": p, "q": n - p},
        "frame": frame,
        "gauge": gauge,
        "samples": {"count": draw(st.integers(1, 4)),
                    "box": [lo, lo + number("box", 0.1, 2.0)]},
        "seed": draw(st.integers(0, 2 ** 16)),
        "sigma": [number("sigma", -2.0, 2.0), number("sigma", -2.0, 2.0)],
        "mode": draw(st.sampled_from(["exact", "fd"])),
    }


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("campaign") / "config.json"


def _verify(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


# Refusal stages the campaign must reach, each named by a fragment of its
# message: parse_config's epsilon of an overflowing sigma, and ExpField's
# generator norm.
REACHED_REFUSALS = {"sigma-epsilon": "gives a non-finite epsilon",
                    "generator-norm": "exponential generator has norm"}


def test_campaigns_exit_cleanly_and_repeat(config_path):
    """Every campaign exits 0, 2 or 3 and prints the same report when run
    again, and the campaign reaches both verdicts and each stage of
    REACHED_REFUSALS: the draws of campaigns() decide which stages a
    derandomized run reaches, so a change to them cannot drop one unseen."""
    tally = collections.Counter()

    @FUZZ
    @given(campaigns())
    # A gauge generator that overflows to inf at the fd stencil points: refused
    # by ExpField, naming the point.
    @example({"signature": {"p": 2, "q": 0}, "frame": {"kind": "random", "scale": 0.4},
              "gauge": {"kind": "exp_bivector", "terms": [{"blade": "e12", "poly": {
                  "monomials": [{"exps": [3, 3], "coeff": [1e308, 0.0]}]}}]},
              "samples": {"count": 2, "box": [-2.0, -1.0]}, "seed": 1, "sigma": [1.0, 0.0],
              "mode": "fd"})
    # A sigma whose epsilon = 4(n-1) sigma^3 overflows: refused by parse_config.
    @example({"signature": {"p": 1, "q": 1}, "frame": {"kind": "random", "scale": 0.4},
              "gauge": {"kind": "random", "scale": 0.3},
              "samples": {"count": 2, "box": [-1.0, 1.0]}, "seed": 1, "sigma": [1e110, 0.0],
              "mode": "exact"})
    def campaign(data):
        config_path.write_text(json.dumps(data))  # NaN and Infinity as JSON literals
        code, out, err = _verify(config_path)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_TOLERANCE)
        assert _verify(config_path)[:2] == (code, out)
        tally[code, next((stage for stage, text in REACHED_REFUSALS.items() if text in err),
                         None)] += 1

    campaign()
    assert {(EXIT_OK, None), (EXIT_TOLERANCE, None),
            *((EXIT_CONFIG, stage) for stage in REACHED_REFUSALS)} <= set(tally), tally
