"""Seeded request decks for the three benchmark workloads.

A workload is an endless sequence of decks. Deck ``i`` is drawn from its own
generator seeded with (seed, workload, i), so a deck's inputs do not depend on
how many decks ran before it, and every deck has the same fixed composition:
only parameter values change with the seed. The benchmark runs whole decks,
which keeps the request mix, and so the medians, the same from run to run.

An in-process request names a public function by module and attribute and
carries plain numbers; ``invoke`` builds the parameter objects and calls the
function through the module attribute, so the tracer's wrappers see it. A
``cli`` request carries an argv for ``python -m tmoments`` instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("cli", "closed-form", "truncated")
KINDS = ("raw", "central", "abs", "central-abs")


@dataclass(frozen=True)
class Request:
    """One request: what to call, its reuse key, dimension and reference spec.

    ``fn`` is "module.function" for in-process requests and the subcommand
    for ``cli`` ones. ``key`` holds the inputs other than the moment order, so
    two requests with the same key share everything a cache could keep.
    """

    fn: str
    args: tuple
    key: tuple
    dim: int
    ref: tuple


def deck_rng(seed: int, workload: str, deck: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, WORKLOADS.index(workload), deck])


def _loguniform(rng, lo, hi) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _spd(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) * 0.4
    s = a @ a.T + np.diag(rng.uniform(0.5, 2.0, n))
    return 0.5 * (s + s.T)


def _composition(rng, total: int, n: int) -> tuple[int, ...]:
    return tuple(int(v) for v in rng.multinomial(total, [1.0 / n] * n))


def _key(*parts) -> tuple:
    return tuple(tuple(np.ravel(p).tolist()) if isinstance(p, (np.ndarray, list)) else p
                 for p in parts)


# --- closed-form -----------------------------------------------------------

# Below nu = 5.5 the Pfaff series of an odd absolute moment needs more than
# specfun.MAX_SERIES_TERMS terms once |z| = mu^2 sigma / nu passes about 884
# (nu = 3), and abs_moment then raises NonConvergenceError by design. The
# workloads keep |z| under this cap there, so every request has a value.
SMALL_NU = 5.5
Z_CAP = 800.0


def _t1d_params(rng):
    nu = float(rng.uniform(3.0, 60.0))
    sigma = _loguniform(rng, 0.1, 10.0)
    # |mu| spans five decades so the Pfaff series length of abs_moment varies.
    hi = 1e3 if nu >= SMALL_NU else min(1e3, math.sqrt(Z_CAP * nu / sigma))
    mu = float(rng.choice((-1.0, 1.0))) * _loguniform(rng, 1e-2, hi)
    return mu, sigma, nu


def _t1d_request(rng, kind: str, via_central: bool = False, undefined: bool = False):
    mu, sigma, nu = _t1d_params(rng)
    if undefined:
        nu = float(rng.uniform(3.0, 12.0))
        k = math.ceil(nu) + int(rng.integers(0, 3))
    else:
        # Orders within two of nu are left out: the quadrature oracle does not
        # reach 1e-10 on those heavy-tailed integrands.
        k = int(rng.integers(0, min(12, math.ceil(nu) - 2) + 1))
    fn = "t1d.raw_from_central" if via_central else {
        "raw": "t1d.raw_moment", "central": "t1d.central_moment",
        "abs": "t1d.abs_moment", "central-abs": "t1d.central_abs_moment"}[kind]
    return Request(fn, (k, mu, sigma, nu), _key(fn, mu, sigma, nu), 1,
                   ("t1d", kind, k, mu, sigma, nu))


def _normal_request(rng, kind: str):
    mean = float(rng.normal(0.0, 2.0))
    var = _loguniform(rng, 0.1, 10.0)
    k = int(rng.integers(0, 13))
    fn = {"raw": "normal_moments.normal_raw_moment", "abs": "normal_moments.normal_abs_moment",
          "central": "normal_moments.normal_central_moment"}[kind]
    return Request(fn, (k, mean, var), _key(fn, mean, var), 1, ("normal", kind, k, mean, var))


def _nd_request(rng, n: int = 0, total: int = 0, literal: bool = False,
                undefined: bool = False):
    if undefined:
        n = int(rng.integers(2, 4))
        nu = float(rng.uniform(3.0, 8.0))
        total = math.ceil(nu) + int(rng.integers(0, 3))
    else:
        nu = float(rng.uniform(total + 1.0, total + 40.0))
    k = _composition(rng, total, n)
    mu = rng.normal(0.0, 0.7, n)
    smat = _spd(rng, n)
    fn = "tnd.raw_moment_nd_literal" if literal else "tnd.raw_moment_nd"
    mode = "literal" if literal else "corrected"
    return Request(fn, (k, mu, smat, nu), _key(fn, mu, smat, nu), n,
                   ("nd", mode, k, mu.tolist(), smat.tolist(), nu))


# Dimension and total order of a deck's n-D requests. The recursion's cost
# grows steeply with both, so the run's slowest requests are the few largest
# ones; with both drawn at random their number, and the tail latency, varied
# by 10% from seed to seed. Fixed pairs leave only the split of the order
# between axes, and the parameters, to the seed.
ND_SIZES = tuple((n, t) for n in (2, 3, 4, 5) for t in (2, 5, 8, 11, 14, 17, 20))
ND_LITERAL_SIZES = ((3, 10), (5, 15))


def closed_form_deck(rng) -> list[Request]:
    """100 requests: 57 t1d, 10 normal_moments, 30 raw_moment_nd, 3 undefined orders."""
    deck = [_t1d_request(rng, kind) for kind in KINDS for _ in range(12)]
    deck += [_t1d_request(rng, "raw", via_central=True) for _ in range(9)]
    deck += [_normal_request(rng, kind) for kind, count in
             (("raw", 4), ("abs", 3), ("central", 3)) for _ in range(count)]
    deck += [_nd_request(rng, n, total) for n, total in ND_SIZES]
    deck += [_nd_request(rng, n, total, literal=True) for n, total in ND_LITERAL_SIZES]
    deck += [_t1d_request(rng, KINDS[i], undefined=True) for i in range(2)]
    deck.append(_nd_request(rng, undefined=True))
    order = rng.permutation(len(deck))
    return [deck[i] for i in order]


# --- truncated -------------------------------------------------------------

def _orders(n: int, max_total: int) -> list[tuple[int, ...]]:
    if n == 1:
        return [(k,) for k in range(max_total + 1)]
    return [(h,) + t for h in range(max_total + 1) for t in _orders(n - 1, max_total - h)]


def _box(rng, center, sd, one_sided: bool):
    """Rectangle in standardized units: finite, or open above on even axes.

    A finite side starts 2 sd below to 0.5 sd above the centre. An open axis
    starts within 0.5 sd of it: the 2-D quadrature clips an open side at 5 sd
    past the centre and refines more the longer the clipped side is, so lower
    starts made one open 2-D box cost up to four times another and moved a
    run's throughput by 10% between seeds.
    """
    lower, upper = [], []
    for i, (c, s) in enumerate(zip(center, sd)):
        u = float(rng.random())
        a = c + s * (-2.0 + 2.5 * u)
        b = a + s * float(rng.uniform(0.5, 3.0))
        if one_sided and i % 2 == 0:
            a, b = c + s * (u - 0.5), math.inf
        lower.append(a)
        upper.append(b)
    return lower, upper


def _t_problem(rng, n: int, one_sided: bool):
    nu = float(rng.uniform(5.0, 30.0))
    mu = rng.normal(0.0, 0.5, n)
    smat = _spd(rng, n) if n > 1 else np.array([[_loguniform(rng, 0.5, 2.0)]])
    sd = np.sqrt(nu / (nu - 2.0) * np.diag(np.linalg.inv(smat)))
    lower, upper = _box(rng, mu, sd, one_sided)
    return lower, upper, mu, smat, nu


def _t_group(rng, n: int, max_total: int, one_sided: bool) -> list[Request]:
    lower, upper, mu, smat, nu = _t_problem(rng, n, one_sided)
    key = _key("t", lower, upper, mu, smat, nu)
    return [Request("truncated.trunc_t_moment", (k, lower, upper, mu, smat, nu), key, n,
                    ("trunc_t", k, lower, upper, mu.tolist(), smat.tolist(), nu))
            for k in _orders(n, max_total)]


def _normal_problem(rng, n: int, one_sided: bool):
    mean = rng.normal(0.0, 0.5, n)
    prec = _spd(rng, n) if n > 1 else np.array([[_loguniform(rng, 0.5, 2.0)]])
    lower, upper = _box(rng, mean, np.sqrt(np.diag(np.linalg.inv(prec))), one_sided)
    return lower, upper, mean, prec


def truncated_deck(rng) -> list[Request]:
    """89 calls grouped as censored-t E-steps, plus the comparison modes.

    24 one-dimensional groups (orders 0..2, every fourth interval one-sided),
    2 two-dimensional groups (total order <= 2, one finite box, one open on an
    axis), then 2 trunc_normal_moment, 2 rectangle_probability and 1
    trunc_t_moment_literal calls on fresh inputs. The 1-D calls are 82% of
    the deck, so the median stays inside that class, and the 13 2-D t calls
    (15%) hold the slowest tenth.
    """
    deck: list[Request] = []
    for g in range(24):
        deck += _t_group(rng, 1, 2, one_sided=g % 4 == 3)
    deck += _t_group(rng, 2, 2, one_sided=False)
    deck += _t_group(rng, 2, 2, one_sided=True)
    for one_sided in (False, True):
        lower, upper, mean, prec = _normal_problem(rng, 2, one_sided)
        k = _orders(2, 2)[int(rng.integers(0, 6))]
        deck.append(Request("truncated.trunc_normal_moment", (k, lower, upper, mean, prec),
                            _key("n", lower, upper, mean, prec), 2,
                            ("trunc_normal", k, lower, upper, mean.tolist(), prec.tolist())))
    for n in (1, 2):
        lower, upper, mean, prec = _normal_problem(rng, n, one_sided=n == 1)
        deck.append(Request("truncated.rectangle_probability", (lower, upper, mean, prec),
                            _key("n", lower, upper, mean, prec), n,
                            ("rect_prob", (0,) * n, lower, upper, mean.tolist(), prec.tolist())))
    lower, upper, mu, smat, nu = _t_problem(rng, 2, one_sided=True)
    k = ((1, 0), (0, 1))[int(rng.integers(0, 2))]
    # The literal mode is biased by design and has no oracle; its response is
    # checked against a second evaluation outside the timed loop.
    deck.append(Request("truncated.trunc_t_moment_literal", (k, lower, upper, mu, smat, nu),
                        _key("t", lower, upper, mu, smat, nu), 2, ("repeat",)))
    return deck


def three_d_group(seed: int) -> list[Request]:
    """One 3-D group (total order <= 1, finite box) for the traced run only.

    A 3-D call takes 2-5 s at this commit and its cost varies twofold between
    boxes, so a timed run could hold too few of them to give a steady figure.
    """
    return _t_group(deck_rng(seed, "truncated", 2**40), 3, 1, one_sided=False)


# --- cli -------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _cli(sub: str, opts: dict, ref: tuple, dim: int, key: tuple) -> Request:
    # "--name=value" keeps negative and comma-separated values away from
    # argparse's option detection; a value of None is a bare flag.
    argv = [sub] + [f"--{name}" if value is None else f"--{name}={value}"
                    for name, value in opts.items()]
    return Request(sub, tuple(argv), key, dim, ref)


def _cli_1d(rng, kind: str, sub: str = "one-d", extra=None, max_k: int = 12):
    mu, sigma, nu = _t1d_params(rng)
    k = int(rng.integers(1, min(max_k, math.ceil(nu) - 2) + 1))
    opts = {"kind": kind, "k": k, "mu": _fmt(mu), "sigma": _fmt(sigma), "nu": _fmt(nu)}
    opts.update(extra or {})
    tag = "t1d-oracle" if sub == "oracle" else "t1d"
    return _cli(sub, opts, (tag, kind, k, mu, sigma, nu), 1, _key(sub, mu, sigma, nu))


def _cli_multi(rng, n: int, literal: bool):
    total = int(rng.integers(1, 9))
    nu = float(rng.uniform(total + 1.0, total + 30.0))
    k = _composition(rng, total, n)
    mu = rng.normal(0.0, 0.7, n)
    smat = _spd(rng, n)
    opts = {"k": ",".join(map(str, k)), "mu": ",".join(map(_fmt, mu)),
            "sigma-mat": json.dumps(smat.tolist()), "nu": _fmt(nu),
            "mode": "literal" if literal else "corrected"}
    return _cli("multi", opts, ("nd", opts["mode"], k, mu.tolist(), smat.tolist(), nu), n,
                _key("multi", mu, smat, nu))


def _cli_truncated(rng):
    lower, upper, mu, smat, nu = _t_problem(rng, 1, one_sided=False)
    k = int(rng.integers(0, 3))
    opts = {"k": k, "lower": _fmt(lower[0]), "upper": _fmt(upper[0]), "mu": _fmt(mu[0]),
            "sigma": _fmt(smat[0, 0]), "nu": _fmt(nu)}
    return _cli("truncated", opts, ("trunc_t", (k,), lower, upper, mu.tolist(),
                                    smat.tolist(), nu), 1, _key("truncated", lower, upper, mu, nu))


def _cli_mc(rng, seed: int):
    total = int(rng.integers(1, 4))
    nu = float(rng.uniform(2.0 * total + 6.0, 30.0))
    k = _composition(rng, total, 2)
    mu = rng.normal(0.0, 0.7, 2)
    smat = _spd(rng, 2)
    opts = {"k": ",".join(map(str, k)), "mu": ",".join(map(_fmt, mu)),
            "sigma-mat": json.dumps(smat.tolist()), "nu": _fmt(nu), "method": "mc",
            "samples": 100_000, "seed": seed}
    return _cli("oracle", opts, ("nd", "corrected", k, mu.tolist(), smat.tolist(), nu), 2,
                _key("mc", mu, smat, nu))


def cli_deck(rng) -> list[Request]:
    """11 processes: one-d in all four kinds and --via-central, multi in 2-D
    corrected and 3-D literal mode, a 1-D truncated moment, the 1-D quadrature
    and 2-D Monte Carlo oracles, and a 1-D verify."""
    deck = [_cli_1d(rng, kind) for kind in KINDS]
    deck.append(_cli_1d(rng, "raw", extra={"via-central": None}))
    deck.append(_cli_multi(rng, 2, literal=False))
    deck.append(_cli_multi(rng, 3, literal=True))
    deck.append(_cli_truncated(rng))
    deck.append(_cli_1d(rng, "raw", sub="oracle", max_k=6))
    deck.append(_cli_mc(rng, int(rng.integers(0, 2**31))))
    deck.append(_cli_1d(rng, "raw", sub="verify", max_k=6))
    return deck


def deck(workload: str, seed: int, index: int) -> list[Request]:
    rng = deck_rng(seed, workload, index)
    if workload == "cli":
        return cli_deck(rng)
    if workload == "closed-form":
        return closed_form_deck(rng)
    return truncated_deck(rng)


# --- calling the library ---------------------------------------------------

def invoke(tm, req: Request):
    """Build the parameter objects from plain numbers and call the function."""
    module, name = req.fn.split(".")
    fn = getattr(getattr(tm, module), name)
    a = req.args
    if module == "t1d":
        return fn(a[0], tm.t1d.TParams1D(a[1], a[2], a[3]))
    if module == "normal_moments":
        return fn(tm.normal_moments.NormalParams(a[1], a[2]), a[0])
    if module == "tnd":
        return fn(a[0], tm.tnd.TParamsND(a[1], a[2], a[3]))
    if name == "rectangle_probability":
        return fn(tm.truncated.Rectangle(a[0], a[1]), a[2], a[3])
    rect = tm.truncated.Rectangle(a[1], a[2])
    if name == "trunc_normal_moment":
        return fn(a[0], rect, a[3], a[4])
    return fn(a[0], rect, tm.tnd.TParamsND(a[3], a[4], a[5]))
