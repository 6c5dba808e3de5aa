"""Singular-weight Gaussian quadrature and regularized line pairings.

Conventions
-----------
* Jacobi rules live on [0, 1] with the weight (1-s)^a s^b absorbed into the
  weights: sum(w * f(nodes)) ~ int_0^1 (1-s)^a s^b f(s) ds.  Golub-Welsch
  nodes from numpy's eigvalsh take a Newton step by scipy.special.eval_jacobi.
* Gauss-Legendre rules are memoized per size on [-1, 1]; ``legendre_panels``
  maps one onto every panel of a partition.
* ``integrate_semi_infinite`` integrates int_0^inf v^sing_exp g(v) dv for g
  that decays faster than any polynomial; the singular head is a Jacobi
  rule, the tail is ``doubling_tail``, the one loop of doubling
  Gauss-Legendre panels that every semi-infinite integral here ends in.
* Weighted powers with an interior |t| kink never reach a rule directly; the
  callers reduce them to [0, 1] Jacobi weights by parity and s = t^2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import eval_jacobi

from .functions import as_smooth
from .special import OrderParam, as_order

__all__ = [
    "QuadRule",
    "PairingResult",
    "TailNonConvergence",
    "jacobi_rule",
    "theta_rule",
    "radial_rule",
    "legendre_rule",
    "legendre_panels",
    "doubling_tail",
    "integrate_semi_infinite",
    "homogeneous_pairing",
    "weyl_integral",
    "riemann_liouville_integral",
]

DEFAULT_JACOBI_NODES = 64
DEFAULT_PANEL_NODES = 48
MAX_DOUBLINGS = 60
#: relative size of the doubling panel that ends ``integrate_semi_infinite``
SEMI_INFINITE_TOL = 1e-12
#: Gauss points of ``weyl_integral``'s per-s Jacobi heads and of its shared panels
WEYL_HEAD_NODES = 32
WEYL_PANEL_NODES = 40
#: ``riemann_liouville_integral``'s panel width in y = sqrt(u), and its Gauss
#: points per head and per panel
RL_PANEL_WIDTH = 0.75
RL_NODES = 24

_POLE_TOL = 1e-9


class TailNonConvergence(RuntimeError):
    """Tail panels kept contributing after the doubling cap."""


@dataclass(frozen=True)
class QuadRule:
    """Nodes and positive weights on a canonical interval.  Memoized rules
    are shared between callers, so every rule keeps read-only copies."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be equal-length 1-d arrays")
        if nodes.size and np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class PairingResult:
    """Value of a homogeneous-weight pairing, or its residue at a pole."""

    value: float
    pole_flag: bool = False
    residue_estimate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.pole_flag != (self.residue_estimate is not None):
            raise ValueError("residue_estimate must be present exactly when pole_flag is set")


def jacobi_rule(a_exp: float, b_exp: float, n: int = DEFAULT_JACOBI_NODES) -> QuadRule:
    """Gauss rule for the weight (1-s)^a_exp s^b_exp on [0, 1].

    Exact on polynomials up to degree 2n-1; both exponents must exceed -1
    (otherwise the weight is not integrable, e.g. a Sonine exponent
    beta - alpha - 1 <= -1 meaning beta <= alpha).  Rules are memoized on
    (a_exp, b_exp, n) and shared between callers, so their arrays are
    read-only.
    """
    if not (a_exp > -1.0 and b_exp > -1.0):
        raise ValueError(f"non-integrable weight: exponents ({a_exp}, {b_exp}) must exceed -1")
    if n < 1:
        raise ValueError("rule size must be positive")
    return _jacobi_rule(float(a_exp), float(b_exp), int(n))


@functools.lru_cache(maxsize=1024)
def _jacobi_rule(a: float, b: float, n: int) -> QuadRule:
    k, c = np.arange(1.0, n), n + a + b + 1.0
    t = 2.0 * k + (a + b)  # exact where a + b nears -2
    r = np.divide(k + (a + b), t - 1.0, out=np.ones(n - 1), where=k > 1.0)  # (a+b+1)/(a+b+1) at k = 1
    jac = np.diag(np.append((b - a) / (a + b + 2.0), (b * b - a * a) / (t * (t + 2.0))))
    jac.flat[n :: n + 1] = 2.0 / t * np.sqrt(k * (k + a) * (k + b) * r / (t + 1.0))
    x = np.linalg.eigvalsh(jac)
    # P_n^(a,b)(x) = (-1)^n P_n^(b,a)(-x): each root is evaluated near +1, at y = |x|, and held as its gap g = 1 - y
    neg, z = x < 0.0, x[np.argmin(np.abs(x))]
    al, be, y = np.where(neg, b, a), np.where(neg, a, b), np.abs(x)
    g, dp = 1.0 - y, 0.5 * c * eval_jacobi(n - 1, al + 1.0, be + 1.0, y)  # dp = P_n'
    m = (g > 0.0) & (g < 0.1)  # a Newton step where eigvalsh's absolute error is not small against the gap
    p = eval_jacobi(n, al[m], be[m], y[m])
    bend = ((be[m] - al[m] - (a + b + 2.0) * y[m]) * dp[m] + n * c * p) / (g[m] * (2.0 - g[m]))  # -P_n'' (Jacobi's equation)
    g[m], dp[m] = g[m] + p / dp[m], dp[m] + p / dp[m] * bend
    # the end gaps from sum_i 1 / (1 -+ x_i) = n c / (2 (exponent + 1)), exact below the spacing of floats near 1
    lo, hi = np.where(neg, g, 2.0 - g), np.where(neg, 2.0 - g, g)
    lo[0] = 1.0 / (0.5 * n * c / (b + 1.0) - np.sum(1.0 / lo[1:]))
    hi[-1] = 1.0 / (0.5 * n * c / (a + 1.0) - np.sum(1.0 / hi[:-1]))
    g = np.where(neg, lo, hi)
    # eval_jacobi rounds the binomial P_(n-1)^(a+1,b+1)(1) per exponent pair: both frames at the root z nearest 0 match them
    dp[neg] *= abs(np.divide(*eval_jacobi(n - 1, [a + 1.0, b + 1.0], [b + 1.0, a + 1.0], [z, -z])))
    # Gauss weights 1 / ((1 - x^2) P_n'(x)^2), scaled to the exact mass B(a+1, b+1) of (1-s)^a s^b on [0, 1]
    w = 1.0 / (g * (2.0 - g) * (dp / np.max(np.abs(dp))) ** 2)
    w *= math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)) / np.sum(w)
    s = np.where(neg, 0.5 * g, np.minimum(1.0 - 0.5 * g, np.nextafter(1.0, 0.0)))  # a top root closer to 1 than floats
    return QuadRule(nodes=s, weights=w, kind=f"gauss_jacobi({a},{b})")


def theta_rule(alpha: OrderParam | float, n: int = DEFAULT_JACOBI_NODES) -> QuadRule:
    """Rule for int_0^pi g(theta) sin^(2 alpha) theta dtheta, memoized on
    (alpha, n) like ``jacobi_rule``.

    The substitution s = (1 - cos theta)/2 turns the weight into
    2^(2 alpha) (s(1-s))^(alpha-1/2) on [0, 1].
    """
    return _theta_rule(as_order(alpha).alpha, int(n))


@functools.lru_cache(maxsize=256)
def _theta_rule(a: float, n: int) -> QuadRule:
    base = jacobi_rule(a - 0.5, a - 0.5, n)
    theta = np.arccos(1.0 - 2.0 * base.nodes)
    weights = (2.0 ** (2.0 * a)) * base.weights
    return QuadRule(nodes=theta, weights=weights, kind=f"theta({a})")


def radial_rule(alpha: OrderParam | float, half_width: float, n: int = 96) -> QuadRule:
    """Rule for int_0^H g(y) y^(2 alpha + 1) dy with the weight absorbed."""
    a = as_order(alpha).alpha
    base = jacobi_rule(0.0, 2.0 * a + 1.0, n)
    scale = float(half_width)
    return QuadRule(
        nodes=base.nodes * scale,
        weights=base.weights * scale ** (2.0 * a + 2.0),
        kind=f"radial({a})",
    )


@functools.lru_cache(maxsize=64)
def legendre_rule(n: int) -> QuadRule:
    """Gauss-Legendre rule on [-1, 1], memoized per size and shared between
    callers, so its arrays are read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadRule(nodes=x, weights=w, kind="gauss_legendre")


def legendre_panels(edges: Sequence[float], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on every panel
    [e_k, e_(k+1)], each of shape (len(edges) - 1, n)."""
    base = legendre_rule(n)
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1, None], edges[1:, None]
    return a + (b - a) * 0.5 * (base.nodes + 1.0), base.weights * 0.5 * (b - a)


def doubling_tail(summand: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, total, tol: float):
    """Add to ``total`` sum(summand(v, w)) over the Gauss-Legendre nodes v and
    weights w of the panels [lo, 2 lo], [2 lo, 4 lo], ... until a panel after
    the first adds at most ``tol`` of the total; raise TailNonConvergence if
    none has after MAX_DOUBLINGS panels.  Arrays ``lo`` and ``total`` of one
    shape hold one tail per entry: v and w get shape lo.shape + (n,), and
    each entry stops at its own doubling, as it would alone."""
    base = legendre_rule(DEFAULT_PANEL_NODES)
    # legendre_panels([lo, 2 lo]) is lo + lo * nodes, weights * lo: the halving is exact, so the bits agree
    nodes, weights = 0.5 * (base.nodes + 1.0), 0.5 * base.weights
    lo = np.asarray(lo, dtype=float)
    edge, live = lo[..., None], np.ones(lo.shape, dtype=bool)
    for k in range(MAX_DOUBLINGS):
        contribution = np.add.reduce(summand(edge + edge * nodes, weights * edge), axis=-1)
        total = np.where(live, total + contribution, total)
        edge = 2.0 * edge
        if k >= 1:
            live &= ~(np.abs(contribution) <= tol * np.maximum(np.abs(total), 1e-300))
            if not live.any():
                return total[()]
    raise TailNonConvergence(f"tail still contributing beyond {np.max(edge):.3g} after {MAX_DOUBLINGS} doublings")


def integrate_semi_infinite(g: Callable[[np.ndarray], np.ndarray], sing_exp: float, split=1.0):
    """int_0^inf v^sing_exp g(v) dv: the head [0, split] absorbs v^sing_exp
    into a Jacobi rule, and the doubling tail covers the rest, to
    SEMI_INFINITE_TOL.  An array ``split`` gives one integral per entry, in
    its shape, each tail stopping on its own; g then takes nodes of shape
    split.shape + (n,)."""
    if not sing_exp > -1.0:
        raise ValueError(f"singular exponent {sing_exp} must exceed -1")
    split = np.asarray(split, dtype=float)
    if not (split > 0.0).all():
        raise ValueError("split must be positive")
    p = float(sing_exp)
    head, edge = jacobi_rule(0.0, p, DEFAULT_JACOBI_NODES), split[..., None]
    # float_power is libm's pow, the bits of a float's **; np.power's vector loop rounds differently
    total = np.add.reduce(head.weights * np.float_power(edge, p + 1.0) * np.asarray(g(head.nodes * edge)), axis=-1)
    return doubling_tail(lambda v, w: w * v**p * np.asarray(g(v)), split, total, SEMI_INFINITE_TOL)


def homogeneous_pairing(lam: float, phi, taylor_order: int = 10) -> PairingResult:
    """Analytic continuation of int_R |x|^lam phi(x) dx.

    Splits at |x| = 1; on the inner part the even Taylor polynomial of phi up
    to order ``taylor_order`` is subtracted and integrated in closed form,
    each monomial contributing 2 c_{2k} / (lam + 2k + 1).  Valid for
    lam > -(taylor_order + 2) away from the simple poles -(2l+1); at a pole
    the residue 2 phi^(2l)(0)/(2l)! is returned instead of a value.  The
    coefficients come from ``phi.taylor_coeff`` and the values from
    ``phi.even_part``; an input without Taylor data raises ValueError.
    """
    phi = as_smooth(phi)
    lam = float(lam)
    taylor_order = int(taylor_order) + (int(taylor_order) % 2)  # even
    if lam <= -(taylor_order + 2):
        raise ValueError(f"lam={lam} needs taylor_order > {-lam - 2}")
    # c_k = phi^(k)(0)/k!, with a margin of 18 orders to evaluate the subtracted remainder stably
    coeffs = np.asarray([phi.taylor_coeff(k) for k in range(taylor_order + 19)])
    coeffs = coeffs.real if np.isrealobj(coeffs) or np.allclose(coeffs.imag, 0) else coeffs

    for ell in range(taylor_order // 2 + 1):
        if abs(lam + 2 * ell + 1) < _POLE_TOL:
            return PairingResult(value=math.nan, pole_flag=True, residue_estimate=2.0 * float(np.real(coeffs[2 * ell])))

    # analytic contribution of the subtracted polynomial on [-1, 1]
    ks = np.arange(0, taylor_order + 1, 2)
    analytic = float(np.real(np.sum(2.0 * coeffs[ks] / (lam + ks + 1.0))))

    # inner remainder: 2 int_0^1 x^(lam + q) S(x) dx with q = taylor_order + 2
    # and S analytic; S comes from the Taylor tail for small x and from the
    # cancellation formula beyond the switch point.
    q = taylor_order + 2
    switch = 0.35

    def smooth_part(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        small = x < switch
        if np.any(small):
            xs = x[small]
            acc = np.zeros_like(xs)
            for k in range(taylor_order + 2, coeffs.size, 2):
                acc += np.real(coeffs[k]) * xs ** (k - q)
            out[small] = acc
        if np.any(~small):
            xb = x[~small]
            poly = np.zeros_like(xb)
            for k in ks:
                poly += np.real(coeffs[k]) * xb**k
            out[~small] = (np.real(phi.even_part(xb)) - poly) / xb**q
        return out

    inner_rule = jacobi_rule(0.0, lam + q, DEFAULT_JACOBI_NODES)
    inner = 2.0 * float(np.sum(inner_rule.weights * smooth_part(inner_rule.nodes)))

    # outer part: 2 int_1^inf x^lam phi_e(x) dx by doubling panels
    outer = doubling_tail(lambda x, w: w * x**lam * np.real(phi.even_part(x)), 1.0, 0.0, 1e-15)
    return PairingResult(value=analytic + inner + 2.0 * float(outer), pole_flag=False, residue_estimate=None)


def weyl_integral(
    h: Callable[[np.ndarray], Sequence[np.ndarray]],
    mu: float,
    s_values: np.ndarray,
    u_max: float,
) -> np.ndarray:
    """W(s) = int_s^u_max (u-s)^(mu-1) h(u) du for every s in ``s_values``
    and every row of ``h(u)``, each an array of u's shape.

    Shared machinery of the dual intertwiner and dual Sonine transforms in
    squared coordinates u = y^2 (mu = alpha + 1/2 resp. beta - alpha).  For
    each s a private Jacobi head covers [s, E] where E is two geometric edges
    ahead, so the shared doubling panels only ever see (u - s)^(mu-1) with
    bounded variation.  The integral is truncated exactly at u_max: the
    caller chooses it where the integrand has decayed below the target, and
    in particular inside the region its evaluator resolves.  Each distinct s
    is integrated once, so mirrored points +-x cost one head.

    Returns an array of shape (number of rows, len(s_values)).
    """
    if not mu > 0:
        raise ValueError("Weyl order mu must be positive")
    s_values, where = np.unique(np.asarray(s_values, dtype=float), return_inverse=True)
    if s_values.size and s_values[0] < 0:
        raise ValueError("s values must be nonnegative")

    edges = [0.0, 1.0]
    while edges[-1] < u_max:
        edges.append(min(edges[-1] * 2.0, float(u_max)))
    edges = np.asarray(edges)
    n_edges = edges.size

    if s_values.size and s_values[-1] >= edges[-1]:
        raise ValueError("largest s must sit inside the truncated domain; raise u_max")

    head = jacobi_rule(0.0, mu - 1.0, WEYL_HEAD_NODES)
    panel_u, panel_w = legendre_panels(edges, WEYL_PANEL_NODES)
    head_start = np.searchsorted(edges, s_values, side="right") - 1
    head_end_idx = np.minimum(head_start + 2, n_edges - 1)
    head_span = edges[head_end_idx] - s_values
    u_heads = s_values[:, None] + head_span[:, None] * head.nodes[None, :]

    # one call of h, on the shared panels and every per-s head
    rows = [np.asarray(row) for row in h(np.concatenate([panel_u.ravel(), u_heads.ravel()]))]
    h_panel = [row[: panel_u.size] for row in rows]
    heads = np.stack([row[panel_u.size :].reshape(u_heads.shape) @ head.weights for row in rows]) * head_span**mu
    # panel k belongs to the tail of s once it starts at or beyond s's head end
    live = np.arange(n_edges - 1)[None, :] >= head_end_idx[:, None]
    kernel = _panel_kernel(live, panel_u[None] - s_values[:, None, None], panel_w, mu)
    return (heads + _real_matvec(kernel, np.stack(h_panel, axis=1)).T)[:, where]


def _real_matvec(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """table @ w for a real table (a stack takes one product per table): real even for complex w, as column pairs."""
    if not np.iscomplexobj(w):
        return table @ w
    pairs = np.ascontiguousarray(w, dtype=complex).reshape(w.shape[0], -1).view(float)
    return (table @ pairs).view(complex).reshape(*table.shape[:-1], *w.shape[1:])


def _panel_kernel(live: np.ndarray, du: np.ndarray, panel_w: np.ndarray, mu: float) -> np.ndarray:
    """Rows of weights w (u - s)^(mu - 1) over every panel node, one row per
    s, zero on the panels ``live`` (shape (len(s), n_panels)) leaves out."""
    kernel = np.power(du, mu - 1.0, out=np.zeros_like(du), where=live[:, :, None])
    kernel *= panel_w
    return kernel.reshape(du.shape[0], du.shape[1] * du.shape[2])


def riemann_liouville_integral(
    h: Callable[[np.ndarray], Sequence[np.ndarray]],
    left_exponents: Sequence[float],
    mu: float,
    s_values: np.ndarray,
) -> np.ndarray:
    """W(s) = int_0^s (s-u)^(mu-1) u^b h_i(u) du for each s in ``s_values``
    and each row h_i of ``h(u)``, with b = left_exponents[i] (one per row).

    Companion of :func:`weyl_integral` for the finite, left-sided fractional
    integrals of the grid Sonine transform in squared coordinates u = y^2.
    The shared panels are uniform in y = sqrt(u), of width RL_PANEL_WIDTH, so
    an evaluator with spectral content up to frequency ~ pi/(2 RL_PANEL_WIDTH)
    stays resolved at every s simultaneously.  Per-s heads cover the last two
    panels before s with the endpoint weight (s-u)^(mu-1) absorbed.  Each
    distinct s is integrated once, in one call of h.

    Returns an array of shape (len(left_exponents), len(s_values)).
    """
    if not mu > 0:
        raise ValueError("fractional order mu must be positive")
    s_values, where = np.unique(np.asarray(s_values, dtype=float), return_inverse=True)
    if s_values.size == 0:  # h still counts its rows, on no points
        return np.zeros((len(_rows(h, np.empty(0), left_exponents)), 0))
    if s_values[0] <= 0:
        raise ValueError("s values must be strictly positive (handle s=0 in the caller)")

    y_max = math.sqrt(float(s_values[-1]))
    n_panels = max(int(math.ceil(y_max / RL_PANEL_WIDTH)), 2)
    edges = (np.linspace(0.0, y_max, n_panels + 1)) ** 2

    head = jacobi_rule(0.0, mu - 1.0, RL_NODES)
    panel_u, panel_w = legendre_panels(edges, RL_NODES)

    # heads: [E_(j-1), s] where E_j <= s < E_(j+1); for s inside the first
    # two panels the head covers [0, s] with both endpoint weights absorbed
    # per exponent (the u^b factor is only smooth once the head sits clear
    # of the origin).
    j_idx = np.searchsorted(edges, s_values, side="right") - 1
    j_idx = np.minimum(j_idx, n_panels - 1)
    small = j_idx < 2
    big = ~small
    s_small, s_big = s_values[small], s_values[big]
    span = s_big - edges[j_idx[big] - 1]
    u_heads = s_big[:, None] - span[:, None] * head.nodes[None, :]

    # one call of h, on the points of every row: the shared panels, every
    # head, and each exponent's first panel and small-s rule.  The first panel
    # touches u = 0, where u^b is only Jacobi-smooth, so it takes a rule per
    # exponent with the power absorbed.
    rules = [(jacobi_rule(0.0, b_exp, RL_NODES), jacobi_rule(mu - 1.0, b_exp, RL_NODES)) for b_exp in left_exponents]
    own = [p for first, small_rule in rules for p in (first.nodes * edges[1], s_small[:, None] * small_rule.nodes)]
    pieces = (panel_u, *own, u_heads)
    rows = _rows(h, np.concatenate([p.ravel() for p in pieces]), left_exponents)
    offsets = np.cumsum([p.size for p in pieces[:-1]])

    # panels 1 .. j-2 lie between the first panel and the head of s
    k = np.arange(n_panels)[None, :]
    live = (k >= 1) & (k < j_idx[big][:, None] - 1)
    kernel = _panel_kernel(live, s_big[:, None, None] - panel_u[None], panel_w, mu)
    out = np.empty((len(rows), s_values.size), dtype=np.result_type(*rows, float))
    for i, (row, b_exp, (first, small_rule)) in enumerate(zip(out, left_exponents, rules)):
        h_panel, *h_own, h_heads = np.split(rows[i], offsets)
        h_first, h_small = h_own[2 * i : 2 * i + 2]
        row[small] = (h_small.reshape(-1, RL_NODES) @ small_rule.weights) * s_small ** (mu + b_exp)
        row[big] = ((h_heads.reshape(u_heads.shape) * u_heads**b_exp) @ head.weights) * span**mu
        first_w = first.weights * edges[1] ** (b_exp + 1.0) * (s_big[:, None] - first.nodes * edges[1]) ** (mu - 1.0)
        row[big] += first_w @ h_first + _real_matvec(kernel, panel_u.ravel() ** b_exp * h_panel)
    return out[:, where]


def _rows(h, u: np.ndarray, left_exponents: Sequence[float]) -> list[np.ndarray]:
    """The rows of h(u), one per left exponent."""
    rows = [np.asarray(row) for row in h(u)]
    if len(rows) != len(left_exponents):
        raise ValueError("one left exponent per row of h")
    return rows
