"""Discrete weighted transform: plans, inversion, Plancherel, multipliers.

A plan pairs a physical rule on [-L, L] with a spectral rule on
[-lambda_max, lambda_max].  Both rules absorb the weight |.|^(2 alpha + 1)
into Gauss-Jacobi weights on a mirrored half-line grid, so the quadrature
never sees the interior kink of the weight and Schwartz-class integrands
converge at spectral rates.  A plan keeps the kernel's even and odd real
parts on the quadrant of positive nodes (``_mirror_sum``); the tests
cross-check it against the independent series and compact-integral forms.
Off the grids, ``forward_at`` and ``inverse_at`` take the one exact direct
sum, a ``SpectralFunction``'s (``_direct_parts``).

Multiplier operators |lambda|^sigma are applied on rules adapted to the
exponent (weight |lambda|^(sigma + 2 alpha + 1) absorbed), so negative
exponents in the admissible range never produce endpoint singularities.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .functions import GridFunction, SmoothFunction, _pointwise
from .quadrature import _real_matvec, jacobi_rule
from .special import OrderParam, as_order, c_const, j_norm_pair, log_b_coeff

__all__ = [
    "TransformPlan",
    "PlanSelfTestError",
    "MultiplierSpec",
    "SpectralFunction",
    "build_plan",
    "forward",
    "inverse",
    "forward_at",
    "forward_fn",
    "inverse_at",
    "plancherel_sides",
    "apply_multiplier",
    "apply_multiplier_fn",
]


class PlanSelfTestError(RuntimeError):
    """The build-time Gaussian self-test missed the requested tolerance."""


def kernel_unitary(alpha: float, u: np.ndarray, sign: int = 1) -> np.ndarray:
    """E_alpha(sign i u) for real u, vectorized; both parts from one ``j_norm_pair`` call.  No
    library route calls it: it is the tests' outer-product reference and a benchmark-traced name."""
    even, odd = j_norm_pair(alpha, u)
    return even + (1j * sign) * u * (odd / (2.0 * (alpha + 1.0)))


def _mirror_sum(plan: TransformPlan, values: np.ndarray, sign: int) -> np.ndarray:
    """The plan's forward (sign -1) or inverse (sign +1) sum on mirrored nodes, sum_j
    E_alpha(sign i r_k c_j) v_j, from the kernel parts e, o at outer(r+, c+): the halves
    of the weighted v enter as their sum and difference; rows -r+ and r+ read e -/+ i sign o."""
    even, odd = (plan.kernel_even, plan.kernel_odd) if sign < 0 else (plan.kernel_even.T, plan.kernel_odd.T)
    v = plan.x_weights * values if sign < 0 else plan.c_alpha * plan.lambda_weights * values
    n = v.size // 2
    low, high = v[:n][::-1], v[n:]
    e = _real_matvec(even, high + low)
    o = (1j * sign) * _real_matvec(odd, high - low)
    return np.concatenate([(e - o)[::-1], e + o])


def mirrored_weighted_rule(
    alpha: float, half_width: float, n_half: int, extra_exponent: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric nodes on [-H, H] with |x|^(2 alpha + 1 + extra) absorbed.

    sum(w * F(nodes)) ~ int_-H^H F(x) |x|^(2a+1+extra) dx for smooth F.
    """
    b_exp = 2.0 * alpha + 1.0 + extra_exponent
    if b_exp <= -1.0:
        raise ValueError(f"absorbed exponent {b_exp} not integrable")
    base = jacobi_rule(0.0, b_exp, n_half)
    x = base.nodes * half_width
    w = base.weights * half_width ** (b_exp + 1.0)
    nodes = np.concatenate([-x[::-1], x])
    weights = np.concatenate([w[::-1], w])
    return nodes, weights


@dataclass(frozen=True)
class MultiplierSpec:
    """Spectral multiplier scale * |lambda|^exponent."""

    exponent: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.scale):
            raise ValueError("multiplier scale must be finite")

    def __mul__(self, other: "MultiplierSpec") -> "MultiplierSpec":
        return MultiplierSpec(self.exponent + other.exponent, self.scale * other.scale)


class TransformPlan:
    """The x-rule and lambda-rule at fixed order and, read-only, the kernel's even
    part ``kernel_even`` = j_alpha(u) and odd part ``kernel_odd`` = u j_(alpha+1)(u)
    / (2 alpha + 2) at u = outer(positive lambda-nodes, positive x-nodes).
    ``forward`` and ``inverse`` (transposed) apply them by ``_mirror_sum``, so
    both rules must be exactly mirrored.  Immutable after construction."""

    def __init__(
        self,
        alpha: OrderParam,
        half_width: float,
        lambda_max: float,
        x_nodes: np.ndarray,
        x_weights: np.ndarray,
        lambda_nodes: np.ndarray,
        lambda_weights: np.ndarray,
        tolerance: float,
    ):
        if any(n.size % 2 or not np.array_equal(n, -n[::-1]) for n in (x_nodes, lambda_nodes)):
            raise ValueError("plan rules must be exactly mirrored about 0: nodes == -nodes[::-1], of even size")
        self.order = alpha
        self.alpha = alpha.alpha
        self.half_width = float(half_width)
        self.lambda_max = float(lambda_max)
        self.x_nodes = x_nodes
        self.x_weights = x_weights
        self.lambda_nodes = lambda_nodes
        self.lambda_weights = lambda_weights
        self.tolerance = float(tolerance)
        self.c_alpha = c_const(alpha)
        lam_pos, x_pos = lambda_nodes[lambda_nodes.size // 2 :], x_nodes[x_nodes.size // 2 :]
        u = np.outer(lam_pos, x_pos)
        self.kernel_even, self.kernel_odd = j_norm_pair(self.alpha, u)
        self.kernel_odd *= u / (2.0 * (self.alpha + 1.0))
        self.kernel_even.flags.writeable = self.kernel_odd.flags.writeable = False
        self.synthesis_radius = 1.4 * self.half_width
        self.self_test: dict[str, float] = {}
        # proxy radius and positive nodes of the synthesis (lambda to x) and analysis (x to lambda) tables
        self.table_grids = {"synthesis": (self.synthesis_radius, lam_pos), "analysis": (self.lambda_max, x_pos)}
        self._tables: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def jnorm_table(self, shift: int) -> np.ndarray:
        """Synthesis table of the order-(alpha + shift) kernel component,
        shift 0 or 1: j_norm(alpha + shift, y nu) at the sample points y of the
        synthesis proxy (rows) times the positive lambda-nodes nu (columns).

        Every SpectralFunction on the plan's lambda-nodes builds its proxy from
        these two tables, so both come from one ``j_norm_pair`` call per plan;
        they are shared, so read-only."""
        return self._table("synthesis", shift)

    def analysis_table(self, shift: int) -> np.ndarray:
        """The same for ``forward_fn``: a proxy on [0, lambda_max] times the positive x-nodes."""
        return self._table("analysis", shift)

    def _table(self, side: str, shift: int) -> np.ndarray:
        if shift not in (0, 1):
            raise ValueError(f"kernel tables hold shifts 0 and 1, not {shift}")
        if side not in self._tables:
            radius, nu = self.table_grids[side]
            self._tables[side] = j_norm_pair(self.alpha, np.outer(_ChebProxy(radius, float(nu[-1])).sample_points(), nu))
            for table in self._tables[side]:
                table.flags.writeable = False
        return self._tables[side][shift]

    # -- sampling helpers -------------------------------------------------
    def sample(self, f: Callable) -> GridFunction:
        return GridFunction(grid=self.x_nodes, values=np.asarray(f(self.x_nodes)), smoothness_hint="schwartz")

    def integrate_x(self, values: np.ndarray) -> complex:
        return np.sum(self.x_weights * np.asarray(values))


def _values_on(f, nodes: np.ndarray, name: str) -> np.ndarray:
    if isinstance(f, GridFunction):
        if not np.array_equal(f.grid, nodes):
            raise ValueError(f"grid mismatch: input does not live on the plan's {name}-grid")
        return f.values
    values = np.asarray(f)
    if values.shape != nodes.shape:
        raise ValueError(f"value array does not match the plan's {name}-grid")
    return values


def build_plan(
    alpha: OrderParam | float,
    half_width: float = 12.0,
    n_x: int = 512,
    lambda_max: float = 16.0,
    n_lambda: int = 512,
    tol: float = 1e-10,
    self_test: bool = True,
) -> TransformPlan:
    """Build a plan and run its Gaussian self-test.

    The test transforms exp(-x^2), compares against the closed form
    Gamma(alpha+1) exp(-lambda^2/4), and round-trips it; failure raises with
    the achieved errors and a sizing hint.
    """
    order = as_order(alpha)
    if n_x < 2 or n_lambda < 2:
        raise ValueError("plan needs at least one node per half-line in each direction")
    if not (half_width > 0 and lambda_max > 0):
        raise ValueError("plan extents must be positive")
    xn, xw = mirrored_weighted_rule(order.alpha, half_width, n_x // 2)
    ln, lw = mirrored_weighted_rule(order.alpha, lambda_max, n_lambda // 2)
    plan = TransformPlan(order, half_width, lambda_max, xn, xw, ln, lw, tol)

    if self_test:
        gauss = np.exp(-(xn**2))
        spectrum = _mirror_sum(plan, gauss, -1)
        forward_err = float(np.max(np.abs(spectrum - math.gamma(order.alpha + 1.0) * np.exp(-(ln**2) / 4.0))))
        roundtrip_err = float(np.max(np.abs(_mirror_sum(plan, spectrum, +1) - gauss)))
        plan.self_test = {"forward_gaussian": forward_err, "roundtrip_gaussian": roundtrip_err}
        if max(forward_err, roundtrip_err) > tol:
            raise PlanSelfTestError(
                f"plan self-test reached {max(forward_err, roundtrip_err):.3e} "
                f"(requested {tol:.1e}); increase half_width/n_x or lambda_max/n_lambda"
            )
    return plan


def forward(plan: TransformPlan, f) -> GridFunction:
    """Weighted transform of samples on the plan's x-grid; linear in f."""
    values = _values_on(f, plan.x_nodes, "x")
    return GridFunction(grid=plan.lambda_nodes, values=_mirror_sum(plan, values, -1), smoothness_hint="schwartz")


def inverse(plan: TransformPlan, g) -> GridFunction:
    """Inverse transform of a spectrum on the plan's lambda-grid."""
    values = _values_on(g, plan.lambda_nodes, "lambda")
    return GridFunction(grid=plan.x_nodes, values=_mirror_sum(plan, values, +1), smoothness_hint="schwartz")


def _direct_parts(alpha: float, abs_nodes, w_even, w_quotient, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact even part and odd quotient of a spectrum folded over the distinct |nu| at the points of
    a 1-d array: both kernel parts at each distinct |x| from one ``j_norm_pair`` call, two real products."""
    distinct, where = np.unique(np.abs(x), return_inverse=True)
    even, odd = j_norm_pair(alpha, np.outer(distinct, abs_nodes))
    return _real_matvec(even, w_even)[where], _real_matvec(odd, w_quotient)[where]


def _direct_sum_at(plan: TransformPlan, values: np.ndarray, points, sign: int):
    """``_mirror_sum`` at arbitrary points, in their shape: bit for bit the direct sum of a SpectralFunction
    over the nodes sign * c (c the x- or lambda-nodes), whose weights fold the mirrored halves alike."""
    v = plan.x_weights * values if sign < 0 else plan.c_alpha * plan.lambda_weights * values
    nodes = (plan.x_nodes if sign < 0 else plan.lambda_nodes)[v.size // 2 :]
    low, high = v[: nodes.size][::-1], v[nodes.size :]
    w_quotient = 1j * nodes * (high - low if sign > 0 else low - high) / (2.0 * (plan.alpha + 1.0))

    def value(p):
        even, quotient = _direct_parts(plan.alpha, nodes, low + high, w_quotient, p)
        return even + p * quotient

    return _pointwise(points, value)


def forward_at(plan: TransformPlan, f, lam_points):
    """Transform evaluated off-grid: same x-rule, arbitrary spectral points; values in their shape."""
    return _direct_sum_at(plan, _values_on(f, plan.x_nodes, "x"), lam_points, -1)


def inverse_at(plan: TransformPlan, g, x_points):
    return _direct_sum_at(plan, _values_on(g, plan.lambda_nodes, "lambda"), x_points, +1)


class _ChebProxy:
    """Piecewise-Chebyshev interpolant of a synthesized function's even part
    and odd quotient in y = |x| on [0, radius].

    Both parts are even in x and band-limited by the largest spectral node
    nu_max, so on panels of width h <= PANEL_WIDTH a degree of
    ceil(nu_max h / 2) + 20 resolves them.  Panel k is centred on y = k h;
    the first one is symmetric about 0, so no panel edge sits at the origin,
    where Chebyshev interpolation would be least accurate.  Each panel
    interpolates its own samples, so the error follows the local size of the
    function and the small tails keep their relative accuracy.  The samples
    are exact-kernel sums at first-kind Chebyshev points, stored as real
    columns on the first read that touches their panel.  A read evaluates
    the second barycentric formula, forward-stable on these points: one real
    matrix of w_j / (t - t_j) over the points sorted by panel, then one real
    product per panel with its samples and a column of ones, the
    denominator.  A point on a node returns that node's sample.  The sample
    points depend only on the radius and nu_max, so every function on one
    plan's nodes shares them.
    """

    PANEL_WIDTH = 4.0

    def __init__(self, radius: float, nu_max: float):
        self.radius = float(radius)
        self.n_panels = math.ceil(self.radius / self.PANEL_WIDTH + 0.5)
        self.width = self.radius / (self.n_panels - 0.5)
        self.n = math.ceil(nu_max * self.width / 2.0) + 21  # degree + 1 points per panel
        self.size = self.n_panels * self.n  # sample points: a full build costs as much as a call on this many
        angles = math.pi * (np.arange(self.n) + 0.5) / self.n
        self.nodes, self.bary = np.cos(angles), np.sin(angles) * (-1.0) ** np.arange(self.n)
        self.samples: dict[int, np.ndarray] = {}  # panel -> (n, columns + 1): its samples, then ones

    def sample_points(self) -> np.ndarray:
        return ((np.arange(self.n_panels)[:, None] + 0.5 * self.nodes) * self.width).ravel()

    def __call__(self, x: np.ndarray, fill: Callable) -> np.ndarray:
        """The columns at the points x, one row a point; ``fill(rows)`` gives
        them at the sample points ``rows`` of the panels x touches first."""
        scaled = np.abs(x) / self.width
        panel = np.minimum((scaled + 0.5).astype(int), self.n_panels - 1)
        order = np.argsort(panel, kind="stable")
        starts = np.searchsorted(panel[order], np.arange(self.n_panels + 1))
        touched = np.flatnonzero(np.diff(starts))
        missing = np.array([k for k in touched if k not in self.samples], dtype=int)
        if missing.size:
            block = fill((missing[:, None] * self.n + np.arange(self.n)).ravel()).reshape(missing.size, self.n, -1)
            self.samples.update(zip(missing, np.concatenate([block, np.ones((*block.shape[:2], 1))], axis=2)))
        t = 2.0 * (scaled - panel)[order]
        c = t - self.nodes[:, None]  # (n, x.size), then the weights w_j / (t - t_j)
        on_node = ~np.all(c, axis=0)
        hit = c[:, on_node] == 0.0
        c[:, on_node] = 1.0
        np.divide(self.bary[:, None], c, out=c)
        c[:, on_node] = hit
        out = np.empty((x.size, self.samples[touched[0]].shape[1]))
        for k in touched:
            out[order[starts[k] : starts[k + 1]]] = c[:, starts[k] : starts[k + 1]].T @ self.samples[k]
        return out[:, :-1] / out[:, -1:]


class SpectralFunction(SmoothFunction):
    """Smooth function synthesized from a weighted spectrum.

    value(x) = sum_i E_alpha(i nu_i x) wspec_i with wspec folded from the
    spectral rule weights; derivative, odd quotient and Taylor data all come
    from the same sum, so the object is consistent to machine precision with
    its grid samples.  The value is even part plus x times odd quotient.

    Both kernel components j_norm(alpha + k, .) are even, so every method
    sums over the distinct |nu| once: the spectrum is folded at construction
    into an even weight (sum of wspec over nu = +-|nu|) and an odd weight (sum
    of sign(nu) wspec).  Mirrored nodes thus cost half the evaluations, and
    unmirrored ones simply have no duplicates.  ``nodes`` and ``wspec`` keep
    the spectrum as given.

    A SpectralFunction with a plan keeps a ``_ChebProxy`` of its even part
    and odd quotient, whose panels are filled from exact kernel values the
    first time a read touches them.  A call's points within the proxy's
    radius, taken as a call of their own, read it by the ski-rental rule,
    decided against the full proxy size: once the points the object has summed
    directly within the radius, plus these, exceed one full build, and ever after.
    On the plan's positive lambda-nodes (``from_spectrum``) or x-nodes
    (``forward_fn``) a panel's fill is rows of the plan's shared synthesis
    (``jnorm_table``, synthesis radius) or analysis (lambda_max) table and
    costs no kernel points, so every such call reads the proxy.  Any other
    object with a plan (a multiplier image, on the synthesis radius) fills
    from its own ``j_norm_pair`` call on the touched panels' sample points,
    so it never evaluates more than twice the kernel points of the better
    choice in hindsight: summing every call directly, or building at once.
    Every other point, and every call of an object without a plan, is summed
    directly (``_direct_parts``).  A read or a direct sum gives both parts,
    so a route that needs both asks once, through ``parts``.
    The derivative needs no third order:
    d/du[u j_(alpha+1)(u)] = (2 alpha + 2) j_alpha(u) - (2 alpha + 1) j_(alpha+1)(u).
    """

    def __init__(
        self,
        alpha: OrderParam | float,
        nodes: np.ndarray,
        weighted_spectrum: np.ndarray,
        plan: Optional[TransformPlan] = None,
    ):
        self.order = as_order(alpha)
        self.nodes = np.asarray(nodes, dtype=float)
        self.wspec = np.asarray(weighted_spectrum)
        self._abs_nodes, where = np.unique(np.abs(self.nodes), return_inverse=True)
        self._w_even, self._w_odd = np.zeros((2, self._abs_nodes.size), dtype=np.result_type(self.wspec, float))
        np.add.at(self._w_even, where, self.wspec)
        np.add.at(self._w_odd, where, np.sign(self.nodes) * self.wspec)
        self._w_quotient = 1j * self._abs_nodes * self._w_odd / (2.0 * (self.order.alpha + 1.0))
        self._proxy = self._table = None
        self._direct_left = 0  # points within the radius still to sum directly before a build pays
        if plan is not None and self.nodes.size:
            side = next((s for s, (_, nu) in plan.table_grids.items() if np.array_equal(self._abs_nodes, nu)), None)
            self._proxy = _ChebProxy(plan.table_grids[side or "synthesis"][0], float(self._abs_nodes[-1]))
            self._table = {"synthesis": plan.jnorm_table, "analysis": plan.analysis_table}.get(side)  # fills the proxy
            self._direct_left = 0 if side else self._proxy.size

    @classmethod
    def from_spectrum(cls, plan: TransformPlan, spectrum) -> "SpectralFunction":
        values = _values_on(spectrum, plan.lambda_nodes, "lambda")
        return cls(plan.order, plan.lambda_nodes, plan.c_alpha * plan.lambda_weights * values, plan=plan)

    def _samples(self, rows: np.ndarray) -> np.ndarray:
        """The real columns of the even part and odd quotient at the proxy's
        sample points ``rows``, from those rows of the plan's tables or one
        ``j_norm_pair`` call."""
        if self._table is not None:
            even, odd = self._table(0)[rows], self._table(1)[rows]
        else:
            even, odd = j_norm_pair(self.order.alpha, np.outer(self._proxy.sample_points()[rows], self._abs_nodes))
        panels = (-1, self._proxy.n, self._abs_nodes.size)  # a product per panel, as in a fill of it alone
        sums = (_real_matvec(even.reshape(panels), self._w_even), _real_matvec(odd.reshape(panels), self._w_quotient))
        return np.hstack([s.view(float).reshape(rows.size, -1) for s in sums])

    def _parts(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Even part and odd quotient at the points of a 1-d array, as contiguous arrays."""
        inside = np.abs(x) <= (self._proxy.radius if self._proxy is not None else -1.0)
        if inside.any() and not inside.all():  # the points within the radius are a call of their own
            back = np.argsort(np.argsort(~inside, kind="stable"))  # from x[inside], x[~inside] to x
            return tuple(np.concatenate(p)[back] for p in zip(self._parts(x[inside]), self._parts(x[~inside])))
        within = x.size > 0 and inside.all()
        if within and x.size > self._direct_left:
            self._direct_left = 0  # from now on every call within the radius reads
            values, split = self._proxy(x, self._samples), self._w_even.itemsize // 8
            # copies of the strided columns: matmul takes BLAS only on contiguous operands
            return values[:, :split].view(self._w_even.dtype)[:, 0].copy(), values[:, split:].view(complex)[:, 0].copy()
        self._direct_left -= x.size if within else 0
        return _direct_parts(self.order.alpha, self._abs_nodes, self._w_even, self._w_quotient, x)

    def parts(self, x):
        return _pointwise(x, self._parts)

    def __call__(self, x):
        def value(v):
            even, quotient = self._parts(v)
            return even + v * quotient

        return _pointwise(x, value)

    def even_part(self, x):
        """(f(x) + f(-x))/2 from the even kernel component alone."""
        return _pointwise(x, lambda v: self._parts(v)[0])

    def odd_quotient(self, x):
        return _pointwise(x, lambda v: self._parts(v)[1])

    def derivative(self, x):
        return _pointwise(x, self._slope)

    def _slope(self, x: np.ndarray) -> np.ndarray:
        # d/dx E(i nu x) = nu (-u q + i d/du[u q]) at u = nu x, q = j_(alpha+1)(u) / (2(alpha+1)),
        # and d/du[u q] = j_alpha(u) - (2 alpha + 1) q: the first term is even in nu, the second odd
        a = self.order.alpha
        u = np.outer(x, self._abs_nodes)
        j0, j1 = j_norm_pair(a, u)
        q = j1 / (2.0 * (a + 1.0))
        odd = _real_matvec(j0 - (2.0 * a + 1.0) * q, 1j * self._abs_nodes * self._w_odd)
        return _real_matvec(-u * q, self._abs_nodes * self._w_even) + odd

    def taylor_coeff(self, k: int) -> complex:
        scale = math.exp(-log_b_coeff(k, self.order))
        return scale * 1j**k * np.sum(self._abs_nodes**k * (self._w_odd if k % 2 else self._w_even))


def forward_fn(plan: TransformPlan, f) -> SpectralFunction:
    """Transform of x-grid samples as a function of lambda, the mirror of
    ``from_spectrum``: a SpectralFunction over the nodes -x_j with weights
    x_weights_j f(x_j).  Within lambda_max it reads a proxy built from the
    plan's analysis tables; ``forward_at`` is its direct sum everywhere."""
    values = _values_on(f, plan.x_nodes, "x")
    return SpectralFunction(plan.order, -plan.x_nodes, plan.x_weights * values, plan=plan)


def spectral_support(plan: TransformPlan, values: np.ndarray, floor: float) -> float:
    """1.3 times the largest |lambda| node where the grid spectrum of
    ``values`` exceeds ``floor`` times its peak (lambda_max if none does)."""
    spectrum = _mirror_sum(plan, values, -1)
    live = np.abs(spectrum) > floor * max(np.max(np.abs(spectrum)), 1e-300)
    return 1.3 * float(np.max(np.abs(plan.lambda_nodes[live]))) if np.any(live) else plan.lambda_max


def apply_multiplier_fn(plan: TransformPlan, f, m: MultiplierSpec, n_half: Optional[int] = None) -> SpectralFunction:
    """x-space operator inverse o (scale |lambda|^exponent) o forward, returned
    as a synthesizable smooth function.

    The forward leg reads ``forward_fn`` of f from the plan's analysis table,
    and the inverse leg runs on a rule with |lambda|^(exponent + 2 alpha + 1)
    absorbed; the exponent must keep that absorbed power integrable.  The
    rule is clipped to the spectral support (where the spectrum exceeds
    1e-12 of its peak, with margin): for large positive exponents the
    absorbed weight's mass beyond the support would otherwise amplify the
    quadrature noise floor of the computed spectrum.  A negative exponent
    applied to a spectrum that does not vanish at 0 is admissible but
    flagged, since accuracy then rests on integrability alone.
    """
    a = plan.alpha
    sigma = float(m.exponent)
    if sigma + 2.0 * a + 1.0 <= -1.0:
        raise ValueError(f"multiplier exponent {sigma} leaves |lambda|^{sigma + 2 * a + 1} non-integrable at 0")
    if n_half is None:
        n_half = plan.lambda_nodes.size // 2

    lam_eff = min(spectral_support(plan, _values_on(f, plan.x_nodes, "x"), 1e-12), plan.lambda_max)
    nodes, weights = mirrored_weighted_rule(a, lam_eff, n_half, extra_exponent=sigma)
    spectrum = forward_fn(plan, f)(nodes)
    if sigma < 0:
        inner = np.argsort(np.abs(nodes))[:4]
        if np.max(np.abs(spectrum[inner])) > 1e-6 * max(np.max(np.abs(spectrum)), 1e-300):
            warnings.warn("negative multiplier exponent applied to a spectrum that does not vanish at 0", stacklevel=2)
    return SpectralFunction(plan.order, nodes, plan.c_alpha * m.scale * weights * spectrum, plan=plan)


def apply_multiplier(plan: TransformPlan, f, m: MultiplierSpec) -> GridFunction:
    fn = apply_multiplier_fn(plan, f, m)
    return GridFunction(grid=plan.x_nodes, values=fn(plan.x_nodes), smoothness_hint="schwartz")


def plancherel_sides(plan: TransformPlan, f) -> tuple[float, float]:
    """Both sides of int |f|^2 |x|^(2a+1) dx = c_alpha int |Ff|^2 |l|^(2a+1) dl."""
    values = _values_on(f, plan.x_nodes, "x")
    lhs = float(np.real(plan.integrate_x(np.abs(values) ** 2)))
    spectrum = _mirror_sum(plan, values, -1)
    return lhs, float(np.real(plan.c_alpha * np.sum(plan.lambda_weights * np.abs(spectrum) ** 2)))
