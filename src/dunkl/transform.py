"""Discrete weighted transform: plans, inversion, Plancherel, multipliers.

A plan pairs a physical rule on [-L, L] with a spectral rule on
[-lambda_max, lambda_max].  Both rules absorb the weight |.|^(2 alpha + 1)
into Gauss-Jacobi weights on a mirrored half-line grid, so the quadrature
never sees the interior kink of the weight and Schwartz-class integrands
converge at spectral rates.  The kernel matrices use the oscillatory-Bessel
form of the kernel, which the tests cross-check against the independent
series and compact-integral evaluations.

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

from .functions import GridFunction
from .quadrature import jacobi_rule
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
    """E_alpha(sign i u) for real u, vectorized; both parts from one ``j_norm_pair`` call."""
    even, odd = j_norm_pair(alpha, u)
    return even + (1j * sign) * u * (odd / (2.0 * (alpha + 1.0)))


def _real_matvec(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """table @ w for a real table, one real product even for complex w (numpy would copy the table to complex)."""
    if np.iscomplexobj(w):
        return (table @ np.stack([w.real, w.imag], axis=1)).view(complex)[:, 0]
    return table @ w


def _folded_kernel(alpha: float, rows: np.ndarray, cols: np.ndarray, sign: int) -> np.ndarray:
    """kernel_unitary(alpha, np.outer(rows, cols), sign) bit for bit, from the
    distinct |rows| times the positive half of the mirrored ``cols``: j_norm_pair
    reads only |u| and negating a float is exact, so K(-u) = conj K(u).  The
    rows gather their |row| and conjugate where row < 0; the negative columns
    are the conjugates of the positive ones, reversed."""
    rows = np.asarray(rows, dtype=float).ravel()
    n = cols.size // 2
    distinct, where = np.unique(np.abs(rows), return_inverse=True)
    out = np.empty((rows.size, 2 * n), dtype=complex)
    out[:, n:] = kernel_unitary(alpha, np.outer(distinct, cols[n:]), sign)[where]
    out.imag[rows < 0, n:] *= -1.0
    np.conjugate(out[:, n:][:, ::-1], out=out[:, :n])
    return out


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
    """Precomputed forward/inverse kernel matrices between the x-rule and the
    lambda-rule at fixed order.  Immutable after construction; applications
    are pure matrix products with a fixed summation order.  Both rules must
    be exactly mirrored, since the kernel is folded from one quadrant."""

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
        kernel = _folded_kernel(self.alpha, lambda_nodes, x_nodes, -1)
        self.forward_matrix = kernel * x_weights
        self.inverse_matrix = np.conjugate(kernel, out=kernel).T  # in place: no second kernel
        self.inverse_matrix *= lambda_weights
        self.inverse_matrix *= self.c_alpha
        self.synthesis_radius = 1.4 * self.half_width
        self.self_test: dict[str, float] = {}
        # proxy radius and positive nodes of the synthesis (lambda to x) and analysis (x to lambda) tables
        self.table_grids = {"synthesis": (self.synthesis_radius, lambda_nodes[lambda_nodes.size // 2 :]),
                            "analysis": (self.lambda_max, x_nodes[x_nodes.size // 2 :])}
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

    def lambda_grid_function(self, values: np.ndarray) -> GridFunction:
        return GridFunction(grid=self.lambda_nodes, values=np.asarray(values), smoothness_hint="schwartz")

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
        spectrum = plan.forward_matrix @ gauss
        target = math.gamma(order.alpha + 1.0) * np.exp(-(ln**2) / 4.0)
        forward_err = float(np.max(np.abs(spectrum - target)))
        back = plan.inverse_matrix @ spectrum
        roundtrip_err = float(np.max(np.abs(back - gauss)))
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
    return plan.lambda_grid_function(plan.forward_matrix @ values)


def inverse(plan: TransformPlan, g) -> GridFunction:
    """Inverse transform of a spectrum on the plan's lambda-grid."""
    values = _values_on(g, plan.lambda_nodes, "lambda")
    return GridFunction(grid=plan.x_nodes, values=plan.inverse_matrix @ values, smoothness_hint="schwartz")


def forward_at(plan: TransformPlan, f, lam_points: np.ndarray) -> np.ndarray:
    """Transform evaluated off-grid: same x-rule, arbitrary spectral points."""
    values = _values_on(f, plan.x_nodes, "x")
    return _folded_kernel(plan.alpha, lam_points, plan.x_nodes, -1) @ (plan.x_weights * values)


def inverse_at(plan: TransformPlan, g, x_points: np.ndarray) -> np.ndarray:
    values = _values_on(g, plan.lambda_nodes, "lambda")
    return plan.c_alpha * (_folded_kernel(plan.alpha, x_points, plan.lambda_nodes, +1) @ (plan.lambda_weights * values))


class _ChebProxy:
    """Piecewise-Chebyshev interpolant of a synthesized function's even part
    and odd quotient in y = |x| on [0, radius].

    Both parts are even in x and band-limited by the largest spectral node
    nu_max, so on panels of width h <= PANEL_WIDTH a degree of
    ceil(nu_max h / 2) + 20 resolves them.  Panel k is centred on y = k h;
    the first one is symmetric about 0, so no panel edge sits at the origin,
    where Chebyshev interpolation would be least accurate.  Each panel
    carries its own coefficients, so the interpolation error follows the
    local size of the function and the small tails keep their relative
    accuracy.  Coefficients come from a DCT of samples at first-kind
    Chebyshev points, where the caller sums both parts from exact kernel
    values (its plan's synthesis tables, or one ``j_norm_pair`` call), so
    the proxy interpolates the exact-kernel sum; evaluation is Clenshaw's
    recurrence.  The sample points depend only on the radius and nu_max, so
    every function on one plan's nodes shares them.
    """

    PANEL_WIDTH = 4.0

    def __init__(self, radius: float, nu_max: float):
        self.radius = float(radius)
        self.n_panels = math.ceil(self.radius / self.PANEL_WIDTH + 0.5)
        self.width = self.radius / (self.n_panels - 0.5)
        self.n = math.ceil(nu_max * self.width / 2.0) + 21  # degree + 1 points per panel
        self.size = self.n_panels * self.n  # sample points: a build costs as much as a call on this many
        self.coeffs: tuple[np.ndarray, ...] = ()

    def sample_points(self) -> np.ndarray:
        t = np.cos(math.pi * (np.arange(self.n) + 0.5) / self.n)
        return ((np.arange(self.n_panels)[:, None] + 0.5 * t) * self.width).ravel()

    def fit(self, *samples: np.ndarray) -> None:
        from scipy.fft import dct

        coeffs = []
        for values in samples:
            c = dct(values.reshape(self.n_panels, self.n), type=2, axis=1) / self.n
            c[:, 0] *= 0.5
            coeffs.append(np.ascontiguousarray(c.T))  # (degree + 1, n_panels)
        self.coeffs = tuple(coeffs)

    def __call__(self, part: int, x: np.ndarray) -> np.ndarray:
        scaled = np.abs(x) / self.width
        panel = np.minimum((scaled + 0.5).astype(int), self.n_panels - 1)
        t2 = 4.0 * (scaled - panel)  # 2t, t in [-1, 1] on the panel
        c = self.coeffs[part][:, panel]
        b1 = np.zeros_like(c[0])
        b2 = np.zeros_like(c[0])
        for k in range(self.n - 1, 0, -1):
            b1, b2 = c[k] + t2 * b1 - b2, b1
        return c[0] + 0.5 * t2 * b1 - b2


class SpectralFunction:
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
    and odd quotient, built at most once from exact kernel values.  A call
    with every point within the proxy's radius reads it by the ski-rental
    rule: once it is built, or once the points the object has summed
    directly within the radius, plus this call's, exceed one build.  On the
    plan's positive lambda-nodes (``from_spectrum``) or x-nodes
    (``forward_fn``) the build is two mat-vecs on the plan's shared synthesis
    (``jnorm_table``, synthesis radius) or analysis (lambda_max) table and
    costs nothing, so every such call reads the proxy.  Any other object
    with a plan (a multiplier image, on the synthesis radius) builds from its
    own ``j_norm_pair`` call on the proxy's sample points, so it never evaluates
    more than twice the kernel points of the better choice in hindsight:
    summing every call directly, or building at once.  Every other call,
    and every call of an object without a plan, sums directly, both kernel
    components from one ``j_norm_pair`` call; the object keeps its last two
    such sums, so a call for the other part at the same points reuses one
    and costs nothing.  The derivative needs no third order:
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
        self._recent_sums: list[tuple] = []  # (points, even part, odd quotient) of the last two direct sums
        if plan is not None and self.nodes.size:
            side = next((s for s, (_, nu) in plan.table_grids.items() if np.array_equal(self._abs_nodes, nu)), None)
            self._proxy = _ChebProxy(plan.table_grids[side or "synthesis"][0], float(self._abs_nodes[-1]))
            self._table = {"synthesis": plan.jnorm_table, "analysis": plan.analysis_table}.get(side)  # builds the proxy
            self._direct_left = 0 if side else self._proxy.size

    @classmethod
    def from_spectrum(cls, plan: TransformPlan, spectrum) -> "SpectralFunction":
        values = _values_on(spectrum, plan.lambda_nodes, "lambda")
        return cls(plan.order, plan.lambda_nodes, plan.c_alpha * plan.lambda_weights * values, plan=plan)

    def _build_proxy(self) -> None:
        if self._table is not None:
            even, odd = self._table(0), self._table(1)
        else:
            even, odd = j_norm_pair(self.order.alpha, np.outer(self._proxy.sample_points(), self._abs_nodes))
        self._proxy.fit(_real_matvec(even, self._w_even), _real_matvec(odd, self._w_quotient))

    def _parts(self, x: np.ndarray, parts: tuple[int, ...] = (0, 1)) -> list[np.ndarray]:
        """Even part (0) and odd quotient (1), as listed in ``parts``, at the
        points of a 1-d array."""
        proxy = self._proxy
        within = proxy is not None and x.size > 0 and np.max(np.abs(x)) <= proxy.radius
        # callers ask for each part in turn on the same points, with other
        # points in between: keep the last two sums
        sums = next((sums for sums in self._recent_sums if np.array_equal(sums[0], x)), None)
        if within and (proxy.coeffs or (sums is None and x.size > self._direct_left)):
            if not proxy.coeffs:
                self._build_proxy()
            return [proxy(part, x) for part in parts]
        if sums is None:
            self._direct_left -= x.size if within else 0
            even, odd = j_norm_pair(self.order.alpha, np.outer(x, self._abs_nodes))
            sums = (x.copy(), _real_matvec(even, self._w_even), _real_matvec(odd, self._w_quotient))
            self._recent_sums = [sums, *self._recent_sums[:1]]
        return [sums[1 + part].copy() for part in parts]

    def _pointwise(self, x, fn):
        x = np.asarray(x, dtype=float)
        vals = fn(np.atleast_1d(x).ravel())
        return vals[0] if x.ndim == 0 else vals.reshape(x.shape)

    def __call__(self, x):
        def value(v):
            even, quotient = self._parts(v)
            return even + v * quotient

        return self._pointwise(x, value)

    def even_part(self, x):
        """(f(x) + f(-x))/2 from the even kernel component alone."""
        return self._pointwise(x, lambda v: self._parts(v, (0,))[0])

    def odd_quotient(self, x):
        return self._pointwise(x, lambda v: self._parts(v, (1,))[0])

    def derivative(self, x):
        return self._pointwise(x, self._slope)

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
    plan's analysis tables; ``forward_at`` is the exact route."""
    values = _values_on(f, plan.x_nodes, "x")
    return SpectralFunction(plan.order, -plan.x_nodes, plan.x_weights * values, plan=plan)


def spectral_support(plan: TransformPlan, values: np.ndarray, floor: float) -> float:
    """1.3 times the largest |lambda| node where the grid spectrum of
    ``values`` exceeds ``floor`` times its peak (lambda_max if none does)."""
    spectrum = plan.forward_matrix @ values
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
        raise ValueError(
            f"multiplier exponent {sigma} leaves |lambda|^{sigma + 2 * a + 1} non-integrable at 0"
        )
    if n_half is None:
        n_half = plan.lambda_nodes.size // 2

    lam_eff = min(spectral_support(plan, _values_on(f, plan.x_nodes, "x"), 1e-12), plan.lambda_max)
    nodes, weights = mirrored_weighted_rule(a, lam_eff, n_half, extra_exponent=sigma)
    spectrum = forward_fn(plan, f)(nodes)
    if sigma < 0:
        inner = np.argsort(np.abs(nodes))[:4]
        if np.max(np.abs(spectrum[inner])) > 1e-6 * max(np.max(np.abs(spectrum)), 1e-300):
            warnings.warn(
                "negative multiplier exponent applied to a spectrum that does not vanish at 0",
                stacklevel=2,
            )
    return SpectralFunction(
        plan.order,
        nodes,
        plan.c_alpha * m.scale * weights * spectrum,
        plan=plan,
    )


def apply_multiplier(plan: TransformPlan, f, m: MultiplierSpec) -> GridFunction:
    fn = apply_multiplier_fn(plan, f, m)
    return GridFunction(grid=plan.x_nodes, values=fn(plan.x_nodes), smoothness_hint="schwartz")


def plancherel_sides(plan: TransformPlan, f) -> tuple[float, float]:
    """Both sides of int |f|^2 |x|^(2a+1) dx = c_alpha int |Ff|^2 |l|^(2a+1) dl."""
    values = _values_on(f, plan.x_nodes, "x")
    lhs = float(np.real(plan.integrate_x(np.abs(values) ** 2)))
    spectrum = plan.forward_matrix @ values
    return lhs, float(np.real(plan.c_alpha * np.sum(plan.lambda_weights * np.abs(spectrum) ** 2)))
