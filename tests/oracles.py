"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: path enumeration instead of
reachability, quadrature instead of closed forms, GCV scores from n-long
residuals instead of Gram matrices.  Tests compare the production code against
these oracles; the oracles never import the algorithms they are checking.  The
backfitting reference takes the package's spline designs and joint solve, which
its own tests check, and replaces only the scoring on partial residuals; its
n-long products go through a SciPy CSR matrix built from a design's kernel
rows (``kernel_csr``), not through the package's own products.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss
from scipy.sparse import csr_array
from scipy.special import ndtr

from frontdoor_lab.causal_graph import Dag
from frontdoor_lab.spline_smooth import (
    BACKFIT_MAX_CYCLES,
    BACKFIT_TOL,
    _joint_fit,
    _joint_normal_matrix,
)


def enumerate_trails(g: Dag, start: str, goal: str):
    """Yield every simple path between two nodes, ignoring edge direction."""
    adjacency: dict[str, set[str]] = {n: set() for n in g.node_names}
    for parent, child in g.edges:
        adjacency[parent].add(child)
        adjacency[child].add(parent)

    stack = [(start, [start])]
    while stack:
        node, trail = stack.pop()
        if node == goal:
            yield trail
            continue
        for neighbour in sorted(adjacency[node]):
            if neighbour not in trail:
                stack.append((neighbour, trail + [neighbour]))


def _descendants(g: Dag, node: str) -> set[str]:
    out = {node}
    frontier = [node]
    while frontier:
        current = frontier.pop()
        for child in g.children(current):
            if child not in out:
                out.add(child)
                frontier.append(child)
    return out


def trail_is_active(g: Dag, trail: list[str], given: set[str]) -> bool:
    """Apply the blocking rules to one explicit trail."""
    edges = g.edges
    for i in range(1, len(trail) - 1):
        prev_node, node, next_node = trail[i - 1], trail[i], trail[i + 1]
        is_collider = (prev_node, node) in edges and (next_node, node) in edges
        if is_collider:
            if not (_descendants(g, node) & given):
                return False
        else:
            if node in given:
                return False
    return True


def d_separated_bruteforce(g: Dag, a, b, c) -> bool:
    """Path-enumeration d-separation; exponential, fine for tiny graphs."""
    given = set(c)
    for source in a:
        for target in b:
            for trail in enumerate_trails(g, source, target):
                if trail_is_active(g, trail, given):
                    return False
    return True


def bidirected_path_bruteforce(g: Dag, a: str, b: str) -> bool:
    """Exhaustive search for a trail whose every edge touches a latent node."""
    for trail in enumerate_trails(g, a, b):
        ok = len(trail) > 1
        for u, v in zip(trail, trail[1:]):
            if not (g.is_latent(u) or g.is_latent(v)):
                ok = False
                break
        if ok:
            return True
    return False


def random_dag(rng: np.random.Generator, n_nodes: int, p_edge: float, p_latent: float) -> Dag:
    """Random DAG via a random topological order; node names are n0, n1, ..."""
    names = [f"n{i}" for i in range(n_nodes)]
    order = list(rng.permutation(n_nodes))
    kinds = ["latent" if rng.random() < p_latent else "observed" for _ in names]
    edges = []
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < p_edge:
                edges.append((names[order[i]], names[order[j]]))
    return Dag(list(zip(names, kinds)), edges)


# ---------------------------------------------------------------- numeric


def trapezoid_integral(f, lo: float, hi: float, n: int = 20001) -> float:
    xs = np.linspace(lo, hi, n)
    return float(np.trapezoid(f(xs), xs))


def mean_u_given_x_quadrature(x: float) -> float:
    """E(U | X = x) for X = X' + U, X' ~ Unif(-2, 2), U ~ N(0, 1).

    The posterior density of U given X = x is the standard normal restricted
    to (x - 2, x + 2); integrate it numerically.
    """
    us = np.linspace(x - 2, x + 2, 200001)
    weights = np.exp(-0.5 * us * us)
    return float(np.trapezoid(us * weights, us) / np.trapezoid(weights, us))


def normal_cdf_series(x: float, terms: int = 200) -> float:
    """Taylor-series standard normal CDF, an erf-free reference."""
    if x < -10:
        return 0.0
    if x > 10:
        return 1.0
    total = 0.0
    term = x
    k = 0
    while k < terms:
        total += term
        k += 1
        term *= -x * x * (2 * k - 1) / (2 * k * (2 * k + 1))
    return 0.5 + total / np.sqrt(2 * np.pi)


_PI_DIGITS = "3.141592653589793238462643383279502884197169399375105820974944"


def normal_cdf_exact(x: float, digits: int = 30) -> float:
    """Phi(x) correctly rounded to a double, from ``decimal`` arithmetic at
    ``digits`` significant digits.

    For |x| <= 3 the series Phi(x) = 1/2 + phi(x) sum_n x^(2n+1) / (2n+1)!!
    (it loses at most 3 digits to cancellation there); beyond, the lower
    tail is phi(a) / (a + 1/(a + 2/(a + 3/(a + ...)))) with a = |x|, the
    continued fraction summed by Lentz's method, and the upper tail one
    minus it.
    """
    with localcontext() as context:
        context.prec = digits + 10
        tiny = Decimal(10) ** -(digits + 5)
        a = abs(Decimal(x))  # exact: every double is a finite decimal
        density = (-a * a / 2).exp() / (2 * Decimal(_PI_DIGITS)).sqrt()
        if a <= 3:
            total = term = Decimal(x)
            k = 1
            while abs(term) > tiny * abs(total):
                term *= Decimal(x) * Decimal(x) / (2 * k + 1)
                total += term
                k += 1
            return float(Decimal("0.5") + density * total)
        # Lentz for f = a + 1/(a + 2/(a + ...)); no denominator can vanish,
        # as every one is at least a
        f = c = a
        d = Decimal(0)
        k = 1
        while True:
            d = 1 / (a + k * d)
            c = a + k / c
            f *= c * d
            if abs(c * d - 1) < tiny:
                break
            k += 1
        lower = density / f
        return float(lower if x < 0 else 1 - lower)


def missingness_rates_quadrature(
    cfg, n_normal: int = 120, n_uniform: int = 160
) -> tuple[float, float, float]:
    """Exact missingness rates (x, z, both) implied by the masking equations.

    Re-derives Y from the documented mechanism (U ~ N(0, 1),
    X' ~ Uniform(x_prime_low, x_prime_high), X = X' + U,
    Z = z_amplitude phi(X) + eps_Z, Y = phi(Z - y_shift) + y_linear Z + u_coef U)
    and integrates the hiding probabilities 1 - Phi(a_x + b_x y),
    1 - Phi(a_z + b_z y) and their product over it: Gauss-Hermite in U and
    eps_Z, Gauss-Legendre in X'.
    The joint rate is the product inside the integral, i.e. the two masks
    are independent given y.  Doubling the node counts moves the default
    config's rates by less than 1e-11.
    """
    def phi(t):
        return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)

    g, w_g = hermegauss(n_normal)
    w_g = w_g / w_g.sum()
    t, w_t = leggauss(n_uniform)
    lo, hi = cfg.x_prime_low, cfg.x_prime_high
    x_prime = lo + (hi - lo) * (t[:, None] + 1.0) / 2.0
    weights = (w_t / w_t.sum())[:, None] * w_g[None, :]
    eps_z = cfg.sigma_z * g[None, :]
    ax, bx = cfg.miss_x_a, cfg.miss_x_b
    az, bz = cfg.miss_z_a, cfg.miss_z_b

    total = np.zeros(3)
    for u, w_u in zip(g, w_g):
        z = cfg.z_amplitude * phi(x_prime + u) + eps_z
        y = phi(z - cfg.y_shift) + cfg.y_linear * z + cfg.u_coef * u
        hide_x = 1.0 - ndtr(ax + bx * y)
        hide_z = 1.0 - ndtr(az + bz * y)
        total += w_u * np.array(
            [np.sum(weights * hide_x), np.sum(weights * hide_z), np.sum(weights * hide_x * hide_z)]
        )
    return float(total[0]), float(total[1]), float(total[2])


def interventional_quantile_bisection(cfg, x: float, p: float, n: int = 20001) -> float:
    """Quantile of Y under do(X = x) by trapezoid quadrature and bisection.

    Re-derives the intervened mechanism (Z ~ N(z_amplitude phi(x),
    sigma_z^2), Y | Z ~ N(phi(Z - y_shift) + y_linear Z, u_coef^2)) and
    integrates the CDF of Y with the trapezoid rule over Z on n equally
    spaced points within 10 sigma_z of the mean; u_coef must be nonzero.
    The root of F(y) = p is bisected inside [min h, max h] widened by
    10 |u_coef|.
    """
    def phi(t):
        return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)

    mean = cfg.z_amplitude * phi(x)
    z = np.linspace(mean - 10 * cfg.sigma_z, mean + 10 * cfg.sigma_z, n)
    density = phi((z - mean) / cfg.sigma_z) / cfg.sigma_z
    h = phi(z - cfg.y_shift) + cfg.y_linear * z
    scale = abs(cfg.u_coef)

    def cdf(y):
        return np.trapezoid(density * ndtr((y - h) / scale), z)

    lo, hi = h.min() - 10 * scale, h.max() + 10 * scale
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- backfitting


def kernel_csr(design) -> csr_array:
    """A design's basis matrix as a SciPy CSR matrix, built from the kernel's
    rows ``(first, values)`` that the design keeps; a point on a knot keeps its
    explicit zero value, and SciPy's products sum each entry from +0.0."""
    first, values = design._rows
    width = len(values)
    columns = first[:, None] + np.arange(width)
    indptr = np.arange(0, len(first) * width + 1, width)
    return csr_array(
        (values.T.ravel(), columns.ravel(), indptr), shape=(len(first), design.basis.dim)
    )


def score_on_residuals(design, y):
    """(index, beta_affine, c, gcv) of a spline design's GCV score for the
    n-vector y, formed on the n rows: ``B'y``, the affine fit's residual
    ``y - B beta_affine`` and its sum of squares."""
    B = kernel_csr(design)
    bty = B.T @ y
    delta = design._A_inv @ (design._Q1.T @ bty)
    beta_affine = design._Q1 @ delta
    residual_affine = y - B @ beta_affine
    c = design._W.T @ (design._Q2.T @ bty - design._L @ delta)
    rss_affine = np.einsum("i,i->", residual_affine, residual_affine)
    rss = np.maximum(rss_affine - (c * c) @ design._rss_drop, 0.0)
    gcv = np.full(len(design.lambdas), np.inf)
    denom = design.n - design.edf
    ok = denom > 1e-8 * design.n
    gcv[ok] = design.n * rss[ok] / denom[ok] ** 2
    index = len(gcv) - 1 - int(np.argmin(gcv[::-1]))
    return index, beta_affine, c, gcv


def select_on_residuals(design, y):
    """(index, beta, fitted, gcv) at the GCV minimizer of ``score_on_residuals``."""
    index, beta_affine, c, gcv = score_on_residuals(design, y)
    gamma = design._W @ (c / (design._mu + design.lambdas[index]))
    beta = beta_affine - design._Q1 @ (design._A_inv @ (design._L.T @ gamma)) + design._Q2 @ gamma
    return index, beta, kernel_csr(design) @ beta, float(gcv[index])


def backfit_on_residuals(y, designs):
    """(intercept, betas, picks, converged) of the additive fit of y on the
    designs, each pick scored on its term's n-long partial residual: the joint
    start's joint solves until the picks settle, at most five, then backfitting
    cycles until no fitted component moves by ``BACKFIT_TOL``."""
    n_terms = len(designs)

    def partial_residual(j):
        return y - intercept - sum(fitted[k] for k in range(n_terms) if k != j)

    def recentered(beta, values):
        nonlocal intercept
        center = float(np.mean(values))
        intercept += center
        return beta - center, values - center

    intercept = float(np.mean(y))
    chosen = [score_on_residuals(design, y - intercept)[0] for design in designs]
    normal = _joint_normal_matrix(tuple(designs))
    matrices = [kernel_csr(d) for d in designs]
    rhs = np.concatenate([[np.sum(y)], *(d._T.T @ (B.T @ y) for d, B in zip(designs, matrices))])
    for _ in range(5):
        intercept, betas = _joint_fit(normal, rhs, designs, chosen)
        fitted = [B @ b for B, b in zip(matrices, betas)]
        for j in range(n_terms):
            betas[j], fitted[j] = recentered(betas[j], fitted[j])
        picks = [score_on_residuals(d, partial_residual(j))[0] for j, d in enumerate(designs)]
        if picks == chosen:
            break
        chosen = picks

    for _ in range(BACKFIT_MAX_CYCLES):
        max_change = 0.0
        for j, design in enumerate(designs):
            index, beta, values, _ = select_on_residuals(design, partial_residual(j))
            beta, values = recentered(beta, values)
            max_change = max(max_change, float(np.max(np.abs(values - fitted[j]))))
            fitted[j], betas[j], chosen[j] = values, beta, index
        if max_change < BACKFIT_TOL:
            return intercept, betas, chosen, True
    return intercept, betas, chosen, False
