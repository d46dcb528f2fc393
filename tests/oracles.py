"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: path enumeration instead of
reachability, quadrature instead of closed forms.  Tests compare the
production code against these oracles; the oracles never import the
algorithms they are checking.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr

from frontdoor_lab.causal_graph import Dag


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
