"""Independent reference computations used to cross-check the package.

Everything here is deliberately brute force and shares no code with the
implementations under test: the matrix exponential is a plain truncated
power series, the nonlinear forward equation is integrated one RK4 stage
at a time, eigenpairs come from numpy's dense solver, and the small
interacting system is collapsed to its exact occupancy-count master
equation (site 0's count on 2 sites, the whole count vector on any n), or
kept whole as the labelled chain on all n^N configurations.
The backward influence scans are collapsed to birth chains: the size of
one label's set, and the sizes of two labels' sets until they meet.
"""
from __future__ import annotations

import itertools
import math
import sys

import numpy as np

# Golden 2-site chain: both internal rates 1, absorption (1, 0).
# Its dominant left eigenpair solves a^2 + 3a + 1 = 0 by hand.
GOLD_NU = np.array([(3.0 - np.sqrt(5.0)) / 2.0, (np.sqrt(5.0) - 1.0) / 2.0])
GOLD_ALPHA = (-3.0 + np.sqrt(5.0)) / 2.0
# Gap between the two eigenvalues; drives the decay-rate fit.
GOLD_GAP = np.sqrt(5.0)
# The golden chain's C is 1, so 2 C t = log(DBL_MAX) at this horizon: the
# largest t at which the bound e^(2 C t) is a finite double.
LARGEST_T = math.log(sys.float_info.max) / 2.0


def series_expm(q: np.ndarray, t: float, terms: int | None = None) -> np.ndarray:
    """expm(t*q) as a straight truncated power series.

    The raw series of a generator cancels catastrophically (terms grow to
    e^{t max|q_xx|} before shrinking), so the sum runs over the shifted
    matrix t*q + theta*I, which is entrywise nonnegative, and the result
    is damped by e^{-theta}.  The shift is deliberately not the smallest
    admissible one, so the grouping differs from uniformization.  The
    truncation check requires the last damped term below 1e-16, and a
    non-finite term fails it.  e^{theta} overflows near theta = 709, so
    past theta = 500 the series runs over t / 2^s, with s the fewest
    halvings that bring theta to 500, and the result is squared s times;
    at theta <= 500, s = 0 and nothing is squared.
    """
    n = q.shape[0]
    if not (np.isfinite(q).all() and np.isfinite(t)):
        raise ValueError("q and t must be finite")
    top = float(np.max(-np.diag(q)))
    s = 0
    while 1.25 * (t / 2**s) * top + 1.0 > 500.0:
        s += 1
    t = t / 2**s
    theta = 1.25 * t * top + 1.0
    m = t * q + theta * np.eye(n)
    if m.min() < 0.0:
        raise RuntimeError("shift too small, matrix not nonnegative")
    if terms is None:
        terms = max(200, int(theta + 12.0 * np.sqrt(theta) + 20.0))
    out = np.eye(n)
    term = np.eye(n)
    damp = np.exp(-theta)
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    if not (damp * np.max(term) <= 1e-16):
        raise RuntimeError("series truncation too coarse for this input")
    out = damp * out
    for _ in range(s):
        out = out @ out
    return out


def dominant_left_eigenpair(rates: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue and normalized left eigenvector via the dense solver."""
    vals, vecs = np.linalg.eig(rates.T)
    k = int(np.argmax(vals.real))
    v = vecs[:, k].real
    v = np.abs(v)
    return float(vals[k].real), v / v.sum()


def occupancy_generator(chain, n_particles: int) -> np.ndarray:
    """Exact generator of the particle system collapsed to site-0 counts.

    Only valid for 2-site chains: the configuration law is a function of
    k = #particles at site 0.  Moves k -> k-1 when a site-0 particle jumps
    internally or is revived onto a site-1 particle, and symmetrically for
    k -> k+1.
    """
    if chain.n != 2:
        raise ValueError("occupancy collapse needs a 2-site chain")
    n = n_particles
    q01 = chain.rates[0, 1]
    q10 = chain.rates[1, 0]
    c0, c1 = chain.absorption
    g = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        down = k * q01 + k * c0 * (n - k) / (n - 1)
        up = (n - k) * q10 + (n - k) * c1 * k / (n - 1)
        if k > 0:
            g[k, k - 1] = down
        if k < n:
            g[k, k + 1] = up
        g[k, k] = -(down + up)
    return g


def occupancy_stationary_law(chain, n_particles: int) -> np.ndarray:
    """Stationary law of the site-0 count: the null vector of the
    occupancy generator, normalized to unit sum, by a dense least-squares
    solve of pi G = 0 with the row sum appended as one more equation."""
    g = occupancy_generator(chain, n_particles)
    system = np.vstack([g.T, np.ones(n_particles + 1)])
    rhs = np.zeros(n_particles + 2)
    rhs[-1] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0]


def occupancy_law(chain, n_particles: int, k0: int, t: float) -> np.ndarray:
    """Law of the site-0 count at time t, started from exactly k0 there."""
    g = occupancy_generator(chain, n_particles)
    p0 = np.zeros(n_particles + 1)
    p0[k0] = 1.0
    return p0 @ series_expm(g, t)


def occupancy_moments(law: np.ndarray, n_particles: int) -> tuple[float, float]:
    """(E[m_0], E[m_0^2]) under a site-0 count law."""
    k = np.arange(n_particles + 1)
    m = k / n_particles
    return float(law @ m), float(law @ m**2)


def count_states(n_sites: int, n_particles: int) -> np.ndarray:
    """Every way to put N particles on n sites, one count vector per row,
    sorted lexicographically (site 0's count ascending first)."""
    if n_sites == 1:
        return np.array([[n_particles]])
    rows = [
        [k, *rest]
        for k in range(n_particles + 1)
        for rest in count_states(n_sites - 1, n_particles - k).tolist()
    ]
    return np.array(rows)


def count_generator(chain, n_particles: int) -> np.ndarray:
    """Exact generator of the site counts of the particle system, any n.

    The particles are exchangeable, so the count vector c is a Markov chain
    on the rows of ``count_states``.  A particle at x jumps to y at rate
    q(x, y), or is absorbed at rate a(x) and revived onto one of the other
    N - 1 particles, c_y of which sit at y != x.  So c -> c - e_x + e_y at
    rate c_x q(x, y) + c_x a(x) c_y / (N - 1); a revival onto x itself
    leaves c unchanged and is not a transition.  For 2 sites this is
    ``occupancy_generator`` (state k has k particles at site 0).
    """
    n = chain.n
    states = count_states(n, n_particles)
    index = {tuple(c): i for i, c in enumerate(states.tolist())}
    q = np.array(chain.rates, dtype=np.float64)
    np.fill_diagonal(q, 0.0)
    a = np.asarray(chain.absorption, dtype=np.float64)
    g = np.zeros((len(states), len(states)))
    for i, c in enumerate(states):
        for x in range(n):
            for y in range(n):
                if x == y or c[x] == 0:
                    continue
                rate = c[x] * q[x, y] + c[x] * a[x] * c[y] / (n_particles - 1)
                if rate > 0.0:
                    moved = c.copy()
                    moved[x] -= 1
                    moved[y] += 1
                    g[i, index[tuple(moved.tolist())]] += rate
        g[i, i] = -g[i].sum()
    return g


def labelled_states(n_sites: int, n_particles: int) -> np.ndarray:
    """Every configuration, one per row, in the order of itertools.product: the
    configuration read as a base-n number, particle 0 its leading digit."""
    return np.array(list(itertools.product(range(n_sites), repeat=n_particles)))


def labelled_generator(chain, n_particles: int) -> np.ndarray:
    """Exact generator of the labelled particle system, on n^N states.

    State s is row s of ``labelled_states``: the configuration (xi_0, ...,
    xi_{N-1}) read as a base-n number.  Particle i at x jumps to y at
    rate q(x, y); it is absorbed at rate a(x) and revived onto each other
    particle j at rate a(x) / (N - 1), taking site xi_j, which leaves xi
    unchanged when xi_j = x.  So particle i moves x -> y != x at rate
    q(x, y) + a(x) #{j != i : xi_j = y} / (N - 1).
    """
    n = chain.n
    q = np.array(chain.rates, dtype=np.float64)
    np.fill_diagonal(q, 0.0)
    a = np.asarray(chain.absorption, dtype=np.float64)
    size = n**n_particles
    g = np.zeros((size, size))
    for s, xi in enumerate(labelled_states(n, n_particles).tolist()):
        for i, x in enumerate(xi):
            digit = n ** (n_particles - 1 - i)
            for y in range(n):
                if y == x:
                    continue
                others = sum(1 for j, z in enumerate(xi) if j != i and z == y)
                rate = q[x, y] + a[x] * others / (n_particles - 1)
                if rate > 0.0:
                    g[s, s + (y - x) * digit] += rate
        g[s, s] = -g[s].sum()
    return g


def labelled_index(configs: np.ndarray, n_sites: int) -> np.ndarray:
    """Each configuration's state index in ``labelled_generator``."""
    configs = np.atleast_2d(configs)
    digits = n_sites ** np.arange(configs.shape[1] - 1, -1, -1)
    return configs @ digits


def influence_size_generator(n_particles: int, c_rate: float) -> np.ndarray:
    """Exact generator of the size of one label's backward influence set.

    Scanning copy events backward from the horizon, each of the k current
    members has copy events at rate C, and each names a uniform target
    among the other N - 1 labels; a target outside the set adds it.  So
    the size is the pure birth chain on 1..N (index k - 1) with rate
    k * C * (N - k) / (N - 1), started at 1.
    """
    n = n_particles
    g = np.zeros((n, n))
    for k in range(1, n):
        rate = k * c_rate * (n - k) / (n - 1)
        g[k - 1, k] = rate
        g[k - 1, k - 1] = -rate
    return g


def overlap_probability(n_particles: int, c_rate: float, t: float) -> float:
    """Exact probability that the influence sets of two labels meet by t.

    Scanning copy events backward, the sizes (k0, k1) of the two disjoint
    sets form a pure birth chain with one absorbing "overlap" state.  Each
    of the k0 members of the first set fires at rate C and names a uniform
    target among the other N - 1 labels: a target in neither set adds it,
    so k0 grows at rate C k0 (N - k0 - k1) / (N - 1), and k1 likewise; a
    target in the other set is an overlap, which arrives at total rate
    2 C k0 k1 / (N - 1).  The law lives on an (N + 1, N + 1) grid indexed
    by (k0, k1), started at (1, 1), and is advanced by uniformized steps:
    one step moves mass rate / lam one cell down or right, or into the
    overlap state.  The result is the Poisson(lam t) mixture of the overlap
    mass after m steps, summed to 12 standard deviations past the mean.
    """
    n = n_particles
    k0, k1 = np.meshgrid(np.arange(n + 1.0), np.arange(n + 1.0), indexing="ij")
    free = np.maximum(n - k0 - k1, 0.0)
    grow0 = c_rate * k0 * free / (n - 1)
    grow1 = c_rate * k1 * free / (n - 1)
    meet = 2.0 * c_rate * k0 * k1 / (n - 1)
    lam = float((grow0 + grow1 + meet)[k0 + k1 <= n].max())
    if lam * t == 0.0:
        return 0.0
    grow0, grow1, meet = grow0 / lam, grow1 / lam, meet / lam
    stay = 1.0 - grow0 - grow1 - meet
    law = np.zeros((n + 1, n + 1))
    law[1, 1] = 1.0
    mean = lam * t
    met = 0.0
    total = 0.0
    for m in range(int(mean + 12.0 * math.sqrt(mean) + 30.0)):
        total += math.exp(m * math.log(mean) - mean - math.lgamma(m + 1.0)) * met
        met += float((law * meet).sum())
        step = law * stay
        step[1:, :] += (law * grow0)[:-1, :]
        step[:, 1:] += (law * grow1)[:, :-1]
        law = step
    return total


def rk4_forward_ode(chain, mu, t: float, step: float) -> np.ndarray:
    """Stage-by-stage classical RK4 on dv/dt = v Q + (v . absorption) v.

    The same fixed step h = t / ceil(t / step) as ``forward_ode``, four
    evaluations of the field per step, and no renormalization: the raw
    end point is returned, so its unit-sum drift can be read off.
    """
    rates = chain.rates
    absorption = chain.absorption

    def field(u: np.ndarray) -> np.ndarray:
        return u @ rates + (u @ absorption) * u

    v = np.array(mu, dtype=np.float64)
    n_steps = int(np.ceil(t / step))
    h = t / n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            k1 = field(v)
            k2 = field(v + 0.5 * h * k1)
            k3 = field(v + 0.5 * h * k2)
            k4 = field(v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v
