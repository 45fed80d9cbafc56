"""Conditioned evolution, quasi-stationary distribution, decay-rate fit.

Two independent routes to the conditioned law are provided on purpose: the
normalized matrix exponential of the killed flow (`conditioned_law`, by
scaling and squaring in `chain.transient_vector`) and a Runge-Kutta
integration of the nonlinear forward equation (`forward_ode`).
They agree only if both are right, which is what the cross-validation tests
lean on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .chain import AbsorbingChain, transient_vector
from .errors import (
    DistanceUnderflowError,
    NormalizationDriftError,
    QsdNotConvergedError,
    StepTooLargeError,
    SurvivalUnderflowError,
    UnsortedTimesError,
)
from .measures import check_distribution, tv_distance

__all__ = [
    "QsdSolution",
    "DecayFit",
    "conditioned_law",
    "forward_ode",
    "qsd",
    "decay_rate_estimate",
]

# Below this survival mass, renormalization amplifies noise beyond repair.
SURVIVAL_FLOOR = 1e-300

# Unit-sum drift of the ODE solution beyond which the integration is
# declared unstable rather than silently renormalized.
DRIFT_LIMIT = 1e-6

# Distances at or below this are numerically zero for log-scale fitting.
DISTANCE_FLOOR = 1e-12


def conditioned_law(
    chain: AbsorbingChain, mu: ArrayLike, t: float
) -> NDArray[np.float64]:
    """Law at time ``t`` of the killed chain started from ``mu``,
    conditioned on survival: the transient vector normalized to unit sum.
    """
    w = transient_vector(chain, mu, t)
    survival = float(w.sum())
    if survival <= SURVIVAL_FLOOR:
        raise SurvivalUnderflowError(
            f"survival mass {survival!r} at t={t}; reduce t"
        )
    return w / survival


def forward_ode(
    chain: AbsorbingChain, mu: ArrayLike, t: float, step: float
) -> NDArray[np.float64]:
    """Conditioned law via RK4 on the nonlinear forward equation.

    The integrated field is dv/dt = v Q + (v . absorption) v, whose exact
    solutions stay on the probability simplex; the quadratic term replaces
    the mass lost to absorption.  Classical fixed-step fourth-order
    Runge-Kutta; the step must satisfy step <= 0.1 / max_x |q(x,x)|.  The
    result is renormalized once at output, and a unit-sum drift beyond
    ``DRIFT_LIMIT`` raises instead.

    The step limit does not bound that drift.  Off the simplex the sum S
    of v obeys S' = (v . absorption)(S - 1), so a roundoff error in S
    grows like exp(integral of v . absorption dt): on a strongly absorbing
    chain a long enough horizon raises whatever the step.

    Each step is taken in the Krylov basis of v: with A = h Q and
    b = h absorption, every RK4 stage lies in span{v A^j, j <= 3} and the
    update in span{v A^j, j <= 4}, and a stage's factor u . b is a sum
    of the scalars v A^j b.  So one vector-matrix product against the
    precomputed [I | A | ... | A^4 | b | A b | ... | A^3 b] gives those
    five vectors and four scalars, the stages run as a recursion on five
    coefficients (`_rk4_coefficients`), and a second product combines
    the vectors.  On a few sites a step costs its calls, not its
    arithmetic, so both products are `np.dot` (no ufunc dispatch), the
    first into one reused buffer.  The precomputation costs four n x n
    matrix products, which outweighs the saving for large n and few
    steps.  Measured with OpenBLAS on a 2-vCPU Xeon: a step on a 3-site
    chain took 2.6 us (3.7 us with `@`), and a 200-site chain over 44
    steps took 3.3-3.8 ms against 1.5-1.8 ms stage by stage.
    """
    v = check_distribution(mu, chain.n)
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValueError("time must be finite and nonnegative")
    if not (step > 0.0):
        raise ValueError("step must be positive")
    max_rate = float(chain.site_rates.max())
    if step > 0.1 / max_rate:
        raise StepTooLargeError(
            f"step {step:g} exceeds stability limit {0.1 / max_rate:g}"
        )
    if t == 0.0:
        return v

    n = chain.n
    n_steps = int(np.ceil(t / step))
    h = t / n_steps
    hq = h * chain.rates
    powers = [np.eye(n)]
    for _ in range(4):
        powers.append(powers[-1] @ hq)
    absorbed = [h * chain.absorption]
    for _ in range(3):
        absorbed.append(hq @ absorbed[-1])
    basis = np.hstack([*powers, np.column_stack(absorbed)])
    row = np.empty(basis.shape[1])
    vectors = row[: 5 * n].reshape(5, n)
    scalars = row[5 * n:]
    for _ in range(n_steps):
        np.dot(v, basis, out=row)
        v = np.dot(_rk4_coefficients(*scalars.tolist()), vectors)
    drift = abs(float(v.sum()) - 1.0)
    # Written so a NaN drift (blown-up solution) also lands in the raise.
    if not (drift <= DRIFT_LIMIT):
        raise NormalizationDriftError(
            f"unit-sum drift {drift:g} after {n_steps} steps"
        )
    return v / v.sum()


def _rk4_coefficients(
    b0: float, b1: float, b2: float, b3: float
) -> list[float]:
    """Coefficients c of one RK4 step v -> sum_j c_j v A^j, given
    b_j = v A^j b (see `forward_ode`).

    A stage at u = sum_j u_j v A^j has h times the field
    u A + (u . b) u, whose coefficients are u shifted up one power plus
    s u with s = sum_j u_j b_j.  Unrolled, since a loop over these short
    lists costs more than the two products of the step.
    """
    # k1 at v itself, coefficients (1, 0, 0, 0, 0)
    s = b0
    k10, k11 = s, 1.0
    # k2 at v + k1 / 2
    u0, u1 = 1.0 + 0.5 * k10, 0.5 * k11
    s = u0 * b0 + u1 * b1
    k20, k21, k22 = s * u0, u0 + s * u1, u1
    # k3 at v + k2 / 2
    u0, u1, u2 = 1.0 + 0.5 * k20, 0.5 * k21, 0.5 * k22
    s = u0 * b0 + u1 * b1 + u2 * b2
    k30, k31, k32, k33 = s * u0, u0 + s * u1, u1 + s * u2, u2
    # k4 at v + k3
    u0, u1, u2, u3 = 1.0 + k30, k31, k32, k33
    s = u0 * b0 + u1 * b1 + u2 * b2 + u3 * b3
    k40, k41, k42, k43, k44 = (
        s * u0, u0 + s * u1, u1 + s * u2, u2 + s * u3, u3
    )
    return [
        1.0 + (k10 + 2.0 * (k20 + k30) + k40) / 6.0,
        (k11 + 2.0 * (k21 + k31) + k41) / 6.0,
        (2.0 * (k22 + k32) + k42) / 6.0,
        (2.0 * k33 + k43) / 6.0,
        k44 / 6.0,
    ]


@dataclass(frozen=True)
class QsdSolution:
    """Dominant left eigenpair of the sub-generator, normalized."""

    nu: NDArray[np.float64]
    alpha: float
    residual: float
    iterations: int
    converged: bool

    def require_converged(self) -> QsdSolution:
        """This solution, or QsdNotConvergedError if the solve hit its cap."""
        if not self.converged:
            raise QsdNotConvergedError(
                f"QSD Green-matrix iteration did not converge in "
                f"{self.iterations} iterations (residual {self.residual:.2e})"
            )
        return self


def qsd(
    chain: AbsorbingChain, tol: float = 1e-12, max_iter: int = 10**6
) -> QsdSolution:
    """Quasi-stationary distribution by iteration on the Green matrix.

    Iterates left multiplication by G = (-Q)^-1, renormalizing to unit
    1-norm each step.  Every chain is irreducible and killed somewhere,
    so -Q is invertible, G is entrywise positive, and G shares the
    dominant left eigenvector of Q (its eigenvalue is -1/alpha), so the
    iteration converges from the uniform start at the ratio of the
    two slowest decay rates, whatever the fast rates of the chain.  Stops
    when successive iterates differ by less than ``tol`` in sup norm and
    the eigen-residual max|v Q - alpha v| is at most ``tol``.  Hitting
    ``max_iter`` first, or a settled step whose residual stops improving
    on the best seen (the roundoff floor of a chain whose rates span many
    decades), returns the last iterate with ``converged=False`` rather
    than raising.  The eigenvalue is alpha = -(v . absorption) /
    sum(v), the eigen-equation summed over sites.
    """
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    green = np.linalg.inv(-chain.rates)

    def residual_of(vec: NDArray[np.float64]) -> tuple[float, float]:
        alpha = -float(vec @ chain.absorption) / float(vec.sum())
        res = float(np.max(np.abs(vec @ chain.rates - alpha * vec)))
        return res, alpha

    v = np.full(chain.n, 1.0 / chain.n)
    iterations = 0
    converged = False
    best = np.inf
    while iterations < max_iter:
        w = np.dot(v, green)
        w /= w.sum()
        iterations += 1
        if np.max(np.abs(w - v)) < tol:
            v = w
            res, _ = residual_of(v)
            if res <= tol:
                converged = True
                break
            # The step is settled but the residual no longer falls: it
            # sits at roundoff, and more iterations only cycle.
            if res >= best:
                break
            best = res
        else:
            v = w
    res, alpha = residual_of(v)
    v.flags.writeable = False
    return QsdSolution(
        nu=v,
        alpha=alpha,
        residual=res,
        iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log ||T_t mu - nu|| against t."""

    theta: float
    intercept: float
    r_squared: float
    times: NDArray[np.float64]
    distances: NDArray[np.float64]


def decay_rate_estimate(
    chain: AbsorbingChain,
    mu: ArrayLike,
    t_grid: ArrayLike,
    solution: QsdSolution | None = None,
) -> DecayFit:
    """Empirical exponential-decay rate of the conditioned law toward the
    quasi-stationary distribution.

    Fits a straight line to log of the total-variation distance over the
    given increasing time grid (at least 4 points) and returns the
    sign-flipped slope together with the intercept and R^2.  Distances at
    the numerical floor raise DistanceUnderflowError; shrink the grid.  A
    grid whose squared spread about its mean is 0 or not a finite double
    (too narrow or too wide for the slope) raises UnsortedTimesError.
    A QSD solution that did not converge, passed or computed, raises
    QsdNotConvergedError.
    """
    times = np.asarray(t_grid, dtype=np.float64)
    if times.ndim != 1 or times.size < 4:
        raise ValueError("t_grid must contain at least 4 times")
    if times[0] <= 0.0:
        raise ValueError("t_grid times must be positive")
    if np.any(np.diff(times) <= 0.0):
        raise UnsortedTimesError("t_grid must be strictly increasing")
    with np.errstate(over="ignore", invalid="ignore"):
        t_centered = times - times.mean()
        spread = float(t_centered @ t_centered)
    if not 0.0 < spread < np.inf:
        raise UnsortedTimesError("t_grid's spread squares to 0 or overflows a double")
    if solution is None:
        solution = qsd(chain)
    nu = solution.require_converged().nu
    distances = np.array(
        [tv_distance(conditioned_law(chain, mu, t), nu) for t in times]
    )
    if np.any(distances <= DISTANCE_FLOOR):
        raise DistanceUnderflowError(
            "distance at or below 1e-12 on the grid; shrink the grid"
        )
    y = np.log(distances)
    slope = float(t_centered @ (y - y.mean()) / spread)
    intercept = float(y.mean() - slope * times.mean())
    ss_res = float(np.sum((y - (slope * times + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        theta=-slope,
        intercept=intercept,
        r_squared=r_squared,
        times=times,
        distances=distances,
    )
