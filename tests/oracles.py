"""Independent oracles used to verify the library's closed forms.

Nothing here shares code with the package's evaluation paths:

* Vora-Values are recomputed from the normal-equations definition
  ``trace(Q (Q^T Q)^-1 Q^T X (X^T X)^-1 X^T) / 3`` in exact rational
  arithmetic (after cycling the trace down to 3x3 factors), so the oracle
  value is exact for the given float inputs.
* Projectors are recomputed from the same definition in floats.
* The Hessian is assembled densely from the paper's Hadamard-product
  expression, not from the package's ``diag(d) + U U^T`` factors.
* The random-search baseline and the regularized objective ``mu`` evaluate
  filters with their own stacked QR.
* A planted camera has a design whose answer is known in closed form.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _frac(matrix) -> list[list[Fraction]]:
    return [[Fraction(float(v)) for v in row] for row in np.asarray(matrix)]


def _matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def _inv3(m):
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        raise ZeroDivisionError("singular 3x3 matrix in exact oracle")
    adj = [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]
    return [[x / det for x in row] for row in adj]


def exact_vora(camera: np.ndarray, observer: np.ndarray) -> float:
    """Exact-rational evaluation of the normal-equations Vora-Value."""
    q = _frac(camera)
    x = _frac(observer)
    qt = [list(col) for col in zip(*q)]
    xt = [list(col) for col in zip(*x)]
    qtq = _matmul(qt, q)
    xtx = _matmul(xt, x)
    qtx = _matmul(qt, x)
    xtq = _matmul(xt, q)
    inner = _matmul(_matmul(_inv3(qtq), qtx), _matmul(_inv3(xtx), xtq))
    trace = inner[0][0] + inner[1][1] + inner[2][2]
    return float(trace / 3)


def exact_filtered_vora(camera: np.ndarray, observer: np.ndarray,
                        f: np.ndarray) -> float:
    """Exact-rational filtered Vora-Value via the explicit diagonal expansion."""
    return exact_vora(np.asarray(f)[:, None] * np.asarray(camera), observer)


def projector_normal_equations(matrix: np.ndarray) -> np.ndarray:
    """P = M (M^T M)^-1 M^T computed by a float linear solve."""
    m = np.asarray(matrix, dtype=np.float64)
    return m @ np.linalg.solve(m.T @ m, m.T)


def paper_hessian(camera: np.ndarray, observer: np.ndarray,
                  f: np.ndarray) -> np.ndarray:
    """The paper's Hessian of the filtered Vora-Value, assembled densely:

        (2/3) [ -2 (CB) o ((I - 2B) A B C) + (CBC) o ((I - 2B) A)
                - (C B A B C) o I ]

    with ``A = P{X}``, ``B = P{FQ}``, ``C = F^-1`` and ``o`` the elementwise
    product. Not symmetrized: the expression is symmetric in exact
    arithmetic, so its asymmetry measures the round-off of the assembly.
    Projectors come from NumPy's QR, which stays accurate for the
    ill-conditioned filtered cameras the normal equations would lose.
    """
    f = np.asarray(f, dtype=np.float64)
    w = np.linalg.qr(f[:, None] * np.asarray(camera, dtype=np.float64))[0]
    v = np.linalg.qr(np.asarray(observer, dtype=np.float64))[0]
    b, a = w @ w.T, v @ v.T
    ab = a @ b
    bab = b @ ab
    cb = b / f[:, None]
    term1 = -2.0 * cb * ((ab - 2.0 * bab) / f[None, :])
    term2 = (cb / f[None, :]) * (a - 2.0 * ab.T)
    h = (2.0 / 3.0) * (term1 + term2)
    h[np.diag_indices_from(h)] -= (2.0 / 3.0) * np.einsum("ij,ji->i", b, ab) / (f * f)
    return h


def batched_vora_values(filters: np.ndarray, camera: np.ndarray,
                        observer: np.ndarray) -> np.ndarray:
    """Vora-Values of many filters at once, via stacked QR factorizations."""
    v = np.linalg.qr(np.asarray(observer, dtype=np.float64))[0]
    stacked = filters[:, :, None] * camera[None, :, :]
    w = np.linalg.qr(stacked)[0]
    cross = np.einsum("bij,ik->bjk", w, v)
    return np.sum(cross**2, axis=(1, 2)) / 3.0


def regularized_objective(camera: np.ndarray, observer: np.ndarray,
                          f: np.ndarray, alpha: float) -> float:
    """The paper's regularized objective ``mu = value + alpha/2 ||f||^2`` of
    one filter, its value from :func:`batched_vora_values`."""
    f = np.asarray(f, dtype=np.float64)
    value = batched_vora_values(f[None, :], camera, observer)[0]
    return float(value) + 0.5 * alpha * float(f @ f)


def random_search_best(camera: np.ndarray, observer: np.ndarray,
                       n_samples: int, seed: int, tau_min: float,
                       tau_max: float, chunk: int = 20000) -> float:
    """Best Vora-Value over uniformly random in-box filters."""
    rng = np.random.default_rng(seed)
    n = camera.shape[0]
    best = -np.inf
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        filters = rng.uniform(tau_min, tau_max, size=(m, n))
        best = max(best, float(batched_vora_values(filters, camera, observer).max()))
        remaining -= m
    return best


def conditioned_sensor_matrix(rng: np.random.Generator, n: int,
                              condition: float) -> np.ndarray:
    """Random n x 3 matrix with a prescribed singular-value spread."""
    raw = rng.standard_normal((n, 3))
    u, _, vt = np.linalg.svd(raw, full_matrices=False)
    s = np.array([1.0, 1.0 / np.sqrt(condition), 1.0 / condition])
    return u @ np.diag(s) @ vt


def planted_camera(observer: np.ndarray, f_star: np.ndarray, seed: int) -> np.ndarray:
    """Camera responses ``Q = diag(1/f*) X M``, with ``X`` the observer's and
    ``M`` a uniform(0.2, 1) 3 x 3 drawn from ``seed``.

    Filtered by ``f*``, the camera spans the observer's space (the
    Luther-Ives condition), so its filtered Vora-Value has its maximum,
    exactly 1, at every ``f`` proportional to ``f*``. ``M`` changes only
    the rounding: ``span(Q)`` does not depend on it.
    """
    m = np.random.default_rng(seed).uniform(0.2, 1.0, (3, 3))
    return (np.asarray(observer) @ m) / np.asarray(f_star)[:, None]
