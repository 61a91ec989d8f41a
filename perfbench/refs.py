"""Reference values computed apart from `stratrace`.

Everything here uses numpy (and `numpy.polynomial`) only, on the unit
interval [0, 1].  A weight is described by plain data (`WeightSpec`) and
turned into sums of terms c * t^r * exp(i omega t) on cells; inner products
with Fourier and Haar basis functions are then exact cell integrals, and
Legendre coefficients come from Legendre-series algebra.  None of it shares
code with the engine it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as L
from numpy.polynomial import polynomial as P

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WeightSpec:
    """A weight on [0, 1]: kind "poly" (monomial coefficients), "trig"
    ((k, s, c) terms of s sin 2 pi k t + c cos 2 pi k t) or "table"
    (piecewise-linear values on a grid)."""

    kind: str
    coeffs: tuple = ()
    terms: tuple = ()
    grid: tuple = ()
    values: tuple = ()

    def cells(self):
        """[(a, b, {omega: complex monomial coefficients in t})] covering [0, 1]."""
        if self.kind == "poly":
            return [(0.0, 1.0, {0.0: np.asarray(self.coeffs, dtype=complex)})]
        if self.kind == "trig":
            return [(0.0, 1.0, _trig_terms(self.terms))]
        grid, vals = np.asarray(self.grid), np.asarray(self.values)
        out = []
        for a, b, va, vb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            slope = (vb - va) / (b - a)
            out.append((a, b, {0.0: np.array([va - slope * a, slope], dtype=complex)}))
        return out

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "poly":
            return P.polyval(t, self.coeffs)
        if self.kind == "trig":
            return sum(s * np.sin(TWO_PI * k * t) + c * np.cos(TWO_PI * k * t)
                       for k, s, c in self.terms)
        return np.interp(t, self.grid, self.values)


def _trig_terms(terms):
    out = {}
    for k, s, c in terms:
        if k == 0:
            out[0.0] = out.get(0.0, 0) + np.array([c], dtype=complex)
            continue
        w = TWO_PI * k
        # s sin + c cos = (c/2 - i s/2) e^{iwt} + (c/2 + i s/2) e^{-iwt}
        out[w] = out.get(w, 0) + np.array([0.5 * c - 0.5j * s])
        out[-w] = out.get(-w, 0) + np.array([0.5 * c + 0.5j * s])
    return out


def _moments(h: float, r_max: int, omega: float) -> np.ndarray:
    """J_r = int_0^h s^r exp(i omega s) ds for r = 0..r_max."""
    r = np.arange(r_max + 1)
    if omega == 0.0:
        return (h ** (r + 1) / (r + 1)).astype(complex)
    z = 1j * omega
    if abs(omega * h) < 1.0:
        # power series; integration by parts would cancel catastrophically
        out = np.zeros(r_max + 1, dtype=complex)
        term = np.ones(1, dtype=complex)[0]
        for m in range(40):
            out += term * h ** (r + m + 1) / (r + m + 1)
            term = term * z / (m + 1)
        return out
    e = np.exp(z * h)
    out = np.empty(r_max + 1, dtype=complex)
    out[0] = (e - 1.0) / z
    for k in range(1, r_max + 1):
        out[k] = (h ** k * e - k * out[k - 1]) / z
    return out


def _integrate(terms: dict, a: float, b: float) -> complex:
    """int_a^b of sum_omega poly_omega(t) exp(i omega t) dt, exactly."""
    total = 0j
    shift = P.Polynomial([a, 1.0])
    for omega, coeffs in terms.items():
        local = P.Polynomial(coeffs)(shift).coef  # coefficients in s = t - a
        total += np.exp(1j * omega * a) * (local @ _moments(b - a, len(local) - 1, omega))
    return total


def _product(f: dict, g: dict) -> dict:
    out = {}
    for wf, pf in f.items():
        for wg, pg in g.items():
            w = wf + wg
            term = P.polymul(pf, pg)
            prev = out.get(w)
            out[w] = term if prev is None else P.polyadd(prev, term)
    return out


def _overlap_integral(f_cells, g_cells) -> complex:
    total = 0j
    for a, b, f in f_cells:
        for c, d, g in g_cells:
            lo, hi = max(a, c), min(b, d)
            if hi > lo:
                total += _integrate(_product(f, g), lo, hi)
    return total


def inner(phi: WeightSpec, psi: WeightSpec) -> float:
    """(phi, psi) = int_0^1 phi psi, exact up to roundoff."""
    return float(_overlap_integral(phi.cells(), psi.cells()).real)


def _fourier_cells(i: int):
    if i == 0:
        return [(0.0, 1.0, {0.0: np.array([1.0 + 0j])})]
    k = (i + 1) // 2
    s, c = (math.sqrt(2.0), 0.0) if i % 2 == 1 else (0.0, math.sqrt(2.0))
    return [(0.0, 1.0, _trig_terms([(k, s, c)]))]


def _haar_cells(i: int):
    if i == 0:
        return [(0.0, 1.0, {0.0: np.array([1.0 + 0j])})]
    level = int(math.floor(math.log2(i)))
    k = i - (1 << level)
    width = 1.0 / (1 << level)
    amp = 2.0 ** (0.5 * level)
    a, m, b = k * width, (k + 0.5) * width, (k + 1) * width
    return [(a, m, {0.0: np.array([amp + 0j])}), (m, b, {0.0: np.array([-amp + 0j])})]


def _legendre_coeffs(w: WeightSpec, n: int) -> np.ndarray:
    """(w, q_i) for the shifted orthonormal Legendre basis."""
    if w.kind == "poly":
        # p(t) with t = (u + 1) / 2, as a Legendre series in u
        in_u = P.Polynomial(w.coeffs)(P.Polynomial([0.5, 0.5])).coef
        series = L.poly2leg(in_u)
        out = np.zeros(n)
        m = min(n, len(series))
        out[:m] = series[:m] / np.sqrt(2 * np.arange(m) + 1)
        return out
    if w.kind == "trig":
        # smooth and entire: frequency <= 3 needs degree ~40 for roundoff, so a
        # 100-point Gauss-Legendre rule (exact to degree 199) covers i < 64;
        # larger rules lose digits in numpy's node computation
        if n > 64 or max(k for k, _, _ in w.terms) > 3:
            raise ValueError("trig Legendre references cover n <= 64, frequency <= 3")
        x, wts = L.leggauss(100)
        vander = L.legvander(x, n - 1) * np.sqrt(2 * np.arange(n) + 1)
        return 0.5 * (wts * w(0.5 * (x + 1.0))) @ vander
    u = 2.0 * np.asarray(w.grid) - 1.0
    vals = np.asarray(w.values)
    slope = np.diff(vals) / np.diff(u)  # value = alpha + slope * u on each cell
    alpha = vals[:-1] - slope * u[:-1]
    out = np.empty(n)
    for i in range(n):
        e = np.zeros(i + 1)
        e[i] = 1.0
        A = L.legval(u, L.legint(e))
        B = L.legval(u, L.legint(L.legmulx(e)))
        cell = alpha * np.diff(A) + slope * np.diff(B)
        out[i] = 0.5 * math.sqrt(2 * i + 1) * cell.sum()
    return out


def basis_coeffs(w: WeightSpec, family: str, n: int) -> np.ndarray:
    """(w, q_i) for i < n in the given family on [0, 1]."""
    if family == "legendre":
        return _legendre_coeffs(w, n)
    cells_of = {"fourier": _fourier_cells, "haar": _haar_cells}[family]
    w_cells = w.cells()
    return np.array([_overlap_integral(w_cells, cells_of(i)).real for i in range(n)])


# ---------------------------------------------------------------------------
# Monte Carlo moments of quadratic and bilinear forms in standard normals


def quadratic_form_moments(G: np.ndarray, same_noise: bool):
    """(mean, variance, fourth cumulant) of zeta^T G zeta, or of zeta^T G eta
    with independent eta."""
    if same_noise:
        A = 0.5 * (G + G.T)
        A2 = A @ A
        return float(np.trace(G)), 2.0 * float(np.sum(A * A)), 48.0 * float(np.sum(A2 * A2))
    GtG = G.T @ G
    return 0.0, float(np.sum(G * G)), 6.0 * float(np.sum(GtG * GtG))
