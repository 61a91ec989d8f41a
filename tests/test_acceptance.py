"""End-to-end acceptance checks with pinned tolerances.

Each check prints exactly one [PASS]/[FAIL] line with the measured numbers
(echoed again in the terminal summary) and then asserts.  A check's bound is
what the method promises for that basis: exact to roundoff where the basis
holds the weights (Legendre for polynomial weights, every basis for the
constant weight), otherwise a closed-form or rate statement about the
truncation tail.  Checks that cannot meet their stated tolerance are allowed
to fail honestly; nothing here widens a bound to stay green.
"""

import json
import math
import time
from functools import lru_cache

import numpy as np
from numpy.polynomial import Legendre

from stratrace import (
    ComplexExponential,
    MonomialMax,
    MonomialMin,
    TrigSumWeight,
    brownian_midpoint_oracle,
    default_eps_schedule,
    diagonal_trace,
    factorization_residual,
    inner_product,
    kernel_matrix,
    legendre_weight,
    mc_campaign,
    tensor_coefficients,
    tensor_neighbor_trace,
    tensor_nonneighbor_trace,
    verify_symmetric_pair_sum,
    verify_volterra_trace,
    volterra_diagonal,
    weight_basis_inner,
)
from stratrace.cli import main as cli_main

from conftest import ACCEPTANCE_LINES, UNIT, make_basis, poly

ONE = poly(1.0)
TEE = poly(0.0, 1.0)
TSQ = poly(0.0, 0.0, 1.0)
SINE = TrigSumWeight(((1, 1.0, 0.0),), UNIT)
FAMILIES = ("legendre", "fourier", "haar")

WEIGHT_PAIRS = (
    ("(1, 1)", ONE, ONE),
    ("(1, t)", ONE, TEE),
    ("(t, t^2)", TEE, TSQ),
    ("(sin, 1)", SINE, ONE),
)


def check(ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {text}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@lru_cache(maxsize=1)
def _family_sums():
    """Diagonal sums at N=128 for the four weight pairs in all three bases."""
    out = {}
    for label, phi, psi in WEIGHT_PAIRS:
        started = time.perf_counter()
        target = 0.5 * inner_product(phi, psi)
        sums = {
            family: float(np.sum(volterra_diagonal(phi, psi, make_basis(family, 128), 128)))
            for family in FAMILIES
        }
        out[label] = {
            "target": target,
            "sums": sums,
            "seconds": time.perf_counter() - started,
        }
    return out


def test_diagonal_sums_converge_for_the_weight_family_across_bases():
    data = _family_sums()
    worst = max(
        abs(s - entry["target"])
        for entry in data.values()
        for s in entry["sums"].values()
    )
    slowest = max(entry["seconds"] for entry in data.values())
    check(
        worst <= 1e-3 and slowest <= 10.0,
        "diagonal sums at N=128 within 1e-3 of the analytic targets for "
        f"4 weight pairs x 3 bases (worst |error| {worst:.2e}, slowest pair {slowest:.1f} s)",
    )


def test_constant_pair_diagonal_is_exact_from_the_first_term():
    report = verify_volterra_trace(ONE, ONE, make_basis("legendre", 16), 16)
    worst = max(report.abs_errors)
    check(
        worst <= 1e-12,
        f"constant pair partial sums equal 0.5 from N=1 onward (worst |error| {worst:.2e})",
    )


def test_equal_weight_diagonals_match_the_projection_shortcut():
    labels = [f"P{d}" for d in range(5)] + ["1-2t+t^4"]
    weights = [legendre_weight(d, UNIT) for d in range(5)] + [poly(1.0, -2.0, 0.0, 0.0, 1.0)]
    worst_gap = 0.0
    legendre_tail = 0.0
    constant_worst = 0.0
    failures = []
    for label, psi in zip(labels, weights):
        half_norm = 0.5 * inner_product(psi, psi)
        for family in FAMILIES:
            basis = make_basis(family, 64)
            diag_sums = np.cumsum(volterra_diagonal(psi, psi, basis, 64))
            proj_sums = 0.5 * np.cumsum(weight_basis_inner(psi, basis, 64) ** 2)
            gap = float(np.max(np.abs(diag_sums - proj_sums)))
            worst_gap = max(worst_gap, gap)
            if not gap <= 1e-10:
                failures.append(f"{label} in {family} gap {gap:.2e}")
            errors = np.abs(proj_sums - half_norm)
            if family == "legendre":
                legendre_tail = max(legendre_tail, float(errors[-1]))
                if not errors[-1] <= 1e-10:
                    failures.append(f"{label} in legendre tail {errors[-1]:.2e}")
            elif psi.degree == 0:
                # the constant weight is q_0 itself: exact from the first term
                worst = float(np.max(errors))
                constant_worst = max(constant_worst, worst)
                if not worst <= 1e-12:
                    failures.append(f"{label} in {family} not exact ({worst:.2e})")
            elif not errors[-1] < errors[7]:
                failures.append(
                    f"{label} in {family} not improving ({errors[7]:.2e} at N=8, "
                    f"{errors[-1]:.2e} at N=64)"
                )
    check(
        not failures,
        "equal-weight diagonal sums equal half the squared projections at every "
        f"N <= 64 (worst gap {worst_gap:.2e} <= 1e-10); both sides reach half the "
        f"squared norm: legendre tail {legendre_tail:.2e} <= 1e-10, constant weight "
        f"exact in fourier/haar ({constant_worst:.2e} <= 1e-12 at every N), the other "
        "weights still improving from N=8 to N=64"
        + (f"; failed: {', '.join(failures)}" if failures else ""),
    )


def test_min_kernel_trace_by_expansion_averaging_and_eigenvalues():
    spec = MonomialMin(0, 1, UNIT)
    matrix_trace = float(np.real(
        np.trace(kernel_matrix(spec, make_basis("legendre", 128), 128).entries)
    ))
    averaged = diagonal_trace(spec, default_eps_schedule(UNIT, 3, 12))
    finest = averaged.partial_sums[-1]
    ks = np.arange(1, 2001)
    eig_sums = np.cumsum(4.0 / ((2 * ks - 1) ** 2 * math.pi ** 2))
    eig_errs = np.abs(eig_sums - 0.5)
    matrix_err = abs(matrix_trace - 0.5)
    finest_err = abs(finest - 0.5)
    check(
        matrix_err <= 2e-3
        and finest_err <= 2e-3
        and eig_errs[-1] <= 1e-3
        and eig_errs[9] > eig_errs[99] > eig_errs[-1],
        f"min-kernel trace: expansion at N=128 off by {matrix_err:.2e}, box average "
        f"at eps=2^-12 off by {finest_err:.2e} (both <= 2e-3); eigenvalue sums "
        f"approach 1/2 (error {eig_errs[-1]:.2e} at K=2000)",
    )


def test_factor_pair_composition_residuals_on_the_lattice():
    kinds = [
        ("min(0,1)", MonomialMin(0, 1, UNIT)),
        ("min(1,2)", MonomialMin(1, 2, UNIT)),
        ("max(1,2)", MonomialMax(1, 2, UNIT)),
        ("cexp(0,1)", ComplexExponential(0, 1, UNIT)),
    ]
    residuals = {label: factorization_residual(spec) for label, spec in kinds}
    worst = max(residuals.values())
    check(
        worst <= 1e-9,
        "factor-pair composition reproduces each kernel on a 32x32 lattice "
        f"(worst residual {worst:.2e} over {', '.join(residuals)})",
    )


def _unit_legendre(n: int) -> Legendre:
    """Unit-norm shifted Legendre polynomial on [0, 1], built from numpy alone."""
    return math.sqrt(2 * n + 1) * Legendre.basis(n, domain=[0.0, 1.0])


def _fourier_coefficients(p: Legendre, count: int) -> np.ndarray:
    """(p, q_i) for i < count in the trigonometric basis on [0, 1], where
    q_0 = 1, q_{2k-1} = sqrt2 sin(2 pi k t), q_{2k} = sqrt2 cos(2 pi k t).

    Repeated integration by parts ends after deg p + 1 steps:
    int_0^1 p(t) e^{-iwt} dt = -sum_j (p^(j)(1) - p^(j)(0)) / (iw)^(j+1)
    for w = 2 pi k.
    """
    jumps = []
    deriv = p
    for _ in range(p.degree() + 1):
        jumps.append(deriv(1.0) - deriv(0.0))
        deriv = deriv.deriv()
    antideriv = p.integ()
    out = np.empty(count)
    out[0] = antideriv(1.0) - antideriv(0.0)
    for i in range(1, count):
        iw = 2j * math.pi * ((i + 1) // 2)
        transform = -sum(jump / iw ** (j + 1) for j, jump in enumerate(jumps))
        out[i] = math.sqrt(2.0) * (-transform.imag if i % 2 else transform.real)
    return out


def _haar_coefficients(p: Legendre, count: int) -> np.ndarray:
    """(p, q_i) for i < count in the Haar basis on [0, 1]: the wavelet of level
    l on [a, b] with midpoint m gives 2^(l/2) (2 P(m) - P(a) - P(b)) for an
    exact antiderivative P of p."""
    antideriv = p.integ()
    out = np.empty(count)
    out[0] = antideriv(1.0) - antideriv(0.0)
    for i in range(1, count):
        level = i.bit_length() - 1
        a = (i - (1 << level)) / (1 << level)
        b = a + 1.0 / (1 << level)
        out[i] = 2.0 ** (level / 2) * (
            2.0 * antideriv(0.5 * (a + b)) - antideriv(a) - antideriv(b)
        )
    return out


def test_symmetric_pair_sums_for_low_degree_polynomials_across_bases():
    """In Legendre the paired sums are exact once N exceeds both degrees.  In
    Fourier and Haar they approach (phi, psi) with the Parseval tail
    sum_{i>=N} (phi, q_i)(psi, q_i): the engine's ladder must equal the
    closed-form truncated Parseval sum, and every tail above roundoff at N=64
    must be smaller at N=128."""
    weights = [legendre_weight(d, UNIT) for d in range(5)]
    rungs = 2 ** np.arange(8) - 1  # N = 1, 2, 4, ..., 128 as ladder indices
    closed_forms = {"fourier": _fourier_coefficients, "haar": _haar_coefficients}
    failures = []
    summary = []
    total = 0
    for family in FAMILIES:
        basis = make_basis(family, 128)
        if family in closed_forms:
            coeffs = [closed_forms[family](_unit_legendre(d), 128) for d in range(5)]
        worst = 0.0
        tails, ratios = [], []
        for a in range(5):
            for b in range(a, 5):
                total += 1
                label = f"{family} (P{a},P{b})"
                report = verify_symmetric_pair_sum(weights[a], weights[b], basis, 128)
                partial_sums = np.asarray(report.partial_sums)
                errors = np.asarray(report.abs_errors)
                if family in closed_forms:
                    parseval = np.cumsum(coeffs[a] * coeffs[b])
                    gap = float(np.max(np.abs(partial_sums[rungs] - parseval[rungs])))
                    if not gap <= 1e-12:
                        failures.append(f"{label} off the closed form by {gap:.2e}")
                else:
                    gap = float(np.max(errors[max(a, b):]))
                    if not gap <= 1e-12:
                        failures.append(f"{label} not exact from N={max(a, b) + 1} ({gap:.2e})")
                worst = max(worst, gap)
                tails.append(errors[127])
                if errors[63] > 1e-12:
                    ratios.append(errors[127] / errors[63])
                    if not errors[127] < errors[63]:
                        failures.append(
                            f"{label} tail not shrinking ({errors[63]:.2e} at N=64, "
                            f"{errors[127]:.2e} at N=128)"
                        )
        if family in closed_forms:
            text = f"{family}: |engine - closed form| {worst:.2e} on N=1..128"
        else:
            text = f"{family}: exact from N=max(a,b)+1 ({worst:.2e})"
        text += f", N=128 tails up to {max(tails):.2e}"
        if ratios:
            text += f", 64->128 ratios {min(ratios):.3f}-{max(ratios):.3f}"
        summary.append(text)
    check(
        not failures,
        f"symmetric pair sums for {total} combinations at N=128 (bound 1e-12): "
        + "; ".join(summary)
        + (f"; failed: {', '.join(failures)}" if failures else ""),
    )


def test_diagonal_sums_agree_between_bases_on_the_weight_family():
    data = _family_sums()
    worst = 0.0
    for entry in data.values():
        values = list(entry["sums"].values())
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                worst = max(worst, abs(values[i] - values[j]))
    check(
        worst <= 2e-3,
        f"diagonal sums at N=128 agree pairwise across bases (worst spread {worst:.2e})",
    )


def test_tensor_traces_contract_and_vanish_as_ordered():
    started = time.perf_counter()
    leg16 = make_basis("legendre", 16)
    tensor16 = tensor_coefficients(ONE, ONE, ONE, leg16, 16)
    neighbor_worst = max(
        tensor_neighbor_trace(tensor16, ONE, ONE, ONE, leg16, pair=pair, n_reduced=8).abs_errors[-1]
        for pair in ((1, 2), (2, 3))
    )
    tensor32 = tensor_coefficients(ONE, ONE, ONE, make_basis("legendre", 32), 32)
    decay = tensor_nonneighbor_trace(tensor32, Ns=[8, 16, 32])
    first, last = decay.abs_errors[0], decay.abs_errors[-1]
    elapsed = time.perf_counter() - started
    check(
        neighbor_worst <= 5e-3 and last <= 5e-2 and last < first and elapsed <= 60.0,
        f"tensor traces: neighbor contractions match the reduced-function oracle "
        f"(worst component {neighbor_worst:.2e} <= 5e-3 at N=16, first 8 components); "
        f"non-neighbor contraction shrinks {first:.2e} -> {last:.2e} from N=8 to N=32 "
        f"({elapsed:.1f} s)",
    )


def test_monte_carlo_expectation_and_variance_match_the_brownian_oracle():
    started = time.perf_counter()
    campaign = mc_campaign(ONE, ONE, make_basis("legendre", 64), 64, 100_000, seed=2026)
    se = math.sqrt(campaign.variance / campaign.n_paths)
    mean_err = abs(campaign.mean - 0.5)
    var_err = abs(campaign.variance - 0.5)
    oracle = brownian_midpoint_oracle(ONE, ONE, UNIT, seed=2026, n_paths=10_000, mesh=2 ** 14)
    oracle_se = math.sqrt(oracle.variance / oracle.n_paths)
    cross = abs(oracle.mean - campaign.mean)
    oracle_var_err = abs(oracle.variance - 0.5)
    elapsed = time.perf_counter() - started
    check(
        mean_err <= 3.0 * se
        and var_err <= 0.05
        and cross <= 3.0 * oracle_se
        and oracle_var_err <= 0.05
        and elapsed <= 60.0,
        f"expansion campaign at N=64, 1e5 paths: mean off 0.5 by {mean_err:.2e} "
        f"(3 se = {3 * se:.2e}), variance off by {var_err:.2e} (<= 0.05); Brownian "
        f"midpoint oracle matches the mean within its own band ({cross:.2e} <= "
        f"{3 * oracle_se:.2e}) and the variance within 10% ({oracle_var_err:.2e}) "
        f"({elapsed:.1f} s)",
    )


def test_smooth_path_oracle_agrees_with_the_quadratic_form_in_rms():
    report = mc_campaign(
        ONE, ONE, make_basis("legendre", 8), 8, n_paths=100, seed=7,
        oracle_draws=100, oracle_mesh=2048,
    )
    check(
        report.oracle_rms is not None and report.oracle_rms <= 1e-6,
        f"standalone path quadrature matches the quadratic form over 100 draws "
        f"(RMS {report.oracle_rms:.2e} at N=8, mesh 2048)",
    )


def test_report_payloads_are_identical_across_worker_counts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [
        "simulate", "--phi", "poly:1", "--psi", "poly:1", "--basis", "legendre",
        "--nmax", "8", "--paths", "9000", "--seed", "11",
    ]
    code_solo = cli_main(argv + ["--workers", "1", "--out", "solo"])
    code_quad = cli_main(argv + ["--workers", "4", "--out", "quad"])
    solo = json.loads((tmp_path / "solo.json").read_text())
    quad = json.loads((tmp_path / "quad.json").read_text())
    payloads_equal = json.dumps(solo["payload"], sort_keys=True) == json.dumps(
        quad["payload"], sort_keys=True
    )
    csv_equal = (tmp_path / "solo.csv").read_bytes() == (tmp_path / "quad.csv").read_bytes()
    check(
        code_solo == 0 and code_quad == 0 and payloads_equal and csv_equal,
        "simulation payloads are byte-identical for 1 vs 4 workers after stripping "
        f"the env block (JSON equal: {payloads_equal}, CSV equal: {csv_equal})",
    )
