"""Outcome checks applied to every run after its pass's timer has stopped.

A run passes when its exit code is the expected one, when an error exit
wrote exactly one JSON line to stderr, and when the accuracy fields of its
summary stay within the tolerances the acceptance criteria use.
"""

from __future__ import annotations

import json
import math

# Root of x = 5 (1 - exp(-x)), Wien's displacement constant in reduced form;
# the peak product lambda_max * p_thermal / hbar equals 2 pi / x.
WIEN_X = 4.965114231744276


def _at_most(summary, key, bound):
    value = summary.get(key)
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value > bound:
        return f"{key}={value!r} exceeds {bound:.3g}"
    return None


def _wigner_gaussian(s, cfg):
    return [
        _at_most(s, "closed_form_error_t0", 1e-6),
        _at_most(s, "closed_form_error_t", 1e-6),
        _at_most(s, "total_error", 1e-8),
        _at_most(s, "marginal_x_error", 1e-8),
        _at_most(s, "marginal_p_error", 1e-8),
    ]


def _phonon_gaussian(s, cfg):
    return [
        _at_most(s, "wigner_closed_form_error", 1e-6),
        _at_most(s, "energy_site_vs_mode", 1e-10),
        _at_most(s, "energy_action_vs_mode", 1e-10),
        _at_most(s, "energy_drift_exact", 1e-10),
        _at_most(s, "eta_drift", 1e-10),
        _at_most(s, "psi_vs_mode_evolution", 1e-10),
    ]


def _traveling_wave(s, cfg):
    # dt = dt_factor / omega_max, so the verify-lattice bound 0.5 theta^2 uses theta = dt_factor
    theta = cfg["lattice"].get("dt_factor", 0.1)
    return [_at_most(s, "leapfrog_energy_drift", 0.5 * theta**2)]


def _photon_field(s, cfg):
    return [
        _at_most(s, "energy_field_vs_mode", 1e-6),
        _at_most(s, "energy_wigner_vs_mode", 1e-6),
        _at_most(s, "number_vs_wigner", 1e-6),
        _at_most(s, "energy_drift", 1e-10),
        _at_most(s, "number_drift", 1e-10),
    ]


def _helicity_cylindrical(s, cfg):
    h = cfg["helicity"]
    k, v = h.get("k", 1.0), h.get("v", 1.0)
    spacing, dt = h.get("spacing", 1e-3), h.get("dt", 1e-3)
    order = s.get("stencil_order_ratio")
    opposite = s.get("eigencheck_opposite")
    return [
        _at_most(s, "eigencheck_same", 1e-12),
        None if isinstance(opposite, float) and abs(opposite - 2.0) <= 1e-12
        else f"eigencheck_opposite={opposite!r} is not 2",
        None if isinstance(order, float) and abs(order - 4.0) <= 0.5
        else f"stencil_order_ratio={order!r} is not 4 +- 0.5",
        _at_most(s, "equation_residual", 0.5 * (k * spacing) ** 2 + 0.25 * (v * k * dt) ** 2),
    ]


# dimensionless profiles f / (2/h^3) of x = eps / (k_B T), by model or init name
_PROFILES = {
    "rayleigh-jeans": lambda x: 1.0 / x,
    "wien": lambda x: math.exp(-x),
    "wien-stimulated": lambda x: 1.0 / math.expm1(x),
    "planck": lambda x: 1.0 / math.expm1(x),
    "zero": lambda x: 0.0,
}


def _relaxation_bound(k):
    """Bound on relative_residual: relaxation shrinks every cell's distance to
    the fixed point by at least exp(-n_folds), so the residual is at most
    exp(-n_folds) times the initial relative distance (doubled for round-off).
    The damping-only model is scaled by the initial peak instead."""
    model, init = k.get("model", "wien-stimulated"), k.get("init", "zero")
    decay = math.exp(-k.get("n_folds", 30.0))
    if model == "none":
        return 2.0 * decay + 1e-12
    lo, hi, n = k.get("x_min", 0.05), k.get("x_max", 20.0), k.get("n_cells", 200)
    target, start = _PROFILES[model], _PROFILES[init]
    xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return 2.0 * decay * max(abs(start(x) - target(x)) / target(x) for x in xs) + 1e-12


def _thermal_planck(s, cfg):
    product = s.get("peak_product")
    cube = s.get("photons_per_peak_cube")
    return [
        _at_most(s, "relative_residual", _relaxation_bound(cfg["kinetics"])),
        _at_most(s, "stationarity_residual", 1e-9),
        None if isinstance(product, float) and abs(product - 2.0 * math.pi / WIEN_X) <= 1e-4
        else f"peak_product={product!r} is not 2 pi / x*",
        None if isinstance(cube, float) and 0.47 <= cube <= 0.50
        else f"photons_per_peak_cube={cube!r} outside [0.47, 0.50]",
    ]


SUMMARY_CHECKS = {
    "wigner-gaussian": _wigner_gaussian,
    "phonon-gaussian": _phonon_gaussian,
    "traveling-wave": _traveling_wave,
    "photon-field": _photon_field,
    "helicity-cylindrical": _helicity_cylindrical,
    "thermal-planck": _thermal_planck,
}


def one_json_line(stderr: str) -> bool:
    lines = [line for line in stderr.splitlines() if line.strip()]
    if len(lines) != 1:
        return False
    try:
        return "error" in json.loads(lines[0])
    except json.JSONDecodeError:
        return False


def outcome(spec: dict, code, stderr: str, stdout: str, summary: dict | None) -> str | None:
    """None if the run behaved as specified, else the reason it failed."""
    if not isinstance(code, int):
        return f"crashed: {code}"
    if code != spec["expect"]:
        return f"exit {code}, expected {spec['expect']}"
    if code != 0:
        return None if one_json_line(stderr) else "error exit without exactly one JSON line on stderr"
    if spec["command"] == "verify":
        return None if "all checks passed" in stdout else "verify did not report all checks passed"
    if summary is None:
        return "no summary.json written"
    check = SUMMARY_CHECKS.get(spec["scenario"])
    problems = [p for p in (check(summary, spec["config"]) if check else []) if p]
    return "; ".join(problems) or None
