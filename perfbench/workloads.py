"""Seeded inputs for the three benchmark workloads.

Sizes are fixed; only the free parameters come from the seed:

* ``mixed1d-verify``  region boundaries of the mixed-type system and the
  pulse centre (p = 50 interior nodes, dim 101, N = 4096, dt = 1/64);
* ``integro-verify``  the kernel modes gamma_j = diag(g_j) >= 0 and decays
  beta_j, kept admissible (Hermitian, commuting, beta_min > nu0, weighted L1
  at nu0 below one), and the entries of the skew tridiagonal ``a``
  (dim 16, N = 4096);
* ``custom-certify``  the matrices M0 (Hermitian, positive definite) and
  M1 (positive definite Hermitian part plus a skew part) of a dim-2 custom
  law, certified at half its DAE rate.

Each draw is gated by a coarse library ``certify``.  A verify draw must also
leave a decay tail the CLI can fit: its solution needs at least
MIN_TAIL_SAMPLES samples above the fit's floor inside the automatic tail
window.  ``verify`` fixes that window at 20%-90% of the time after the peak
and exits with a config error when fewer than 8 samples remain, which a
fast-decaying mixed1d draw (narrow omega0) hits on this grid.  A draw that
fails either gate is redrawn from the same stream and the number of redraws
is recorded.  The
program under test receives only the written config JSON (and, for the
custom law, the generated factory module the config names).
"""
from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from evostab.analysis import auto_tail_window
from evostab.certify import SamplingConfig, certify
from evostab.cli import _BuiltProblem, resolve_config
from evostab.material import IntegroLaw, Kernel, KernelMode
from evostab.spatial import build_mixed_type_system, indicators_from_intervals

from customlaw import counted_dae_law

WORKLOADS = ("mixed1d-verify", "integro-verify", "custom-certify")

GRID = {"t0": -2.0, "dt": 1.0 / 64.0, "n_steps": 4096}
RHO = 0.05
MIXED_P = 50
INTEGRO_DIM = 16
INTEGRO_NU0 = 0.5
CUSTOM_MODULE = "evostab_bench_custom_law"
MAX_DRAWS = 20
FIT_FLOOR = 1e-13       # the default floor of analysis.fit_decay_rate, restated
# Eight times the fit's own minimum, so roundoff near the floor cannot flip a
# draw between this gate and the timed commands.
MIN_TAIL_SAMPLES = 64

# Coarse sampling for the redraw gate; the commands use the 200 x 401 default.
_GATE_SAMPLING = SamplingConfig(n_sigma=20, n_tau=41)


@dataclass
class Workload:
    name: str
    command: str          # CLI sub-command: "verify" or "certify"
    seed: int
    raw: dict             # config as written for the CLI
    draw: dict            # drawn free parameters, for the record
    redraws: int
    work_dir: str

    @property
    def config_path(self) -> str:
        return os.path.join(self.work_dir, "config.json")

    def write(self) -> None:
        with open(self.config_path, "w", encoding="ascii") as fh:
            json.dump(self.raw, fh, indent=1, sort_keys=True)


def _mat(m) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _draw_mixed(rng):
    x0 = rng.uniform(0.0, 0.1)
    x1 = rng.uniform(0.25, 0.45)
    x2 = rng.uniform(0.55, 0.8)
    center = rng.uniform(0.25, 1.0)
    mixed = {"p": MIXED_P, "c": 1.0, "omega0": [x0, x1], "omega1": [x1, x2]}
    raw = {"family": "mixed1d", "mixed": mixed, "grid": dict(GRID), "rho": RHO,
           "forcing": {"kind": "pulse", "center": center, "width": 0.1}}
    ind0, ind1 = indicators_from_intervals(MIXED_P, (x0, x1), (x1, x2))
    law = build_mixed_type_system(MIXED_P, 1.0 / (MIXED_P + 1), ind0, ind1, 1.0).law()
    draw = {"omega0": [x0, x1], "omega1": [x1, x2], "pulse_center": center}
    return raw, law, 0.0, draw


def _draw_integro(rng):
    n, nu0 = INTEGRO_DIM, INTEGRO_NU0
    betas = [nu0 + rng.uniform(0.5, 1.5), nu0 + rng.uniform(1.5, 3.0)]
    # Bound on the weighted L1 norm at nu0; below 1 - nu0/c the closed-form
    # rate is nu0 itself, so every draw takes the same certify path.
    l1_budget = rng.uniform(0.2, 0.45)
    gammas = []
    for beta in betas:
        g = rng.uniform(0.2, 1.0, n)
        gammas.append(np.diag(g * (0.5 * l1_budget) * (beta - nu0) / g.max()))
    s = rng.uniform(0.5, 2.0, n - 1)
    a = np.diag(s, 1) - np.diag(s, -1)
    kernel = {"nu0": nu0,
              "modes": [{"gamma": _mat(g), "beta": b} for g, b in zip(gammas, betas)]}
    raw = {"family": "integro", "kernel": kernel, "c": 1.0, "a": _mat(a),
           "grid": dict(GRID), "rho": RHO,
           "forcing": {"kind": "pulse", "center": 0.5, "width": 0.1}}
    law = IntegroLaw(Kernel(tuple(KernelMode(g, b) for g, b in zip(gammas, betas)), nu0), 1.0)
    draw = {"betas": betas, "gamma_diagonals": [np.diag(g).tolist() for g in gammas],
            "a_superdiagonal": s.tolist(), "l1_budget": l1_budget}
    return raw, law, 0.0, draw


def _unitary2(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _draw_custom(rng):
    q = _unitary2(rng)
    m0 = q @ np.diag(rng.uniform(0.5, 1.5, 2)) @ q.conj().T
    r = _unitary2(rng)
    h = r @ np.diag(rng.uniform(0.5, 2.0, 2)) @ r.conj().T
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m1 = h + 0.5 * (g - g.conj().T)
    m0 = 0.5 * (m0 + m0.conj().T)  # exactly Hermitian
    nu = 0.5 * float(np.linalg.eigvalsh(0.5 * (m1 + m1.conj().T))[0]) / float(np.linalg.norm(m0, 2))
    raw = {"family": "custom", "custom": {"import": f"{CUSTOM_MODULE}:build"}, "nu": nu,
           "grid": {"t0": -1.0, "dt": 1.0 / 64.0, "n_steps": 256}, "rho": RHO}
    draw = {"m0": _mat(m0), "m1": _mat(m1), "nu": nu}
    return raw, counted_dae_law(m0, m1), nu, draw


_DRAWS = {"mixed1d-verify": ("verify", _draw_mixed),
          "integro-verify": ("verify", _draw_integro),
          "custom-certify": ("certify", _draw_custom)}


def custom_matrices(wl: Workload):
    """(M0, M1) of a custom-certify draw as complex arrays."""
    m0, m1 = (np.asarray(wl.draw[k]) for k in ("m0", "m1"))
    return m0[..., 0] + 1j * m0[..., 1], m1[..., 0] + 1j * m1[..., 1]


def write_custom_module(wl: Workload) -> None:
    """Write the factory module that ``custom.import`` names."""
    m0, m1 = custom_matrices(wl)
    text = (f'"""Custom law drawn for {wl.name} seed {wl.seed}."""\n'
            "from customlaw import SymbolTally, counted_dae_law\n\n"
            f"M0 = {m0.tolist()!r}\nM1 = {m1.tolist()!r}\nTALLY = SymbolTally()\n\n\n"
            "def build():\n    return counted_dae_law(M0, M1, TALLY), None\n")
    with open(os.path.join(wl.work_dir, CUSTOM_MODULE + ".py"), "w", encoding="ascii") as fh:
        fh.write(text)


def tail_samples(raw: dict) -> int:
    """Samples of the draw's solution above FIT_FLOOR in the verify tail window."""
    built = _BuiltProblem(resolve_config(raw))
    u = built.run_solve(built.forcing(), threads=1)
    lo, hi = auto_tail_window(u)
    t = u.grid.times
    return int(np.count_nonzero((t >= lo) & (t <= hi) & (u.magnitudes() > FIT_FLOOR)))


def _admissible(command: str, raw: dict, law, nu: float) -> bool:
    if not certify(law, nu, sampling=_GATE_SAMPLING).passed:
        return False
    return command != "verify" or tail_samples(raw) >= MIN_TAIL_SAMPLES


def generate(name: str, seed: int, work_dir: str) -> Workload:
    """Draw the workload's inputs from ``seed`` and write them to ``work_dir``."""
    command, draw_fn = _DRAWS[name]
    rng = np.random.default_rng([zlib.crc32(name.encode()), seed])
    for attempt in range(MAX_DRAWS):
        raw, law, nu, draw = draw_fn(rng)
        if _admissible(command, raw, law, nu):
            break
    else:
        raise RuntimeError(f"{name}: no admissible draw in {MAX_DRAWS} attempts")
    wl = Workload(name, command, seed, raw, draw, attempt, work_dir)
    wl.write()
    if raw["family"] == "custom":
        write_custom_module(wl)
    return wl
