"""Print the sha256 of every CLI artifact for twenty-six fixed configs.

Runs ``python -m evostab`` with ``PYTHONPATH=DIR`` on one config per family:
``dae``, ``delay``, ``integro``, ``mixed1d`` with p = 24, and a dim-2
``custom`` law (at nu = 0.5) whose factory module is written to the temp
directory.  ``integro-rot`` is the ``integro`` kernel turned by a complex
unitary into commuting Hermitian modes that are not diagonal, with the same
joint eigenvalues, so that the kernel's W(lambda) and the joint-eigenbasis
positivity scan are byte-checked on off-diagonal modes.  All use a
1024-sample grid.  Each config gets ``certify``, ``solve`` and ``verify``;
the ``dae`` config also gets ``ivp``.  The structured configs run once more
as ``<case>-nu`` with an explicit ``nu`` below the family's closed-form rate
(dae 1.5, delay 0.3, integro and integro-rot 0.3, mixed1d 0.5), through
``certify`` and ``verify`` only, so that the nu > 0 certificate is
byte-checked too.  ``custom-nu0`` is the ``custom`` config without ``nu``,
through ``certify`` and ``verify``: the default 200 x 401 positivity scan on
the nu = 0 sigma grid, and verify's exit 2 for a law that has no
closed-form rate and no ``nu``.  ``custom-pole`` is a dim-2 custom law
``M0 + z M1 + z/(1 + 2z) G`` with a non-diagonal Hermitian ``G`` and its
pole -1/2 declared, through ``certify`` only at nu = 0.8, where the pole
lies inside the excluded ball but off its centre: the positivity scan of an
analytic law with a singularity, which samples the rows near sigma = 0 in
full and only the boundary of the rest of the rectangle.
``custom-unbounded`` is the ``custom`` config with a law ``M0 + z M1`` whose
``shifted_fn`` returns an inf matrix at the sampled point z = 0.625, through
``certify`` only (exit 1): the shifted-symbol check fails, and its evidence
names that point.  ``custom-nan`` is the same with nan in place of inf: a
value with an entry that is not finite fails at its point as well.  ``custom-dense`` is a dim-6 custom law ``M0 + z M1`` at
nu = 0.25 whose Hermitian parts have off-diagonal entries of modulus 0.1 and
0.8 against diagonals near 1 and 2, through ``certify`` and ``solve``: the
Gershgorin screen of the positivity scan keeps most points there (890 of
1,551 in ``certify``, 222 of 349 in the solve's nu = 0 gate), so LAPACK's
eigenvalues of dim-6 matrices give the sampled minimum.  ``custom-dip`` is
the scalar custom law ``-0.7 z + z/(1 + z/10) + 0.025 z^2`` with its pole
-10 declared, through ``certify`` only at nu = 0 (exit 1): its
Re z^-1 M(z) is at least 0.05 at every grid point but dips to -0.0795
between the first row's tau samples, where only the graded tau samples
around lambda = 0 see it.  ``mixed1d-ivp`` is
the ``mixed1d`` config with a 49-entry ``u0``, through ``ivp`` only, so that
the initial-value path is byte-checked on a second law.  ``delay-tau`` is the ``delay`` config with
``tau_max = 2``, below the first critical value pi/|h| = pi, through
``certify`` only: the delay scan's smallest cos(tau h) is then a sampled
value, not -1.  ``dae-dense`` is a DAE law with a non-diagonal Hermitian
``M0`` and a non-normal ``M1`` at nu = 0.5, through ``certify`` and
``verify``: every other DAE law is diagonal, and this one's
``stack_eigenvalues`` is None, so its check takes the dense 2-norm at
every point, and its solve takes the QZ pencil core.  ``delay-dense`` is the
``delay`` config with the same non-diagonal Hermitian ``M0``, through
``solve`` and ``verify``: every other delay law has a diagonal ``M0`` and
takes the banded core, so this one keeps the dense-LU core byte-checked.  ``dae-fast`` is the scalar DAE law ``M0 = 1e-7``, ``M1 = 1``,
through ``certify`` only: its closed-form rate 1e7 is finite and above the
report's cap 1e6, so the capped rate and its ``rate_capped`` flag are
byte-checked on a finite rate.  ``dae-step`` and ``dae-csv`` are the
``dae`` config with the two forcing kinds that no other case uses, through
``solve`` only: a ``step_exp`` forcing with start 0 and rate 4 (at rate 1
the step's weighted edge mass is still above the warning threshold), and a
``csv`` forcing that reads ``dae-solve/solution.csv`` written earlier in the
same run, given relative to the config file.  The echo of that case holds
the absolute path, so every artifact is digested with the run directory's
path written as ``$TMP``, and the digest does not change from run to run.
``integro-far`` is the ``integro`` config at nu = 0.6, above the kernel's
nu0 = 0.5, through ``certify`` only (exit 1): the analyticity check fails,
so the positivity scan in the modes' joint eigenbasis takes every point of
the grid, and the shifted-symbol check reports its refusal of nu > nu0.  ``dae-ivp-s``
is the ``dae`` config with ``phi_scale = 0.75``, through ``ivp`` only: every
other ``ivp`` case has scale 1, where t/s is exact, so this one byte-checks
the cut-off where t/s rounds.
The output is one sorted ``<case>-<command>/<file> <sha256>`` line per
artifact, then one ``<case>-<command> exit=<code>`` line per command.

Diff the output for two source trees to check that they write byte-identical
artifacts::

    git worktree add ../evostab-parent HEAD~1
    python tools/artifact_digests.py --src ../evostab-parent/src > before.txt
    python tools/artifact_digests.py --src src > after.txt
    diff before.txt after.txt

Digests depend on the numpy/BLAS build, so compare runs on one machine.

``--keep DIR`` writes the configs and artifacts to ``DIR`` (missing or
empty) instead of a temporary directory, so two trees' ``solution.csv``
files can be compared numerically where their bytes differ.  The printed
output is the same.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile

GRID = {"dt": 0.015625, "n_steps": 1024}
PULSE = {"kind": "pulse", "center": 0.5, "width": 0.1}
SKEW = [[[0.0, 0.0], [1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]]


def _diag(*entries) -> list:
    return [[[x if i == j else 0.0, 0.0] for j in range(len(entries))]
            for i, x in enumerate(entries)]


def _hermitian2(a: float, b: complex, c: float) -> list:
    """[[a, b], [conj(b), c]] as nested [re, im] pairs."""
    return [[[a, 0.0], [b.real, b.imag]], [[b.real, -b.imag], [c, 0.0]]]


CUSTOM_MODULE = '''
import numpy as np
from evostab import CustomLaw

M0 = np.array([[1.0, 0.2], [0.2, 0.5]], dtype=complex)
M1 = np.array([[3.0, 1.0], [-1.0, 2.5]], dtype=complex)
G = 0.5


def law():
    """M(z) = M0 + z M1 + G z / (1 + z), singular at z = -1."""

    def eval_fn(z):
        return M0 + z * M1 + (G * z / (1.0 + z)) * np.eye(2)

    def shifted_fn(nu, z):
        g = G * z * (1.0 - nu * z) / (1.0 + (1.0 - nu) * z)
        return (1.0 - nu * z) * M0 + z * M1 + g * np.eye(2)

    return CustomLaw(2, eval_fn, (-1.0,), shifted_fn), None


A = 2.0
GP = np.array([[0.3, 0.1j], [-0.1j, 0.2]])


def pole_law():
    """M(z) = M0 + z M1 + z / (1 + A z) GP, singular at z = -1/A."""

    def eval_fn(z):
        return M0 + z * M1 + (z / (1.0 + A * z)) * GP

    def shifted_fn(nu, z):
        return (1.0 - nu * z) * M0 + z * M1 + (z * (1.0 - nu * z) / (1.0 + (A - nu) * z)) * GP

    return CustomLaw(2, eval_fn, (-1.0 / A,), shifted_fn), None


def unbounded_law(entry=np.inf):
    """M(z) = M0 + z M1, whose shifted symbol is ``entry`` at the sampled z = 0.625."""

    def eval_fn(z):
        return M0 + z * M1

    def shifted_fn(nu, z):
        if z == 0.625:
            return np.full((2, 2), entry)
        return (1.0 - nu * z) * M0 + z * M1

    return CustomLaw(2, eval_fn, (), shifted_fn), None


def nan_law():
    """``unbounded_law`` with nan in place of inf."""
    return unbounded_law(np.nan)


# P = v v* with v_k = exp(0.5 i k): Hermitian, every entry of modulus one
K6 = np.arange(6)
P6 = np.exp(0.5j * np.subtract.outer(K6, K6))
U6 = np.triu(np.ones((6, 6)), 1)
M0_6 = np.diag([1.0, 1.2, 0.9, 1.1, 1.0, 0.8]) + 0.1 * (P6 - np.eye(6))
M1_6 = 2.0 * np.eye(6) + 0.8 * (P6.conj() - np.eye(6)) + 0.3 * (U6 - U6.T)


def dense_law():
    """M(z) = M0_6 + z M1_6, dim 6: off-diagonal entries of H(M1_6) of
    modulus 0.8 against its diagonal 2."""

    def eval_fn(z):
        return M0_6 + z * M1_6

    def shifted_fn(nu, z):
        return (1.0 - nu * z) * M0_6 + z * M1_6

    return CustomLaw(6, eval_fn, (), shifted_fn), None


def dip_law():
    """M(z) = -0.7 z + z / (1 + z/10) + 0.025 z^2, singular at z = -10 and,
    as z^-1 M(z), at z = infinity."""

    def eval_fn(z):
        return np.array([[-0.7 * z + z / (1.0 + 0.1 * z) + 0.025 * z * z]])

    return CustomLaw(1, eval_fn, (-10.0,)), None
'''

CASES = {
    "dae": {
        "family": "dae", "m0": _diag(1.0, 1.0), "m1": _diag(2.0, 2.0), "a": SKEW,
        "grid": {"t0": -0.5, **GRID}, "rho": 0.05, "forcing": PULSE,
        "u0": [[1.0, 0.0], [-0.5, 0.25]],
    },
    "delay": {
        "family": "delay", "m0": _diag(1.0, 0.5), "m1": _diag(3.0, 2.5), "h": -1.0,
        "grid": {"t0": -2.0, **GRID}, "rho": 0.05, "forcing": PULSE,
    },
    "integro": {
        "family": "integro", "c": 1.0, "a": SKEW,
        "kernel": {"nu0": 0.5, "modes": [{"gamma": _diag(0.2, 0.1), "beta": 1.0},
                                         {"gamma": _diag(0.05, 0.1), "beta": 2.0}]},
        "grid": {"t0": -2.0, **GRID}, "rho": 0.05, "forcing": PULSE,
    },
    # U diag(d) U* with U = [[0.6, 0.8i], [0.8i, 0.6]] and the integro case's
    # d = (0.2, 0.1) and (0.05, 0.1)
    "integro-rot": {
        "family": "integro", "c": 1.0, "a": SKEW,
        "kernel": {"nu0": 0.5, "modes": [{"gamma": _hermitian2(0.136, -0.048j, 0.164), "beta": 1.0},
                                         {"gamma": _hermitian2(0.082, 0.024j, 0.068), "beta": 2.0}]},
        "grid": {"t0": -2.0, **GRID}, "rho": 0.05, "forcing": PULSE,
    },
    "mixed1d": {
        "family": "mixed1d",
        "mixed": {"p": 24, "c": 1.0, "omega0": [0.0, 1.0 / 3.0],
                  "omega1": [1.0 / 3.0, 2.0 / 3.0]},
        "grid": {"t0": -2.0, **GRID}, "rho": 0.05, "forcing": PULSE,
    },
    "custom": {
        "family": "custom", "custom": {"import": "digest_custom_law:law"}, "nu": 0.5,
        "grid": {"t0": -2.0, **GRID}, "rho": 0.05, "forcing": PULSE,
    },
}
# The structured configs again at a rate nu > 0 below the family's closed-form
# rate, so that the nu > 0 certificate (sigma grid from -nu + delta, the
# bound at nu, the shifted check) and verify at an explicit nu are covered.
NU_CASES = {"dae": 1.5, "delay": 0.3, "integro": 0.3, "integro-rot": 0.3, "mixed1d": 0.5}
CASES.update({f"{case}-nu": {**CASES[case], "nu": nu} for case, nu in NU_CASES.items()})
CASES["custom-nu0"] = {key: value for key, value in CASES["custom"].items() if key != "nu"}
CASES["mixed1d-ivp"] = {**CASES["mixed1d"], "u0": [[1.0 / (k + 1), 0.0] for k in range(49)]}
CASES["delay-tau"] = {**CASES["delay"], "sampling": {"tau_max": 2.0}}
CASES["dae-dense"] = {
    "family": "dae", "m0": _hermitian2(1.0, 0.3 - 0.2j, 0.5),
    "m1": [[[2.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.5, 0.0]]], "a": SKEW,
    "grid": {"t0": -0.5, **GRID}, "rho": 0.05, "forcing": PULSE, "nu": 0.5,
}
CASES["delay-dense"] = {**CASES["delay"], "m0": CASES["dae-dense"]["m0"]}
CASES["dae-fast"] = {
    "family": "dae", "m0": _diag(1e-7), "m1": _diag(1.0),
    "grid": {"t0": -0.5, **GRID}, "rho": 0.05, "forcing": PULSE,
}
# A matrix-valued pole at -1/A = -0.5, inside the excluded ball at nu = 0.8
# (radius 0.625 about -0.625) but not at its centre, through certify only.
CASES["custom-pole"] = {**CASES["custom"], "custom": {"import": "digest_custom_law:pole_law"},
                        "nu": 0.8}
# A shifted symbol that is inf at the sampled z = 0.625 = 0.5 + 0.25 * 0.5,
# through certify only (exit 1): the evidence names the first point that is
# not finite.
CASES["custom-unbounded"] = {**CASES["custom"],
                             "custom": {"import": "digest_custom_law:unbounded_law"}}
# The same with nan in place of inf (exit 1): the evidence names that point too.
CASES["custom-nan"] = {**CASES["custom"], "custom": {"import": "digest_custom_law:nan_law"}}
# A dim-6 law whose Hermitian parts have off-diagonal entries comparable to
# their diagonal, so that the Gershgorin screen of the positivity scan keeps
# most points, through certify and through solve, whose nu = 0 gate scans too.
CASES["custom-dense"] = {**CASES["custom"], "custom": {"import": "digest_custom_law:dense_law"},
                         "nu": 0.25}
# A dip of Re z^-1 M(z) below 0 between the tau samples of the first row of
# the nu = 0 grid, through certify only (exit 1).
CASES["custom-dip"] = {**CASES["custom-nu0"], "custom": {"import": "digest_custom_law:dip_law"}}
# The other two forcing kinds.  dae-csv reads the solution that dae-solve
# writes, so it must come after dae here.
CASES["dae-step"] = {**CASES["dae"], "forcing": {"kind": "step_exp", "start": 0.0, "rate": 4.0}}
CASES["dae-csv"] = {**CASES["dae"], "forcing": {"kind": "csv", "path": "dae-solve/solution.csv"}}
# nu = 0.6 above the kernel's nu0 = 0.5: analyticity fails, so every point of
# the positivity grid is scanned, and the shifted symbol is refused.
CASES["integro-far"] = {**CASES["integro"], "nu": 0.6}
# A cut-off scale at which t/s is inexact on the grid, through ivp only.
CASES["dae-ivp-s"] = {**CASES["dae"], "phi_scale": 0.75}

# Commands per case: certify, solve and verify unless named here.  solve and
# ivp do not depend on nu.
COMMANDS = {"dae": ["certify", "solve", "verify", "ivp"], "custom-nu0": ["certify", "verify"],
            "mixed1d-ivp": ["ivp"], "delay-tau": ["certify"], "dae-dense": ["certify", "verify"],
            "dae-fast": ["certify"], "dae-step": ["solve"], "dae-csv": ["solve"],
            "delay-dense": ["solve", "verify"], "custom-pole": ["certify"],
            "custom-unbounded": ["certify"], "custom-nan": ["certify"],
            "custom-dense": ["certify", "solve"],
            "custom-dip": ["certify"],
            "integro-far": ["certify"], "dae-ivp-s": ["ivp"]}
COMMANDS.update({f"{case}-nu": ["certify", "verify"] for case in NU_CASES})


def _sha256(path: str, tmp: str) -> str:
    """Digest of the file with the run directory's path written as ``$TMP``."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read().replace(os.fsencode(tmp), b"$TMP")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True,
                        help="directory that contains the evostab package")
    parser.add_argument("--keep", metavar="DIR",
                        help="write configs and artifacts to DIR (missing or empty) "
                             "instead of a temporary directory")
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    if not os.path.isdir(os.path.join(src, "evostab")):
        parser.error(f"{src} has no evostab package")

    digests, exits = [], []
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        if os.listdir(args.keep):  # stale artifacts would be digested too
            parser.error(f"--keep directory {args.keep} is not empty")
    with (contextlib.nullcontext(os.path.abspath(args.keep)) if args.keep
          else tempfile.TemporaryDirectory()) as tmp:
        with open(os.path.join(tmp, "digest_custom_law.py"), "w") as fh:
            fh.write(CUSTOM_MODULE)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tmp]))
        for case, cfg in CASES.items():
            cfg_path = os.path.join(tmp, f"{case}.json")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            for command in COMMANDS.get(case, ["certify", "solve", "verify"]):
                run = f"{case}-{command}"
                out = os.path.join(tmp, run)
                proc = subprocess.run(
                    [sys.executable, "-m", "evostab", command, "--config", cfg_path,
                     "--out", out],
                    cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                exits.append(f"{run} exit={proc.returncode}")
                if os.path.isdir(out):
                    digests += [f"{run}/{name} {_sha256(os.path.join(out, name), tmp)}"
                                for name in os.listdir(out)]
    print("\n".join(sorted(digests) + sorted(exits)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
