"""Print the ``repr`` of ``DaeLaw.rate()``, ``DelayLaw.rate()``,
``IntegroLaw.rate()`` and of the sampled positivity minimum of custom laws on
seeded random draws, one line per draw.

Imports ``evostab`` from ``--src`` and draws ``--draws`` laws per family from
a fixed seed:

* DAE: dim 1-4, ``M0`` positive semidefinite of random rank (zero included),
  ``M1`` with a positive definite Hermitian part plus a skew part;
* delay: dim 1-3, the same ``M0``, ``H(M1)`` above 1, ``h`` in [-3, -0.1];
* integro: dim 1-3, 1-3 commuting positive semidefinite modes
  ``Q diag(d_j) Q*`` with weighted L1 norm below one at ``nu0 = 0.5``, and
  ``c`` in [0.05, 2], so that part of the draws lands below ``nu0`` and
  takes the bisection;
* custom: dim 1-6, ``M(z) = M0 + z M1`` with ``M0`` Hermitian, nonnegative
  in half the draws, and ``M1`` a diagonal in [-0.5, 3] plus complex entries
  of a weight in [0, 2], so that minima of either sign and Gershgorin discs
  from narrow to wide come up; a quarter of the draws declare the
  singularity 3 + 3i, which fails the analyticity check, so that their scan
  takes the full grid, the others the boundary scan.

A ``ValueError`` from building the law or from its ``rate()`` prints as
``<type>: <message>`` in place of the rate.  Each integro line ends with a
third column, the kernel's weighted L1 norm
``kernel_weighted_l1(kernel, nu0)`` as ``%.12e``, so that a change to the
quadrature shows in the diff next to the rate it feeds.  A line after the
integro lines counts the integro draws below ``nu0``.  Each custom line,
after it, holds two values: ``solvability_constant`` at nu = 0 and at a
drawn nu in [0.05, 1], on the reduced 20 x 41 grid with ``sigma_max = 10``
and ``tau_max = 20``, so that the dense positivity scan's minimum is
byte-checked on hundreds of laws.  Diff the output for two source trees
whose law classes have ``rate()`` to check that they return the same rates,
L1 norms and sampled minima::

    python tools/rate_reprs.py --src ../evostab-parent/src > before.txt
    python tools/rate_reprs.py --src src > after.txt
    diff before.txt after.txt
"""
from __future__ import annotations

import argparse
import sys

import numpy as np


def _psd(rng, n):
    a = rng.standard_normal((n, rng.integers(0, n + 1)))
    return a @ a.T


def _m1(rng, n, floor):
    a = rng.standard_normal((n, n))
    skew = rng.standard_normal((n, n))
    return a @ a.T + floor * np.eye(n) + (skew - skew.T)


def _modes(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    n_modes = int(rng.integers(1, 4))
    modes = []
    for _ in range(n_modes):
        beta = float(rng.uniform(0.6, 3.0))
        d = rng.uniform(0.0, 0.9 * (beta - 0.5) / n_modes, n)
        modes.append((q @ np.diag(d) @ q.conj().T, beta))
    return modes


def _custom(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m0 = a @ a.conj().T / n if rng.random() < 0.5 else 0.5 * (a + a.conj().T)
    off = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m1 = np.diag(rng.uniform(-0.5, 3.0, n)) + rng.uniform(0.0, 2.0) * off
    return m0, m1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the evostab package")
    parser.add_argument("--draws", type=int, default=300, help="draws per family")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from evostab import (CustomLaw, DaeLaw, DelayLaw, IntegroLaw, Kernel, KernelMode,
                         kernel_weighted_l1, solvability_constant)

    rng = np.random.default_rng(args.seed)

    def show(name, law_class, *law_args, extra=()):
        try:
            value = repr(law_class(*law_args).rate())
        except ValueError as exc:
            value = f"{type(exc).__name__}: {exc}"
        print(name, value, *extra)
        return value

    for k in range(args.draws):
        n = int(rng.integers(1, 5))
        show(f"dae-{k}", DaeLaw, _psd(rng, n), _m1(rng, n, rng.uniform(0.01, 2.0)))
    for k in range(args.draws):
        n = int(rng.integers(1, 4))
        show(f"delay-{k}", DelayLaw, _psd(rng, n), _m1(rng, n, rng.uniform(1.01, 4.0)),
             -float(rng.uniform(0.1, 3.0)))
    below = 0
    for k in range(args.draws):
        n = int(rng.integers(1, 4))
        kernel = Kernel(tuple(KernelMode(g, b) for g, b in _modes(rng, n)), nu0=0.5)
        l1 = f"{kernel_weighted_l1(kernel, 0.5):.12e}"
        value = show(f"integro-{k}", IntegroLaw, kernel, float(rng.uniform(0.05, 2.0)),
                     extra=(l1,))
        below += value != repr(0.5)
    print("integro draws below nu0:", below)
    grid = dict(sigma_max=10.0, tau_max=20.0, n_sigma=20, n_tau=41)
    for k in range(args.draws):
        n = int(rng.integers(1, 7))
        m0, m1 = _custom(rng, n)
        singularities = (3.0 + 3.0j,) if rng.random() < 0.25 else ()
        law = CustomLaw(n, lambda z, m0=m0, m1=m1: m0 + z * m1, singularities)
        nus = (0.0, float(rng.uniform(0.05, 1.0)))
        print(f"custom-{k}", *(repr(solvability_constant(law, nu, **grid)) for nu in nus))
    return 0


if __name__ == "__main__":
    sys.exit(main())
