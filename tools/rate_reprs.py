"""Print the ``repr`` of ``dae_rate``, ``delay_rate`` and ``integro_rate`` on
seeded random draws, one line per draw.

Imports ``evostab`` from ``--src`` and draws ``--draws`` laws per family from
a fixed seed:

* DAE: dim 1-4, ``M0`` positive semidefinite of random rank (zero included),
  ``M1`` with a positive definite Hermitian part plus a skew part;
* delay: dim 1-3, the same ``M0``, ``H(M1)`` above 1, ``h`` in [-3, -0.1];
* integro: dim 1-3, 1-3 commuting positive semidefinite modes
  ``Q diag(d_j) Q*`` with weighted L1 norm below one at ``nu0 = 0.5``, and
  ``c`` in [0.05, 2], so that part of the draws lands below ``nu0`` and
  takes the bisection.

Each integro line ends with a third column, the kernel's weighted L1 norm
``kernel_weighted_l1(kernel, nu0)`` as ``%.12e``, so that a change to the
quadrature shows in the diff next to the rate it feeds.  The last line
counts the integro draws below ``nu0``.  Diff the output for two source
trees to check that they return the same rates and L1 norms::

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the evostab package")
    parser.add_argument("--draws", type=int, default=300, help="draws per family")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from evostab import (Kernel, KernelMode, dae_rate, delay_rate, integro_rate,
                         kernel_weighted_l1)

    rng = np.random.default_rng(args.seed)

    def show(name, fn, *fn_args, extra=()):
        try:
            value = repr(fn(*fn_args))
        except ValueError as exc:
            value = f"{type(exc).__name__}: {exc}"
        print(name, value, *extra)
        return value

    for k in range(args.draws):
        n = int(rng.integers(1, 5))
        show(f"dae-{k}", dae_rate, _psd(rng, n), _m1(rng, n, rng.uniform(0.01, 2.0)))
    for k in range(args.draws):
        n = int(rng.integers(1, 4))
        show(f"delay-{k}", delay_rate, _psd(rng, n), _m1(rng, n, rng.uniform(1.01, 4.0)),
             -float(rng.uniform(0.1, 3.0)))
    below = 0
    for k in range(args.draws):
        n = int(rng.integers(1, 4))
        kernel = Kernel(tuple(KernelMode(g, b) for g, b in _modes(rng, n)), nu0=0.5)
        l1 = f"{kernel_weighted_l1(kernel, 0.5):.12e}"
        value = show(f"integro-{k}", integro_rate, kernel, float(rng.uniform(0.05, 2.0)),
                     extra=(l1,))
        below += value != repr(0.5)
    print("integro draws below nu0:", below)
    return 0


if __name__ == "__main__":
    sys.exit(main())
