"""spectrum: radial_levels solves of the two-body mass operator.

Items come in pairs with equal parameters, one Salpeter and one
nonrelativistic solve, so the check can order them level by level.  Light
pairs sweep n = 256-512 over kinetic, ell and alpha; heavy pairs run at
n = 2048, where the dense Hamiltonian and the sine matrix take 2*8*n^2 bytes.
relquant does all the work here: a matrix-free solver should win at large n
and may lose to its own overhead at small n.
"""

import numpy as np

from instantform import relquant

import checks
from harness import Item, shuffle_pairs

KNOWN_DEFECTS = {}
# light pairs per n; most at n = 512 so the median sits inside that block
LIGHT_PAIRS = {256: 2, 384: 2, 512: 8}
HEAVY_N = 2048
HEAVY_PAIRS = 6
N_LEVELS = 3


def spectrum_pair(rng, klass, n, box_bohr_radii):
    """(salpeter item, nonrelativistic item) with equal seeded parameters.

    The box spans ``box_bohr_radii`` Bohr radii of the level's shell, which
    keeps the nonrelativistic ground level within 1% of Bohr at these n.
    """
    m1, m2 = rng.uniform(0.5, 2.0, 2)
    alpha = rng.uniform(0.005, 0.02)
    ell = int(rng.integers(0, 2))
    mu = m1 * m2 / (m1 + m2)
    length = box_bohr_radii * (1 + ell) ** 2 / (mu * alpha)
    bohr = -mu * alpha**2 / (2.0 * (1 + ell) ** 2)
    args = (n, length, m1, m2, alpha)

    def make(kinetic):
        def call(ctx):
            return relquant.radial_levels(*args, kinetic=kinetic, ell=ell, n_levels=N_LEVELS)

        def check(levels, results):
            levels = np.asarray(levels)
            if levels.shape != (N_LEVELS,) or not np.all(np.diff(levels) > 0):
                return f"contract: levels {levels} not {N_LEVELS} ascending values"
            err = abs(levels[0] / bohr - 1.0)
            if not err <= checks.TOL_BOHR:
                return f"tolerance: ground level {err:.2e} from Bohr"
            if kinetic == "salpeter":
                other = results.get(item.partner)
                if other is None or other.reason is not None:
                    return None  # the nonrelativistic partner reports its own failure
                if not np.all(levels < np.asarray(other.outcome)):
                    return "tolerance: Salpeter levels not below nonrelativistic levels"
            return None

        # light solves are cheap: more attempts per pass cost little
        item = Item(f"{klass}.{kinetic}", call, check, units={"spectrum_n": n},
                    repeats=5 if klass == "light" else 1, kernel="blas")
        return item

    return [make("salpeter"), make("nonrelativistic")]


def build(seed):
    rng = np.random.default_rng([seed, 3])
    groups = [spectrum_pair(rng, "light", n, 15.0)
              for n, pairs in LIGHT_PAIRS.items() for _ in range(pairs)]
    groups += [spectrum_pair(rng, "heavy", HEAVY_N, 30.0) for _ in range(HEAVY_PAIRS)]
    return shuffle_pairs(rng, groups)


def answer(levels):
    return np.asarray(levels)
