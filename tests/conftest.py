import os

# One BLAS thread, set before numpy is first imported: with more, a graded
# system build slows down many times over while another process holds a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from crnf.series import MixedSeries
from crnf.hypersurfaces import Hypersurface, model_hypersurface


def random_real_perturbation(n, trunc, rng, nterms=25, amp=0.05, min_deg=4):
    """Random real series supported in weighted degrees [min_deg, trunc]."""
    pert = MixedSeries.zero(n, trunc)
    for _ in range(nterms):
        a = tuple(int(x) for x in rng.integers(0, 3, n))
        b = tuple(int(x) for x in rng.integers(0, 3, n))
        m = int(rng.integers(0, 3))
        if not (min_deg <= sum(a) + sum(b) + 2 * m <= trunc):
            continue
        c = amp * (rng.normal() + 1j * rng.normal())
        pert = pert + MixedSeries.monomial(n, trunc, a, b, m, c)
    return pert.realified()


def perturbed_model(n, trunc, lam, seed, amp=0.05, s=0):
    """Model with R = diag(lam) and Levi signature (n - 1 - s, s), plus a
    random real perturbation of weighted degree >= 4."""
    rng = np.random.default_rng(seed)
    M0 = model_hypersurface(n, trunc, np.diag(np.asarray(lam, dtype=float)), s)
    return Hypersurface(M0.phi + random_real_perturbation(n, trunc, rng, amp=amp))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
