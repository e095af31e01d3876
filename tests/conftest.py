import numpy as np

from fournls.spectrum import FourierState


def random_state(n_max, seed=0, norm=1.0):
    """Seeded Gaussian amplitudes for |n| <= n_max, scaled to l2 norm `norm`
    (left unscaled when norm is None)."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=2 * n_max + 1) + 1j * rng.normal(size=2 * n_max + 1)
    if norm is not None:
        c *= norm / np.linalg.norm(c)
    return FourierState(n_max, c)
