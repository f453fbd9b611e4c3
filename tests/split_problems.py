"""Random dominated splits of diagonal models, shared by the split-kernel tests."""

import numpy as np

from spectral_cascade.blocks import BlockStructure
from spectral_cascade.graph_transform import SplitProblem
from spectral_cascade.model import DiagonalModel, RotationBlock, ScalarBlock


def random_tail_model(rng, k1, k2, ratio=0.4):
    """A diagonal model with a head block of size k1 and tail blocks of total
    size k2 (blocks of 2, then one of 1 when k2 is odd).  The largest tail
    modulus is ``ratio`` times the head's, so rho = ratio; each further tail
    modulus is a random fraction of the one before."""
    sizes = (k1,) + (2,) * (k2 // 2) + (1,) * (k2 % 2)
    moduli = [rng.uniform(1.0, 3.0)]
    moduli.append(ratio * moduli[0])
    for _ in sizes[2:]:
        moduli.append(moduli[-1] * rng.uniform(0.2, 0.9))
    blocks = [RotationBlock(float(mod), float(rng.uniform())) if size == 2
              else ScalarBlock(float(mod * rng.choice((-1.0, 1.0))))
              for size, mod in zip(sizes, moduli)]
    return DiagonalModel(BlockStructure(sizes), tuple(blocks))


def random_split_problem(rng, k1, k2, delta=0.05, coupling=0.2):
    """The split of a random tail model, around J0 = I + coupling * G."""
    model = random_tail_model(rng, k1, k2)
    J0 = np.eye(k1 + k2) + coupling * rng.standard_normal((k1 + k2, k1 + k2))
    return SplitProblem(model, J0, delta)
