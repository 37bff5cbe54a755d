import dataclasses

import numpy as np
import pytest

from tadlab.constructions import random_mmdp
from tadlab.core import Mmdp


@pytest.fixture
def partly_reached_models():
    """Episodic models whose initial distribution misses some states: a
    layered horizon-2 MMDP (0 -> {1, 2} -> end; state 3 is never reached)
    and a one-step model that starts in state 0 only."""
    transition = np.zeros((4, 4, 4))
    transition[0, :2, 1] = 1.0
    transition[0, 2, 1:3] = 0.5
    transition[0, 3, 2] = 1.0
    transition[1:, :, 0] = 1.0
    reward = np.array([
        [0.0, 1.0, 2.0, 0.5],
        [3.0, 0.0, 0.0, 1.0],
        [0.0, 4.0, 0.0, 0.0],
        [0.0, 0.0, 5.0, 0.0],
    ])
    horizon2 = Mmdp(4, 2, 2, transition, reward, 0.9, [1.0, 0.0, 0.0, 0.0], horizon=2)
    one_step = dataclasses.replace(
        random_mmdp(3, 2, 2, gamma=0.9, rng=41, horizon=1),
        initial_dist=np.array([1.0, 0.0, 0.0]),
    )
    return [horizon2, one_step]
