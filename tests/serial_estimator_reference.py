"""The estimator's counting loop as one serial chunk, column by column.

Independent of the span split and the fused mask in
:func:`faradaymeter.estimator.estimate`: it draws all ``n`` trial blocks
from one Philox stream in a single array and tests each stage with its own
column compares.
"""

import numpy as np

from faradaymeter.estimator import DRAWS_PER_TRIAL, TrialSampler


def serial_counts(config):
    """Stage-1 and stage-2 success counts of every trial of ``config``."""
    sampler = TrialSampler(config.state, config.phases)
    eta = config.imperfections.eta_a
    bits = np.random.Philox(key=config.master_seed, counter=[0, 0, 0, 0])
    draws = np.random.Generator(bits).random((config.n_trials, DRAWS_PER_TRIAL))
    passed1 = (
        (draws[:, 0] < sampler.p_plus1)
        & (draws[:, 1] < eta)
        & (draws[:, 2] < sampler.p_plus2)
        & (draws[:, 3] < eta)
    )
    passed2 = passed1 & (draws[:, 4] < sampler.p_plus3) & (draws[:, 5] < eta)
    return int(np.count_nonzero(passed1)), int(np.count_nonzero(passed2))
