"""The estimator's counting loop as one serial chunk.

Independent of the span split and the reused buffers in
:func:`faradaymeter.estimator.estimate`: it draws the ``n`` trial uniforms
from one PCG64DXSM stream in a single array and tests each stage against its
own threshold, built here from the readout probabilities.
"""

import numpy as np

from faradaymeter.estimator import TrialSampler


def serial_counts(config):
    """Stage-1 and stage-2 success counts of every trial of ``config``."""
    sampler = TrialSampler(config.state, config.phases)
    eta = config.imperfections.eta_a
    q1 = sampler.p_plus1 * eta * sampler.p_plus2 * eta
    q2 = q1 * sampler.p_plus3 * eta
    draws = np.random.Generator(np.random.PCG64DXSM(config.master_seed)).random(config.n_trials)
    return int(np.count_nonzero(draws < q1)), int(np.count_nonzero(draws < q2))
