"""Executable oracles for the combinatorial security analysis.

Two families of checks back the protocol's parameter choices:

* bucket combining: planting gamma leaky objects among B*ell and bucketing
  uniformly leaves some bucket entirely leaky with probability
  alpha = 2^-gamma * C(gamma,B) * ell / C(B*ell,B) after the guess-survival
  filter, maximized at gamma = 2B-1;
* spanning: ceil(9*psi/2) uniform psi-bit vectors span the space except with
  probability at most 2^(1-psi).

Monte-Carlo estimators are seeded through a caller-supplied random.Random so
every run is reproducible; numpy accelerates the bulk trials internally.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError


def _ln_choose(n: int, k: int) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


def bucket_fail_prob(gamma: int, ell: int, bucket: int) -> float:
    """alpha(gamma, ell, B): expected surviving all-leaky-bucket mass when
    gamma planted leaky objects land in ell buckets of B."""
    if ell < 1 or bucket < 1:
        raise UsageError("need at least one bucket of size one")
    if not 0 <= gamma <= bucket * ell:
        raise UsageError("gamma out of range")
    if gamma < bucket:
        return 0.0
    log_a = (-gamma * math.log(2) + _ln_choose(gamma, bucket)
             + math.log(ell) - _ln_choose(bucket * ell, bucket))
    return math.exp(log_a)


def alpha_prime(bucket: int, ell: int) -> float:
    """The gamma-maximized failure bound, attained at gamma = 2B-1."""
    return bucket_fail_prob(2 * bucket - 1, ell, bucket)


def bucket_fail_mc(gamma: int, ell: int, bucket: int, trials: int, rng,
                   return_stderr: bool = False):
    """Monte-Carlo view of alpha: per trial, plant gamma leaky objects among
    B*ell, bucket uniformly, and score (number of all-leaky buckets) * 2^-gamma
    (the factor is the adversary's gamma-coin survival filter). The mean
    estimates alpha exactly."""
    if not 0 <= gamma <= bucket * ell:
        raise UsageError("gamma out of range")
    if trials < 2:
        raise UsageError("need at least two trials")
    gen = np.random.default_rng(rng.getrandbits(64))
    weight = 2.0 ** -gamma
    total = 0.0
    total_sq = 0.0
    done = 0
    step = max(1, min(trials, 200_000))
    while done < trials:
        t = min(step, trials - done)
        # argsort of uniforms = uniform permutation; slots < gamma are leaky
        perm = np.argsort(gen.random((t, bucket * ell)), axis=1)
        leaky = (perm < gamma).reshape(t, ell, bucket)
        counts = leaky.all(axis=2).sum(axis=1)
        vals = counts * weight
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        done += t
    mean = total / trials
    if not return_stderr:
        return mean
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(var / trials)


def _span_fail_numpy(psi: int, n: int, trials: int, gen) -> int:
    dtype = np.uint8 if psi <= 8 else np.uint16
    msb = np.zeros(1 << psi, dtype=np.int64)
    for v in range(1, 1 << psi):
        msb[v] = v.bit_length() - 1
    fails = 0
    done = 0
    step = max(1, 4_000_000 // max(1, n))
    while done < trials:
        t = min(step, trials - done)
        vecs = gen.integers(0, 1 << psi, size=(t, n)).astype(dtype)
        basis = np.zeros((t, psi), dtype=dtype)
        rows = np.arange(t)
        for j in range(n):
            v = vecs[:, j].copy()
            for _ in range(psi):
                active = v != 0
                if not active.any():
                    break
                pos = msb[v]
                cur = basis[rows, pos]
                reduce_mask = active & (cur != 0)
                place_mask = active & (cur == 0)
                v = np.where(reduce_mask, v ^ cur, v)
                if place_mask.any():
                    basis[rows[place_mask], pos[place_mask]] = v[place_mask]
                    v = np.where(place_mask, 0, v)
        ranks = (basis != 0).sum(axis=1)
        fails += int((ranks < psi).sum())
        done += t
    return fails


def span_fail_rate(psi: int, n: int = None, trials: int = 100_000,
                   rng=None) -> float:
    """Fraction of trials in which n uniform psi-bit vectors fail to span;
    the analytic bound is 2^(1-psi) at the default n = ceil(9*psi/2). The
    vectorised elimination indexes a 2^psi table, so psi is at most 16."""
    if not 1 <= psi <= 16:
        raise UsageError("psi must be between 1 and 16")
    if n is None:
        n = math.ceil(9 * psi / 2)
    if rng is None:
        raise UsageError("pass a seeded rng")
    gen = np.random.default_rng(rng.getrandbits(64))
    return _span_fail_numpy(psi, n, trials, gen) / trials
