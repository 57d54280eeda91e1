import math
import random

import pytest

from macbits.errors import UsageError
from macbits.leakage_lab import alpha_prime, bucket_fail_mc, bucket_fail_prob, span_fail_rate


# ---------------------------------------------------------------------------
# bucket combining


def test_bucket_fail_prob_hand_value():
    # gamma=2 leaky among 4 objects in 2 buckets of 2, times the 2^-2 filter:
    # 1/4 * C(2,2) * 2 / C(4,2) = 1/12
    assert bucket_fail_prob(2, 2, 2) == pytest.approx(1 / 12)
    assert bucket_fail_prob(1, 2, 2) == 0.0  # fewer leaky than a bucket
    assert bucket_fail_prob(0, 8, 4) == 0.0
    with pytest.raises(UsageError):
        bucket_fail_prob(9, 2, 2)  # more leaky than objects
    with pytest.raises(UsageError):
        bucket_fail_prob(1, 0, 2)


def test_alpha_peaks_at_two_b_minus_one():
    ell, bucket = 8, 3
    peak = bucket_fail_prob(2 * bucket - 1, ell, bucket)
    assert alpha_prime(bucket, ell) == peak
    for gamma in range(0, bucket * ell + 1):
        assert bucket_fail_prob(gamma, ell, bucket) <= peak


def test_alpha_prime_closed_form_bound():
    # alpha' <= (2 ell)^(1-B) across the working grid
    for bucket in range(2, 7):
        for ell in (4, 16, 256, 4096, 2**20):
            assert alpha_prime(bucket, ell) <= (2 * ell) ** (1 - bucket)
    assert alpha_prime(6, 2**20) <= 2.0 ** -100


@pytest.mark.parametrize("gamma,ell,bucket", [(2, 2, 2), (5, 8, 3), (4, 4, 2)])
def test_bucket_mc_agrees_with_formula(gamma, ell, bucket):
    rng = random.Random(2)
    want = bucket_fail_prob(gamma, ell, bucket)
    mc, se = bucket_fail_mc(gamma, ell, bucket, 20_000, rng,
                            return_stderr=True)
    assert se > 0
    assert abs(mc - want) <= 3 * se


def test_bucket_mc_validation():
    rng = random.Random(3)
    with pytest.raises(UsageError):
        bucket_fail_mc(9, 2, 2, 100, rng)
    with pytest.raises(UsageError):
        bucket_fail_mc(2, 2, 2, 1, rng)


# ---------------------------------------------------------------------------
# spanning


def span_fail_exact(psi: int, n: int) -> float:
    """Rank Markov chain: a fresh uniform vector falls inside the current
    rank-r span with probability 2^(r-psi)."""
    probs = [0.0] * (psi + 1)
    probs[0] = 1.0
    for _ in range(n):
        nxt = [0.0] * (psi + 1)
        for r, p in enumerate(probs):
            if p == 0.0:
                continue
            stay = 2.0 ** (r - psi)
            nxt[r] += p * stay
            if r < psi:
                nxt[r + 1] += p * (1 - stay)
        probs = nxt
    return 1.0 - probs[psi]


def test_span_exact_oracle_base_case():
    # psi=1: fail iff all n bits are zero
    assert span_fail_exact(1, 5) == pytest.approx(2.0 ** -5)


@pytest.mark.parametrize("psi,n", [(1, 5), (2, 4), (3, 6), (8, 12)])
def test_span_mc_matches_rank_chain(psi, n):
    rng = random.Random(4)
    trials = 40_000
    want = span_fail_exact(psi, n)
    got = span_fail_rate(psi, n, trials=trials, rng=rng)
    assert abs(got - want) <= 3 * math.sqrt(want * (1 - want) / trials)


def test_span_default_n_meets_bound():
    # default n = ceil(9 psi / 2); observed failures stay under 2^(1-psi)
    rng = random.Random(6)
    rate = span_fail_rate(8, trials=20_000, rng=rng)
    assert rate <= 2.0 ** -7


def test_span_validation():
    with pytest.raises(UsageError):
        span_fail_rate(0, rng=random.Random(0))
    with pytest.raises(UsageError):
        span_fail_rate(17, rng=random.Random(0))  # beyond the 2^psi table
    with pytest.raises(UsageError):
        span_fail_rate(8, 36, 100)  # rng required
