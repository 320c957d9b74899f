"""padicmhs: exact p-adic expansion of prime-indexed quantities into
truncated series of multiple harmonic sums, with an algebraic prover for
supercongruences and an exact-rational numeric cross-check.

Each name is imported from the module that defines it (``padicmhs.series``,
``padicmhs.expansions``, ``padicmhs.prover``, ...); the package itself holds
only ``__version__`` and :func:`clear_caches`, and imports no module.  A
proof replays in ``certificate`` alone, which imports nothing of the package
but ``compositions``, so ``import padicmhs.certificate`` loads those two."""

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every in-process memo table (relation bases on disk are kept).

    Each table refills on demand, so results do not change; what is lost is
    only the time to recompute them.
    """
    from fractions import Fraction

    from . import arith, certificate, compositions, oracle, powersums, prover

    for fn in (
        powersums.signed_mhs,
        powersums._chain_product,
        powersums._ghat_at,
        compositions._shuffle_cached,
        compositions._stuffle_cached,
        certificate._jarossay_identity,
        certificate._jarossay_tail,
        oracle.eval_mhs,
        oracle._lcm_steps,
    ):
        fn.cache_clear()
    powersums._memo.clear()
    arith._power_sum_memo.clear()
    arith._bernoulli_memo.clear()
    arith._bernoulli_memo[0] = Fraction(1)
    prover.clear_relation_cache()
