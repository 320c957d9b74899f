"""padicmhs: exact p-adic expansion of prime-indexed quantities into
truncated series of multiple harmonic sums, with an algebraic prover for
supercongruences and an exact-rational numeric cross-check."""

__version__ = "0.1.0"

from fractions import Fraction

from .arith import (
    INFINITY,
    bernoulli,
    binomial,
    padic_valuation,
    power_sum_poly,
)
from .compositions import (
    enumerate_compositions,
    format_comp,
    parse_comp,
    shuffle,
    stuffle,
    weight,
)
from .expansions import (
    expand_alternating,
    expand_apery,
    expand_binomial_poly,
    expand_binomial_pp,
    expand_curious,
    expand_half_harmonic,
    expand_power_sum,
    expand_quantity,
    expand_rational,
    expand_restricted_harmonic,
    expand_sum_poly_mhs,
    expand_zeta_p,
    factorial_ratio,
)
from .oracle import (
    DEFAULT_WORK_BUDGET,
    NumericReport,
    PrimeWindow,
    WorkBudgetExceeded,
    check_numeric,
    eval_mhs,
    eval_quantity,
    eval_series_terms,
    primes_in,
)
from .powersums import full_sum, poly_sum, valuation_bound
from .prover import (
    ProofCertificate,
    RelationBasis,
    canonicalize,
    dump_certificates,
    generate_relations,
    provable_valuation,
    prove_mixed,
    prove_supercongruence,
    prove_weighted,
    replay_certificate,
    verify_certificate_text,
)
from .quantities import QuantitySpec, format_quantity, parse_quantity
from .series import MhsSeries
from . import arith, compositions, oracle, powersums, prover


def clear_caches() -> None:
    """Empty every in-process memo table (relation bases on disk are kept).

    Each table refills on demand, so results do not change; what is lost is
    only the time to recompute them.
    """
    for fn in (
        powersums.signed_mhs,
        powersums._chain_product,
        compositions._shuffle_words,
        compositions._stuffle_cached,
        prover._jarossay_identity,
        prover._jarossay_tail,
        oracle.eval_mhs,
        oracle._lcm_steps,
    ):
        fn.cache_clear()
    powersums._memo.clear()
    arith._power_sum_memo.clear()
    arith._bernoulli_memo.clear()
    arith._bernoulli_memo[0] = Fraction(1)
    prover.clear_relation_cache()


__all__ = [
    "INFINITY",
    "DEFAULT_WORK_BUDGET",
    "MhsSeries",
    "NumericReport",
    "PrimeWindow",
    "ProofCertificate",
    "QuantitySpec",
    "RelationBasis",
    "WorkBudgetExceeded",
    "__version__",
    "bernoulli",
    "binomial",
    "canonicalize",
    "check_numeric",
    "clear_caches",
    "dump_certificates",
    "enumerate_compositions",
    "eval_mhs",
    "eval_quantity",
    "eval_series_terms",
    "expand_alternating",
    "expand_apery",
    "expand_binomial_poly",
    "expand_binomial_pp",
    "expand_curious",
    "expand_half_harmonic",
    "expand_power_sum",
    "expand_quantity",
    "expand_rational",
    "expand_restricted_harmonic",
    "expand_sum_poly_mhs",
    "expand_zeta_p",
    "factorial_ratio",
    "format_comp",
    "format_quantity",
    "full_sum",
    "generate_relations",
    "padic_valuation",
    "parse_comp",
    "parse_quantity",
    "poly_sum",
    "power_sum_poly",
    "primes_in",
    "provable_valuation",
    "prove_mixed",
    "prove_supercongruence",
    "prove_weighted",
    "replay_certificate",
    "shuffle",
    "stuffle",
    "valuation_bound",
    "verify_certificate_text",
    "weight",
]
