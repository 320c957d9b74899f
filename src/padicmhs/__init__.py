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
    """Empty every in-process memo table of the loaded modules (relation bases
    on disk are kept): each ``functools.lru_cache`` found in a loaded
    ``padicmhs`` module, the power-sum memo and the process relation basis.

    A module that is not loaded holds no table, so nothing is imported.  Each
    table refills on demand, so results do not change; what is lost is only
    the time to recompute them.
    """
    import sys

    loaded = {name: m for name, m in list(sys.modules.items()) if name.startswith(__name__ + ".")}
    tables = {fn for m in loaded.values() for fn in vars(m).values() if hasattr(fn, "cache_clear")}
    for fn in tables:
        fn.cache_clear()
    if f"{__name__}.powersums" in loaded:
        loaded[f"{__name__}.powersums"]._memo.clear()
    if f"{__name__}.prover" in loaded:
        loaded[f"{__name__}.prover"].clear_relation_cache()
