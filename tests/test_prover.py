"""Tests for relation generation, membership proofs, and certificates."""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from padicmhs import certificate, prover
from padicmhs.arith import INFINITY, padic_valuation
from padicmhs.certificate import (
    ProofCertificate,
    _relation_coords,
    all_proved,
    dump_certificates,
    replay_certificate,
    verify_certificate_text,
)
from padicmhs.cli import eval_statement, main, parse
from padicmhs.compositions import enumerate_compositions, format_comp, weight
from padicmhs.oracle import eval_mhs, primes_in
from padicmhs.prover import (
    RelationBasis,
    _enumerate_triples,
    clear_relation_cache,
    generate_relations,
    prove_mixed,
    prove_weighted,
    provable_valuation,
)
from padicmhs.series import MhsSeries

F = Fraction

PRIMES_SMALL = primes_in(11, 41)
PRIMES_WINDOW = primes_in(11, 97)


def wpart(coeffs: dict, n: int) -> MhsSeries:
    """The weighted series sum of c * h_p(s) + O(p^n)."""
    return MhsSeries({(weight(s), s): F(c) for s, c in coeffs.items()}, n)


def coords_value(coords: dict, p: int) -> Fraction:
    """Value at p of sum of c * p^weight(w) * H_{p-1}(w)."""
    total = F(0)
    for w, c in coords.items():
        total += c * F(p) ** weight(w) * eval_mhs(p - 1, w)
    return total


def assert_coords_vanish(coords: dict, n: int, primes) -> None:
    for p in primes:
        val = padic_valuation(coords_value(coords, p), p)
        assert val >= n, f"valuation {val} < {n} at p={p}"


@pytest.fixture()
def basis_cache(tmp_path):
    """Isolated cache directory; the in-process memo is cleared around it."""
    clear_relation_cache()
    yield tmp_path
    clear_relation_cache()


def rref_rows(basis: RelationBasis) -> list[dict]:
    """The RREF rows of the span: e_piv minus its reduction, for each pivot."""
    rows = []
    for piv in basis.pivots:
        row = {piv: F(1)}
        row.update({f: -v for f, v in basis.reduce({piv: F(1)}).items()})
        rows.append(row)
    return rows


class TestJarossayRelation:
    def test_weight4_instance(self):
        assert _relation_coords((1,), (1,), (), 4) == {(1, 1): F(3), (2, 1): F(1)}

    def test_mod_p3_instance_drops_weight3(self):
        assert _relation_coords((1,), (1,), (), 3) == {(1, 1): F(3)}

    def test_reversal_weight4(self):
        assert _relation_coords((1,), (2,), (), 4) == {(1, 2): F(1), (2, 1): F(1)}

    def test_deeper_truncation(self):
        coords = _relation_coords((1,), (1,), (), 5)
        assert coords == {(1, 1): F(3), (2, 1): F(1), (3, 1): F(1)}

    def test_single_h_family(self):
        # the (s, t) = ((), (1)) identity: 2h(1) + h(2) + h(3) + ... = 0
        coords = _relation_coords((), (1,), (), 5)
        assert coords == {(1,): F(2), (2,): F(1), (3,): F(1), (4,): F(1)}

    def test_validation(self):
        with pytest.raises(ValueError):
            _relation_coords((1,), (1,), (), 2)  # weights not below n

    @pytest.mark.parametrize(
        "s,t,n",
        [
            ((1,), (1,), 4),
            ((1,), (2,), 5),
            ((2,), (1,), 5),
            ((1, 1), (1,), 5),
            ((1,), (1, 1), 6),
            ((2,), (3,), 7),
        ],
    )
    def test_numeric_soundness_single(self, s, t, n):
        assert_coords_vanish(_relation_coords(s, t, (), n), n, PRIMES_SMALL)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_fast_vectors_match_the_trusted_relations(self, n):
        # generation builds each (s, t) identity once and cuts it per u; a
        # certificate replay regenerates one relation at a time
        columns = enumerate_compositions(n - 1)
        provs, vectors = prover._relation_vectors(n)
        assert provs == list(_enumerate_triples(n))
        for prov, (cols, coeffs) in zip(provs, vectors):
            vec = {columns[col]: c for col, c in zip(cols, coeffs) if c}
            assert vec == _relation_coords(*prov, n)


class TestGenerateRelations:
    def test_n2_span_contains_2h1(self, basis_cache):
        basis = generate_relations(2, basis_cache)
        assert basis.rank == 1
        assert basis.pivots == [(1,)]
        assert basis.express({(1,): F(2)}) is not None

    def test_echelon_shape(self, basis_cache):
        for n in range(2, 7):
            basis = generate_relations(n, basis_cache)
            cols = basis.columns
            idx = {w: i for i, w in enumerate(cols)}
            assert basis.rank <= len(cols)
            pivots = basis.pivots
            assert [idx[p] for p in pivots] == sorted(idx[p] for p in pivots)
            pivot_set = set(pivots)
            for coords, piv in zip(rref_rows(basis), pivots):
                assert coords[piv] == 1
                # reduced form: no row touches another row's pivot column
                assert not (set(coords) - {piv}) & pivot_set
                assert all(weight(w) < n for w in coords)

    def test_numeric_soundness_all_rows(self, basis_cache):
        for n in range(2, 8):
            basis = generate_relations(n, basis_cache)
            for row in rref_rows(basis):
                assert_coords_vanish(row, n, PRIMES_WINDOW)

    def test_row_combinations_reproduce_rows(self, basis_cache):
        basis = generate_relations(5, basis_cache)
        for row in rref_rows(basis):
            acc: dict = {}
            for (s, t, u), mult in basis.express(row).items():
                for w, c in _relation_coords(s, t, u, 5).items():
                    acc[w] = acc.get(w, F(0)) + mult * c
            acc = {w: c for w, c in acc.items() if c}
            assert acc == row

    def test_determinism(self, tmp_path):
        clear_relation_cache()
        a = generate_relations(5, tmp_path / "one").dump()
        clear_relation_cache()
        b = generate_relations(5, tmp_path / "two").dump()
        clear_relation_cache()
        assert a == b

    def test_disk_cache_roundtrip(self, tmp_path):
        clear_relation_cache()
        fresh = generate_relations(4, tmp_path)
        text = fresh.dump()
        clear_relation_cache()
        loaded = generate_relations(4, tmp_path)  # read back from disk
        assert loaded.dump() == text
        assert RelationBasis.load(text).dump() == text
        clear_relation_cache()

    def test_corrupt_cache_regenerates(self, tmp_path):
        clear_relation_cache()
        good = generate_relations(3, tmp_path).dump()
        clear_relation_cache()
        cache_file = next(tmp_path.glob("relations-*.txt"))
        cache_file.write_text("padicmhs-basis 999\ngarbage\n")
        again = generate_relations(3, tmp_path)
        assert again.dump() == good
        assert cache_file.read_text() == good  # rewritten
        clear_relation_cache()

    def test_junk_after_end_basis_regenerates(self, tmp_path):
        clear_relation_cache()
        good = generate_relations(3, tmp_path).dump()
        clear_relation_cache()
        with pytest.raises(ValueError, match="trailing content after 'end basis'"):
            RelationBasis.load(good + "junk\n")
        cache_file = next(tmp_path.glob("relations-*.txt"))
        cache_file.write_text(good + "junk\n")
        assert generate_relations(3, tmp_path).dump() == good
        assert cache_file.read_text() == good  # rewritten
        clear_relation_cache()

    @pytest.mark.parametrize(
        "old,new,error",
        [
            ("pivot (3)\n", "pivot (4)\n", "pivots must be the columns with no annihilator"),
            (
                "pivot (1,1)\npivot (2)\n",
                "pivot (2)\npivot (1,1)\n",
                "pivots must be the columns with no annihilator",
            ),
            ("t=(1,1);u=()", "t=(1,1);u=(1,1)", "triple heavier than its pivot (3)"),
            (
                "triple [s=();t=(1);u=()]\ntriple [s=();t=(1);u=(1)]\n",
                "triple [s=();t=(1);u=(1)]\ntriple [s=();t=(1);u=()]\n",
                "triple heavier than its pivot (1)",
            ),
            (
                "triple [s=();t=(1);u=()]\ntriple [s=();t=(1);u=(1)]\n",
                "triple [s=();t=(1);u=()]\ntriple [s=();t=(1);u=()]\n",
                "an independent triple is repeated",
            ),
            ("annihilator (2,1)", "annihilator (1,2)", "the columns with no annihilator"),
            ("annihilator ()\n", "annihilator (4)\n", "indexed by the free columns"),
            ("a (2,1) 1\n", "a (2,1) 2\n", "must be e_f plus pivot columns"),
            ("columns 8\n", "columns 7\n", "column count"),
            ("a (1) -1/3\n", "b (1) -1/3\n", "unexpected line in annihilator"),
            ("triple [s=();t=(1);u=()]", "triple [s=();t=(1)]", "malformed provenance"),
            ("a (1) -1/3\n", "a (1) -1/2\n", "does not vanish on the independent triples"),
        ],
        ids=[
            "pivot-range", "pivot-order", "triple-weight", "triple-order", "triple-duplicate",
            "free-columns",
            "annihilator-column",
            "annihilator-shape", "column-count", "annihilator-line", "provenance",
            "annihilator-entry",
        ],
    )
    def test_malformed_cache_is_refused_and_regenerated(self, tmp_path, old, new, error):
        clear_relation_cache()
        good = generate_relations(4, tmp_path).dump()
        clear_relation_cache()
        assert good.count(old) == 1
        bad = good.replace(old, new)
        with pytest.raises(ValueError, match=re.escape(error)):
            RelationBasis.load(bad)
        cache_file = next(tmp_path.glob("relations-*.txt"))
        cache_file.write_text(bad)
        assert generate_relations(4, tmp_path).dump() == good
        assert cache_file.read_text() == good  # rewritten
        clear_relation_cache()

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            generate_relations(0)

    def test_rejects_bool_modulus_and_writes_nothing(self, basis_cache):
        with pytest.raises(ValueError):
            generate_relations(True, cache_dir=basis_cache)
        assert list(basis_cache.iterdir()) == []

    def test_refuses_above_the_cap_and_writes_nothing(self, basis_cache, monkeypatch):
        generations = count_calls(monkeypatch, "_enumerate_triples")
        with pytest.raises(ValueError, match=r"modulus p\^12 .* p\^11$"):
            generate_relations(prover.MAX_MODULUS_POWER + 1, basis_cache)
        assert generations == []
        assert list(basis_cache.iterdir()) == []

    def test_basis_above_the_cap_is_served_from_the_file(self, basis_cache, monkeypatch):
        generate_relations(9, basis_cache)
        clear_relation_cache()
        monkeypatch.setattr(prover, "MAX_MODULUS_POWER", 8)
        generations = count_calls(monkeypatch, "_enumerate_triples")
        assert generate_relations(9, basis_cache).modulus_power == 9
        assert generations == []
        with pytest.raises(ValueError, match=r"modulus p\^10 .* p\^8$"):
            generate_relations(10, basis_cache)
        assert generations == []

    def test_edited_annihilator_entry_is_regenerated_not_trusted(self, basis_cache, capsys):
        # one changed entry of lambda_(2,1) in a cached p^6 basis once made
        # this true statement UNPROVEN with 0 relations and exit 1
        assert main(["identities", "--modulus", "6", "--cache-dir", str(basis_cache)]) == 0
        cache_file = next(basis_cache.glob("relations-*.txt"))
        good = cache_file.read_text()
        old = "annihilator (2,1)\na (1) -1/3\n"
        assert good.count(old) == 1
        cache_file.write_text(good.replace(old, "annihilator (2,1)\na (1) -1/2\n"))
        clear_relation_cache()
        capsys.readouterr()
        cb = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 24*p^3*H(3) mod p^6"
        assert main(["prove", cb, "--cache-dir", str(basis_cache)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"PROVED: {cb}"
        assert cache_file.read_text() == good  # rewritten

    def test_duplicated_triple_line_is_regenerated_not_trusted(self, basis_cache, capsys):
        # the first triple line copied over the second in a cached p^6 basis
        # once passed the load, and the proof of this true statement then
        # stopped with "no rational values lifted" and exit 2
        assert main(["identities", "--modulus", "6", "--cache-dir", str(basis_cache)]) == 0
        cache_file = next(basis_cache.glob("relations-*.txt"))
        good = cache_file.read_text()
        first, second = re.findall(r"^triple .*\n", good, re.MULTILINE)[:2]
        assert good.count(first + second) == 1
        cache_file.write_text(good.replace(first + second, first + first))
        clear_relation_cache()
        capsys.readouterr()
        cb = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 24*p^3*H(3) mod p^6"
        assert main(["prove", cb, "--cache-dir", str(basis_cache)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"PROVED: {cb}"
        assert cache_file.read_text() == good  # rewritten


CS2 = (
    "2*sumpoly(p^2;1,1) + sumpoly(p^2;2) = -4/9 + 79/108*p - 13/36*p^2 + 1/6*H(1) mod p^3"
)


def count_calls(monkeypatch, name: str) -> list:
    """Record every call of ``prover.<name>`` (the function still runs)."""
    calls, real = [], getattr(prover, name)
    monkeypatch.setattr(prover, name, lambda *a: calls.append(a) or real(*a))
    return calls


def cache_state(path) -> dict:
    return {f.name: (f.read_bytes(), f.stat().st_mtime_ns) for f in path.iterdir()}


class TestOneBasis:
    """One basis, at the largest modulus asked for, serves every smaller one."""

    @pytest.mark.parametrize("top", [8, 9])
    def test_prefix_equals_cold_generation(self, basis_cache, monkeypatch, top):
        cold = {}
        for n in range(1, top):
            clear_relation_cache()
            cold[n] = generate_relations(n, basis_cache / f"cold{n}").dump()
        clear_relation_cache()
        generate_relations(top, basis_cache / "top")
        steps = count_calls(monkeypatch, "_annihilator_residues")
        for n in range(1, top):
            assert generate_relations(n, basis_cache / "top").dump() == cold[n], n
        clear_relation_cache()  # the prefixes of the basis read back from its file
        for n in range(1, top):
            assert generate_relations(n, basis_cache / "top").dump() == cold[n], n
        assert steps == []

    def test_cold_prove_generates_once_and_leaves_one_file(
        self, basis_cache, monkeypatch, capsys
    ):
        generations = count_calls(monkeypatch, "_enumerate_triples")
        assert main(["prove", CS2, "--cache-dir", str(basis_cache)]) == 0
        moduli = [line.split()[2] for line in capsys.readouterr().out.splitlines()[1:]]
        assert moduli == ["p^2:", "p^3:", "p^4:"]  # ascending, as before
        assert len(generations) == 1
        (path,) = basis_cache.iterdir()
        assert path.name == f"relations-v{prover.BASIS_FORMAT_VERSION}.txt"
        assert RelationBasis.load(path.read_text()).modulus_power == 4

    def test_cold_canonical_expansion_generates_once(self, basis_cache, monkeypatch):
        # the parts of curious(2,3) at order 6 reach moduli 6, 7 and 8
        generations = count_calls(monkeypatch, "_enumerate_triples")
        argv = ["expand", "curious(2,3)", "--order", "6", "--cache-dir", str(basis_cache)]
        assert main(argv) == 0
        assert generations == [(8,)]

    @pytest.mark.parametrize("in_memory", [True, False])
    def test_smaller_request_writes_nothing(self, basis_cache, monkeypatch, in_memory):
        generate_relations(6, basis_cache)
        before = cache_state(basis_cache)
        if not in_memory:
            clear_relation_cache()
        generations = count_calls(monkeypatch, "_enumerate_triples")
        assert generate_relations(4, basis_cache).modulus_power == 4
        assert generations == []
        assert cache_state(basis_cache) == before

    def test_prefixes_are_built_once_without_validation(self, basis_cache, monkeypatch):
        generate_relations(8, basis_cache)
        checks = count_calls(monkeypatch, "_check_prov")
        first = [generate_relations(n, basis_cache) for n in range(1, 9)]
        again = [generate_relations(n, basis_cache) for n in range(1, 9)]
        assert all(a is b for a, b in zip(first, again))
        assert checks == []
        assert sorted(prover._PROCESS_BASIS._prefixes) == list(range(1, 8))

    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_prefixes_cut_the_triple_rows_of_their_basis(self, basis_cache, source):
        # a relation at n is the one at the larger modulus cut to weight < n,
        # so every builder's rows equal the transposed relations at its own n
        generate_relations(8, basis_cache)
        if source == "loaded":
            clear_relation_cache()
        for n in range(1, 9):
            basis = generate_relations(n, basis_cache)
            fresh = [_relation_coords(*prov, n) for prov in basis._triples]
            assert basis._triple_rows == prover._transpose(basis.columns, fresh), n

    def test_ascending_fill_parses_no_smaller_file(self, basis_cache, monkeypatch):
        loads, real = [], RelationBasis.load
        monkeypatch.setattr(
            RelationBasis, "load", staticmethod(lambda text: loads.append(text) or real(text))
        )
        for n in range(1, 9):
            assert generate_relations(n, basis_cache).modulus_power == n
        assert len(loads) <= 1
        # a file stating a large enough modulus is parsed, and regenerated
        # when it does not load
        (path,) = basis_cache.iterdir()
        good = path.read_text()
        version = f"padicmhs-basis {prover.BASIS_FORMAT_VERSION}"
        stale = good.replace(version, f"padicmhs-basis {prover.BASIS_FORMAT_VERSION - 1}")
        for spoiled in (good + "junk\n", stale):
            clear_relation_cache()
            path.write_text(spoiled)
            assert generate_relations(8, basis_cache).dump() == good
            assert path.read_text() == good  # rewritten

    def test_larger_request_replaces_the_file(self, basis_cache):
        generate_relations(4, basis_cache)
        clear_relation_cache()
        generate_relations(6, basis_cache)
        (path,) = basis_cache.iterdir()
        assert RelationBasis.load(path.read_text()).modulus_power == 6

    def test_old_cache_files_are_ignored(self, basis_cache, monkeypatch):
        good = generate_relations(5, basis_cache).dump()
        clear_relation_cache()
        old = good.replace(f"padicmhs-basis {prover.BASIS_FORMAT_VERSION}\n", "padicmhs-basis 2\n")
        (path,) = basis_cache.iterdir()
        path.write_text(old)  # format 2 under the current name
        leftover = basis_cache / "relations-n7-v2.txt"  # a per-modulus file of format 2
        leftover.write_text(old.replace("modulus 5", "modulus 7"))
        generations = count_calls(monkeypatch, "_enumerate_triples")
        assert generate_relations(5, basis_cache).dump() == good
        assert len(generations) == 1
        assert path.read_text() == good
        assert leftover.read_text().startswith("padicmhs-basis 2\n")


# A basis in the retired format 1 (rows with tracked combinations).
V1_BASIS_N2 = """padicmhs-basis 1
modulus 2
columns 2
rows 1
row pivot=(1) provenance=[s=();t=(1);u=()]
c (1) 1
k [s=();t=(1);u=()] 1/2
end row
end basis
"""

CB = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 24*p^3*H(3) mod p^6"

#: Terms of a series with parts at offsets 0 and 1 that vanishes mod p^4.
MIXED_BUNDLE = {
    (0, (1,)): F(1),
    (1, (1,)): F(-2),
    (1, (2,)): F(1),
    (1, (1, 1)): F(2),
    (2, (2, 1)): F(1, 3),
    (3, (2, 1)): F(-2, 3),
}


def proof_dump(text: str, cache_dir, order=None) -> str:
    """Certificate text of ``padicmhs prove <text> [--order order]``."""
    series, n = eval_statement(parse(text), cache_dir, order)
    return dump_certificates(prove_mixed(series, n, cache_dir))


class TestModularLift:
    """The span is found modulo primes; exact checks decide the results."""

    @pytest.mark.parametrize(
        "n,rank,columns",
        [(2, 1, 2), (3, 3, 4), (4, 6, 8), (5, 14, 16), (6, 29, 32), (7, 60, 64),
         (8, 123, 128)],
    )
    def test_rank_and_columns_pinned(self, basis_cache, n, rank, columns):
        basis = generate_relations(n, basis_cache)
        assert (basis.rank, len(basis.columns)) == (rank, columns)

    def test_free_columns_pinned_at_n9(self, basis_cache):
        # d_(w-3) free columns at each weight w = 3..8 (1, 0, 1, 1, 1, 2), and ();
        # the count per weight is a cheap rank-drift check
        basis = generate_relations(9, basis_cache)
        pivots = set(basis.pivots)
        free = [format_comp(w) for w in basis.columns if w not in pivots]
        assert free == ["()", "(2,1)", "(4,1)", "(4,1,1)", "(6,1)", "(5,2,1)", "(6,1,1)"]
        assert (basis.rank, len(basis.columns)) == (249, 256)
        free_weights = [weight(w) for w in basis.columns if w not in pivots]
        assert [free_weights.count(k) for k in range(9)] == [1, 0, 0, 1, 0, 1, 1, 1, 2]

    def test_annihilators_vanish_on_every_relation(self, basis_cache):
        # reduce(x) lists lambda_f(x) for every free column f, so an empty
        # reduction means every annihilator vanishes exactly on x
        for n in range(1, 8):
            basis = generate_relations(n, basis_cache)
            for s, t, u in _enumerate_triples(n):
                assert basis.reduce(_relation_coords(s, t, u, n)) == {}, (n, s, t, u)
            free = [w for w in basis.columns if w not in set(basis.pivots)]
            for f in free:  # one independent functional per free column
                assert basis.reduce({f: F(1)}) == {f: F(1)}

    @pytest.mark.parametrize("small", [3, 7])
    def test_unlucky_first_prime_changes_nothing(self, tmp_path, monkeypatch, small):
        # modulo 3 the rank drops at n = 5 and 6 (13 < 14, 28 < 29); modulo
        # 3 and 7 the fingerprint also vanishes on some rank-raising relations
        # (about one in q), so both keep a lower rank than the next prime,
        # whose functionals pass the exact check
        dumps = {}
        for label, primes in (
            ("default", prover._PRIMES),
            ("small", (small,) + prover._PRIMES),
        ):
            monkeypatch.setattr(prover, "_PRIMES", primes)
            clear_relation_cache()
            cache = tmp_path / label
            dumps[label] = [generate_relations(n, cache).dump() for n in (5, 6)]
            dumps[label].append(proof_dump(CB, cache))
        clear_relation_cache()
        assert dumps["small"] == dumps["default"]

    def test_solve_passes_over_a_prime_with_dependent_triples(
        self, basis_cache, monkeypatch
    ):
        # modulo 3 the independent triples at n = 5, 6 and 7 are dependent,
        # so the per-target solve must pass 3 over before it reads column r:
        # testing for inconsistency first raised on most of these rows
        bases = [generate_relations(n, basis_cache) for n in (5, 6, 7)]
        for basis in bases:
            for row in rref_rows(basis):
                assert basis._combination_residues(row, 3) is None
        default = [[basis.express(row) for row in rref_rows(basis)] for basis in bases]
        monkeypatch.setattr(prover, "_PRIMES", (3,) + prover._PRIMES)
        small = [[basis.express(row) for row in rref_rows(basis)] for basis in bases]
        assert small == default

    def test_triple_part_of_the_system_is_built_once(self, basis_cache, monkeypatch):
        # the triples' columns of the transposed system are the same for
        # every target and prime, and generation hands them to the basis;
        # only the exact replays (one relation per independent triple)
        # compute relations
        basis = generate_relations(6, basis_cache)
        relations, replays = [], []
        real_coords, real_replays = certificate._relation_coords, RelationBasis._replays
        for module in (prover, certificate):
            monkeypatch.setattr(
                module, "_relation_coords", lambda *a: relations.append(a) or real_coords(*a)
            )
        monkeypatch.setattr(
            RelationBasis, "_replays", lambda *a: replays.append(a) or real_replays(*a)
        )
        rows = rref_rows(basis)
        assert all(basis.express(row) for row in rows)
        assert len(relations) == basis.rank * len(replays)

    def test_primes_are_distinct_and_pass_fermat(self):
        assert len(set(prover._PRIMES)) == len(prover._PRIMES)
        for q in prover._PRIMES:
            assert all(pow(b, q - 1, q) == 1 for b in (2, 3, 5, 7, 11, 13))

    def test_reconstruct(self):
        m = (1 << 61) - 1

        def residue(x):
            return x.numerator * pow(x.denominator, -1, m) % m

        # numerators and denominators up to the bound sqrt(m / 2) = 2^30 - 1
        for x in (F(0), F(1), F(-3, 7), F(12345, 678), F(-(2**30 - 1), 2**30 - 2)):
            assert prover._reconstruct(residue(x), m) == x
        assert prover._reconstruct(residue(F(-(2**30), 2**30 - 1)), m) is None

    def test_corrupt_annihilator_cannot_prove(self, basis_cache):
        # lambda_(2,1) loses its (1,2) entry, so it wrongly accepts h(1,2):
        # load refuses it, and a basis built from it all the same cannot prove
        # h(1,2), as the combination solve finds it outside the span
        basis = generate_relations(4, basis_cache)
        text = basis.dump()
        assert "a (1,2) -1\n" in text
        with pytest.raises(ValueError, match="does not vanish on the independent triples"):
            RelationBasis.load(text.replace("a (1,2) -1\n", ""))
        lams = {
            f: {w: c for w, c in lam.items() if (f, w) != ((2, 1), (1, 2))}
            for f, lam in basis._annihilators.items()
        }
        tampered = RelationBasis(4, basis.pivots, basis._triples, lams, basis._triple_rows)
        assert tampered.reduce({(1, 2): F(1)}) == {}
        with pytest.raises(RuntimeError, match="inconsistent"):
            tampered.express({(1, 2): F(1)})

    def test_load_rejects_format_1(self):
        with pytest.raises(ValueError, match="version"):
            RelationBasis.load(V1_BASIS_N2)


#: SHA-256 of a cold ``generate_relations(n).dump()``, taken from the
#: elimination that reduced every relation (no fingerprint, no packed check).
BASIS_DIGESTS = {
    2: "1ddee768ced7e784d768e5bb9271dd8b369ccc168ce1665b5e55a70d3b0df589",
    3: "2589987083a8fe6daafc38a1f947a6d75230a69679ffb3f380c2a5282d24f702",
    4: "46a56d7854b289f13ad7915887a26155e70111f232cb94707891ca07e0f4b837",
    5: "4e637943ff89bdef99f2b82f6b92f4937f466ade23f6d1ad7a11a560e7b365c1",
    6: "68df1a3b983acbcc712bb4793f24bc2091d8b81fe408d15e3f8c2e19b7ea9caf",
    7: "8085f53796b1b69f2f7cf0b7009e92d7e40af42dfa12104205abe641a3062273",
    8: "4ff57a693d9bf34ec4a0ec35eec86e108e95fe7b1c47619a3c91b35d796e00b0",
    9: "5d00e484d9c4bcb9663f92be66ab96f5035dd89ba021b5855c14a1698d4881d6",
    10: "0a5ac31ce0f375a162f935835068f2868c5af7e41d6af9c6679ac34ddbd789f8",
}


def sha256_of(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


#: SHA-256 of the CB certificate text (see TestPinnedCertificates).
CB_DIGEST = "5b1b0eec251add9b786469f92cb6e3e50f49e2cfc0d714d5d25ddfc9e1ec4332"


def indexed_functionals(basis: RelationBasis) -> dict:
    """The basis's lambda_f keyed ``(f, column)`` by column index, zeros kept."""
    idx = {w: i for i, w in enumerate(basis.columns)}
    pivots = set(basis.pivots)
    values = {}
    for f in (w for w in basis.columns if w not in pivots):
        values[(idx[f], idx[f])] = F(1)
        for w in basis.pivots:
            values[(idx[f], idx[w])] = basis.reduce({w: F(1)}).get(f, F(0))
    return values


class TestFingerprintAndPackedCheck:
    """The fingerprint skip and the packed check only propose; exact checks decide."""

    @pytest.mark.parametrize("n", sorted(BASIS_DIGESTS))
    def test_cold_basis_is_pinned(self, basis_cache, n):
        assert sha256_of(generate_relations(n, basis_cache).dump()) == BASIS_DIGESTS[n]

    def test_vanishing_fingerprints_on_the_first_prime_change_nothing(
        self, basis_cache, monkeypatch
    ):
        # modulo the first prime every vector is skipped as if in the span,
        # so that prime keeps rank 0 and the next one decides
        real = prover._fingerprint_weights
        monkeypatch.setattr(
            prover,
            "_fingerprint_weights",
            lambda ncols, q: [0] * ncols if q == prover._PRIMES[0] else real(ncols, q),
        )
        for n in (6, 7):
            clear_relation_cache()
            basis = generate_relations(n, basis_cache / f"n{n}")
            assert sha256_of(basis.dump()) == BASIS_DIGESTS[n]
        clear_relation_cache()
        assert sha256_of(proof_dump(CB, basis_cache / "cb")) == CB_DIGEST

    def test_vanishing_fingerprints_on_every_prime_raise(self, basis_cache, monkeypatch):
        monkeypatch.setattr(prover, "_fingerprint_weights", lambda ncols, q: [0] * ncols)
        with pytest.raises(RuntimeError, match="exact check"):
            generate_relations(5, basis_cache)
        assert list(basis_cache.iterdir()) == []

    def test_packed_check_rejects_an_entry_off_by_one(self, basis_cache):
        basis = generate_relations(6, basis_cache)
        _, vectors = prover._relation_vectors(6)
        values = indexed_functionals(basis)
        assert prover._annihilates(values, vectors)
        for key in values:
            if key[1] != 0:  # no relation has a coordinate at ()
                altered = {**values, key: values[key] + 1}
                assert not prover._annihilates(altered, vectors), key

    def test_packed_check_is_exact_on_huge_entries(self):
        # lambda_1 = e_1 - e_0 and lambda_3 = e_3 + e_2 / 2, on entries > 2^200
        values = {(1, 1): F(1), (1, 0): F(-1), (3, 3): F(1), (3, 2): F(1, 2)}
        x, y = 2**200 + 12345, 2**201 + 7
        good = (0, 1, 2, 3), (x, x, 2 * y, -y)
        assert prover._annihilates(values, [good])
        rng = random.Random(7)
        for col in range(4):
            for delta in (1, -1, 2**210, 1 + rng.randrange(2**250)):
                coeffs = list(good[1])
                coeffs[col] += delta
                bad = good[0], tuple(coeffs)
                assert not prover._annihilates(values, [good, bad]), (col, delta)
        # lambda_1 = -2^(w-1) and 2 * lambda_3 = 2 cancel in a packing whose
        # slots are w - 2 bits wide; the width read off the data keeps them apart
        for w in range(1, 300):
            bad = (0, 1, 2, 3), (2 ** (w - 1), 0, 2, 0)
            assert not prover._annihilates(values, [bad]), w


class TestPinnedCertificates:
    """Certificate text is byte-identical to the exact-rational prover's.

    The digests were taken from the output of the Fraction Gauss-Jordan
    prover that preceded the modular one.
    """

    @pytest.mark.parametrize(
        "text,order,digest",
        [
            (CB, None, "5b1b0eec251add9b786469f92cb6e3e50f49e2cfc0d714d5d25ddfc9e1ec4332"),
            ("p*H(1) + p^2*H(1,1) = 0 mod p^3", None,
             "f19338c3ad620801f43e4cb0708e009cb737ae6fe3364aa8e8c98bd7187e035d"),
            ("binp(2,1,1)*apery() = 2 mod p^5", None,
             "a181ad54560079d63ed33def8f7a7a7cd88404c0409e552054208558f3cb1b21"),
            ("2*sumpoly(1;1,1) + sumpoly(1;2) = 2*p - 2 + 1/3*p^2*(2*p-1)*H(2,1) mod p^4",
             None, "a152a82acfb8c51fcf1786c1ecbcb9ac7ae5d3177310f24d99c4f020845f5a7c"),
            ("2*sumpoly(p^2;1,1) + sumpoly(p^2;2) = -4/9 + 79/108*p - 13/36*p^2"
             " + 1/6*H(1) mod p^3",
             None, "dd7941790cf6385d57befc4426728c6da9e1951caf4c75d0d2923f450919b098"),
            ("hres(2) = p^2*H(1) mod p^6", None,
             "9ef5ca02b2efdfc216ad304ff80b430d1917ab6003cbf5398f192230f3f56d19"),
            ("p^-2*alt(2) = 3/4*H(2) mod p^3", 5,
             "29e332af3c84190448bc1a87e0b1bf817a5d14886703262a2440b81ba0daafa9"),
            # one part mod p^8 with 119 relations, pinned from the modular
            # prover with the tracked solve
            ("apery() = 1 + 2*zetap(3) - 16*zetap(5) + 4*zetap(3)*zetap(3)"
             " - 100*zetap(7) mod p^8", None,
             "ad62de89554e7e3f7a68658a780b07220eb722fce3690dd168eb0b25431ee9d1"),
        ],
        ids=["cb", "wolstenholme", "ca1", "cs1", "cs2", "cr1", "congalt", "cz1"],
    )
    def test_digest(self, basis_cache, text, order, digest):
        dump = proof_dump(text, basis_cache, order)
        assert hashlib.sha256(dump.encode("ascii")).hexdigest() == digest


class TestProveWeighted:
    def test_h1_mod_p2(self, basis_cache):
        cert = prove_weighted(wpart({(1,): 1}, 2), 2, basis_cache)
        assert cert.verdict == "proved"
        assert replay_certificate(cert)

    def test_h1_mod_p4_unproven(self, basis_cache):
        cert = prove_weighted(wpart({(1,): 1}, 4), 4, basis_cache)
        assert cert.verdict == "unproven"
        assert cert.combination == ()
        assert not replay_certificate(cert)

    def test_h11_mod_p3(self, basis_cache):
        cert = prove_weighted(wpart({(1, 1): 1}, 3), 3, basis_cache)
        assert cert.verdict == "proved"
        assert replay_certificate(cert)

    def test_wolstenholme_pair_mod_p3(self, basis_cache):
        assert_coords_vanish({(1,): F(1), (1, 1): F(1)}, 3, PRIMES_SMALL)
        cert = prove_weighted(wpart({(1,): 1, (1, 1): 1}, 3), 3, basis_cache)
        assert cert.verdict == "proved"
        assert replay_certificate(cert)

    def test_strengthened_weight3_mod_p4(self, basis_cache):
        cert = prove_weighted(wpart({(1, 1): 3, (2, 1): 1}, 4), 4, basis_cache)
        assert cert.verdict == "proved"
        assert replay_certificate(cert)

    def test_zero_statement(self, basis_cache):
        cert = prove_weighted(wpart({}, 5), 5, basis_cache)
        assert cert.verdict == "proved"
        assert cert.combination == ()
        assert replay_certificate(cert)

    def test_high_weight_terms_trivial(self, basis_cache):
        # h(3) mod p^2 drops to the zero vector: valuation >= weight is free
        cert = prove_weighted(wpart({(3,): 5}, 2), 2, basis_cache)
        assert cert.verdict == "proved"
        assert cert.combination == ()

    def test_rejects_non_weighted(self, basis_cache):
        # its compositions would otherwise be read as coordinates
        with pytest.raises(ValueError, match="expected a weighted series"):
            prove_weighted(MhsSeries({(2, (1,)): F(1)}, 3), 3, basis_cache)

    def test_rejects_modulus_above_order_or_not_an_int(self, basis_cache):
        part = wpart({(1,): 1}, 3)
        with pytest.raises(ValueError, match="known only to O\\(p\\^3\\)"):
            prove_weighted(part, 4, basis_cache)
        for n in (True, 2.0):
            with pytest.raises(ValueError, match="must be an integer"):
                prove_weighted(part, n, basis_cache)

    def test_constant_statement_unproven(self, basis_cache):
        cert = prove_weighted(MhsSeries.constant(1, 3), 3, basis_cache)
        assert cert.verdict == "unproven"

    def test_wc_statement_mod_p6(self, basis_cache):
        coeffs = {(1,) * k: 6 * 2**k - 18 for k in range(1, 6)}
        coeffs[(3,)] = -24
        assert_coords_vanish({s: F(c) for s, c in coeffs.items()}, 6, primes_in(11, 31))
        cert = prove_weighted(wpart(coeffs, 6), 6, basis_cache)
        assert cert.verdict == "proved"
        assert replay_certificate(cert)

    def test_restricted_harmonic_weighted_parts(self, basis_cache):
        # offset parts of the p-restricted harmonic number congruence at r=2
        w1 = {(1,): F(1), (2,): F(1, 2), (3,): F(1, 6), (5,): F(-1, 30)}
        w2 = {(1,): F(1), (2,): F(1, 2), (3,): F(1, 2), (4,): F(1, 4)}
        w3 = {(3,): F(1, 3)}
        for coords, n in ((w1, 6), (w2, 5), (w3, 4)):
            assert_coords_vanish(coords, n, PRIMES_SMALL)
            cert = prove_weighted(wpart(coords, n), n, basis_cache)
            assert cert.verdict == "proved", (coords, n)
            assert replay_certificate(cert)

    def test_polylog_square_weighted_parts(self, basis_cache):
        # offset parts of the sum-of-squares congruence (corrected constant)
        p1 = {(1,): F(1), (2,): F(1), (1, 1): F(2), (2, 1): F(1, 3)}
        p2 = {(1,): F(-2), (2, 1): F(-2, 3)}
        for coords, n in ((p1, 5), (p2, 4)):
            assert_coords_vanish(coords, n, PRIMES_SMALL)
            cert = prove_weighted(wpart(coords, n), n, basis_cache)
            assert cert.verdict == "proved", (coords, n)
            assert replay_certificate(cert)

    def test_uncorrected_variant_fails_numerically(self):
        # coefficient 3 instead of 1 on h(1) breaks the mod-p^5 congruence
        bad = {(1,): F(3), (2,): F(1), (1, 1): F(2), (2, 1): F(1, 3)}
        failures = 0
        for p in PRIMES_SMALL:
            if padic_valuation(coords_value(bad, p), p) < 5:
                failures += 1
        assert failures >= len(PRIMES_SMALL) - 1


class TestProveMixed:
    def _cs1_series(self, n: int = 4) -> MhsSeries:
        # (1-2p)H(1) + pH(2) + 2pH(1,1) + (1/3)p^2 H(2,1) - (2/3)p^3 H(2,1)
        return MhsSeries(
            {
                (0, (1,)): F(1),
                (1, (1,)): F(-2),
                (1, (2,)): F(1),
                (1, (1, 1)): F(2),
                (2, (2, 1)): F(1, 3),
                (3, (2, 1)): F(-2, 3),
            },
            n,
        )

    def test_cs1_mixed_proof(self, basis_cache):
        certs = prove_mixed(self._cs1_series(), 4, basis_cache)
        assert len(certs) == 2  # offsets 0 and 1
        assert all_proved(certs)
        for cert in certs:
            assert replay_certificate(cert)
        moduli = sorted(c.modulus_power for c in certs)
        assert moduli == [4, 5]

    def test_zero_statement(self, basis_cache):
        certs = prove_mixed(MhsSeries.zero(4), 4, basis_cache)
        assert len(certs) == 1
        assert all_proved(certs)

    def test_negative_offset_trivial_part(self, basis_cache):
        series = MhsSeries({(5, (1,)): F(7)}, None)  # p^5 H(1), exact
        certs = prove_mixed(series, 4, basis_cache)
        assert len(certs) == 1
        assert certs[0].modulus_power == 0
        assert all_proved(certs)
        assert replay_certificate(certs[0])

    def test_weaken_with_n_argument(self, basis_cache):
        certs = prove_mixed(self._cs1_series(), 2, basis_cache)
        assert all_proved(certs)

    def test_mixed_statement_kind_accepted(self, basis_cache):
        # a zero coefficient at offset 1 leaves one weighted term, one part
        series = MhsSeries({(1, (1,)): F(1), (0, (1,)): F(0)}, 2)
        certs = prove_mixed(series, 2, basis_cache)
        assert [c.modulus_power for c in certs] == [2]
        assert all_proved(certs)


class TestProveSupercongruence:
    """A congruence statement, as ``prove`` takes it: ``eval_statement``, then ``prove_mixed``."""

    def test_wolstenholme_form(self, basis_cache):
        series, n = eval_statement(parse("p*H(1) + p^2*H(1,1) = 0 mod p^3"), basis_cache)
        certs = prove_mixed(series, n, basis_cache)
        assert all_proved(certs)

    def test_insufficient_order(self):
        # alt(2) is expanded at the modulus power, and p^-2 leaves O(p^1)
        message = "lhs is only known to O(p^1), cannot assert mod p^3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            eval_statement(parse("p^-2*alt(2) = 3/4*H(2) mod p^3"))

    def test_type_errors(self):
        with pytest.raises(TypeError):
            prove_mixed(1, 3)
        with pytest.raises(ValueError):
            parse("0 = 0 mod p^0")


def seeded_series(rng: random.Random, exact: bool) -> MhsSeries:
    """Relation vectors at offsets -1..2 plus a perturbation (constants included)."""
    order = None if exact else rng.randint(0, 6)
    top = 4 if exact else 6  # the moduli reached stay within p^8
    terms: dict = {}
    for _ in range(rng.randint(0, 3)):
        k, m = rng.randint(-1, 2), rng.randint(2, top)
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        for w, a in _relation_coords(*rng.choice(list(_enumerate_triples(m))), m).items():
            terms[(weight(w) - k, w)] = terms.get((weight(w) - k, w), 0) + c * a
    if exact or rng.random() < 0.8:
        key = (rng.randint(-1, top - 2), rng.choice(enumerate_compositions(3)))
        terms[key] = terms.get(key, 0) + rng.randint(1, 5)
    return MhsSeries({key: c for key, c in terms.items() if c}, order)


def proof_scan_valuation(series: MhsSeries, cache_dir) -> int:
    """The largest n <= order whose statement proves part by part; for an
    exact series, the last n before the first failure scanning upward."""
    if series.order is not None:
        return max(
            n
            for n in range(series.order + 1)
            if n == 0
            or all_proved(prove_mixed(series.truncate(n), n, cache_dir))
        )
    n = max(series.min_valuation(), 0)
    while all_proved(prove_mixed(series, n + 1, cache_dir)):
        n += 1
    return n


class TestProvableValuation:
    def test_matches_proof_scan(self, basis_cache):
        rng = random.Random(18)
        answers = []
        for i in range(60):
            series = seeded_series(rng, exact=i % 3 == 0)
            v = provable_valuation(series, basis_cache)
            assert v == proof_scan_valuation(series, basis_cache), series.render()
            answers.append(v)
        assert len(set(answers)) >= 5

    @pytest.mark.parametrize(
        "terms,order,answer,orders,moduli",
        [
            # MIXED_BUNDLE, proved mod p^4, plus p^4, which is not
            (MIXED_BUNDLE | {(4, ()): F(1)}, 5, 4, [5], [5, 4]),
            # exact: the first form that keeps a term is at order 4
            ({(1, (1,)): F(1)}, None, 3, [2, 3, 4], [3]),
        ],
    )
    def test_express_runs_only_at_the_answer(
        self, basis_cache, monkeypatch, terms, order, answer, orders, moduli
    ):
        forms, expressed, express = [], [], RelationBasis.express

        def spy(basis, coords):
            expressed.append(basis.modulus_power)
            return express(basis, coords)

        def spy_canonicalize(series, order, **kwargs):
            forms.append(order)
            return canonicalize(series, order, **kwargs)

        monkeypatch.setattr(RelationBasis, "express", spy)
        canonicalize = prover.canonicalize
        monkeypatch.setattr(prover, "canonicalize", spy_canonicalize)
        series = MhsSeries(terms, order)
        assert provable_valuation(series, basis_cache) == answer
        assert forms == orders
        assert expressed == moduli

    def test_zero_series_with_order(self, basis_cache):
        assert provable_valuation(MhsSeries.zero(5), basis_cache) == 5

    def test_exact_zero(self, basis_cache):
        assert provable_valuation(MhsSeries.zero(None), basis_cache) is INFINITY

    def test_wolstenholme_series(self, basis_cache):
        series = MhsSeries({(1, (1,)): F(1), (2, (1, 1)): F(1)}, 4)
        assert provable_valuation(series, basis_cache) == 3

    def test_exact_h1(self, basis_cache):
        series = MhsSeries({(1, (1,)): F(1)}, None)
        assert provable_valuation(series, basis_cache) == 3

    @pytest.mark.parametrize("k,expected", [(100, 100), (2, 2), (0, 0), (-2, 0)])
    def test_exact_monomial_needs_no_scan(self, k, expected):
        # c * p^k has valuation k, read off its constant part at the first order
        series = MhsSeries({(k, ()): F(-7, 3)}, None)
        assert provable_valuation(series) == expected

    @pytest.mark.parametrize(
        "argv,code,out",
        [
            (["valuation", "p^100"], 0, "100\n"),
            (
                ["prove", "1 = 0 mod p^2"],
                1,
                "UNPROVEN: 1 = 0 mod p^2\n  part modulus p^2: unproven (0 relation(s))\n",
            ),
        ],
    )
    def test_constant_part_needs_no_basis(
        self, basis_cache, monkeypatch, capsys, argv, code, out
    ):
        # no relation has a coordinate at the empty composition
        calls = count_calls(monkeypatch, "generate_relations")
        assert main(argv + ["--cache-dir", str(basis_cache)]) == code
        assert capsys.readouterr().out == out
        assert calls == []

    def test_wc_series(self, basis_cache):
        terms = {(k, (1,) * k): F(6 * 2**k - 18) for k in range(1, 6)}
        terms[(3, (3,))] = F(-24)
        series = MhsSeries(terms, 6)
        assert provable_valuation(series, basis_cache) == 6


class TestCertificates:
    def test_dump_and_verify_roundtrip(self, basis_cache):
        coeffs = {(1,): 1, (1, 1): 1}
        cert = prove_weighted(wpart(coeffs, 3), 3, basis_cache)
        text = dump_certificates([cert])
        ok, message = verify_certificate_text(text)
        assert ok, message
        assert "part(s) exactly" in message

    def test_combination_line_shape(self, basis_cache):
        cert = prove_weighted(wpart({(1,): 1, (1, 1): 1}, 3), 3, basis_cache)
        text = dump_certificates([cert])
        import re

        entries = [
            ln
            for ln in text.splitlines()
            if re.fullmatch(r"-?\d+(/\d+)? \* R\[s=\(.*\);t=\(.*\);u=\(.*\)\]", ln)
        ]
        assert len(entries) == len(cert.combination) > 0

    def test_mixed_bundle_roundtrip(self, basis_cache):
        series = MhsSeries(MIXED_BUNDLE, 4)
        certs = prove_mixed(series, 4, basis_cache)
        ok, message = verify_certificate_text(dump_certificates(certs))
        assert ok, message

    def test_tampered_certificate_fails(self, basis_cache):
        cert = prove_weighted(wpart({(1,): 1, (1, 1): 1}, 3), 3, basis_cache)
        (prov0, mult0), *rest = cert.combination
        bad = ProofCertificate(
            cert.modulus_power, cert.verdict, cert.statement, cert.coords,
            [(prov0, mult0 + 1)] + rest,
        )
        assert not replay_certificate(bad)
        ok, message = verify_certificate_text(dump_certificates([bad]))
        assert not ok
        assert "does not reproduce" in message

    def test_unproven_certificate_rejected(self, basis_cache):
        cert = prove_weighted(wpart({(1,): 1}, 4), 4, basis_cache)
        assert cert.verdict == "unproven"
        ok, message = verify_certificate_text(dump_certificates([cert]))
        assert not ok
        assert "unproven" in message

    def test_malformed_text_raises(self):
        with pytest.raises(ValueError):
            verify_certificate_text("padicmhs-certificate 999\nparts 0\n")
        with pytest.raises(ValueError):
            verify_certificate_text("padicmhs-certificate 1\nparts 1\npart 1\n")
        with pytest.raises(ValueError):
            verify_certificate_text("not a certificate at all\n")

    @staticmethod
    def h1_part(verdict, combination=()):
        """A part for h_p(1) == 0 mod p^2 with the given verdict and combination."""
        return ProofCertificate(2, verdict, "p * H(1) = 0 mod p^2", {(1,): 1}, combination)

    def test_certificate_validation(self):
        with pytest.raises(ValueError, match="unknown verdict 'maybe'"):
            self.h1_part("maybe")
        with pytest.raises(ValueError):
            self.h1_part("unproven", [(((1,), (1,), ()), F(1))])

    @pytest.mark.parametrize("prov", [(("x",), (1,), ()), ((), (), ()), ((1,), (1,))])
    def test_certificate_provenance_checked(self, prov):
        with pytest.raises(ValueError):
            self.h1_part("proved", [(prov, F(1))])

    @pytest.mark.parametrize(
        "text",
        [
            "p*H(1) + p^2*H(1,1) = 0 mod p^3",  # one proved part
            "H(1) = 0 mod p^3",  # one unproven part
            "1 + H(1) - H(1) = 1 mod p^2",  # the zero statement
            CS2,  # three proved parts
        ],
        ids=["proved", "unproven", "zero", "cs2"],
    )
    def test_dump_parses_back_into_equal_records(self, basis_cache, text):
        series, n = eval_statement(parse(text), basis_cache, None)
        certs = prove_mixed(series, n, basis_cache)
        text = dump_certificates(certs)
        parsed = certificate._parse_certificates(text)
        assert parsed == certs
        assert dump_certificates(parsed) == text
        assert [replay_certificate(c) for c in parsed] == [c.verdict == "proved" for c in certs]

    def test_unproven_part_with_combination_is_malformed(self, basis_cache):
        cert = prove_weighted(wpart({(1,): 1, (1, 1): 1}, 3), 3, basis_cache)
        text = dump_certificates([cert]).replace("verdict proved", "verdict unproven")
        with pytest.raises(ValueError, match="cannot carry a combination"):
            verify_certificate_text(text)

    def test_relation_outside_modulus_fails_both_replays(self):
        # weight(s) + weight(t) + weight(u) = 2 is not below the modulus power 2
        cert = self.h1_part("proved", [(((1,), (1,), ()), F(1))])
        assert replay_certificate(cert) is False
        ok, message = verify_certificate_text(dump_certificates([cert]))
        assert not ok
        assert message == "part 1 references a relation outside modulus power 2"


class TestMonotonicity:
    def test_wc_truncations_all_prove(self, basis_cache):
        terms = {(k, (1,) * k): F(6 * 2**k - 18) for k in range(1, 6)}
        terms[(3, (3,))] = F(-24)
        series = MhsSeries(terms, 6)
        for m in range(1, 7):
            assert all_proved(prove_mixed(series.truncate(m), m, basis_cache)), m
