"""The trusted base of a "proved" verdict: the certificate module and what it imports."""

import ast
import copy
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padicmhs
from padicmhs.certificate import ProofCertificate
from padicmhs.cli import main

PACKAGE = Path(padicmhs.__file__).parent

CB = "12 - 9*binp(2,1,1) + 2*binp(3,1,1) = 24*p^3*H(3) mod p^6"

#: A fresh interpreter's replay of the certificate file argv[1]: it prints the
#: verdict and then the package modules that the replay loaded.
REPLAY_ALONE = """
import sys
from padicmhs.certificate import verify_certificate_text
with open(sys.argv[1]) as f:
    print(verify_certificate_text(f.read()))
print(sorted(m for m in sys.modules if m.partition(".")[0] == "padicmhs"))
"""


def imports_of(name: str) -> tuple[set[str], set[str]]:
    """The in-package modules and the other top-level modules that ``name`` imports."""
    inside, outside = set(), set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            inside.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            outside.update(a.name.partition(".")[0] for a in node.names)
    return inside, outside


def test_trusted_base_is_certificate_and_compositions():
    # an absolute import of the package lands in ``outside`` and fails there
    closure, todo = set(), ["certificate"]
    while todo:
        name = todo.pop()
        if name not in closure:
            closure.add(name)
            inside, outside = imports_of(name)
            assert outside <= set(sys.stdlib_module_names), (name, outside)
            todo.extend(inside)
    assert closure == {"certificate", "compositions"}
    # 525 lines now: far below the engine it would grow to by importing prover (about 1,900)
    lines = sum(len((PACKAGE / f"{name}.py").read_text().splitlines()) for name in closure)
    assert lines <= 540


def test_trusted_core_replays_alone(tmp_path):
    cert = tmp_path / "cb.cert"
    assert main(["prove", CB, "--dump", str(cert), "--cache-dir", str(tmp_path)]) == 0
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", REPLAY_ALONE, str(cert)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.splitlines() == [
        "(True, 'replayed 1 part(s) exactly')",
        "['padicmhs', 'padicmhs.certificate', 'padicmhs.compositions']",
    ]


def test_cli_verify_certificate_loads_only_the_core(tmp_path):
    # ``-X importtime`` lists on stderr every module the command imports
    cert = tmp_path / "cb.cert"
    assert main(["prove", CB, "--dump", str(cert), "--cache-dir", str(tmp_path)]) == 0
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "padicmhs.cli", "verify-certificate", str(cert)],
        env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stdout) == (0, "replayed 1 part(s) exactly\n")
    loaded = {line.rpartition("|")[2].strip() for line in run.stderr.splitlines()}
    assert "padicmhs.certificate" in loaded
    engine = {"padicmhs." + m for m in ("prover", "expansions", "powersums", "oracle", "series")}
    assert not loaded & engine


def test_certificate_record_is_an_immutable_value():
    prov = ((), (1,), ())
    a = ProofCertificate(2, "proved", "s", {(1,): 1, (): 2}, [(prov, 1)])
    b = ProofCertificate(2, "proved", "s", [((), Fraction(2)), ((1,), 1)], [(prov, Fraction(1))])
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.coords == (((), Fraction(2)), ((1,), Fraction(1)))
    assert a != ProofCertificate(3, "proved", "s", {(1,): 1, (): 2}, [(prov, 1)])
    assert copy.deepcopy(a) == a
    with pytest.raises(AttributeError):
        a.verdict = "unproven"
    with pytest.raises(AttributeError):
        del a.coords
    with pytest.raises(ValueError, match="unknown verdict"):
        ProofCertificate(2, "maybe", "s", {})
    with pytest.raises(ValueError, match="cannot carry a combination"):
        ProofCertificate(2, "unproven", "s", {}, [(prov, 1)])
    with pytest.raises(ValueError, match="provenance"):
        ProofCertificate(2, "proved", "s", {}, [(((), (), ()), 1)])
