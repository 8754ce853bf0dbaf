import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from perihall.category import PeriodicContext
from perihall.checks import module_key
from perihall.gfp import FieldSpec, MatrixFp
from perihall.hall import HallEngine
from perihall.quiver import Arrow, Quiver, line_quiver
from perihall.reps import Rep, RepContext

TOOL = Path(__file__).resolve().parent.parent / "tools" / "exactness.py"


@pytest.fixture(scope="module")
def exactness():
    spec = importlib.util.spec_from_file_location("exactness", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_a1_p2(exactness):
    digest = exactness.digest_scope(1, 2, (1,), 8)
    assert digest["objects"] == ["0", "1@0", "1@1", "1@2", "1@0+1@1", "1@0+1@2", "1@1+1@2", "1@0+1@1+1@2"]
    assert len(digest["products"]) == len(digest["fibers"]) == 64
    label, terms = digest["products"][9]
    assert label == "1@0 * 1@0"
    assert terms == [["1@0+1@0", "0 3/2"]]  # q^(-1/2) (q + 1), the classical Hall number
    assert digest["aut_orders"]["1@0+1@0"] == 6  # |GL_2(F_2)|
    # a fresh engine writes the same digest
    assert exactness.digest_scope(1, 2, (1,), 8) == digest


# sha256(json.dumps(scope, sort_keys=True))[:16] of each scope's digest,
# as ``tools/exactness.py`` prints it; a changed structure constant, fiber
# dict, aut order or object order changes one of them
PINNED = {
    "A1 p=2": "d2c3326ca1de4e18",
    "A1 p=3": "4f99757549518ab3",
    "A2 p=2": "97982dd5604156aa",
    "A2 p=3": "76f9a62c8c3e7ddf",
    "A3 p=2": "bd1af39f17bdf7c7",
    "A2 p=2 bound (2,2)": "fbf16010387f102e",
}


def test_standard_scope_digests_are_pinned(exactness):
    assert [scope[0] for scope in exactness.SCOPES] == list(PINNED)
    for name, n, p, bound, count in exactness.SCOPES:
        blob = json.dumps(exactness.digest_scope(n, p, bound, count), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == PINNED[name], name


def pbw_digest(exactness, n, p, bound, count):
    """sha256(json.dumps(...))[:16] of ``pbw_expand(x).terms`` for the first
    ``count`` objects of ``bound`` on A_n over F_p, on a fresh engine: each
    term's layers as Canon keys and its coefficient's ``as_pair()``, in
    the expansion's insertion order."""
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)))
    engine = HallEngine(pctx)
    canon = exactness.Canon(pctx)
    out = []
    for x in pctx.enumerate_objects(bound)[:count]:
        terms = engine.pbw_expand(x).terms.items()
        out.append([canon.key(x), [[[canon.key(layer) for layer in fs], "%s %s" % c.as_pair()] for fs, c in terms]])
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16]


def test_pbw_expansions_are_pinned(exactness):
    assert pbw_digest(exactness, 2, 2, (2, 2), 40) == "679fb4257fd5d79a"
    assert pbw_digest(exactness, 1, 3, (1,), None) == "4e0cd2ae96f51ce2"


def test_canon_refuses_shared_dimension_vectors(exactness):
    f2 = FieldSpec(2)
    kronecker = Quiver(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "1", "2")])
    pctx = PeriodicContext(RepContext(kronecker, f2))
    one = MatrixFp(f2, [[1]])
    canon = exactness.Canon(pctx)
    assert canon.key(module_key(pctx, Rep(f2, kronecker, (1, 1), {"a": one}))) == "1,1@0"
    with pytest.raises(AssertionError, match="share dimension vector"):
        canon.key(module_key(pctx, Rep(f2, kronecker, (1, 1), {"b": one})))
