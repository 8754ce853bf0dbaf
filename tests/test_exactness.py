import hashlib
import importlib.util
import json
import os
import subprocess
import sys
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
# count, aut order or object order changes one of them, and the order in
# which the engine lists cones does not
PINNED = {
    "A1 p=2": "6c236c46aab2653a",
    "A1 p=3": "421536b569b813d5",
    "A2 p=2": "15388d0018dda9f5",
    "A2 p=3": "9b647ae8e2284ca5",
    "A3 p=2": "937dd7041c0c0167",
    "A2 p=2 bound (2,2)": "e80fb0aa60533189",
    "A2 p=3 t=5": "d28614f9f9820ae4",
    "A2 p=2 t=7": "3f308173b748c487",
}


def test_standard_scope_digests_are_pinned(exactness):
    assert [scope[0] for scope in exactness.SCOPES] == list(PINNED)
    for name, *scope in exactness.SCOPES:
        blob = json.dumps(exactness.digest_scope(*scope), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == PINNED[name], name


def test_hard_scope_reaches_the_largest_builds(exactness):
    # every hard pair lies in A2 p=3 bound (2,2) at t = 3 and within the
    # cap, hom_dim(y[-1], x) runs from 8 to 11 in order, and the pairs
    # whose active parts repeat one part are at least two
    name, n, p, t, pairs = exactness.HARD
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t)
    canon = exactness.Canon(pctx)
    listed = {canon.key(k): k for k in pctx.objects((2, 2))}
    dims, repeated = [], 0
    for x, y in pairs:
        x, ys = listed[x], pctx.shift_key(listed[y], -1)
        dims.append(pctx.hom_dim(ys, x))
        on_y = [a for a in ys if any(pctx._part_hom(a, b) for b in x)]
        on_x = [b for b in x if any(pctx._part_hom(a, b) for a in ys)]
        repeated += any(side.count(part) > 1 for side in (on_y, on_x) for part in side)
    assert dims == sorted(dims) and (dims[0], dims[-1]) == (8, 11)
    assert p ** dims[-1] <= pctx.ctx.enum_cap
    assert repeated >= 2


def test_a_slice_of_the_hard_scope_is_pinned(exactness):
    # the first five hard pairs, hom_dim 8 and 9; ``--hard`` prints the
    # whole scope's hash, a7a3d79ad9fdd7bd at hom_dim up to 11
    name, n, p, t, pairs = exactness.HARD
    blob = json.dumps(exactness.digest_hard(n, p, t, pairs[:5]), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == "59495999ebb5b78f"


def test_a_fiber_of_the_wrong_mass_stops_the_digest(exactness, monkeypatch):
    # one morphism dropped from one fiber: the tool refuses, naming the pair
    honest = PeriodicContext.fiber_counts

    def short(pctx, x, m):
        counts = honest(pctx, x, m)
        if x == ((0, 2),) and m == ((0, 0),):
            counts[next(iter(counts))] -= 1
        return counts

    monkeypatch.setattr(PeriodicContext, "fiber_counts", short)
    with pytest.raises(SystemExit, match=r"fiber of 1@0 \* 1@0 has 0 morphisms, not q\^hom_dim\(y\[-1\], x\) = 1$"):
        exactness.digest_scope(1, 2, (1,), 8)


def test_the_tool_refuses_a_pythonpath_naming_another_engine(tmp_path):
    # the tool loads the perihall of its own checkout; a PYTHONPATH that
    # names another package is refused before any digest, naming both
    stub = tmp_path / "other" / "src"
    (stub / "perihall").mkdir(parents=True)
    (stub / "perihall" / "__init__.py").write_text("")
    out = tmp_path / "digest.json"
    env = dict(os.environ, PYTHONPATH=str(stub))
    run = subprocess.run([sys.executable, str(TOOL), str(out)], env=env, capture_output=True, text=True, timeout=60)
    own = TOOL.resolve().parent.parent / "src" / "perihall"
    assert run.returncode == 1, run.stderr
    assert run.stderr.splitlines()[0] == f"engine: {own / '__init__.py'}"
    assert str((stub / "perihall").resolve()) in run.stderr and str(own) in run.stderr.splitlines()[1]
    assert run.stdout == "" and not out.exists()


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
