import pytest

from perihall.periodic import paths_from
from perihall.quiver import Arrow, Quiver, line_quiver


def test_line_quiver_shape():
    q = line_quiver(3)
    assert q.vertices == ("1", "2", "3")
    assert [a.name for a in q.arrows] == ["a1", "a2"]


def test_cycle_rejected():
    with pytest.raises(ValueError):
        Quiver(["x", "y"], [Arrow("f", "x", "y"), Arrow("g", "y", "x")])


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Quiver(["x", "x"], [])
    with pytest.raises(ValueError):
        Quiver(["x", "y"], [Arrow("f", "x", "y"), Arrow("f", "x", "y")])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Quiver(["x"], [Arrow("f", "x", "y")]), "arrow f touches unknown vertex"),
        (lambda: line_quiver(0), "need at least one vertex"),
    ],
    ids=["unknown-vertex", "no-vertex"],
)
def test_quiver_inputs_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_paths_from():
    q = line_quiver(3)
    paths = paths_from(q, "1")
    assert len(paths) == 3  # e, a1, a1 a2
    assert paths[0] == ()
    assert [a.name for a in paths[2]] == ["a1", "a2"]
    assert paths_from(q, "3") == [()]


def test_euler_form():
    q = line_quiver(2)
    assert q.euler_form((1, 0), (0, 1)) == -1
    assert q.euler_form((0, 1), (1, 0)) == 0
    assert q.euler_form((1, 1), (1, 1)) == 1
