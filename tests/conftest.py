from __future__ import annotations

import signal
import sys
from dataclasses import fields
from functools import cached_property
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flowinv.diagram import IN, OUT, Saddle, SaddleDiagram, Separatrix
from flowinv.graph import AnnulusEdge, Attachment, InvariantPair, VertexNode

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def own_state(cls) -> set:
    """The instance-dict keys of a model dataclass of its own: its fields
    and its cached properties."""
    return ({f.name for f in fields(cls)}
            | {name for name, value in vars(cls).items()
               if isinstance(value, cached_property)})


def counting_runs(monkeypatch, name: str) -> list:
    """From now on, list every pair whose cached property ``name`` runs
    its body."""
    body = InvariantPair.__dict__[name].func
    ran = []

    def counting(self):
        ran.append(self)  # keeps each object alive, so ids stay unique
        return body(self)

    prop = cached_property(counting)
    prop.__set_name__(InvariantPair, name)
    monkeypatch.setattr(InvariantPair, name, prop)
    return ran


def within_budget(fn, *args, seconds: float = 10.0, **kwargs):
    """``fn(*args, **kwargs)``, failing the test if the call runs over ``seconds``.

    A real-time interval timer interrupts the call, so a search that
    would run for hours fails instead of hanging the suite.  Uses SIGALRM:
    POSIX, main thread only.  The failure is raised after the call has
    unwound: an interrupted frame can have no line number, and pytest
    cannot report a traceback through it.
    """
    def expire(signum, frame):
        raise _OverBudget

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args, **kwargs)
    except _OverBudget:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pytest.fail(f"{fn.__name__} ran over its {seconds:g} s budget")


class _OverBudget(Exception):
    """Raised into a call that ``within_budget`` interrupts."""


def eight_diagram(aligned: bool = False) -> SaddleDiagram:
    """One 1-saddle with two homoclinic loops.

    The default rotation (a out, a in, b out, b in) is the lemniscate:
    loops on opposite sides.  ``aligned`` gives the rotation
    (a out, b in, b out, a in) whose loops run the same way.
    """
    if aligned:
        rotation = (("a", OUT), ("b", IN), ("b", OUT), ("a", IN))
    else:
        rotation = (("a", OUT), ("a", IN), ("b", OUT), ("b", IN))
    return SaddleDiagram(
        (Saddle("s", 1, rotation),),
        (Separatrix("a", "s", "s"), Separatrix("b", "s", "s")),
    )


def loop_diagram() -> SaddleDiagram:
    """A single homoclinic loop at a 0-saddle."""
    return SaddleDiagram(
        (Saddle("s", 0, (("a", OUT), ("a", IN))),),
        (Separatrix("a", "s", "s"),),
    )


def sphere_rotation() -> InvariantPair:
    return InvariantPair(
        SaddleDiagram.empty(),
        (VertexNode("c1", "c"), VertexNode("c2", "c")),
        (AnnulusEdge("u", Attachment("c1"), Attachment("c2")),),
    )


def torus_pair() -> InvariantPair:
    return InvariantPair(SaddleDiagram.empty(), (), (), 1)


def leaf_pair(kind1: str, kind2: str) -> InvariantPair:
    """One annulus joining two fresh leaf vertices."""
    return InvariantPair(
        SaddleDiagram.empty(),
        (VertexNode("v1", kind1), VertexNode("v2", kind2)),
        (AnnulusEdge("u", Attachment("v1"), Attachment("v2")),),
    )


def three_centers_eight(x_label: str = "c") -> InvariantPair:
    """The sphere flow with three centers around a figure-eight.

    Face 1 is the outer circle (runs with the flow); faces 0 and 2 are
    the loop interiors.  ``x_label`` replaces the outer center's disk by
    a Möbius collar ("n") or a boundary circle ("b").
    """
    return InvariantPair(
        eight_diagram(),
        (VertexNode("p", "d", "s"), VertexNode("x", x_label),
         VertexNode("y", "c"), VertexNode("z", "c")),
        (AnnulusEdge("ux", Attachment("p", 1), Attachment("x")),
         AnnulusEdge("uy", Attachment("y"), Attachment("p", 0)),
         AnnulusEdge("uz", Attachment("z"), Attachment("p", 2))),
    )


def eight_torus_pair() -> InvariantPair:
    """Genus-one model: one center, the eight, a loop annulus over two faces."""
    return InvariantPair(
        eight_diagram(),
        (VertexNode("p", "d", "s"), VertexNode("x", "c")),
        (AnnulusEdge("u0", Attachment("x"), Attachment("p", 1)),
         AnnulusEdge("u1", Attachment("p", 0), Attachment("p", 2))),
    )


def disk_flow(aligned: bool) -> InvariantPair:
    """A disk flow around a figure-eight: two centers and a boundary circle.

    With ``aligned`` the eight's loops run the same way; the boundary
    always takes the length-two face.
    """
    outer = 0 if aligned else 1
    inner = (1, 2) if aligned else (0, 2)
    return InvariantPair(
        eight_diagram(aligned),
        (VertexNode("p", "d", "s"), VertexNode("c1", "c"),
         VertexNode("c2", "c"), VertexNode("rim", "b")),
        (AnnulusEdge("u0", Attachment("p", outer), Attachment("rim")),
         AnnulusEdge("u1", Attachment("c1"), Attachment("p", inner[0])),
         AnnulusEdge("u2", Attachment("c2"), Attachment("p", inner[1]))),
    )


@pytest.fixture
def sphere():
    return sphere_rotation()


@pytest.fixture
def three_eight():
    return three_centers_eight()
