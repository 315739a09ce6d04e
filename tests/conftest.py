import pytest

from subadd import surface as sf
from subadd import toric as tc


@pytest.fixture(scope="session")
def a1_blown() -> sf.ResolutionModel:
    """Quadric cone (one -2 curve) blown up once at a point of F."""
    return sf.build_model([("F", -2, sf.EXCEPTIONAL)], [], [("E1", ["F"])])


@pytest.fixture(scope="session")
def chain_3215() -> sf.ResolutionModel:
    """The -3,-2,-1,-5 chain from two blowups over a -2/-3 pair."""
    return sf.build_model(
        [("F1", -2, sf.EXCEPTIONAL), ("F2", -3, sf.EXCEPTIONAL)],
        [("F1", "F2")],
        [("E1", ["F1", "F2"]), ("E2", ["E1", "F2"])],
    )


@pytest.fixture(scope="session")
def q41_ring() -> tc.ToricRing:
    return tc.cyclic_quotient_ring(41, (35, 28, 20))


@pytest.fixture(scope="session")
def q41_ideal(q41_ring) -> tc.MonomialIdeal:
    return tc.MonomialIdeal(
        q41_ring,
        [(410, 0, 0), (0, 410, 0), (0, 0, 410), (8, 1, 1), (4, 6, 1), (4, 1, 8)],
    )


@pytest.fixture
def break_engine(monkeypatch):
    """Patch the engine (uncached) to corrupt its first row on the q41
    ring: "shifted" adds e_1, which leaves the lattice; "negative"
    subtracts a multiple of 41 e_1, which stays in the lattice but goes
    below zero."""

    def apply(fault: str) -> None:
        honest = tc._box_minimal_impl.__wrapped__

        def engine(*args):
            rows = honest(*args).copy()
            if fault == "shifted":
                rows[0, 0] += 1
            else:
                rows[0, 0] -= 41 * (rows[0, 0] // 41 + 1)
            return rows

        monkeypatch.setattr(tc, "_box_minimal_impl", engine)

    return apply
