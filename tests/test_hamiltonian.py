import dataclasses
import json

import numpy as np
import pytest

from nmrqc import EOParams, MachineConfig, hamiltonian_at, integrator
from nmrqc.hamiltonian import diagonal_energies

J = -0.43e-6


def test_default_machine_values():
    m = MachineConfig()
    assert m.coupling == pytest.approx(-0.43e-6)
    assert m.h1z == 1.0 and m.h2z == 0.25
    assert m.gamma == pytest.approx(0.25)


def test_ising_only_diagonal():
    eo = EOParams(label="ising", j=J)
    h = hamiltonian_at(eo, 0.3)
    want = np.diag([-J / 4, J / 4, J / 4, -J / 4])
    assert np.allclose(h, want, atol=1e-18)


def test_equal_z_fields_diagonal():
    # equal compensating field h on both spins gives the four phases of
    # the equal-field Ising construction: -J/4 - h, J/4, J/4, -J/4 + h
    hval = 0.37
    eo = EOParams(j=J, h1z=hval, h2z=hval)
    h = hamiltonian_at(eo, 0.0)
    want = np.diag([-J / 4 - hval, J / 4, J / 4, -J / 4 + hval])
    assert np.allclose(h, want, atol=1e-15)


def test_transverse_term_vanishes_at_zero_phase():
    eo = EOParams(sf1y=0.0625, omega=1.0, phi_y=0.0)
    h = hamiltonian_at(eo, 0.0)  # sin(0) = 0
    assert np.allclose(h, 0.0)


def test_hermitian_for_random_parameters():
    rng = np.random.default_rng(3)
    for _ in range(30):
        vals = rng.normal(size=13)
        eo = EOParams(j=vals[0], h1x=vals[1], h1y=vals[2], h1z=vals[3],
                      h2x=vals[4], h2y=vals[5], h2z=vals[6], sf1x=vals[7],
                      sf1y=vals[8], sf2x=vals[9], sf2y=vals[10],
                      omega=abs(vals[11]), phi_x=vals[12])
        t = rng.uniform(0, 50)
        h = hamiltonian_at(eo, t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-14
        # the oracle integrates this Hamiltonian: its block for one
        # substep of length dt at midpoint t is exp(-i dt H(t))
        dt = 0.05
        w, v = np.linalg.eigh(h)
        block = integrator._dense_block(integrator._Drives((integrator._plan(eo),)),
                                        np.array([[t]]), dt)[0]
        assert np.max(np.abs(block - (v * np.exp(-1j * dt * w)) @ v.conj().T)) < 1e-13


def test_time_independent_without_sf():
    eo = EOParams(j=J, h1x=0.3, h2y=0.1, h1z=1.0, h2z=0.25)
    assert np.array_equal(hamiltonian_at(eo, 0.0), hamiltonian_at(eo, 17.3))


def test_linearity_in_each_field():
    # doubling a field parameter doubles its contribution
    base = EOParams()
    for name in ("h1x", "h2z", "sf2y"):
        one = EOParams(**{name: 1.0}, omega=0.7, phi_y=0.4, phi_x=0.4)
        two = EOParams(**{name: 2.0}, omega=0.7, phi_y=0.4, phi_x=0.4)
        t = 1.23
        h0 = hamiltonian_at(base.replace(omega=0.7, phi_x=0.4, phi_y=0.4), t)
        assert np.allclose(hamiltonian_at(two, t) - h0,
                           2 * (hamiltonian_at(one, t) - h0), atol=1e-15)


def test_diagonal_energy_ordering():
    e = diagonal_energies(J, 1.0, 0.25)
    assert e[0] == pytest.approx(-J / 4 - 0.625)
    assert e[1] == pytest.approx(J / 4 + 0.375)
    assert e[2] == pytest.approx(J / 4 - 0.375)
    assert e[3] == pytest.approx(-J / 4 + 0.625)


def test_eoparams_json_round_trip():
    eo = EOParams(label="pulse", tau=8.0, j=J, h1z=1.0, h2z=0.25,
                  sf1x=0.03125, sf1y=0.03125, sf2x=0.0078125, sf2y=0.0078125,
                  omega=1.0, phi_x=0.0, phi_y=np.pi / 2, delta=0.01)
    assert EOParams(**json.loads(json.dumps(dataclasses.asdict(eo)))) == eo


def test_eoparams_hash_follows_equality():
    """The hash is computed once, from the fields alone, and a copy or an
    unpickled EO (rebuilt, not given the stored hash) hashes alike."""
    import copy
    import pickle
    eo = EOParams(label="pulse", tau=8.0, sf1x=0.03125, omega=1.0)
    for twin in (EOParams(*dataclasses.astuple(eo)), eo.replace(tau=8.0),
                 copy.deepcopy(eo), pickle.loads(pickle.dumps(eo))):
        assert twin == eo and hash(twin) == hash(eo)
    assert dataclasses.astuple(eo) == dataclasses.astuple(pickle.loads(pickle.dumps(eo)))
    assert hash(eo.replace(tau=8.5)) != hash(eo)


def test_replace_is_dataclasses_replace():
    """replace copies the field dict and rehashes; the EO it gives has
    the fields, the vars() order, the hash and the equality that
    dataclasses.replace gives, and survives a pickle round trip.  An
    unknown field, the stored hash among them, is a TypeError."""
    import dataclasses
    import pickle
    eo = EOParams(label="pulse", tau=8.0, j=J, sf1x=0.03125, sf1y=0.03125,
                  omega=1.0, phi_y=np.pi / 2)
    for change in ({}, {"tau": 8.5}, {"label": "z-class", "sf1x": 0.5, "phi_y": 0.0},
                   {"delta": 0.02, "j": 0.0}, {"sf2y": 1}):
        got, want = eo.replace(**change), dataclasses.replace(eo, **change)
        assert type(got) is EOParams and got is not eo
        assert list(vars(got).items()) == list(vars(want).items())
        assert got == want and hash(got) == hash(want)
        assert pickle.loads(pickle.dumps(got)) == want
        assert (got == eo) == (not change)
    for bad in ({"nope": 1.0}, {"_hash": 0}, {"tau": 9.0, "Tau": 9.0}):
        with pytest.raises(TypeError):
            dataclasses.replace(eo, **bad)
        with pytest.raises(TypeError):
            eo.replace(**bad)


def test_is_diagonal_flag():
    assert EOParams(j=J, h1z=1.0, h2z=0.25).is_diagonal
    assert not EOParams(sf1x=0.1).is_diagonal
    assert not EOParams(h2y=0.1).is_diagonal


def test_is_rotating_flag():
    eo = EOParams(h1z=1.0, h2z=0.25, sf1x=0.1, sf1y=0.1, sf2x=0.025,
                  sf2y=0.025, omega=1.0, phi_x=-np.pi / 2, phi_y=0.0)
    assert eo.is_rotating
    assert eo.replace(phi_x=0.0, phi_y=np.pi / 2).is_rotating
    for near_miss in (dict(omega=0.0), dict(h1x=1e-9), dict(h2y=1e-9),
                      dict(sf1y=0.1000001), dict(sf2x=0.0),
                      dict(phi_x=np.pi / 2),             # turns the other way
                      dict(phi_y=1e-15)):
        assert not eo.replace(**near_miss).is_rotating, near_miss
