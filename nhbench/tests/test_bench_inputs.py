import json

import numpy as np
import pytest
from nhdyn.gamma import gamma_context, gamma_symmetry_basis
from nhdyn.fermions import build_dm_model

import inputs
from workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_deterministic_per_seed(tmp_path, name):
    w = WORKLOADS[name]

    def inputs_of(seed, j):
        job = w.make(seed, j, tmp_path)
        if hasattr(job, "config"):
            return json.dumps(job.config)
        return json.dumps([np.asarray(a).tolist() for a in (job.built.h.view(float), job.psi0.view(float))])

    for j in range(min(w.period, 3)):
        assert inputs_of(7, j) == inputs_of(7, j)
        assert inputs_of(7, j) != inputs_of(8, j)


def test_jordan_kind_is_defective():
    built = inputs.build_hamiltonian("jordan", 8, inputs.job_rng(3, 0))
    assert not built.diagonalizable
    _, vectors = np.linalg.eig(built.h)
    assert np.linalg.cond(vectors / np.linalg.norm(vectors, axis=0)) > 1e6


@pytest.mark.parametrize(
    "kind, expected",
    [("hermitian", 8), ("real", 8), ("conj_closed", 8), ("generic_complex", 0), ("jordan", 8)],
)
def test_kinds_have_the_symmetry_dimension_they_claim(kind, expected):
    built = inputs.build_hamiltonian(kind, 8, inputs.job_rng(5, 1))
    assert built.symmetry_dimension == expected
    basis = gamma_symmetry_basis(gamma_context(built.h))
    assert len(basis.generators) == expected


def test_fermion_symmetry_dimension_matches_the_library():
    assert inputs.fermion_symmetry_dimension() == 40
    for lam, mu in ((0.5, 2.0), (1.3, 0.7)):
        basis = gamma_symmetry_basis(gamma_context(build_dm_model(lam, mu).h))
        assert len(basis.generators) == 40


def test_fermion_closed_form_starts_from_the_label():
    t = np.array([0.0])
    assert [float(x[0]) for x in inputs.fermion_occupations(1.0, 2.0, "011", t)] == [0.0, 1.0, 1.0]
    assert [float(x[0]) for x in inputs.fermion_occupations(1.0, 2.0, "010", t)] == [0.0, 1.0, 0.0]
