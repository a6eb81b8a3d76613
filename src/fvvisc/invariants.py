"""Solver-free invariants of the discretization.

Each check raises AssertionError, with a message, when its invariant does
not hold.  ``CHECKS`` names them in the order ``fvvisc selftest`` prints
them; the acceptance suite runs the same checks as its criteria 4 (forcing
oracle) and 5 (property suite).  A check that runs two input sets asserts
each set's own tolerance.
"""

from __future__ import annotations

import numpy as np

from . import mesh, ns3d, physics, recon
from .recon import Strategy

ARITHMETIC = Strategy("arithmetic")


def _mesh():
    return mesh.generate_tet_mesh(3, perturbation=0.2, seed=4)


def geometric_closure():
    r = float(np.max(mesh.closure_residual(_mesh())))
    assert r < 1e-12, f"closure residual {r:.3e}"


def volume_partition():
    total = _mesh().cell_volume.sum()
    assert abs(total - 0.5 ** 3) < 1e-12 * 0.5 ** 3, f"volume sum {total!r}"


def lsq_gradient_linear_exactness():
    m = _mesh()
    coef = np.array([0.7, -1.3, 2.1])
    phi = m.cell_centroid @ coef + 0.4
    g = recon.lsq_gradient_3d(m, phi)
    err = np.abs(g.T - coef).max()
    assert err < 1e-12, f"gradient error {err:.3e}"


def roe_flux_consistency():
    """Roe flux of two equal states is the exact normal flux: one fixed
    state to 1e-13 absolute, 32 random states to 1e-13 of the largest flux."""
    w = np.array([[1.05, 0.3, 0.2, 0.1, 1.1]])
    nhat = np.array([[0.6, 0.64, 0.48]])
    err, _ = _roe_error(w, nhat / np.linalg.norm(nhat))
    assert err < 1e-13, f"roe consistency error {err:.3e}"
    rng = np.random.default_rng(77)
    w = np.column_stack([rng.uniform(lo, hi, 32) for lo, hi in
                         ((0.8, 1.2), (-0.3, 0.3), (-0.3, 0.3), (-0.3, 0.3),
                          (0.8, 1.2))])
    nhat = rng.normal(size=(32, 3))
    err, scale = _roe_error(
        w, nhat / np.linalg.norm(nhat, axis=1, keepdims=True))
    assert err / scale < 1e-13, \
        f"roe consistency relative error {err / scale:.3e} over 32 states"


def _roe_error(w, nhat):
    # (N, 5) states and (N, 3) normals, passed to the flux kernels as rows
    w, nhat = w.T, nhat.T
    exact = physics.inviscid_normal_flux(w, nhat)
    err = np.abs(physics.roe_flux(w, w, nhat) - exact).max()
    return err, np.abs(exact).max()


def free_stream_preservation():
    m = _mesh()
    problem = ns3d.NS3DProblem(m, ARITHMETIC)
    w = np.tile([1.0, 0.3, 0.2, 0.1, 1.0], (m.n_cells, 1))
    res = ns3d.residual_ns3d(problem, w, include_forcing=False)
    err = np.abs(res).max()
    assert err < 1e-13, f"free-stream residual {err:.3e}"


def _face_values(strategy, seed, x_f):
    """Face values for the fixed face (2, 3 | 2.4, 2.6) followed by 64
    random ones, with cell centers 0 and 1."""
    rng = np.random.default_rng(seed)
    t = np.column_stack([[2.0, 3.0, 2.4, 2.6], rng.uniform(0.5, 2.0, (4, 64))])
    return recon.face_scalar(strategy, *t, x_f, 1.0 - x_f)


def weighted_half_equals_arithmetic():
    diff = np.abs(_face_values(Strategy("weighted", 0.5), 5, 0.45)
                  - _face_values(ARITHMETIC, 5, 0.45)).max()
    assert diff < 1e-15, f"|weighted(0.5) - arithmetic| = {diff}"


def inverse_distance_equal_spacing_equals_arithmetic():
    diff = np.abs(_face_values(Strategy("inverse-distance"), 6, 0.5)
                  - _face_values(ARITHMETIC, 6, 0.5)).max()
    assert diff < 1e-15, f"|idw - arithmetic| = {diff}"


def arithmetic_boundedness():
    """Arithmetic face values are positive and lie between the two cell
    values: within 1e-15 for 64 pairs in [0.5, 2], exactly for 256 pairs
    in [0.1, 3]."""
    for seed, lo, hi, n, slack in ((11, 0.5, 2.0, 64, 1e-15),
                                   (7, 0.1, 3.0, 256, 0.0)):
        t_j, t_k = np.random.default_rng(seed).uniform(lo, hi, (2, n))
        f = recon.face_scalar(ARITHMETIC, t_j, t_k, t_j, t_k)
        assert np.all((f >= np.minimum(t_j, t_k) - slack)
                      & (f <= np.maximum(t_j, t_k) + slack)), \
            f"arithmetic average out of bounds (seed {seed})"
        assert np.all(f > 0.0), "arithmetic average not positive"


def sutherland_reference_viscosity():
    mu = physics.sutherland_viscosity(np.array([1.0]))[0]
    expect = physics.MACH / physics.REYNOLDS
    assert mu == expect, f"mu(1) = {mu!r}, expected {expect!r}"


def forcing_matches_flux_divergence():
    """The closed-form MMS forcing against a 4th-order finite-difference
    divergence of the composed flux, at 20 and at 100 random points."""
    for seed, n in ((23, 20), (2024, 100)):
        pts = np.random.default_rng(seed).uniform(0.05, 0.45, (n, 3))
        f = ns3d.mms_forcing(pts)
        rel = np.abs(f - _fd_flux_divergence(pts)).max() / np.abs(f).max()
        assert rel < 1e-7, f"forcing relative error {rel:.3e} at {n} points"


def _fd_flux_divergence(pts, h=1e-3):
    div = np.zeros((len(pts), 5))
    for d in range(3):
        for s, c in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
            q = pts.copy()
            q[:, d] += s * h
            div += c / (12.0 * h) * ns3d.mms_total_flux(q)[:, d, :]
    return div


CHECKS = [
    ("geometric closure", geometric_closure),
    ("volume partition", volume_partition),
    ("lsq gradient linear exactness", lsq_gradient_linear_exactness),
    ("roe flux consistency", roe_flux_consistency),
    ("free-stream preservation", free_stream_preservation),
    ("weighted(0.5) equals arithmetic", weighted_half_equals_arithmetic),
    ("inverse-distance equal-spacing equals arithmetic",
     inverse_distance_equal_spacing_equals_arithmetic),
    ("arithmetic average boundedness", arithmetic_boundedness),
    ("sutherland reference viscosity", sutherland_reference_viscosity),
    ("forcing matches flux divergence", forcing_matches_flux_divergence),
]
