"""The per-variable face kernels and the sparse residual assembly against
variables-last oracles.

``physics.roe_flux``, ``physics.viscous_normal_flux``,
``recon.reconstruct_lr`` and ``recon.alpha_damped_face_gradient`` take and
return per-variable rows, and ``ns3d.residual_ns3d`` sums the face fluxes
into the cells with one sparse product.  The oracles below are the earlier
variables-last kernels and the ``np.add.at`` assembly, kept here as test
code only; the kernels' inputs and outputs are moved between the two
layouts by transposes.  The arithmetic is regrouped, so the comparison uses
a tolerance fixed in float64 units before comparing: 64 eps of the largest
oracle value.
"""

import numpy as np
import pytest

from fvvisc import mesh, ns3d, physics, recon
from fvvisc.recon import STRATEGY_TAGS, Strategy

EPS = np.finfo(float).eps
TOL = 64 * EPS


# --- oracles: the variables-last kernels and the np.add.at assembly --------

def _pressure(w):
    return w[..., 0] * w[..., 4] / physics.GAMMA


def _reference_inviscid_normal_flux(w, nhat):
    g = physics.GAMMA
    rho = w[..., 0]
    vel = w[..., 1:4]
    p = _pressure(w)
    vn = np.einsum("...d,...d->...", vel, nhat)
    q2 = np.sum(vel ** 2, axis=-1)
    h_tot = w[..., 4] / (g - 1.0) + 0.5 * q2
    flux = np.empty(w.shape)
    flux[..., 0] = rho * vn
    flux[..., 1:4] = (rho * vn)[..., None] * vel + p[..., None] * nhat
    flux[..., 4] = rho * vn * h_tot
    return flux


def _entropy_fix(lam, delta):
    a = np.abs(lam)
    return np.where(a < delta, (lam * lam + delta * delta) / (2.0 * delta), a)


def _roe_averages(w_l, w_r, nhat):
    """Roe-averaged normal velocity and sound speed."""
    g = physics.GAMMA
    rho_l, rho_r = w_l[..., 0], w_r[..., 0]
    vel_l, vel_r = w_l[..., 1:4], w_r[..., 1:4]
    h_l = w_l[..., 4] / (g - 1.0) + 0.5 * np.sum(vel_l ** 2, axis=-1)
    h_r = w_r[..., 4] / (g - 1.0) + 0.5 * np.sum(vel_r ** 2, axis=-1)
    rt = np.sqrt(rho_r / rho_l)
    vel_a = (vel_l + rt[..., None] * vel_r) / (1.0 + rt)[..., None]
    h_a = (h_l + rt * h_r) / (1.0 + rt)
    q2_a = np.sum(vel_a ** 2, axis=-1)
    c_a = np.sqrt((g - 1.0) * (h_a - 0.5 * q2_a))
    return np.einsum("...d,...d->...", vel_a, nhat), c_a


def _reference_roe_flux(w_l, w_r, nhat):
    g = physics.GAMMA
    rho_l, rho_r = w_l[..., 0], w_r[..., 0]
    vel_l, vel_r = w_l[..., 1:4], w_r[..., 1:4]
    p_l, p_r = _pressure(w_l), _pressure(w_r)
    h_l = w_l[..., 4] / (g - 1.0) + 0.5 * np.sum(vel_l ** 2, axis=-1)
    h_r = w_r[..., 4] / (g - 1.0) + 0.5 * np.sum(vel_r ** 2, axis=-1)

    rt = np.sqrt(rho_r / rho_l)
    rho_a = rt * rho_l
    vel_a = (vel_l + rt[..., None] * vel_r) / (1.0 + rt)[..., None]
    h_a = (h_l + rt * h_r) / (1.0 + rt)
    q2_a = np.sum(vel_a ** 2, axis=-1)
    c2_a = (g - 1.0) * (h_a - 0.5 * q2_a)
    c_a = np.sqrt(c2_a)
    vn_a = np.einsum("...d,...d->...", vel_a, nhat)

    d_rho = rho_r - rho_l
    d_p = p_r - p_l
    d_vel = vel_r - vel_l
    d_vn = np.einsum("...d,...d->...", d_vel, nhat)

    a1 = (d_p - rho_a * c_a * d_vn) / (2.0 * c2_a)
    a2 = d_rho - d_p / c2_a
    a3 = (d_p + rho_a * c_a * d_vn) / (2.0 * c2_a)

    delta = physics.ENTROPY_FIX_COEFF * c_a
    l1 = _entropy_fix(vn_a - c_a, delta)
    l2 = np.abs(vn_a)
    l3 = _entropy_fix(vn_a + c_a, delta)

    diss = np.zeros(w_l.shape)
    diss[..., 0] += l1 * a1
    diss[..., 1:4] += (l1 * a1)[..., None] * (vel_a - c_a[..., None] * nhat)
    diss[..., 4] += l1 * a1 * (h_a - c_a * vn_a)
    diss[..., 0] += l2 * a2
    diss[..., 1:4] += (l2 * a2)[..., None] * vel_a
    diss[..., 4] += l2 * a2 * 0.5 * q2_a
    diss[..., 0] += l3 * a3
    diss[..., 1:4] += (l3 * a3)[..., None] * (vel_a + c_a[..., None] * nhat)
    diss[..., 4] += l3 * a3 * (h_a + c_a * vn_a)
    shear = d_vel - d_vn[..., None] * nhat
    diss[..., 1:4] += (l2 * rho_a)[..., None] * shear
    diss[..., 4] += l2 * rho_a * np.einsum("...d,...d->...", vel_a, shear)

    f_l = _reference_inviscid_normal_flux(w_l, nhat)
    f_r = _reference_inviscid_normal_flux(w_r, nhat)
    return 0.5 * (f_l + f_r) - 0.5 * diss


def _reference_shear_stress_normal(grad_v, mu, nhat):
    div = np.trace(grad_v, axis1=-2, axis2=-1)
    tau = grad_v + np.swapaxes(grad_v, -1, -2)
    tau = tau - (2.0 / 3.0) * div[..., None, None] * np.eye(3)
    tau = np.asarray(mu)[..., None, None] * tau
    return np.einsum("...ij,...j->...i", tau, nhat)


def _reference_viscous_normal_flux(grad_v, grad_t, v_face, mu, nhat):
    tau_n = _reference_shear_stress_normal(grad_v, mu, nhat)
    q_n = -np.asarray(mu) / (physics.PRANDTL * (physics.GAMMA - 1.0)) * \
        np.einsum("...d,...d->...", grad_t, nhat)
    flux = np.zeros(tau_n.shape[:-1] + (5,))
    flux[..., 1:4] = -tau_n
    flux[..., 4] = -np.einsum("...d,...d->...", tau_n, v_face) + q_n
    return flux


def _reference_reconstruct_lr(state_j, grad_j, state_k, grad_k, off_j,
                              off_k):
    w_l = state_j + np.einsum("...md,...d->...m", grad_j, off_j)
    w_r = state_k + np.einsum("...md,...d->...m", grad_k, off_k)
    return w_l, w_r


def _reference_alpha_damped_face_gradient(grad_j, grad_k, w_l, w_r, dn,
                                          nhat):
    avg = 0.5 * (grad_j + grad_k)
    jump = w_r - w_l
    damp = (recon.ALPHA / np.abs(dn))[..., None, None] * \
        jump[..., :, None] * nhat[..., None, :]
    return avg + damp


def _reference_face_flux(problem, w):
    """Face fluxes times face areas, (F, 5), as the earlier residual formed
    them: the damped face gradient of all five variables."""
    m = problem.mesh
    grads = _last(recon.lsq_gradient_3d(m, w), 2)
    o, k = problem.f_owner, problem.f_neighbor
    nhat = problem.f_nhat.T
    w_o, w_k, g_o, g_k = w[o], w[k], grads[o], grads[k]
    w_l, w_r = _reference_reconstruct_lr(w_o, g_o, w_k, g_k,
                                         *(d.T for d in problem.f_offset))
    flux = _reference_roe_flux(w_l, w_r, nhat)
    grad_f = _reference_alpha_damped_face_gradient(
        g_o, g_k, w_l, w_r, problem.f_dn, nhat)
    tv_f = recon.face_scalar(problem.strategy, w_o[:, 1:], w_k[:, 1:],
                             w_l[:, 1:], w_r[:, 1:],
                             *(d[:, None] for d in problem.f_dist))
    mu_f = physics.sutherland_viscosity(tv_f[:, 3])
    flux = flux + _reference_viscous_normal_flux(
        grad_f[:, 1:4, :], grad_f[:, 4, :], tv_f[:, :3], mu_f, nhat)
    return flux * problem.f_area[:, None]


def _reference_residual(problem, w):
    """The np.add.at assembly, without closure."""
    contrib = _reference_face_flux(problem, w)
    res = np.zeros((problem.mesh.n_cells, 5))
    np.add.at(res, problem.f_owner, contrib)
    np.add.at(res, problem.f_neighbor, -contrib)
    return res - problem.forcing * problem.mesh.cell_volume[:, None]


# --- layouts and inputs -----------------------------------------------------

def _rows(a, k=1):
    """Per-variable rows of a variables-last array: (..., n) -> (n, ...),
    or with k=2, (..., n, m) -> (n, m, ...)."""
    return np.moveaxis(a, range(-k, 0), range(k))


def _last(r, k=1):
    """The variables-last array of per-variable rows (the inverse of
    _rows)."""
    return np.moveaxis(r, range(k), range(-k, 0))


def _states(rng, shape):
    w = np.empty(shape + (5,))
    w[..., 0] = rng.uniform(0.8, 1.3, shape)
    w[..., 1:4] = rng.uniform(-0.5, 0.5, shape + (3,))
    w[..., 4] = rng.uniform(0.8, 1.3, shape)
    return w


def _normals(rng, shape):
    v = rng.normal(size=shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _sonic_states(rng, nhat):
    """Left/right states moving along nhat at about the sound speed, so that
    the Roe-averaged vn - c lies inside the entropy-fix band."""
    shape = nhat.shape[:-1]
    w_l, w_r = _states(rng, shape), _states(rng, shape)
    for w in (w_l, w_r):
        w[..., 4] = 1.0 + rng.uniform(-0.01, 0.01, shape)
        speed = np.sqrt(w[..., 4]) * (1.0 + rng.uniform(-0.01, 0.01, shape))
        w[..., 1:4] = speed[..., None] * nhat
    return w_l, w_r


SHAPES = [(), (37,), (3, 4)]


def _close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= TOL * np.abs(ref).max()


class TestKernelsAgainstVariablesLastOracles:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_roe_flux(self, shape):
        rng = np.random.default_rng(11)
        w_l, w_r, nhat = _states(rng, shape), _states(rng, shape), \
            _normals(rng, shape)
        _close(_last(physics.roe_flux(_rows(w_l), _rows(w_r), _rows(nhat))),
               _reference_roe_flux(w_l, w_r, nhat))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_roe_flux_in_the_entropy_fix_band(self, shape):
        rng = np.random.default_rng(12)
        nhat = _normals(rng, shape)
        w_l, w_r = _sonic_states(rng, nhat)
        vn_a, c_a = _roe_averages(w_l, w_r, nhat)
        # every state takes the fixed branch for the vn - c wave
        assert np.all(np.abs(vn_a - c_a) < physics.ENTROPY_FIX_COEFF * c_a)
        _close(_last(physics.roe_flux(_rows(w_l), _rows(w_r), _rows(nhat))),
               _reference_roe_flux(w_l, w_r, nhat))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_inviscid_normal_flux(self, shape):
        rng = np.random.default_rng(13)
        w, nhat = _states(rng, shape), _normals(rng, shape)
        _close(_last(physics.inviscid_normal_flux(_rows(w), _rows(nhat))),
               _reference_inviscid_normal_flux(w, nhat))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_viscous_normal_flux(self, shape):
        rng = np.random.default_rng(14)
        grad_v = rng.normal(size=shape + (3, 3))
        grad_t = rng.normal(size=shape + (3,))
        v_face = rng.normal(size=shape + (3,))
        mu = rng.uniform(0.5, 2.0, shape)
        nhat = _normals(rng, shape)
        _close(_last(physics.viscous_normal_flux(
                   _rows(grad_v, 2), _rows(grad_t), _rows(v_face), mu,
                   _rows(nhat))),
               _reference_viscous_normal_flux(grad_v, grad_t, v_face, mu,
                                              nhat))
        _close(_last(physics.shear_stress_normal(_rows(grad_v, 2), mu,
                                                 _rows(nhat))),
               _reference_shear_stress_normal(grad_v, mu, nhat))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_reconstruct_lr(self, shape):
        rng = np.random.default_rng(17)
        args = [rng.normal(size=shape + s) for s in
                ((5,), (5, 3), (5,), (5, 3), (3,), (3,))]
        rows = [_rows(a, a.ndim - len(shape)) for a in args]
        for got, ref in zip(map(_last, recon.reconstruct_lr(*rows)),
                            _reference_reconstruct_lr(*args)):
            _close(got, ref)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_alpha_damped_face_gradient(self, shape):
        rng = np.random.default_rng(18)
        grad_j, grad_k = (rng.normal(size=shape + (4, 3)) for _ in range(2))
        w_l, w_r = (rng.normal(size=shape + (4,)) for _ in range(2))
        dn = rng.uniform(0.1, 1.0, shape)
        nhat = _normals(rng, shape)
        _close(_last(recon.alpha_damped_face_gradient(
                   _rows(grad_j, 2), _rows(grad_k, 2), _rows(w_l),
                   _rows(w_r), dn, _rows(nhat)), 2),
               _reference_alpha_damped_face_gradient(grad_j, grad_k, w_l, w_r,
                                                     dn, nhat))

    def test_one_normal_broadcasts_over_states(self):
        rng = np.random.default_rng(15)
        w_l, w_r, nhat = _states(rng, (6,)), _states(rng, (6,)), \
            _normals(rng, ())
        _close(_last(physics.roe_flux(_rows(w_l), _rows(w_r), nhat[:, None])),
               _reference_roe_flux(w_l, w_r, np.broadcast_to(nhat, (6, 3))))

    @pytest.mark.parametrize("side, var", [(0, 0), (0, 4), (1, 0), (1, 4)])
    def test_roe_flux_rejects_nonpositive_density_or_temperature(self, side,
                                                                 var):
        rng = np.random.default_rng(16)
        w = [_states(rng, (5,)), _states(rng, (5,))]
        w[side][2, var] = 0.0
        with pytest.raises(physics.InvalidStateError):
            physics.roe_flux(w[0].T, w[1].T, _normals(rng, (5,)).T)


@pytest.fixture(scope="module", params=[3, 5])
def tet_mesh(request):
    return mesh.generate_tet_mesh(request.param, perturbation=0.2,
                                  seed=20 + request.param)


def _perturbed_state(problem, seed):
    rng = np.random.default_rng(seed)
    w = problem.exact * (1.0 + 0.05 * rng.uniform(-1.0, 1.0,
                                                  problem.exact.shape))
    w[problem.pinned] = problem.exact[problem.pinned]
    return w


class TestResidualAgainstAddAtAssembly:
    @pytest.mark.parametrize("tag", STRATEGY_TAGS)
    def test_matches_oracle_assembly(self, tet_mesh, tag):
        problem = ns3d.NS3DProblem(tet_mesh, Strategy(tag, omega=0.75)
                                   if tag == "weighted" else Strategy(tag))
        w = _perturbed_state(problem, seed=len(tag))
        got = ns3d.residual_ns3d(problem, w, with_closure=False)
        ref = _reference_residual(problem, w)
        scale = np.abs(_reference_face_flux(problem, w)).max()
        assert np.abs(got - ref).max() <= TOL * scale

    def test_incidence_has_one_signed_area_per_face_side(self, tet_mesh):
        problem = ns3d.NS3DProblem(tet_mesh, Strategy("arithmetic"))
        inc = problem.f_incidence
        assert inc.shape == (tet_mesh.n_cells, len(problem.f_owner))
        dense = inc.toarray()
        faces = np.arange(len(problem.f_owner))
        assert np.array_equal(dense[problem.f_owner, faces], problem.f_area)
        assert np.array_equal(dense[problem.f_neighbor, faces],
                              -problem.f_area)
        assert inc.nnz == 2 * len(faces)
