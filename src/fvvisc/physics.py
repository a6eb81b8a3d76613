"""Nondimensional compressible Navier-Stokes flux algebra.

Primitive variables are (rho, u, v, w, T) with velocity scaled by the
free-stream speed of sound, which gives p = rho T / gamma and the factor
mach/reynolds in the Sutherland viscosity.  The flow condition is fixed:
the module constants MACH ... PRANDTL below.

Layout.  The face fluxes take and return per-variable rows: a state is
(5, ...), a vector (3, ...) and a velocity gradient (3, 3, ...), and every
flux routine broadcasts over the trailing axes by NumPy's own rules, so one
call serves a whole array of faces and every step runs over contiguous
arrays of faces.  The cell-state routines (``pressure``, the conversions
and ``inviscid_flux_jacobian``) keep the variables on the last axis, the
layout of the solver's (C, 5) states.
"""

from __future__ import annotations

import numpy as np

MACH = 0.1            # free-stream Mach number
REYNOLDS = 0.1        # free-stream Reynolds number
T_REF = 300.0         # dimensional free-stream temperature [K]
SUTHERLAND_C = 110.5  # Sutherland constant [K]
GAMMA = 1.4
PRANDTL = 0.72

# Harten entropy fix on the acoustic eigenvalues: delta = coeff * c_roe.
ENTROPY_FIX_COEFF = 0.05


class InvalidStateError(Exception):
    """A primitive or Roe-averaged state is unphysical."""


class NonpositiveTemperatureError(Exception):
    """A face temperature fed to the viscosity law is not positive."""


def pressure(w: np.ndarray) -> np.ndarray:
    return w[..., 0] * w[..., 4] / GAMMA


def prim_to_cons(w: np.ndarray) -> np.ndarray:
    """(rho, v, T) -> (rho, rho v, rho E) with rho E = p/(gamma-1) + rho |v|^2 / 2."""
    g = GAMMA
    rho = w[..., 0]
    q2 = np.sum(w[..., 1:4] ** 2, axis=-1)
    e_tot = w[..., 4] / (g * (g - 1.0)) + 0.5 * q2
    u = np.empty_like(w)
    u[..., 0] = rho
    u[..., 1:4] = rho[..., None] * w[..., 1:4]
    u[..., 4] = rho * e_tot
    return u


def cons_to_prim(u: np.ndarray) -> np.ndarray:
    g = GAMMA
    rho = u[..., 0]
    w = np.empty_like(u)
    w[..., 0] = rho
    w[..., 1:4] = u[..., 1:4] / rho[..., None]
    q2 = np.sum(w[..., 1:4] ** 2, axis=-1)
    w[..., 4] = g * (g - 1.0) * (u[..., 4] / rho - 0.5 * q2)
    return w


def sutherland_viscosity(t_face):
    """Face viscosity mu_f = (M/Re) (1 + C/Tref) / (T_f + C/Tref) T_f^(3/2)."""
    t_face = np.asarray(t_face, dtype=float)
    if np.any(t_face <= 0.0):
        raise NonpositiveTemperatureError(
            "face temperature must be positive for the viscosity law")
    cr = SUTHERLAND_C / T_REF
    return (MACH / REYNOLDS) * (1.0 + cr) / (t_face + cr) * t_face ** 1.5


def _stack(*rows):
    """Write per-variable rows, scalars or arrays that broadcast together,
    once into one (len(rows), ...) array."""
    out = np.empty((len(rows),)
                   + np.broadcast_shapes(*(np.shape(r) for r in rows)))
    for i, row in enumerate(rows):
        out[i] = row
    return out


def _dot(a, b):
    """Inner product over the first axis of two vector rows (3, ...)."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def shear_stress_normal(grad_v: np.ndarray, mu, nhat: np.ndarray) -> np.ndarray:
    """tau . nhat with tau = mu [grad v + (grad v)^t - (2/3) tr(grad v) I].

    grad_v[i, j] = d v_i / d x_j, (3, 3, ...); nhat (3, ...).
    Returns (3, ...).
    """
    div = grad_v[0, 0] + grad_v[1, 1] + grad_v[2, 2]
    sym = grad_v + grad_v.swapaxes(0, 1)
    sym_n = sym[:, 0] * nhat[0] + sym[:, 1] * nhat[1] + sym[:, 2] * nhat[2]
    return mu * (sym_n - (2.0 / 3.0) * div * nhat)


def viscous_normal_flux(grad_v, grad_t, v_face, mu, nhat):
    """Projected viscous flux (0, -tau_n, -tau_n . v_f + q_n).

    q_n = -(mu / (Pr (gamma - 1))) grad T . nhat.  grad_v (3, 3, ...),
    grad_t, v_face and nhat (3, ...).  Returns (5, ...).
    """
    tau_n = shear_stress_normal(grad_v, mu, nhat)
    q_n = -mu / (PRANDTL * (GAMMA - 1.0)) * _dot(grad_t, nhat)
    work = _dot(tau_n, v_face)
    return _stack(0.0, *(-tau_n), q_n - work)


def _inviscid_rows(rho, vel, p, h_tot, n):
    """Projected inviscid flux rows: rho vn, rho vn v + p n (3 rows) and
    rho vn H."""
    mass = rho * _dot(vel, n)
    return mass, mass * vel + p * n, mass * h_tot


def _primitive(w):
    """rho, velocity (3, ...), p and total enthalpy H of primitive rows w.

    With c^2 = T, H = T / (gamma - 1) + |v|^2 / 2.
    """
    rho, vel, t = w[0], w[1:4], w[4]
    return rho, vel, rho * t / GAMMA, t / (GAMMA - 1.0) + 0.5 * _dot(vel, vel)


def inviscid_normal_flux(w: np.ndarray, nhat: np.ndarray) -> np.ndarray:
    """Analytic projected inviscid flux (rho vn, rho vn v + p n, vn (rho E + p)).

    w (5, ...), nhat (3, ...).  Returns (5, ...).
    """
    mass, mom, energy = _inviscid_rows(*_primitive(w), nhat)
    return _stack(mass, *mom, energy)


def _entropy_fix(lam: np.ndarray, delta: np.ndarray) -> np.ndarray:
    a = np.abs(lam)
    return np.where(a < delta, (lam * lam + delta * delta) / (2.0 * delta), a)


def roe_flux(w_l: np.ndarray, w_r: np.ndarray, nhat: np.ndarray) -> np.ndarray:
    """Roe approximate Riemann flux for left/right primitive states.

    Standard Roe-averaged dissipation in conservative variables, written in
    the tangent-vector-free form (the two shear waves are combined).  A
    Harten-type entropy fix with delta = ENTROPY_FIX_COEFF * c_roe is applied
    to the acoustic eigenvalues.  Consistent: roe_flux(w, w, n) equals the
    analytic projected flux of w.  w_l, w_r (5, ...), nhat (3, ...).
    Returns (5, ...).
    """
    if np.any(w_l[0] <= 0) or np.any(w_l[4] <= 0) or \
       np.any(w_r[0] <= 0) or np.any(w_r[4] <= 0):
        raise InvalidStateError("Roe flux requires positive density and temperature")
    rho_l, vel_l, p_l, h_l = _primitive(w_l)
    rho_r, vel_r, p_r, h_r = _primitive(w_r)

    # Roe averages
    rt = np.sqrt(rho_r / rho_l)
    rho_a = rt * rho_l
    vel_a = (vel_l + rt * vel_r) / (1.0 + rt)
    h_a = (h_l + rt * h_r) / (1.0 + rt)
    q2_a = _dot(vel_a, vel_a)
    c2_a = (GAMMA - 1.0) * (h_a - 0.5 * q2_a)
    if np.any(c2_a <= 0.0):
        raise InvalidStateError("negative Roe-averaged sound speed")
    c_a = np.sqrt(c2_a)
    vn_a = _dot(vel_a, nhat)

    d_rho = rho_r - rho_l
    d_p = p_r - p_l
    d_vel = vel_r - vel_l
    d_vn = _dot(d_vel, nhat)

    # wave strengths times the wave speeds: acoustic vn - c, entropy,
    # acoustic vn + c and the combined shear waves
    delta = ENTROPY_FIX_COEFF * c_a
    s1 = _entropy_fix(vn_a - c_a, delta) * \
        (d_p - rho_a * c_a * d_vn) / (2.0 * c2_a)
    s2 = np.abs(vn_a) * (d_rho - d_p / c2_a)
    s3 = _entropy_fix(vn_a + c_a, delta) * \
        (d_p + rho_a * c_a * d_vn) / (2.0 * c2_a)
    s4 = np.abs(vn_a) * rho_a
    shear = d_vel - d_vn * nhat

    # dissipation: the right eigenvectors (1, v - c n, H - c vn),
    # (1, v, |v|^2 / 2), (1, v + c n, H + c vn) and (0, shear, v . shear)
    # weighted by s1 ... s4
    d_mass = s1 + s2 + s3
    d_mom = d_mass * vel_a + (s3 - s1) * c_a * nhat + s4 * shear
    d_energy = (s1 * (h_a - c_a * vn_a) + s2 * 0.5 * q2_a
                + s3 * (h_a + c_a * vn_a) + s4 * _dot(vel_a, shear))

    f_l = _inviscid_rows(rho_l, vel_l, p_l, h_l, nhat)
    f_r = _inviscid_rows(rho_r, vel_r, p_r, h_r, nhat)
    mass = 0.5 * (f_l[0] + f_r[0] - d_mass)
    mom = 0.5 * (f_l[1] + f_r[1] - d_mom)
    energy = 0.5 * (f_l[2] + f_r[2] - d_energy)
    return _stack(mass, *mom, energy)


def inviscid_flux_jacobian(w: np.ndarray, nhat: np.ndarray) -> np.ndarray:
    """d(projected inviscid flux)/d(conservative variables), shape (..., 5, 5)."""
    g = GAMMA
    k = g - 1.0
    vel = w[..., 1:4]
    vn = np.einsum("...d,...d->...", vel, nhat)
    q2 = np.sum(vel ** 2, axis=-1)
    h_tot = w[..., 4] / (g - 1.0) + 0.5 * q2
    a2 = 0.5 * k * q2

    jac = np.zeros(w.shape[:-1] + (5, 5))
    jac[..., 0, 1:4] = nhat
    for i in range(3):
        ui = vel[..., i]
        ni = nhat[..., i]
        jac[..., 1 + i, 0] = a2 * ni - ui * vn
        for j in range(3):
            jac[..., 1 + i, 1 + j] = ui * nhat[..., j] - k * vel[..., j] * ni
        jac[..., 1 + i, 1 + i] += vn
        jac[..., 1 + i, 4] = k * ni
    jac[..., 4, 0] = (a2 - h_tot) * vn
    jac[..., 4, 1:4] = h_tot[..., None] * nhat - k * vel * vn[..., None]
    jac[..., 4, 4] = g * vn
    return jac
