"""Nondimensional compressible Navier-Stokes flux algebra.

Primitive variables are (rho, u, v, w, T) with velocity scaled by the
free-stream speed of sound, which gives p = rho T / gamma and the factor
mach/reynolds in the Sutherland viscosity.  The flow condition is fixed:
the module constants MACH ... PRANDTL below.  All routines broadcast over
leading axes so they can be applied to whole arrays of faces at once.
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


def shear_stress_normal(grad_v: np.ndarray, mu, nhat: np.ndarray) -> np.ndarray:
    """tau . nhat with tau = mu [grad v + (grad v)^t - (2/3) tr(grad v) I].

    grad_v[..., i, j] = d v_i / d x_j.
    """
    grad_v = np.asarray(grad_v, dtype=float)
    div = np.trace(grad_v, axis1=-2, axis2=-1)
    tau = grad_v + np.swapaxes(grad_v, -1, -2)
    tau = tau - (2.0 / 3.0) * div[..., None, None] * np.eye(3)
    tau = np.asarray(mu)[..., None, None] * tau
    return np.einsum("...ij,...j->...i", tau, nhat)


def viscous_normal_flux(grad_v, grad_t, v_face, mu, nhat):
    """Projected viscous flux (0, -tau_n, -tau_n . v_f + q_n).

    q_n = -(mu / (Pr (gamma - 1))) grad T . nhat.  Returns (..., 5).
    """
    tau_n = shear_stress_normal(grad_v, mu, nhat)
    q_n = -np.asarray(mu) / (PRANDTL * (GAMMA - 1.0)) * \
        np.einsum("...d,...d->...", np.asarray(grad_t, dtype=float), nhat)
    flux = np.zeros(tau_n.shape[:-1] + (5,))
    flux[..., 1:4] = -tau_n
    flux[..., 4] = -np.einsum("...d,...d->...", tau_n, np.asarray(v_face,
                                                                  dtype=float)) + q_n
    return flux


def inviscid_normal_flux(w: np.ndarray, nhat: np.ndarray) -> np.ndarray:
    """Analytic projected inviscid flux (rho vn, rho vn v + p n, vn (rho E + p))."""
    g = GAMMA
    rho = w[..., 0]
    vel = w[..., 1:4]
    p = pressure(w)
    vn = np.einsum("...d,...d->...", vel, nhat)
    q2 = np.sum(vel ** 2, axis=-1)
    h_tot = w[..., 4] / (g - 1.0) + 0.5 * q2  # total enthalpy, c^2 = T
    flux = np.empty(w.shape)
    flux[..., 0] = rho * vn
    flux[..., 1:4] = (rho * vn)[..., None] * vel + p[..., None] * nhat
    flux[..., 4] = rho * vn * h_tot
    return flux


def _entropy_fix(lam: np.ndarray, delta: np.ndarray) -> np.ndarray:
    a = np.abs(lam)
    return np.where(a < delta, (lam * lam + delta * delta) / (2.0 * delta), a)


def roe_flux(w_l: np.ndarray, w_r: np.ndarray, nhat: np.ndarray) -> np.ndarray:
    """Roe approximate Riemann flux for left/right primitive states.

    Standard Roe-averaged dissipation in conservative variables, written in
    the tangent-vector-free form (the two shear waves are combined).  A
    Harten-type entropy fix with delta = ENTROPY_FIX_COEFF * c_roe is applied
    to the acoustic eigenvalues.  Consistent: roe_flux(w, w, n) equals the
    analytic projected flux of w.
    """
    w_l = np.asarray(w_l, dtype=float)
    w_r = np.asarray(w_r, dtype=float)
    if np.any(w_l[..., 0] <= 0) or np.any(w_l[..., 4] <= 0) or \
       np.any(w_r[..., 0] <= 0) or np.any(w_r[..., 4] <= 0):
        raise InvalidStateError("Roe flux requires positive density and temperature")
    g = GAMMA

    rho_l, rho_r = w_l[..., 0], w_r[..., 0]
    vel_l, vel_r = w_l[..., 1:4], w_r[..., 1:4]
    p_l, p_r = pressure(w_l), pressure(w_r)
    h_l = w_l[..., 4] / (g - 1.0) + 0.5 * np.sum(vel_l ** 2, axis=-1)
    h_r = w_r[..., 4] / (g - 1.0) + 0.5 * np.sum(vel_r ** 2, axis=-1)

    # Roe averages
    rt = np.sqrt(rho_r / rho_l)
    rho_a = rt * rho_l
    vel_a = (vel_l + rt[..., None] * vel_r) / (1.0 + rt)[..., None]
    h_a = (h_l + rt * h_r) / (1.0 + rt)
    q2_a = np.sum(vel_a ** 2, axis=-1)
    c2_a = (g - 1.0) * (h_a - 0.5 * q2_a)
    if np.any(c2_a <= 0.0):
        raise InvalidStateError("negative Roe-averaged sound speed")
    c_a = np.sqrt(c2_a)
    vn_a = np.einsum("...d,...d->...", vel_a, nhat)

    d_rho = rho_r - rho_l
    d_p = p_r - p_l
    d_vel = vel_r - vel_l
    d_vn = np.einsum("...d,...d->...", d_vel, nhat)

    # wave strengths
    a1 = (d_p - rho_a * c_a * d_vn) / (2.0 * c2_a)
    a2 = d_rho - d_p / c2_a
    a3 = (d_p + rho_a * c_a * d_vn) / (2.0 * c2_a)

    delta = ENTROPY_FIX_COEFF * c_a
    l1 = _entropy_fix(vn_a - c_a, delta)
    l2 = np.abs(vn_a)
    l3 = _entropy_fix(vn_a + c_a, delta)

    diss = np.zeros(w_l.shape)
    # acoustic wave vn - c
    diss[..., 0] += l1 * a1
    diss[..., 1:4] += (l1 * a1)[..., None] * (vel_a - c_a[..., None] * nhat)
    diss[..., 4] += l1 * a1 * (h_a - c_a * vn_a)
    # entropy wave
    diss[..., 0] += l2 * a2
    diss[..., 1:4] += (l2 * a2)[..., None] * vel_a
    diss[..., 4] += l2 * a2 * 0.5 * q2_a
    # acoustic wave vn + c
    diss[..., 0] += l3 * a3
    diss[..., 1:4] += (l3 * a3)[..., None] * (vel_a + c_a[..., None] * nhat)
    diss[..., 4] += l3 * a3 * (h_a + c_a * vn_a)
    # combined shear waves
    shear = d_vel - d_vn[..., None] * nhat
    diss[..., 1:4] += (l2 * rho_a)[..., None] * shear
    diss[..., 4] += l2 * rho_a * np.einsum("...d,...d->...", vel_a, shear)

    f_l = inviscid_normal_flux(w_l, nhat)
    f_r = inviscid_normal_flux(w_r, nhat)
    return 0.5 * (f_l + f_r) - 0.5 * diss


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
