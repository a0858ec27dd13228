"""Brute-force references for the Holevo term of a two-mode covariance
matrix [[a*I2, c*sz], [c*sz, b*I2]], sz = diag(1, -1), from numpy's
linear algebra rather than closed forms. A helper module: pytest does not
collect it."""

import math

import numpy as np


def symplectic_spectrum(a, b, c):
    """(nu1, nu2), nu1 >= nu2: |eig(i * Omega * Gamma)| on the 4x4 matrix."""
    sz = np.diag([1.0, -1.0])
    gamma = np.block([
        [a * np.eye(2), c * sz],
        [c * sz, b * np.eye(2)],
    ])
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    ev = np.sort(np.abs(np.linalg.eigvals(1j * omega @ gamma)))
    return float(ev[-1]), float(ev[0])


def conditional_eigenvalue(a, b, c):
    """Mode-A spectrum after a perfect x-homodyne of mode B: the Schur
    complement through the pseudo-inverse of B's projected block."""
    sz = np.diag([1.0, -1.0])
    gamma_a = a * np.eye(2)
    gamma_b = b * np.eye(2)
    gamma_c = c * sz
    x_proj = np.diag([1.0, 0.0])
    reduced = (gamma_a
               - gamma_c @ np.linalg.pinv(x_proj @ gamma_b @ x_proj)
               @ gamma_c.T)
    return float(np.sqrt(np.linalg.det(reduced)))


def entropy(nu):
    """Von Neumann entropy g((nu - 1)/2) of a thermal mode of symplectic
    eigenvalue nu, held at nu >= 1."""
    x = (max(nu, 1.0) - 1.0) / 2.0
    return 0.0 if x == 0.0 else (x + 1.0) * math.log2(x + 1.0) - x * math.log2(x)


def holevo(a, b, c):
    """S(AB) - S(A|y) from the brute-force eigenvalues."""
    nu1, nu2 = symplectic_spectrum(a, b, c)
    return (entropy(nu1) + entropy(nu2)
            - entropy(conditional_eigenvalue(a, b, c)))
