"""Closed-form reference states used as oracles for lattice dynamics.

Each time-dependent reference solves its continuum equation of motion
exactly; the tests verify this independently by finite differencing before
the references are trusted anywhere else.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class AnalyticState:
    """A smooth test state with analytic spatial derivatives.

    ``value``, ``gradient`` and ``laplacian`` are callables of the meshgrid
    coordinate arrays; ``gradient`` returns one array per axis.
    """

    value: callable
    gradient: callable
    laplacian: callable


def plane_wave(k):
    """exp(i k . x) in any dimension; k is a sequence of wavenumbers."""
    k = np.atleast_1d(np.asarray(k, dtype=float))

    def value(*coords):
        phase = sum(ki * xi for ki, xi in zip(k, coords))
        return np.exp(1j * phase)

    def gradient(*coords):
        v = value(*coords)
        return [1j * ki * v for ki in k]

    def laplacian(*coords):
        return -float(np.dot(k, k)) * value(*coords)

    return AnalyticState(value, gradient, laplacian)


def free_gaussian(x, t, x0=0.0, sigma=1.0, k0=0.0, mass=1.0, hbar=1.0):
    """Free-particle evolution of the normalized Gaussian packet centered at
    ``x0`` with width ``sigma`` and momentum hbar*k0."""
    tau = 1.0 + 1j * hbar * t / (mass * sigma ** 2)
    exponent = (-((x - x0) ** 2) / (2 * sigma ** 2)
                + 1j * k0 * (x - x0)
                - 1j * hbar * k0 ** 2 * t / (2 * mass)) / tau
    return (np.pi * sigma ** 2) ** -0.25 / np.sqrt(tau) * np.exp(exponent)


def coherent_oscillator(x, t, x0=1.0, mass=1.0, omega=1.0, hbar=1.0):
    """Coherent state of the harmonic well U = m omega^2 x^2 / 2.

    Starts as the displaced ground-state Gaussian at ``x0`` with zero
    momentum; the packet center swings as x0*cos(omega*t) without spreading.
    """
    c, s = np.cos(omega * t), np.sin(omega * t)
    width = mass * omega / hbar
    phase = (omega * t / 2.0
             + width * x * x0 * s
             - width * x0 ** 2 * np.sin(2 * omega * t) / 4.0)
    return ((width / np.pi) ** 0.25
            * np.exp(-0.5 * width * (x - x0 * c) ** 2 - 1j * phase))


def drifting_gaussian(x, t, a_strength, x0=0.0, sigma=1.0, mass=1.0, hbar=1.0):
    """Packet at rest in canonical momentum under a constant vector potential.

    The constant potential shifts the kinetic momentum: the packet drifts
    with velocity -A/m while the dressing phase exp(i A x / hbar) keeps the
    canonical momentum at zero.
    """
    shift = a_strength / hbar
    return np.exp(1j * shift * (x - x0)) * free_gaussian(
        x, t, x0=x0, sigma=sigma, k0=-shift, mass=mass, hbar=hbar)
