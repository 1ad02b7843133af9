"""Independent mpmath reference values for the correctness gate.

Shares no code with boxkernel: the spectral kernel is summed term by term in
40-digit arithmetic from the closed normalisation, and the regulated Bessel
product (the right-hand side of the addition formula) uses mpmath's own
``besseli``.
"""

import mpmath as mp

DPS = 40
SPECTRAL_ATOL = 1e-10  # above the 1e-12 tail target plus double rounding of ~1e3 terms
SPECTRAL_RTOL = 1e-10
BESSEL_RTOL = 1e-10


def spectral_kernel(nu, theta, theta_p, lam):
    """sum_n exp(-lam (n+nu)^2/2) phi_n(theta) phi_n(theta'), to ~1e-30 absolute.

    phi_n(t) = 2^nu Gamma(nu) sqrt((n+nu) n! / (2 pi Gamma(n+2nu))) sin^nu(t) C_n^nu(cos t).
    The sum stops once lam (n+nu)^2 / 2 > 100; the eigenfunction envelope grows
    only polynomially in n, so the dropped tail is far below double precision.
    """
    with mp.workdps(DPS):
        nu, lam = mp.mpf(nu), mp.mpf(lam)
        a, b = mp.mpf(theta), mp.mpf(theta_p)
        xa, xb = mp.cos(a), mp.cos(b)
        log_front = 2 * nu * mp.log(2) + 2 * mp.loggamma(nu) + nu * mp.log(mp.sin(a) * mp.sin(b)) - mp.log(2 * mp.pi)
        ca_prev, ca = mp.mpf(0), mp.mpf(1)  # C_{-1}, C_0
        cb_prev, cb = mp.mpf(0), mp.mpf(1)
        total = mp.mpf(0)
        n = 0
        while lam * (n + nu) ** 2 / 2 <= 100:
            log_w = (-lam * (n + nu) ** 2 / 2 + log_front + mp.log(n + nu)
                     + mp.loggamma(n + 1) - mp.loggamma(n + 2 * nu))
            total += mp.exp(log_w) * ca * cb
            # (n+1) C_{n+1} = 2 (n+nu) x C_n - (n + 2nu - 1) C_{n-1}
            ca_prev, ca = ca, (2 * (n + nu) * xa * ca - (n + 2 * nu - 1) * ca_prev) / (n + 1)
            cb_prev, cb = cb, (2 * (n + nu) * xb * cb - (n + 2 * nu - 1) * cb_prev) / (n + 1)
            n += 1
        return float(total)


def bessel_product(nu, theta, theta_p, lam):
    """sqrt(ss)/lam * exp((cc - 1)/lam) * I_{nu-1/2}(ss/lam), ss = sin sin', cc = cos cos'."""
    with mp.workdps(DPS):
        a, b, lam = mp.mpf(theta), mp.mpf(theta_p), mp.mpf(lam)
        ss = mp.sin(a) * mp.sin(b)
        cc = mp.cos(a) * mp.cos(b)
        return float(mp.sqrt(ss) / lam * mp.exp((cc - 1) / lam) * mp.besseli(mp.mpf(nu) - mp.mpf(1) / 2, ss / lam))


def check(sample):
    """Problem with one sampled value, or None when it matches the reference."""
    args = (sample["nu"], sample["theta"], sample["theta_p"], sample["lam"])
    value = sample["value"]
    if sample["kind"] == "spectral":
        ref = spectral_kernel(*args)
        ok = abs(value - ref) <= SPECTRAL_ATOL + SPECTRAL_RTOL * abs(ref)
    else:
        ref = bessel_product(*args)
        ok = abs(value - ref) <= BESSEL_RTOL * abs(ref)
    return None if ok else f"{sample['kind']}{args}: {value!r} vs mpmath {ref!r}"
