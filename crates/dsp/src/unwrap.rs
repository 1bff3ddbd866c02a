//! Phase unwrapping (paper §7.1.1).
//!
//! The linear-regression frequency-bias estimator needs the instantaneous
//! angle `Θ(t)` as a continuous function of time, but `atan2(Q, I)` is only
//! available modulo 2π. The paper rectifies it by tracking a counter `k`
//! that decrements when the wrapped phase jumps from −π to π and increments
//! on the opposite jump; the unwrapped phase is `atan2(Q,I) + 2kπ`. This
//! module implements exactly that bookkeeping.

use std::f64::consts::PI;

/// Unwraps a wrapped phase sequence in place-free style, returning the
/// continuous phase.
///
/// A jump between consecutive samples larger than `pi` in magnitude is
/// interpreted as a wrap and compensated by ±2π. This matches the paper's
/// `2kπ` rectification and NumPy's `unwrap` with default discontinuity.
///
/// Empty input yields empty output.
///
/// ```
/// use softlora_dsp::unwrap::unwrap_phase;
/// // A phase ramp of 0.5 rad/sample, wrapped into (-pi, pi].
/// let wrapped: Vec<f64> = (0..100)
///     .map(|i| {
///         let p = 0.5 * i as f64;
///         (p + std::f64::consts::PI).rem_euclid(2.0 * std::f64::consts::PI)
///             - std::f64::consts::PI
///     })
///     .collect();
/// let unwrapped = unwrap_phase(&wrapped);
/// let slope = (unwrapped[99] - unwrapped[0]) / 99.0;
/// assert!((slope - 0.5).abs() < 1e-9);
/// ```
pub fn unwrap_phase(wrapped: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(wrapped.len());
    unwrap_phase_into(wrapped, &mut out);
    out
}

/// [`unwrap_phase`] into a caller-owned buffer (`out` is cleared and
/// refilled; capacity reused across calls).
pub fn unwrap_phase_into(wrapped: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.reserve_exact(wrapped.len());
    let mut k = 0.0f64; // the paper's integer k, stored as f64 multiples of 2π
    let mut prev = match wrapped.first() {
        Some(&p) => {
            out.push(p);
            p
        }
        None => return,
    };
    for &p in &wrapped[1..] {
        let d = p - prev;
        if d > PI {
            k -= 1.0;
        } else if d < -PI {
            k += 1.0;
        }
        out.push(p + 2.0 * PI * k);
        prev = p;
    }
}

/// Wraps a phase into `(-pi, pi]`.
pub fn wrap_to_pi(phase: f64) -> f64 {
    let two_pi = 2.0 * PI;
    let mut p = (phase + PI).rem_euclid(two_pi) - PI;
    if p == -PI {
        p = PI;
    }
    p
}

/// Unwraps the phase of an I/Q pair sequence: `atan2(Q, I)` then
/// [`unwrap_phase`]. This is the first two steps of the paper's Fig. 12
/// pipeline.
pub fn unwrap_iq(i: &[f64], q: &[f64]) -> Vec<f64> {
    let wrapped: Vec<f64> = i.iter().zip(q.iter()).map(|(&ii, &qq)| qq.atan2(ii)).collect();
    unwrap_phase(&wrapped)
}

/// [`unwrap_iq`] with arena-held temporaries: the wrapped-phase buffer
/// comes from the scratch pool and `out` receives the unwrapped phase.
pub fn unwrap_iq_with(
    i: &[f64],
    q: &[f64],
    scratch: &mut crate::scratch::DspScratch,
    out: &mut Vec<f64>,
) {
    let mut wrapped = scratch.take_real_empty();
    wrapped.reserve_exact(i.len().min(q.len()));
    wrapped.extend(i.iter().zip(q.iter()).map(|(&ii, &qq)| qq.atan2(ii)));
    unwrap_phase_into(&wrapped, out);
    scratch.put_real(wrapped);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_when_no_wraps() {
        let phases = vec![0.0, 0.1, 0.2, -0.3, 0.4];
        assert_eq!(unwrap_phase(&phases), phases);
    }

    #[test]
    fn empty_and_single() {
        assert!(unwrap_phase(&[]).is_empty());
        assert_eq!(unwrap_phase(&[1.5]), vec![1.5]);
    }

    #[test]
    fn positive_ramp_reconstructed() {
        let true_phase: Vec<f64> = (0..500).map(|i| 0.3 * i as f64).collect();
        let wrapped: Vec<f64> = true_phase.iter().map(|&p| wrap_to_pi(p)).collect();
        let un = unwrap_phase(&wrapped);
        for (u, t) in un.iter().zip(true_phase.iter()) {
            // Reconstruction up to a global 2π multiple of the first sample.
            assert!((u - t).abs() < 1e-9, "{u} vs {t}");
        }
    }

    #[test]
    fn negative_ramp_reconstructed() {
        let true_phase: Vec<f64> = (0..500).map(|i| -0.45 * i as f64).collect();
        let wrapped: Vec<f64> = true_phase.iter().map(|&p| wrap_to_pi(p)).collect();
        let un = unwrap_phase(&wrapped);
        for (u, t) in un.iter().zip(true_phase.iter()) {
            assert!((u - t).abs() < 1e-9);
        }
    }

    #[test]
    fn quadratic_phase_reconstructed() {
        // Chirp-like quadratic phase, as in the LoRa FB estimator.
        let true_phase: Vec<f64> =
            (0..2000).map(|i| 1e-4 * (i as f64) * (i as f64) - 0.2 * i as f64).collect();
        let wrapped: Vec<f64> = true_phase.iter().map(|&p| wrap_to_pi(p)).collect();
        let un = unwrap_phase(&wrapped);
        for (u, t) in un.iter().zip(true_phase.iter()) {
            assert!((u - t).abs() < 1e-6);
        }
    }

    #[test]
    fn wrap_to_pi_domain() {
        for k in -20..20 {
            let p = 0.77 * k as f64;
            let w = wrap_to_pi(p);
            assert!(w > -PI - 1e-12 && w <= PI + 1e-12);
            // Same angle modulo 2π.
            assert!(((p - w) / (2.0 * PI)).round() * 2.0 * PI - (p - w) < 1e-9);
        }
    }

    #[test]
    fn unwrap_iq_matches_manual() {
        let n = 300;
        let phase: Vec<f64> = (0..n).map(|i| 0.9 * i as f64).collect();
        let i: Vec<f64> = phase.iter().map(|p| p.cos()).collect();
        let q: Vec<f64> = phase.iter().map(|p| p.sin()).collect();
        let un = unwrap_iq(&i, &q);
        for (u, t) in un.iter().zip(phase.iter()) {
            assert!((u - t).abs() < 1e-9);
        }
    }

    #[test]
    fn small_noise_does_not_cause_spurious_wraps() {
        let n = 1000;
        let mut state = 42u64;
        let mut noise = || {
            // xorshift for cheap determinism
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 - 0.5
        };
        let true_phase: Vec<f64> = (0..n).map(|i| 0.2 * i as f64).collect();
        let wrapped: Vec<f64> =
            true_phase.iter().map(|&p| wrap_to_pi(p + 0.05 * noise())).collect();
        let un = unwrap_phase(&wrapped);
        let slope = (un[n - 1] - un[0]) / (n - 1) as f64;
        assert!((slope - 0.2).abs() < 1e-3, "slope {slope}");
    }
}
