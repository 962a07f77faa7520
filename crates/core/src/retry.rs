//! Retry policies for DHT operations issued by the index layer.
//!
//! The substrate reports faults through [`DhtError`](p2p_index_dht::DhtError);
//! this module decides what the index service does about them. A
//! [`RetryPolicy`] bounds how many attempts each operation gets and shapes
//! the exponential backoff between them. Time is *simulated*: backoff
//! delays are accumulated into the service's logical clock instead of
//! sleeping, so experiments can measure latency cost without wall-clock
//! runtime.
//!
//! The default policy is [`RetryPolicy::none`] — one attempt, no backoff,
//! no RNG draws — which makes a fault-free service bit-for-bit identical to
//! the pre-retry behavior.

use p2p_index_dht::SplitMix64;

/// How the index service retries failed DHT operations.
///
/// Backoff for the `n`-th retry is `base_backoff · 2ⁿ⁻¹`, plus a uniform
/// jitter of up to `jitter` times that value, drawn from the service's
/// seeded RNG (so runs are reproducible). All times are in simulated
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per operation (≥ 1; 1 means "never retry").
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated milliseconds.
    pub base_backoff_ms: u64,
    /// Extra uniform jitter as a fraction of the backoff (0.0 = none).
    pub jitter: f64,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl RetryPolicy {
    /// One attempt, no retries — the behavior-neutral default.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// A standard policy: `max_attempts` attempts, 100 ms base backoff,
    /// 50 % jitter, driven by `seed`.
    pub fn with_budget(seed: u64, max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff_ms: 100,
            jitter: 0.5,
            seed,
        }
    }

    /// `true` when this policy can ever retry.
    pub fn retries(&self) -> bool {
        self.max_attempts > 1
    }

    /// The simulated delay before retry number `retry` (1-based; 0 reads
    /// as 1), with jitter drawn from `rng`. Saturates at `u64::MAX`
    /// instead of overflowing.
    pub fn backoff_ms(&self, retry: u32, rng: &mut SplitMix64) -> u64 {
        let base = self
            .base_backoff_ms
            .saturating_mul(1u64 << retry.saturating_sub(1).min(32));
        if self.jitter > 0.0 && base > 0 {
            base.saturating_add((self.jitter * base as f64 * rng.next_f64()) as u64)
        } else {
            base
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Counters for the retry work a service performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// DHT operation attempts issued (including retries).
    pub attempts: u64,
    /// Retries issued (attempts beyond each operation's first).
    pub retries: u64,
    /// Operations that failed after exhausting their attempt budget (or
    /// hit a non-transient fault).
    pub gave_up: u64,
    /// Total simulated backoff delay, in milliseconds.
    pub backoff_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_retries() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert!(!p.retries());
        assert_eq!(p, RetryPolicy::default());
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let mut p = RetryPolicy::with_budget(7, 4);
        p.jitter = 0.0;
        let mut rng = SplitMix64::new(7);
        assert_eq!(p.backoff_ms(1, &mut rng), 100);
        assert_eq!(p.backoff_ms(2, &mut rng), 200);
        assert_eq!(p.backoff_ms(3, &mut rng), 400);
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let p = RetryPolicy::with_budget(9, 3);
        let mut a = SplitMix64::new(p.seed);
        let mut b = SplitMix64::new(p.seed);
        for retry in 1..=8 {
            let d = p.backoff_ms(retry, &mut a);
            let base = 100u64 << (retry - 1);
            assert!(d >= base, "retry {retry}: {d} < {base}");
            assert!(d <= base + base / 2, "retry {retry}: {d} too large");
            assert_eq!(d, p.backoff_ms(retry, &mut b));
        }
    }

    #[test]
    fn budget_clamps_to_one_attempt() {
        assert_eq!(RetryPolicy::with_budget(0, 0).max_attempts, 1);
    }

    #[test]
    fn huge_retry_counts_do_not_overflow() {
        let mut p = RetryPolicy::with_budget(1, u32::MAX);
        p.jitter = 0.0;
        let mut rng = SplitMix64::new(1);
        // The shift is clamped, so very deep retries plateau instead of
        // overflowing the u64 backoff.
        assert_eq!(p.backoff_ms(64, &mut rng), p.backoff_ms(33, &mut rng));
        // A base at the top of the range saturates through the jitter, and
        // retry 0 (outside the 1-based contract) reads as retry 1.
        let p = RetryPolicy {
            base_backoff_ms: u64::MAX,
            jitter: 0.5,
            ..RetryPolicy::with_budget(1, 4)
        };
        assert_eq!(p.backoff_ms(1, &mut rng), u64::MAX);
        assert_eq!(p.backoff_ms(0, &mut rng), u64::MAX);
    }
}
