//! The capped-exponential-backoff delay curve on which the fleet
//! coordinator ([`crate::fleet`]) re-dispatches failed workers.
//! Retrying is the fleet's job alone: a worker whose journal append
//! fails exits nonzero, and its `--resume` re-dispatch recomputes only
//! the cells the journal lacks. An in-process retry after a partly
//! written append would leave a duplicated or glued journal line.

use std::time::Duration;

/// The delay before retry attempt `attempt` (1-based): `base · 2^(a−1)`,
/// capped. Attempt 0 (the first try) has no delay.
pub fn backoff_delay(attempt: u32, base: Duration, cap: Duration) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    let factor = 1u32 << (attempt - 1).min(20);
    base.checked_mul(factor).unwrap_or(cap).min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_doubles_and_caps() {
        let base = Duration::from_millis(500);
        let cap = Duration::from_secs(30);
        assert_eq!(backoff_delay(0, base, cap), Duration::ZERO);
        assert_eq!(backoff_delay(1, base, cap), Duration::from_millis(500));
        assert_eq!(backoff_delay(2, base, cap), Duration::from_millis(1000));
        assert_eq!(backoff_delay(3, base, cap), Duration::from_millis(2000));
        assert_eq!(backoff_delay(10, base, cap), cap);
        assert_eq!(backoff_delay(u32::MAX, base, cap), cap, "shift is clamped");
    }
}
