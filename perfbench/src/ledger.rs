//! Failure accounting: every operation the benchmark attempts runs
//! under `catch_unwind`, and a panic, an error or a failed output check
//! counts as one failed operation instead of aborting the run.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Runs one operation. `Ok` counts as a success; `Err` (a failed
    /// check) and a panic count as a failure and yield `None`.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(msg)) => {
                self.record(what, &msg);
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic".to_string());
                self.record(what, &format!("panicked: {msg}"));
                None
            }
        }
    }

    fn record(&mut self, what: &str, msg: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {msg}");
        self.failures.push(format!("{what}: {msg}"));
    }

    /// Operations attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// One line per failure, in order.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `failed / attempted` (0 before any attempt).
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `Ok` when `actual == expected`, else an error naming both.
///
/// # Errors
///
/// Returns the mismatch description.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    actual: T,
    expected: T,
) -> Result<(), String> {
    if actual == expected {
        Ok(())
    } else {
        Err(format!("{what}: got {actual:?}, expected {expected:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_op_is_counted_not_raised() {
        let mut ledger = Ledger::default();
        assert_eq!(ledger.op("ok", || Ok(3)), Some(3));
        let none: Option<()> = ledger.op("boom", || panic!("watchdog abort"));
        assert!(none.is_none());
        let none: Option<()> = ledger.op("check", || Err("digest differs".into()));
        assert!(none.is_none());
        assert_eq!((ledger.attempted(), ledger.failed()), (3, 2));
        assert!(ledger.failures()[0].contains("watchdog abort"));
        assert!((ledger.error_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn expect_eq_names_the_mismatch() {
        assert!(expect_eq("hits", 3, 3).is_ok());
        let err = expect_eq("hits", 2, 3).unwrap_err();
        assert!(err.contains("hits") && err.contains('2') && err.contains('3'));
    }
}
