//! Output checks: per-operation digests and the failure ledger behind
//! `attempted` / `failed`.

use dimetrodon_ckpt::fnv1a64;

/// FNV-1a digest of a value's `Debug` rendering. Rust prints `f64` in
/// its shortest round-tripping form, so two renderings are equal exactly
/// when every float in them is bit-equal.
pub fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a64(format!("{value:?}").as_bytes())
}

/// One operation (sweep point, validation config, fleet variant, chaos
/// point) of one repetition.
#[derive(Debug, Clone)]
pub struct Op {
    /// Stable label, identical across repetitions.
    pub label: String,
    /// Digest of the operation's simulated outputs.
    pub digest: u64,
    /// Why the operation failed its own checks, if it did.
    pub fault: Option<String>,
}

impl Op {
    /// An operation whose outputs passed `ok`; `why` explains a failure.
    pub fn checked<T: std::fmt::Debug>(label: String, value: &T, ok: bool, why: &str) -> Op {
        Op {
            label,
            digest: digest(value),
            fault: (!ok).then(|| why.to_string()),
        }
    }

    /// Marks the operation failed unless it already is.
    pub fn fail(&mut self, why: String) {
        self.fault.get_or_insert(why);
    }
}

/// Whether every value is finite.
pub fn all_finite(values: &[f64]) -> bool {
    values.iter().all(|v| v.is_finite())
}

/// Counts attempted and failed operations over a whole run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
    /// Digest of the reference repetition, per operation.
    reference: Option<Vec<(String, u64)>>,
}

impl Ledger {
    /// Records one repetition's operations. The first repetition recorded
    /// becomes the reference; every later one must reproduce its labels
    /// and digests exactly.
    pub fn record_rep(&mut self, ops: &[Op]) {
        match &self.reference {
            None => {
                self.reference = Some(ops.iter().map(|op| (op.label.clone(), op.digest)).collect());
                for op in ops {
                    self.count(op.fault.clone().map(|why| format!("{}: {why}", op.label)));
                }
            }
            Some(reference) => {
                let reference = reference.clone();
                if reference.len() != ops.len() {
                    self.count_many(
                        reference.len().max(ops.len()) as u64,
                        format!(
                            "repetition produced {} operations, expected {}",
                            ops.len(),
                            reference.len()
                        ),
                    );
                    return;
                }
                for (op, (label, digest)) in ops.iter().zip(&reference) {
                    let fault = op.fault.clone().or_else(|| {
                        (op.label != *label || op.digest != *digest)
                            .then(|| "digest differs from the first repetition".to_string())
                    });
                    self.count(fault.map(|why| format!("{}: {why}", op.label)));
                }
            }
        }
    }

    /// Records a repetition that did not finish (a panic): every one of
    /// its `ops` operations failed.
    pub fn record_lost_rep(&mut self, ops: u64, why: String) {
        self.count_many(ops, why);
    }

    /// Records operations that are checked once per run, not per
    /// repetition (the accuracy probes).
    pub fn record_once(&mut self, ops: &[Op]) {
        for op in ops {
            self.count(op.fault.clone().map(|why| format!("{}: {why}", op.label)));
        }
    }

    /// The reference digest of the whole workload: all operation digests
    /// folded in order.
    pub fn workload_digest(&self) -> Option<u64> {
        self.reference.as_ref().map(|ops| {
            let mut bytes = Vec::with_capacity(ops.len() * 8);
            for (_, digest) in ops {
                bytes.extend_from_slice(&digest.to_le_bytes());
            }
            fnv1a64(&bytes)
        })
    }

    fn count(&mut self, fault: Option<String>) {
        self.attempted += 1;
        if let Some(why) = fault {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }

    fn count_many(&mut self, ops: u64, why: String) {
        self.attempted += ops;
        self.failed += ops;
        if self.reasons.len() < 8 {
            self.reasons.push(why);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(label: &str, value: f64) -> Op {
        Op::checked(
            label.to_string(),
            &value,
            value.is_finite(),
            "non-finite output",
        )
    }

    #[test]
    fn identical_repetitions_pass() {
        let mut ledger = Ledger::default();
        ledger.record_rep(&[op("a", 1.0), op("b", 2.0)]);
        ledger.record_rep(&[op("a", 1.0), op("b", 2.0)]);
        assert_eq!((ledger.attempted, ledger.failed), (4, 0));
    }

    #[test]
    fn a_forced_digest_change_is_counted() {
        let mut ledger = Ledger::default();
        ledger.record_rep(&[op("a", 1.0), op("b", 2.0)]);
        // One bit of one output differs in the second repetition.
        ledger.record_rep(&[op("a", 1.0), op("b", f64::from_bits(2.0f64.to_bits() + 1))]);
        assert_eq!((ledger.attempted, ledger.failed), (4, 1));
        assert!(ledger.reasons[0].starts_with("b:"), "{:?}", ledger.reasons);
    }

    #[test]
    fn a_forced_check_failure_is_counted() {
        let mut ledger = Ledger::default();
        ledger.record_rep(&[op("a", f64::NAN), op("b", 2.0)]);
        let mut lost = op("c", 3.0);
        lost.fail("journal line missing".to_string());
        ledger.record_once(&[lost]);
        assert_eq!((ledger.attempted, ledger.failed), (3, 2));
    }

    #[test]
    fn a_lost_repetition_fails_all_its_operations() {
        let mut ledger = Ledger::default();
        ledger.record_rep(&[op("a", 1.0)]);
        ledger.record_lost_rep(5, "repetition panicked".to_string());
        assert_eq!((ledger.attempted, ledger.failed), (6, 5));
    }

    #[test]
    fn a_missing_operation_is_counted() {
        let mut ledger = Ledger::default();
        ledger.record_rep(&[op("a", 1.0), op("b", 2.0)]);
        ledger.record_rep(&[op("a", 1.0)]);
        assert_eq!(ledger.failed, 2);
    }
}
