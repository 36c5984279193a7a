//! Conservation checks run on every simulation and serving result.

use cellsim::{Metrics, ShardReport};

/// Collects conservation-law checks; every violation is a failed
/// operation of the run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Checks evaluated.
    pub checks: u64,
    /// Human-readable description of every violated check.
    pub violations: Vec<String>,
}

impl Ledger {
    /// Record one check; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.violations.push(what());
        }
    }

    /// The laws of one `Simulator` report: offered = accepted + blocked;
    /// handoffs offered = accepted + failed; outage drops ≤ drops.
    pub fn sim(&mut self, context: &str, m: &Metrics) {
        self.check(m.offered() == m.accepted() + m.blocked(), || {
            format!(
                "{context}: offered {} != accepted {} + blocked {}",
                m.offered(),
                m.accepted(),
                m.blocked()
            )
        });
        let (offered, accepted, failed) = m.handoffs();
        self.check(offered == accepted + failed, || {
            format!(
                "{context}: handoffs offered {offered} != accepted {accepted} + failed {failed}"
            )
        });
        self.check(m.dropped_by_outage() <= m.dropped(), || {
            format!(
                "{context}: outage drops {} exceed drops {}",
                m.dropped_by_outage(),
                m.dropped()
            )
        });
    }

    /// The laws of one `ShardedSimulator` report: accepted ≤ offered;
    /// handoffs offered = accepted + failed; outage drops ≤ drops; and,
    /// because a run drains every departure, each admitted call ends
    /// exactly once (new-call admissions = completed + dropped).
    pub fn shard(&mut self, context: &str, r: &ShardReport) {
        self.check(r.accepted <= r.offered, || {
            format!("{context}: accepted {} > offered {}", r.accepted, r.offered)
        });
        self.check(
            r.handoffs_offered == r.handoffs_accepted + r.handoffs_failed,
            || {
                format!(
                    "{context}: handoffs offered {} != accepted {} + failed {}",
                    r.handoffs_offered, r.handoffs_accepted, r.handoffs_failed
                )
            },
        );
        self.check(r.dropped_by_outage <= r.dropped, || {
            format!(
                "{context}: outage drops {} exceed drops {}",
                r.dropped_by_outage, r.dropped
            )
        });
        let admitted_calls = r.accepted - r.handoffs_accepted.min(r.accepted);
        self.check(admitted_calls == r.completed + r.dropped, || {
            format!(
                "{context}: admitted calls {admitted_calls} != completed {} + dropped {}",
                r.completed, r.dropped
            )
        });
    }
}
