//! FaaS billing and durable-storage ledgers read at the two ends of the
//! timed region, so set-up and warm-up are not charged to the units.

use simcore::SimTime;

use crucial::{Billing, Pricing};
use dso::DurabilityStore;

/// Cumulative ledger readings at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mark {
    invocations: f64,
    cold_starts: f64,
    restores: f64,
    gb_s: f64,
    idle_gb_s: f64,
    exec_usd: f64,
    snapshot_usd: f64,
    s3_requests: f64,
    s3_bytes: f64,
    storage_usd: f64,
}

impl Mark {
    /// Reads the ledgers at virtual time `now`.
    pub fn read(billing: &Billing, store: Option<&DurabilityStore>, now: SimTime) -> Mark {
        let pricing = Pricing::default();
        let stats = store.map(|s| s.stats(now)).unwrap_or_default();
        Mark {
            invocations: billing.invocations() as f64,
            cold_starts: billing.cold_starts() as f64,
            restores: billing.restores() as f64,
            gb_s: billing.gb_seconds(),
            idle_gb_s: billing.idle_gb_seconds(),
            exec_usd: billing.cost(pricing),
            snapshot_usd: billing.snapshot_cost(pricing, now),
            s3_requests: stats.requests() as f64,
            s3_bytes: stats.bytes_put as f64,
            storage_usd: pricing.storage_cost(stats.requests(), stats.stored_gb_seconds),
        }
    }

    /// The timed region's ledger deltas as `(name, value)`, led by the
    /// cost per 1,000 of its `units`.
    pub fn since(self, start: Mark, units: u64) -> Vec<(String, f64)> {
        let d = |f: fn(&Mark) -> f64| f(&self) - f(&start);
        let usd = d(|m| m.exec_usd) + d(|m| m.snapshot_usd) + d(|m| m.storage_usd);
        [
            ("cost_usd_per_1k", usd / units.max(1) as f64 * 1_000.0),
            ("faas.invocations", d(|m| m.invocations)),
            ("faas.cold_starts", d(|m| m.cold_starts)),
            ("faas.restores", d(|m| m.restores)),
            ("faas.gb_s", d(|m| m.gb_s)),
            ("faas.idle_gb_s", d(|m| m.idle_gb_s)),
            ("cloudstore.s3_requests", d(|m| m.s3_requests)),
            ("cloudstore.s3_bytes", d(|m| m.s3_bytes)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}
