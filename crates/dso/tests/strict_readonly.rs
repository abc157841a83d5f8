//! Runtime enforcement of `is_readonly` declarations: a method that lies
//! about being read-only would silently skip SMR and fork replicas. The
//! server snapshots the state around declared-readonly calls
//! (`DsoConfig::verify_readonly`) and rejects the call when it mutated.

use simcore::Sim;

use dso::{
    api, CallCtx, DsoCluster, DsoConfig, DsoError, Effects, ObjectError, ObjectRegistry,
    SharedObject,
};

/// A counter whose `peek` claims to be read-only but bumps the count —
/// exactly the misdeclaration `simanalyze`'s `readonly-impure` pass
/// catches statically; this test pins the runtime backstop for objects the
/// analyzer cannot see (e.g. uploaded from outside the workspace).
#[derive(Default)]
struct Sneaky {
    count: i64,
}

impl SharedObject for Sneaky {
    fn invoke(
        &mut self,
        _call: &CallCtx,
        method: &str,
        _args: &[u8],
    ) -> Result<Effects, ObjectError> {
        match method {
            "bump" => {
                self.count += 1;
                Effects::value(&self.count)
            }
            // Deliberate misdeclaration under test; integration tests are
            // exempt from the readonly-impure pass for exactly this.
            "peek" => {
                self.count += 1; // the lie: declared read-only below
                Effects::value(&self.count)
            }
            other => Err(ObjectError::MethodNotFound(other.to_string())),
        }
    }

    fn is_readonly(&self, method: &str) -> bool {
        method == "peek"
    }

    fn save(&self) -> Vec<u8> {
        // invariant: an i64 always encodes.
        simcore::codec::to_bytes(&self.count).expect("i64 encodes")
    }

    fn restore(&mut self, state: &[u8]) -> Result<(), ObjectError> {
        self.count =
            simcore::codec::from_bytes(state).map_err(|e| ObjectError::BadState(e.to_string()))?;
        Ok(())
    }
}

fn registry() -> ObjectRegistry {
    let mut registry = ObjectRegistry::with_builtins();
    registry.register("Sneaky", |_args| Ok(Box::new(Sneaky::default())));
    registry
}

/// Outcome of the peek-then-bump client: one declared-readonly call, one
/// honest mutator.
type PeekBump = (Result<i64, DsoError>, Result<i64, DsoError>);

fn run(cfg: DsoConfig) -> PeekBump {
    run_metered(cfg).0
}

/// Like [`run`], but also reports how many `verify_readonly` snapshots the
/// servers actually took (the `dso.readonly_snapshots` counter).
fn run_metered(cfg: DsoConfig) -> (PeekBump, u64) {
    let metrics = simcore::MetricsRegistry::new();
    let mut sim = Sim::new(5);
    sim.set_metrics(&metrics);
    let cluster = DsoCluster::start(&sim, 2, cfg, registry());
    let handle = cluster.client_handle();
    let results = std::sync::Arc::new(parking_lot::Mutex::new(None));
    let results2 = results.clone();
    sim.spawn("client", move |ctx| {
        let mut cli = handle.connect();
        let h = api::RawHandle::new("Sneaky", "liar", 1, &());
        let read: Result<i64, DsoError> = h.call_read(ctx, &mut cli, "peek", &());
        let write: Result<i64, DsoError> = h.call(ctx, &mut cli, "bump", &());
        *results2.lock() = Some((read, write));
    });
    sim.run_until_idle().expect_quiescent();
    let out = results.lock().take().expect("client ran");
    drop(cluster);
    (out, metrics.counter_value("dso.readonly_snapshots"))
}

#[test]
fn misdeclared_readonly_method_is_rejected_at_runtime() {
    let (read, write) = run(DsoConfig::default());
    match read {
        Err(DsoError::Object(ObjectError::ReadonlyViolation(m))) => {
            assert!(m.contains("peek"), "violation names the method: {m}");
        }
        other => panic!("expected ReadonlyViolation, got {other:?}"),
    }
    // The rejection restored the pre-call state: the honest mutator sees
    // a counter untouched by the rejected peek.
    assert_eq!(write.expect("bump succeeds"), 1);
}

#[test]
fn verification_can_be_disabled() {
    let cfg = DsoConfig { verify_readonly: false, ..DsoConfig::default() };
    let (read, write) = run(cfg);
    // Unverified, the lie goes through — and the mutation with it.
    assert_eq!(read.expect("peek succeeds unverified"), 1);
    assert_eq!(write.expect("bump succeeds"), 2);
}

#[test]
fn unproven_readonly_methods_are_snapshotted() {
    let ((read, _), snapshots) = run_metered(DsoConfig::default());
    assert!(read.is_err(), "the lying peek is rejected");
    // Sneaky is not in any proven-pure report, so the server paid for a
    // snapshot around the declared-readonly call.
    assert!(snapshots >= 1, "expected at least one verify snapshot, saw {snapshots}");
}

#[test]
fn proven_pure_methods_skip_snapshotting() {
    // Pretend the static purity pass proved Sneaky::peek pure (it is a
    // deliberate false certificate — exactly what this test needs to
    // observe that the snapshot is skipped on the proof's say-so).
    let mut pure = dso::PureMethods::default();
    pure.insert("Sneaky", "peek");
    let cfg = DsoConfig { pure_methods: pure, ..DsoConfig::default() };
    let ((read, write), snapshots) = run_metered(cfg);
    // No snapshot was taken, so the lie goes through undetected: trusting
    // a wrong proof trades the runtime net away. simanalyze only certifies
    // methods it can see the full source of, which Sneaky is not.
    assert_eq!(snapshots, 0, "proven-pure call must not snapshot");
    assert_eq!(read.expect("peek unverified under the certificate"), 1);
    assert_eq!(write.expect("bump succeeds"), 2);
}
