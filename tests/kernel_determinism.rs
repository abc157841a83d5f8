//! Golden-hash regression tests for the kernel refactors.
//!
//! The kernel's event queue was swapped from a binary heap to a timing
//! wheel + slab arena; Fifo-scheduled runs must stay **byte-identical**
//! across that swap. These tests pin two workloads — the DSO cluster smoke
//! and the traced π estimation — to hashes recorded on the pre-refactor
//! kernel (commit 75bae45 lineage), on two seeds each. Any change to event
//! ordering, span allocation order, or export formatting shows up here as
//! a hash mismatch.
//!
//! Fifo always picks the head of the runnable queue, so those goldens
//! cannot see a reordered contended pick. The baton-passing rewrite moved
//! every scheduling step onto process threads, so the smoke is also pinned
//! under `RandomScheduler` (op log + decision trace) and through its
//! Replay reproductions, recorded on the kernel-thread design.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crucial::{AtomicLong, DsoCluster, DsoConfig, ObjectRegistry, Sim, Tracer};
use crucial_apps::pi::run_pi_crucial_with;
use simcore::explore::replay_seed;
use simcore::{Decision, RandomScheduler, ReplayScheduler};

/// FNV-1a over bytes: stable, dependency-free fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The simexplore smoke workload under the default Fifo scheduler: a
/// 2-node cluster, 4 writers x 5 increments plus 2 readers x 4 reads on
/// one shared counter. Returns a fingerprint of the complete event order
/// as observed by the application: every op's (start, end, value) in
/// completion order, plus the final virtual time.
fn cluster_smoke_hash(seed: u64) -> u64 {
    let mut sim = Sim::new(seed);
    let log = spawn_cluster_smoke(&sim);
    let out = sim.run_until_idle();
    out.expect_quiescent();
    let mut g = log.lock();
    g.push_str(&format!("end {}\n", out.time));
    fnv1a(g.as_bytes())
}

/// Spawns the smoke workload on `sim`; the returned log collects every
/// op's (start, end, value) line in completion order.
fn spawn_cluster_smoke(sim: &Sim) -> Arc<Mutex<String>> {
    let cluster = DsoCluster::start(sim, 2, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let log: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));
    for w in 0..4 {
        let handle = handle.clone();
        let log = log.clone();
        sim.spawn(&format!("writer-{w}"), move |ctx| {
            let mut cli = handle.connect();
            let counter = AtomicLong::new("smoke-counter");
            for _ in 0..5 {
                let start = ctx.now();
                let value = counter.increment_and_get(ctx, &mut cli).expect("cluster reachable");
                let mut g = log.lock();
                g.push_str(&format!("w{w} {start} {} {value}\n", ctx.now()));
            }
        });
    }
    for r in 0..2 {
        let handle = handle.clone();
        let log = log.clone();
        sim.spawn(&format!("reader-{r}"), move |ctx| {
            let mut cli = handle.connect();
            let counter = AtomicLong::new("smoke-counter");
            for _ in 0..4 {
                let start = ctx.now();
                let value = counter.get(ctx, &mut cli).expect("cluster reachable");
                {
                    let mut g = log.lock();
                    g.push_str(&format!("r{r} {start} {} {value}\n", ctx.now()));
                }
                ctx.sleep(Duration::from_micros(200));
            }
        });
    }
    log
}

/// Fingerprint of the smoke's op log plus its full decision trace under
/// `sim`'s scheduler. Contended picks only reorder under a non-Fifo
/// scheduler, so this is what pins the kernel's pick sequence itself.
fn scheduled_smoke_hash(mut sim: Sim) -> (u64, Vec<Decision>) {
    let log = spawn_cluster_smoke(&sim);
    let out = sim.run_until_idle();
    out.expect_quiescent();
    let decisions = sim.decision_trace();
    let mut g = log.lock();
    g.push_str(&format!("end {}\n", out.time));
    for d in &decisions {
        g.push_str(&format!("{}/{} ", d.choice, d.options));
    }
    (fnv1a(g.as_bytes()), decisions)
}

fn random_smoke_hash(seed: u64) -> (u64, Vec<Decision>) {
    scheduled_smoke_hash(Sim::with_scheduler(seed, Box::new(RandomScheduler::new(seed))))
}

/// Re-runs the smoke through `replay_seed`, the way an explored seed is
/// reproduced from a report; returns its op-log fingerprint.
fn replay_seed_ops_hash(seed: u64) -> u64 {
    let log: Arc<Mutex<Option<Arc<Mutex<String>>>>> = Arc::default();
    let slot = log.clone();
    let failure = replay_seed(seed, move |sim: &mut Sim| {
        *slot.lock() = Some(spawn_cluster_smoke(sim));
        Box::new(|| Ok(()))
    });
    assert!(failure.is_none(), "smoke seed {seed} failed on replay: {failure:?}");
    let ops = log.lock().take().expect("scenario ran").lock().clone();
    fnv1a(ops.as_bytes())
}

/// Traced π estimation: fingerprints of both exports, which encode span
/// allocation order (= execution order) and the exact export bytes.
fn trace_pi_hashes(seed: u64) -> (u64, u64) {
    let tracer = Tracer::new();
    let t2 = tracer.clone();
    let r = run_pi_crucial_with(seed, 4, 100_000, move |sim| {
        sim.set_tracer(&t2);
    });
    assert!(r.estimate > 2.0 && r.estimate < 4.5, "sane π estimate");
    (fnv1a(tracer.export_chrome_json().as_bytes()), fnv1a(tracer.export_jsonl().as_bytes()))
}

#[test]
fn cluster_smoke_matches_pre_refactor_golden_hashes() {
    assert_eq!(cluster_smoke_hash(0), GOLDEN_SMOKE_SEED0, "smoke seed 0 diverged");
    assert_eq!(cluster_smoke_hash(7), GOLDEN_SMOKE_SEED7, "smoke seed 7 diverged");
}

#[test]
fn traced_pi_matches_pre_refactor_golden_hashes() {
    assert_eq!(trace_pi_hashes(42), GOLDEN_PI_SEED42, "trace-pi seed 42 diverged");
    assert_eq!(trace_pi_hashes(1007), GOLDEN_PI_SEED1007, "trace-pi seed 1007 diverged");
}

#[test]
fn random_schedules_match_golden_hashes() {
    for (seed, golden) in GOLDEN_RANDOM_SMOKE.into_iter().enumerate() {
        let (hash, decisions) = random_smoke_hash(seed as u64);
        assert!(!decisions.is_empty(), "seed {seed} made no contended pick");
        assert_eq!(hash, golden, "random-schedule smoke seed {seed} diverged");
    }
}

#[test]
fn replayed_schedules_reproduce_their_golden_runs() {
    // A recorded decision trace fed to a ReplayScheduler on a fresh Sim
    // reproduces the random run, decision for decision.
    let (hash, decisions) = random_smoke_hash(1);
    let choices = decisions.iter().map(|d| d.choice);
    let replayed = Sim::with_scheduler(1, Box::new(ReplayScheduler::new(choices)));
    assert_eq!(scheduled_smoke_hash(replayed), (hash, decisions));
    assert_eq!(replay_seed_ops_hash(2), GOLDEN_REPLAY_SEED2_OPS, "replay_seed(2) diverged");
}

// Recorded on the pre-refactor kernel (BinaryHeap event queue, String
// span records) so the wheel/slab/symbol-table refactor is pinned to it.
const GOLDEN_SMOKE_SEED0: u64 = 0xfb1e_7bd3_8c7b_1823;
const GOLDEN_SMOKE_SEED7: u64 = 0xc229_2e63_762f_0c68;
const GOLDEN_PI_SEED42: (u64, u64) = (8_345_115_569_156_730_087, 2_620_947_996_597_035_789);
const GOLDEN_PI_SEED1007: (u64, u64) = (10_008_093_687_855_188_003, 2_996_420_353_438_223_138);

// Recorded on the kernel-thread kernel, before the baton-passing rewrite
// moved scheduling steps onto process threads: the RandomScheduler smoke
// (op log + decision trace) on seeds 0-3, and the op log alone of a
// `replay_seed(2, ..)` reproduction.
const GOLDEN_RANDOM_SMOKE: [u64; 4] =
    [0x7291_206e_c305_2872, 0x806d_4747_b879_152e, 0xe4de_42e2_ac13_954c, 0x6881_bb9c_9cc5_5887];
const GOLDEN_REPLAY_SEED2_OPS: u64 = 0x4a2d_1648_6111_cfe0;

/// Re-records the constants above (run with `--ignored --nocapture`) when
/// an *intentional* behavior change moves the goldens.
#[test]
#[ignore]
fn print_golden() {
    eprintln!("SMOKE0 {:#x}", cluster_smoke_hash(0));
    eprintln!("SMOKE7 {:#x}", cluster_smoke_hash(7));
    eprintln!("PI42 {:?}", trace_pi_hashes(42));
    eprintln!("PI1007 {:?}", trace_pi_hashes(1007));
    for seed in 0..4 {
        let (hash, decisions) = random_smoke_hash(seed);
        eprintln!("RANDOM{seed} {hash:#x} ({} decisions)", decisions.len());
    }
    eprintln!("REPLAY2 {:#x}", replay_seed_ops_hash(2));
}
