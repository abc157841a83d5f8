//! Host cost of three layers, each measured by calling its public API
//! directly in a loop outside any simulation: the codec on a unit's
//! arguments and replies, `SharedObject::invoke` on the workload's objects
//! and methods, and the timing wheel at the workload's pending population.
//! Each reports the median of several batches, in ns.

use std::hint::black_box;
use std::time::{Duration, Instant};

use serde::de::DeserializeOwned;
use serde::Serialize;

use dso::{CallCtx, ObjectRegistry, SharedObject, Ticket};
use simcore::codec::{from_bytes, to_bytes};
use simcore::{SimTime, TimingWheel};

use crate::inputs::{tagged_value, Rng};

const BATCHES: usize = 5;

/// Median over [`BATCHES`] of the ns per iteration of `f`, each batch
/// `iters` iterations long.
fn per_iter(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut v: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(black_box(i));
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[BATCHES / 2]
}

/// Encode and decode a value, as the client and server each do once per
/// argument and once per reply.
fn roundtrip<T: Serialize + DeserializeOwned>(v: &T) {
    let bytes = to_bytes(black_box(v)).expect("encodes");
    black_box(from_bytes::<T>(&bytes).expect("decodes"));
}

/// The calls one unit of a workload makes, weighted by how often.
#[derive(Clone, Copy, Debug)]
pub enum Calls {
    /// 90 % 1 KB `get`, 10 % 1 KB `set` (rf = 2: executed on 2 replicas).
    KvMix,
    /// One `addAndGet` and one barrier `await` (rf = 1).
    BspFanout,
    /// Four 1 KB `get`s and one `addAndGet` (rf = 2).
    ServeOpen,
}

/// Codec ns per unit: every argument and reply of the unit's calls,
/// encoded and decoded once.
pub fn codec_ns_per_unit(calls: Calls) -> f64 {
    let kb = tagged_value(1_024, 0, 0, 0);
    let get = per_iter(5_000, |_| {
        roundtrip(&());
        roundtrip(&kb);
    });
    let long = per_iter(50_000, |i| {
        roundtrip(&(i as i64));
        roundtrip(&(i as i64));
    });
    let unit_u64 = per_iter(50_000, |i| {
        roundtrip(&());
        roundtrip(&i);
    });
    match calls {
        // get: () -> 1 KB; set: 1 KB -> (); same bytes either way.
        Calls::KvMix => get,
        Calls::BspFanout => long + unit_u64,
        Calls::ServeOpen => 4.0 * get + long,
    }
}

fn create(reg: &ObjectRegistry, ty: &str, init: &impl Serialize) -> Box<dyn SharedObject> {
    reg.create(ty, &to_bytes(init).expect("encodes")).expect("builtin type")
}

fn call(ticket: u64) -> CallCtx {
    CallCtx { ticket: Ticket(ticket), replicated: false, node: 0 }
}

/// Server-side execution ns per unit: `SharedObject::invoke` on the
/// workload's object types and methods, times the replicas that execute
/// each call.
pub fn exec_ns_per_unit(calls: Calls) -> f64 {
    let reg = ObjectRegistry::with_builtins();
    let kb = tagged_value(1_024, 0, 0, 0);
    let set_args = to_bytes(&kb).expect("encodes");
    let unit_args = to_bytes(&()).expect("encodes");
    let one = to_bytes(&1i64).expect("encodes");
    let mut bytes = create(&reg, "AtomicByteArray", &kb);
    let get = per_iter(5_000, |_| {
        black_box(bytes.invoke(&call(0), "get", &unit_args).expect("get"));
    });
    let set = per_iter(5_000, |_| {
        black_box(bytes.invoke(&call(0), "set", &set_args).expect("set"));
    });
    let mut long = create(&reg, "AtomicLong", &0i64);
    let add = per_iter(50_000, |_| {
        black_box(long.invoke(&call(0), "addAndGet", &one).expect("addAndGet"));
    });
    // A barrier of 64 parties: 63 calls park, the 64th releases them all.
    let parties = 64u64;
    let mut barrier = create(&reg, "CyclicBarrier", &(parties as u32));
    let wait = per_iter(640, |i| {
        let _ = black_box(barrier.invoke(&call(i % parties), "await", &unit_args));
    });
    match calls {
        Calls::KvMix => 0.9 * get + 0.1 * 2.0 * set,
        Calls::BspFanout => add + wait,
        Calls::ServeOpen => 4.0 * get + 2.0 * add,
    }
}

/// Timing-wheel ns per event (one pop plus one push) with `population`
/// events pending, at delays spread like a DSO workload's (µs network
/// legs to ms timers).
pub fn wheel_ns_per_event(population: usize) -> f64 {
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut r = Rng::new(0, 0);
    let mut delay = move || Duration::from_nanos(1_000 + r.below(5_000_000));
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;
    for _ in 0..population.max(1) {
        wheel.push(now + delay(), seq, seq);
        seq += 1;
    }
    per_iter(200_000, |_| {
        let (t, _, v) = wheel.pop().expect("wheel stays populated");
        now = t;
        wheel.push(now + delay(), seq, v);
        seq += 1;
    })
}
