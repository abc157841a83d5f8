//! `kv_mix` — closed loop straight against the DSO tier, no FaaS.
//!
//! 32 clients each issue a fixed, seeded list of calls on 1 KB
//! `AtomicByteArray`s replicated twice (rf = 2) across a 3-node cluster in
//! the default linearizable mode: 90 % `get`, 10 % `set`, keys drawn
//! Zipf-skewed from ~1,000. One unit is one DSO call. Reads take the
//! read-only fast path at the primary; writes take a Skeen SMR round on
//! both replicas. This is the Table 2 / Fig 2a request shape, and the
//! workload whose host speed the kernel's thread handoff sets.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use crucial::{AtomicByteArray, DsoCluster, DsoConfig, ObjectRegistry};

use crate::harness::{Harness, RunOut};
use crate::inputs::{read_tag, tagged_value, Rng, Zipf};
use crate::json::Json;
use crate::rec;

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct Params {
    /// DSO nodes.
    pub nodes: u32,
    /// Closed-loop clients.
    pub clients: u32,
    /// Distinct keys.
    pub keys: u32,
    /// Value size, bytes.
    pub value_len: usize,
    /// Calls per client in the timed region.
    pub ops_per_client: u32,
    /// Share of calls that are writes, percent.
    pub write_pct: u64,
    /// Zipf exponent of key popularity.
    pub zipf_s: f64,
}

impl Params {
    /// The benchmark's parameters.
    pub fn new() -> Params {
        Params {
            nodes: 3,
            clients: 32,
            keys: 1_000,
            value_len: 1_024,
            ops_per_client: 1_024,
            write_pct: 10,
            zipf_s: 0.99,
        }
    }

    /// The parameters, for the provenance block.
    pub fn json(&self) -> Json {
        Json::obj([
            ("loop", Json::str("closed")),
            ("dso_nodes", Json::Num(self.nodes.into())),
            ("replication", Json::Num(2.0)),
            ("clients", Json::Num(self.clients.into())),
            ("keys", Json::Num(self.keys.into())),
            ("value_bytes", Json::Num(self.value_len as f64)),
            ("ops_per_client", Json::Num(self.ops_per_client.into())),
            ("write_pct", Json::Num(self.write_pct as f64)),
            ("zipf_s", Json::Num(self.zipf_s)),
        ])
    }
}

/// Marks a key's initial value.
const INIT_WRITER: u32 = u32::MAX;

/// Writes issued so far per key, as `(writer, seq)`. A read may return
/// only the key's initial value or one of these.
type Issued = Arc<Mutex<Vec<BTreeSet<(u32, u64)>>>>;

fn check(issued: &Issued, key: u32, v: &[u8], len: usize) -> Result<u32, String> {
    match read_tag(v, len) {
        Some((k, w, s)) if k == key => {
            let ok = (w == INIT_WRITER && s == 0)
                || issued.lock().expect("check state")[key as usize].contains(&(w, s));
            if ok {
                Ok(w)
            } else {
                Err(format!("key {key}: read writer {w} seq {s}, which was never written"))
            }
        }
        Some((k, ..)) => Err(format!("key {key}: read a value written to key {k}")),
        None => Err(format!("key {key}: read a malformed value of {} bytes", v.len())),
    }
}

/// One run of the workload.
pub fn run(seed: u64, p: &Params, traced: bool) -> RunOut {
    let mut h = Harness::new(seed, traced);
    let cluster =
        DsoCluster::start(&h.sim, p.nodes, DsoConfig::default(), ObjectRegistry::with_builtins());
    let handle = cluster.client_handle();
    let len = p.value_len;
    let objs: Arc<Vec<AtomicByteArray>> = Arc::new(
        (0..p.keys)
            .map(|k| {
                let init = tagged_value(len, k, INIT_WRITER, 0);
                AtomicByteArray::persistent(&format!("kv-{k}"), init, 2)
            })
            .collect(),
    );
    let issued: Issued = Arc::new(Mutex::new(vec![BTreeSet::new(); p.keys as usize]));
    let zipf = Zipf::new(p.keys as usize, p.zipf_s);
    let plans: Vec<Vec<(u32, bool)>> = (0..p.clients)
        .map(|c| {
            let mut r = Rng::new(seed, c.into());
            (0..p.ops_per_client)
                .map(|_| (zipf.sample(&mut r) as u32, r.below(100) < p.write_pct))
                .collect()
        })
        .collect();

    // Set-up: every key created and read back at its initial value.
    for c in 0..p.clients {
        let (handle, objs, issued, keys) = (handle.clone(), objs.clone(), issued.clone(), p.keys);
        let stride = p.clients as usize;
        h.sim.spawn(&format!("preload-{c}"), move |ctx| {
            let mut cli = handle.connect();
            for k in (c..keys).step_by(stride) {
                match objs[k as usize].get(ctx, &mut cli) {
                    Ok(v) => {
                        if let Err(e) = check(&issued, k, &v, len) {
                            rec::violation(e);
                        }
                    }
                    Err(_) => rec::failed_unit(),
                }
            }
        });
    }
    h.phase("set-up");

    let region = h.timed(|sim| {
        for (c, plan) in plans.into_iter().enumerate() {
            let (handle, objs, issued) = (handle.clone(), objs.clone(), issued.clone());
            let writer = c as u32;
            sim.spawn(&format!("client-{c}"), move |ctx| {
                let mut cli = handle.connect();
                for (i, (k, write)) in plan.into_iter().enumerate() {
                    let unit = u64::from(writer) << 32 | i as u64;
                    let obj = &objs[k as usize];
                    if write {
                        let seq = i as u64;
                        issued.lock().expect("check state")[k as usize].insert((writer, seq));
                        let v = tagged_value(len, k, writer, seq);
                        let s = rec::open(ctx, unit, None, "dso.write");
                        let r = obj.set(ctx, &mut cli, &v);
                        rec::close(ctx, s);
                        if r.is_err() {
                            rec::failed_unit();
                        }
                    } else {
                        let s = rec::open(ctx, unit, None, "dso.read");
                        let r = obj.get(ctx, &mut cli);
                        rec::close(ctx, s);
                        match r {
                            Ok(v) => {
                                if let Err(e) = check(&issued, k, &v, len) {
                                    rec::violation(e);
                                }
                            }
                            Err(_) => rec::failed_unit(),
                        }
                    }
                }
            });
        }
    });

    // Check: sweep every key. A key that was written must hold one of
    // its writes, never the initial value again.
    let (handle, objs, issued2, keys) = (handle.clone(), objs.clone(), issued.clone(), p.keys);
    h.sim.spawn("sweep", move |ctx| {
        let mut cli = handle.connect();
        for k in 0..keys {
            match objs[k as usize].get(ctx, &mut cli) {
                Ok(v) => match check(&issued2, k, &v, len) {
                    Ok(INIT_WRITER)
                        if !issued2.lock().expect("check state")[k as usize].is_empty() =>
                    {
                        rec::violation(format!(
                            "key {k}: written, but sweep read the initial value"
                        ));
                    }
                    Ok(_) => {}
                    Err(e) => rec::violation(format!("sweep: {e}")),
                },
                Err(e) => rec::violation(format!("sweep: key {k} unreadable: {e}")),
            }
        }
    });
    h.phase("checks");
    h.finish(region, Vec::new())
}
