//! Host-side measurement: CPU time and memory from `/proc/self`, a
//! thread-count sampler, and the provenance block printed with every
//! result. None of it feeds back into the simulation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::Json;

/// Clock ticks per second of `/proc/self/stat`'s CPU fields (`USER_HZ`,
/// 100 on every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// User and system CPU seconds this process has used, all threads,
/// exited ones included.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cpu {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
}

impl Cpu {
    /// Reads `/proc/self/stat` (all zeros where it is unavailable).
    pub fn now() -> Cpu {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name may contain spaces; fields resume after ')'.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / USER_HZ;
        // Fields 14 and 15 of stat(5); `rest` starts at field 3.
        Cpu { user_s: tick(11), sys_s: tick(12) }
    }

    /// CPU used since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }
}

/// A `kB` field of `/proc/self/status` (0 where unavailable).
fn status_field(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it starts afterwards, to
/// the CPU it is running on; returns that CPU, or `None` where pinning is
/// unavailable.
///
/// The kernel hands control from one simulated process's OS thread to the
/// next, so only one of them works at a time. Left free, the scheduler
/// spreads them over every CPU and each handoff wakes another CPU from
/// idle. On a virtual machine that wake-up is a round trip through the
/// hypervisor whose cost moves with whatever else the machine runs; on
/// one CPU each handoff is a plain context switch.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: both are glibc calls with no preconditions; the mask is a
    // live, properly sized array for the duration of the call.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Samples this process's OS thread count every few milliseconds on a
/// helper thread until [`ThreadSampler::stop`]; the simulator runs one OS
/// thread per simulated process, so this tracks simulated concurrency.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    max: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl ThreadSampler {
    /// Starts sampling.
    pub fn start() -> ThreadSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let max = Arc::new(AtomicU64::new(status_field("Threads")));
        let (s, m) = (stop.clone(), max.clone());
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                m.fetch_max(status_field("Threads"), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        ThreadSampler { stop, max, handle }
    }

    /// Stops sampling and returns the largest thread count seen, not
    /// counting the sampler itself.
    pub fn stop(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("thread sampler does not panic");
        self.max.load(Ordering::Relaxed).saturating_sub(1)
    }
}

/// The provenance block: what ran, where, and from which source.
pub fn provenance(workload: &str, seed: u64, params: Json, pinned: Option<usize>) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("params", params),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("pinned_cpu", pinned.map_or(Json::Null, |c| Json::Num(c as f64))),
        ("build_profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("git_commit", Json::str(env!("PERFBENCH_COMMIT"))),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}
