//! What the run's numbers depend on besides the code: core count, how fast
//! one core spins, and how much a second busy thread really adds. Printed
//! with every result so a number is never read without its host.

use crate::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub nproc: usize,
    /// Iterations per second of a dependent integer loop on one thread.
    pub spin_rate_per_s: f64,
    /// Two-thread aggregate spin rate ÷ one-thread rate (2.0 = two real cores).
    pub parallel_speedup: f64,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The harness never drives more client threads or connections than cores:
/// an extra client would fight the in-process server for the same cores and
/// measure the scheduler.
pub fn check_clients(clients: usize) -> Result<(), String> {
    let cores = nproc();
    if clients > cores {
        Err(format!("refusing to start {clients} client threads on a {cores}-core host"))
    } else {
        Ok(())
    }
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// While alive, the thread that made it, and every thread started from it,
/// runs on one CPU; dropping it gives the thread its CPUs back.
pub struct Pinned {
    pub cpu: usize,
    allowed: CpuSet,
}

/// Pins this thread to the CPU it is running on. For a workload whose
/// request crosses threads (`wire_small`: client, listener loop, worker):
/// between vCPUs a wake-up is an inter-processor interrupt the hypervisor
/// delivers when it gets to it, and that, not the program, was most of the
/// run-to-run spread of the round trip. On one CPU a hand-off is a context
/// switch. The vCPUs of the reference host share a core (`parallel_speedup`
/// ≈ 1.0), so the program loses no parallelism it had. `None` where the
/// kernel refuses; the workload then runs unpinned.
pub fn pin_to_current_cpu() -> Option<Pinned> {
    let mut allowed: CpuSet = [0; 16];
    let mut one: CpuSet = [0; 16];
    // SAFETY: both calls access `size_of::<CpuSet>()` bytes of a live array.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).ok().filter(|&cpu| cpu < 1024)?;
        one[cpu / 64] = 1 << (cpu % 64);
        let size = std::mem::size_of::<CpuSet>();
        let ok = sched_getaffinity(0, size, allowed.as_mut_ptr()) == 0
            && sched_setaffinity(0, size, one.as_ptr()) == 0;
        ok.then_some(Pinned { cpu, allowed })
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: reads `size_of::<CpuSet>()` bytes of a live array.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.allowed.as_ptr()) };
    }
}

fn spin(window: Duration) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut iterations = 0u64;
    let started = Instant::now();
    while started.elapsed() < window {
        for _ in 0..4096 {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407));
        }
        iterations += 4096;
    }
    black_box(x);
    iterations as f64 / started.elapsed().as_secs_f64()
}

pub fn measure(window: Duration) -> Host {
    let cores = nproc();
    let single = spin(window);
    let parallel_speedup = if cores < 2 {
        1.0
    } else {
        let rates: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| spin(window))).collect();
            handles.into_iter().map(|h| h.join().expect("spin thread")).collect()
        });
        rates.iter().sum::<f64>() / single
    };
    Host { nproc: cores, spin_rate_per_s: single, parallel_speedup }
}

impl Host {
    pub fn to_json(self) -> Json {
        Json::obj()
            .with("nproc", self.nproc as u64)
            .with("spin_rate_per_s", self.spin_rate_per_s)
            .with("parallel_speedup", self.parallel_speedup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_more_clients_than_cores() {
        assert!(check_clients(1).is_ok());
        assert!(check_clients(nproc()).is_ok());
        assert!(check_clients(nproc() + 1).is_err());
    }

    #[test]
    fn pinning_holds_one_cpu_and_gives_the_rest_back() {
        let allowed = || {
            let mut set: CpuSet = [0; 16];
            // SAFETY: writes at most `size_of::<CpuSet>()` bytes into a live array.
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
            set
        };
        let before = allowed();
        let pinned = pin_to_current_cpu().expect("the kernel lets a thread pin itself");
        assert_eq!(allowed().iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        let inherited = std::thread::spawn(allowed).join().expect("thread");
        assert_eq!(inherited[pinned.cpu / 64], 1 << (pinned.cpu % 64));
        drop(pinned);
        assert_eq!(allowed(), before);
    }

    #[test]
    fn measure_reports_positive_rates() {
        let host = measure(Duration::from_millis(20));
        assert!(host.spin_rate_per_s > 0.0);
        assert!(host.parallel_speedup > 0.0);
    }
}
