//! Readers for the Linux `/proc` counters the benchmark reports: process
//! CPU, host steal, peak RSS and per-thread CPU and context switches.

use std::fs;

/// `USER_HZ`: the tick `/proc/self/stat` and `/proc/stat` count in.
const TICKS_PER_S: f64 = 100.0;

/// Name prefix of the benchmark's client (guest-side) threads, so their
/// CPU can be told apart from the backend (Dom0-side) threads'.
pub const CLIENT_THREAD_PREFIX: &str = "pb-client";

fn fields_after_comm(stat: &str) -> Vec<&str> {
    stat.rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default()
}

fn num(s: Option<&&str>) -> f64 {
    s.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0)
}

/// User + system CPU seconds of the whole process, all threads.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let f = fields_after_comm(&stat);
    // utime and stime are fields 14 and 15; the slice starts at field 3.
    (num(f.get(11)) + num(f.get(12))) / TICKS_PER_S
}

/// Host-wide CPU steal so far, in milliseconds (all CPUs).
pub fn steal_ms() -> f64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().next().unwrap_or("");
    let f: Vec<&str> = line.split_whitespace().collect();
    // "cpu user nice system idle iowait irq softirq steal ..."
    num(f.get(8)) * 1000.0 / TICKS_PER_S
}

/// Peak resident set size (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Per-thread CPU and context switches summed over the live threads,
/// split into client threads and the rest (backends, main).
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskTotals {
    /// CPU nanoseconds of the client threads.
    pub client_cpu_ns: f64,
    /// CPU nanoseconds of every other thread.
    pub other_cpu_ns: f64,
    /// Voluntary + involuntary context switches of every thread.
    pub switches: f64,
}

impl TaskTotals {
    /// Read the current totals from `/proc/self/task/*`.
    pub fn now() -> Self {
        let mut t = TaskTotals::default();
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return t;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
            let sched = fs::read_to_string(path.join("schedstat")).unwrap_or_default();
            let cpu_ns = num(sched.split_whitespace().collect::<Vec<_>>().first());
            if comm.starts_with(CLIENT_THREAD_PREFIX) {
                t.client_cpu_ns += cpu_ns;
            } else {
                t.other_cpu_ns += cpu_ns;
            }
            let status = fs::read_to_string(path.join("status")).unwrap_or_default();
            for line in status.lines() {
                if let Some(v) = line
                    .strip_prefix("voluntary_ctxt_switches:")
                    .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
                {
                    t.switches += v.trim().parse::<f64>().unwrap_or(0.0);
                }
            }
        }
        t
    }

    /// Component-wise `self - earlier`.
    pub fn since(&self, earlier: &TaskTotals) -> TaskTotals {
        TaskTotals {
            client_cpu_ns: self.client_cpu_ns - earlier.client_cpu_ns,
            other_cpu_ns: self.other_cpu_ns - earlier.other_cpu_ns,
            switches: self.switches - earlier.switches,
        }
    }

    /// Component-wise accumulate.
    pub fn add(&mut self, d: &TaskTotals) {
        self.client_cpu_ns += d.client_cpu_ns;
        self.other_cpu_ns += d.other_cpu_ns;
        self.switches += d.switches;
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, the size glibc's `cpu_set_t` has.
const MASK_WORDS: usize = 16;

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on. Returns that CPU.
///
/// On a small shared VM the guest <-> backend ping-pong across two vCPUs
/// makes per-command latency bimodal from run to run (see NOTES.md);
/// on one CPU each command is a plain context switch.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}
