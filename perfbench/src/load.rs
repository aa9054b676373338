//! The end-to-end run: guests on the improved platform driven through
//! the real split driver (tpmfront -> ring -> tpmback -> manager) by a
//! closed-loop load generator, with no benchmark spans recorded.

use std::time::{Duration, Instant};

use tpm::Transport;
use vtpm::{InstanceId, TpmFront, VtpmManager};
use vtpm_ac::{AuditLog, ImprovedHook, SecurePlatform};
use workload::{CommandMix, Op};

use crate::plan::{classes, GuestDriver, Workload, PCRS};
use crate::stats::{self, Report};
use crate::sys;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Plan ops each guest runs during warm-up, before timing starts.
pub const WARMUP_OPS: usize = 24;

/// A transport that counts the commands it carries, so the run can
/// check the manager handled exactly what the guests sent.
pub struct Counted<T> {
    pub inner: T,
    pub commands: u64,
}

impl<T: Transport> Transport for Counted<T> {
    fn transact(&mut self, cmd: &[u8]) -> Vec<u8> {
        self.commands += 1;
        self.inner.transact(cmd)
    }
}

/// A guest on the ring path.
pub struct RingGuest {
    pub instance: InstanceId,
    pub driver: GuestDriver<Counted<TpmFront>>,
}

/// The platform seed of a workload. It does not depend on the run seed:
/// every run boots the same platform and manufactures the same TPM keys,
/// so set-up does the same work on every run (RSA key generation takes a
/// seed-dependent number of prime candidates), and the run seed varies
/// only the guests' traffic.
pub fn platform_seed(w: &Workload) -> Vec<u8> {
    format!("perfbench/{}", w.name).into_bytes()
}

/// Launch guest `g` on `sp`, prepare its TPM session and run its warm-up.
pub fn launch_ring_guest(
    sp: &SecurePlatform,
    mix: CommandMix,
    seed: u64,
    g: usize,
) -> Result<RingGuest, String> {
    let guest = sp
        .launch_guest(&format!("guest{g}"))
        .map_err(|e| format!("launch: {e:?}"))?;
    let instance = guest.instance;
    let mut driver = GuestDriver::prepare(
        Counted {
            inner: guest.front,
            commands: 0,
        },
        mix,
        seed,
        g,
    )?;
    warm_up(&mut driver)?;
    Ok(RingGuest { instance, driver })
}

/// Run the first [`WARMUP_OPS`] ops of a guest's plan.
pub fn warm_up<T: Transport>(driver: &mut GuestDriver<T>) -> Result<(), String> {
    for _ in 0..WARMUP_OPS {
        let op = driver.next_op();
        driver.run(op).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// Per-op latencies (µs) by `Op::ALL` index, and outcome counts.
#[derive(Default)]
pub struct OpSamples {
    pub latency_us: [Vec<f64>; Op::ALL.len()],
    /// Completion time of each completed op, in seconds from `epoch`.
    pub done_at_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl OpSamples {
    pub fn record(
        &mut self,
        op: Op,
        started: Instant,
        epoch: Instant,
        outcome: Result<(), String>,
    ) {
        let now = Instant::now();
        let us = (now - started).as_secs_f64() * 1e6;
        self.attempted += 1;
        match outcome {
            Ok(()) => {
                self.latency_us[op_index(op)].push(us);
                self.done_at_s.push((now - epoch).as_secs_f64());
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }

    pub fn merge(&mut self, other: OpSamples) {
        for (mine, theirs) in self.latency_us.iter_mut().zip(other.latency_us) {
            mine.extend(theirs);
        }
        self.done_at_s.extend(other.done_at_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Median throughput (ops/s) over the full [`WINDOW_S`] windows of a
    /// `wall_s`-long phase: a steal burst or a slow spell on the host
    /// moves a few windows, not the median.
    pub fn window_throughput(&self, wall_s: f64) -> f64 {
        let windows = (wall_s / WINDOW_S) as usize;
        let mut counts = vec![0.0; windows];
        for &t in &self.done_at_s {
            if let Some(c) = counts.get_mut((t / WINDOW_S) as usize) {
                *c += 1.0;
            }
        }
        stats::median(&mut counts) / WINDOW_S
    }
}

/// Throughput window length, in seconds.
pub const WINDOW_S: f64 = 0.25;

pub fn op_index(op: Op) -> usize {
    Op::ALL
        .iter()
        .position(|&o| o == op)
        .expect("Op::ALL lists every op")
}

/// Metric-name stem of an op class.
pub fn class_stem(op: Op) -> &'static str {
    match op {
        Op::GetRandom => "random",
        Op::PcrRead => "read",
        Op::Extend => "extend",
        Op::Seal => "seal",
        Op::Unseal => "unseal",
        Op::Quote => "quote",
        Op::Sign => "sign",
    }
}

/// The mix-weighted mean of per-class medians: the expected cost of one
/// op of the mix, built from medians so single stalls do not move it.
pub fn mix_p50(mix: &CommandMix, samples: &mut [Vec<f64>; Op::ALL.len()]) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for op in classes(mix) {
        let w = mix.weight(op) as f64;
        num += w * stats::median(&mut samples[op_index(op)]);
        den += w;
    }
    stats::ratio(num, den)
}

/// Split `items` round-robin into `n` disjoint sets.
pub fn deal<T>(items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let mut sets: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        sets[i % n].push(item);
    }
    sets
}

/// Closed loop over one client's guests until `deadline`: each guest's
/// next op is sent only after its previous op completed.
fn client_loop(guests: &mut [RingGuest], epoch: Instant, deadline: Instant) -> OpSamples {
    let mut out = OpSamples::default();
    'run: loop {
        for g in guests.iter_mut() {
            if Instant::now() >= deadline {
                break 'run;
            }
            let op = g.driver.next_op();
            let t0 = Instant::now();
            let outcome = g.driver.run(op);
            out.record(op, t0, epoch, outcome);
        }
    }
    out
}

/// What the end-of-run checks found.
#[derive(Default)]
pub struct CheckTally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl CheckTally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_error.get_or_insert_with(what);
        }
    }
}

/// Every guest's PCR bank, read through the manager, matches its model.
pub fn check_pcr_banks(
    manager: &VtpmManager,
    guests: &[(InstanceId, [[u8; 20]; PCRS])],
    tally: &mut CheckTally,
) {
    for (id, model) in guests {
        let bank = manager.with_instance(*id, |i| {
            let mut v = [[0u8; 20]; PCRS];
            for (p, slot) in v.iter_mut().enumerate() {
                *slot = i.tpm.pcrs().read(p).unwrap_or_default();
            }
            v
        });
        tally.check(bank.as_ref() == Some(model), || {
            format!("instance {id}: PCR bank differs from the model")
        });
    }
}

/// The encrypted mirror holds each instance's committed state.
pub fn check_mirror(manager: &VtpmManager, ids: &[InstanceId], tally: &mut CheckTally) {
    for &id in ids {
        let resident = manager.resident_image(id).ok();
        let live = manager.export_instance_state(id);
        tally.check(resident.is_some() && resident == live, || {
            format!("instance {id}: resident mirror image differs from the live state")
        });
    }
}

/// The audit chain verifies and holds no denial; the manager handled
/// exactly `sent` commands and refused none.
pub fn check_manager(
    manager: &VtpmManager,
    hook: &ImprovedHook,
    sent: u64,
    tally: &mut CheckTally,
) {
    tally.check(AuditLog::verify(&hook.audit.entries()), || {
        "audit chain does not verify".into()
    });
    let denials = hook.audit.denials();
    tally.check(denials == 0, || {
        format!("audit log holds {denials} denials")
    });
    check_stats(manager, sent, tally);
}

/// The manager handled exactly `sent` commands and refused none.
pub fn check_stats(manager: &VtpmManager, sent: u64, tally: &mut CheckTally) {
    let s = manager.stats_snapshot();
    tally.check(
        s.handled == sent && s.denied == 0 && s.errors == 0 && s.throttled == 0,
        || {
            format!(
                "manager stats: handled {} of {sent} sent, denied {}, errors {}, throttled {}",
                s.handled, s.denied, s.errors, s.throttled
            )
        },
    );
}

/// The end-to-end run of workload `w`.
pub fn run(w: &Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let mix = (w.mix)();

    // Set-up (platform boot, guest launch, sessions, warm-up), repeated;
    // the last rig is the one measured.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut rig: Option<(SecurePlatform, Vec<RingGuest>)> = None;
    for _ in 0..SETUP_REPEATS {
        drop(rig.take());
        let t0 = Instant::now();
        let sp = SecurePlatform::full(&platform_seed(w)).map_err(|e| format!("boot: {e:?}"))?;
        let guests = (0..w.guests)
            .map(|g| launch_ring_guest(&sp, mix.clone(), seed, g))
            .collect::<Result<Vec<_>, _>>()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        rig = Some((sp, guests));
    }
    let (sp, guests) = rig.expect("at least one set-up");

    // Timed phase.
    let mut sets = deal(guests, w.threads);
    let cpu0 = sys::process_cpu_s();
    let steal0 = sys::steal_ms();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(seconds);
    let mut samples = OpSamples::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = sets
            .iter_mut()
            .enumerate()
            .map(|(t, set)| {
                std::thread::Builder::new()
                    .name(format!("{}-{t}", sys::CLIENT_THREAD_PREFIX))
                    .spawn_scoped(s, move || client_loop(set, t0, deadline))
                    .expect("spawn client thread")
            })
            .collect();
        for h in handles {
            samples.merge(h.join().expect("client thread panicked"));
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let steal_ms = sys::steal_ms() - steal0;
    let rss_mb = sys::peak_rss_mb();
    let mut guests: Vec<RingGuest> = sets.into_iter().flatten().collect();

    // End-of-run checks.
    let manager = &sp.platform.manager;
    let mut tally = CheckTally::default();
    let models: Vec<_> = guests
        .iter()
        .map(|g| (g.instance, *g.driver.model_pcrs()))
        .collect();
    let ids: Vec<_> = guests.iter().map(|g| g.instance).collect();
    let sent: u64 = guests
        .iter_mut()
        .map(|g| g.driver.transport_mut().commands)
        .sum();
    check_pcr_banks(manager, &models, &mut tally);
    check_manager(manager, &sp.hook, sent, &mut tally);
    check_mirror(manager, &ids, &mut tally);
    if let Some(e) = samples.first_error.as_ref().or(tally.first_error.as_ref()) {
        eprintln!("perfbench: check failed: {e}");
    }

    let done = samples.completed() as f64;
    let mut r = Report {
        attempted: samples.attempted + tally.attempted,
        failed: samples.failed + tally.failed,
        ..Report::default()
    };
    r.metric("setup_s", stats::median(&mut setup_s), "s");
    r.metric("ops_per_s", samples.window_throughput(wall_s), "1/s");
    r.metric(
        "read_p50_us",
        stats::median(&mut samples.latency_us[op_index(Op::PcrRead)]),
        "us",
    );
    r.metric(
        "random_p50_us",
        stats::median(&mut samples.latency_us[op_index(Op::GetRandom)]),
        "us",
    );
    r.metric("mix_p50_us", mix_p50(&mix, &mut samples.latency_us), "us");
    r.metric("cpu_us_per_op", cpu_s * 1e6 / done, "us");
    r.metric("peak_rss_mb", rss_mb, "MiB");
    for op in classes(&mix) {
        let lat = &mut samples.latency_us[op_index(op)];
        let stem = class_stem(op);
        r.diagnostic(&format!("{stem}_p50_us"), stats::median(lat), "us");
        r.diagnostic(&format!("{stem}_p99_us"), stats::quantile(lat, 0.99), "us");
        r.diagnostic(&format!("{stem}_mean_us"), stats::mean(lat), "us");
        r.diagnostic(&format!("{stem}_samples"), lat.len() as f64, "count");
    }
    r.diagnostic("ops_per_s.whole_run", done / wall_s, "1/s");
    r.diagnostic(
        "fail_ratio",
        stats::ratio(r.failed as f64, r.attempted as f64),
        "ratio",
    );
    r.diagnostic("host.steal_ms", steal_ms, "ms");
    r.diagnostic("cpu_per_wall", cpu_s / wall_s, "ratio");
    r.diagnostic("timed_s", wall_s, "s");
    for (i, s) in setup_s.iter().enumerate() {
        r.diagnostic(&format!("setup_s.{i}"), *s, "s");
    }
    Ok(r)
}
