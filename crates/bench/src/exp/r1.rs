//! R-R1: crash/recovery robustness of the encrypted mirror pipeline.
//!
//! Not a figure from the paper — the paper asserts (§4) that keeping the
//! vTPM state resident in Dom0-controlled memory lets the manager be
//! restarted without guest-visible loss, but reports no experiment for
//! it. R-R1 supplies one: seeded chaos runs (frame corruption, ring
//! faults, grant revocation, forced manager crashes between mirror page
//! writes) are replayed through the full stack and diffed against a
//! reference TPM oracle. The claim under test: every committed
//! generation survives — a recovered manager always lands on exactly
//! the pre- or post-command state, never on a torn or stale one — and
//! the whole scenario is deterministic under replay.

use vtpm::MirrorMode;
use vtpm_harness::{run_chaos, ChaosConfig, ChaosReport};

/// One chaos scenario (seed × mirror mode), replayed twice.
#[derive(Debug, Clone)]
pub struct R1Row {
    /// Human-readable seed label.
    pub seed: String,
    /// Mirror mode the manager ran in.
    pub mode: &'static str,
    /// The first run's report: recoveries must land on the post- or
    /// pre-command state, with zero divergences, nonce reuses and span
    /// drops (scrub failures are expected only under injected crashes).
    pub report: ChaosReport,
    /// Whether the replay produced a byte-identical report.
    pub deterministic: bool,
}

/// Run `seeds` scenarios per mirror mode, each `events` long with up to
/// `faults` injected faults, replaying every one to check determinism.
pub fn run(seeds: usize, events: usize, faults: usize) -> Vec<R1Row> {
    let mut rows = Vec::new();
    for (mode, mode_name) in
        [(MirrorMode::Encrypted, "encrypted"), (MirrorMode::Cleartext, "cleartext")]
    {
        for s in 0..seeds {
            let label = format!("r1-{s}");
            let cfg = ChaosConfig { events, faults, mirror_mode: mode, ..ChaosConfig::default() };
            let report = run_chaos(label.as_bytes(), &cfg).expect("chaos run");
            let replay = run_chaos(label.as_bytes(), &cfg).expect("chaos replay");
            let deterministic = report == replay;
            rows.push(R1Row { seed: label, mode: mode_name, report, deterministic });
        }
    }
    rows
}

/// Render the table.
pub fn render(rows: &[R1Row]) -> String {
    let mut out = String::new();
    out.push_str("R-R1  Chaos + crash/recovery of the mirror pipeline (replayed twice per seed)\n");
    out.push_str(&format!(
        "{:<8} {:<10} {:>6} {:>8} {:>5} {:>5} {:>10} {:>9} {:>5} {:>9} {:>8} {:>9} {:>7} {:>6}\n",
        "seed", "mode", "faults", "crashes", "post", "pre", "reconnect", "completed", "drops",
        "scrubfail", "retburns", "diverge", "nonce", "det"
    ));
    for r in rows {
        let a = &r.report;
        out.push_str(&format!(
            "{:<8} {:<10} {:>6} {:>8} {:>5} {:>5} {:>10} {:>9} {:>5} {:>9} {:>8} {:>9} {:>7} {:>6}\n",
            r.seed,
            r.mode,
            a.faults.len(),
            a.crash_recoveries,
            a.recovered_post,
            a.recovered_pre,
            a.ring_reconnects,
            a.completed,
            a.dropped_events,
            a.scrub_failures,
            a.retried_generation_burns,
            a.divergences.len(),
            a.nonce_reuses,
            if r.deterministic { "yes" } else { "NO" },
        ));
    }
    let crashes: u64 = rows.iter().map(|r| r.report.crash_recoveries).sum();
    let diverged: usize = rows.iter().map(|r| r.report.divergences.len()).sum();
    let nondet = rows.iter().filter(|r| !r.deterministic).count();
    out.push_str(&format!(
        "totals: {} scenarios, {} crash recoveries, {} commands completed, {} span drops, \
         {} scrub failures, {} divergences, {} nondeterministic replays\n",
        rows.len(),
        crashes,
        rows.iter().map(|r| r.report.completed).sum::<u64>(),
        rows.iter().map(|r| r.report.dropped_events).sum::<u64>(),
        rows.iter().map(|r| r.report.scrub_failures).sum::<u64>(),
        diverged,
        nondet,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_generations_always_survive() {
        let rows = run(4, 48, 4);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            let a = &r.report;
            assert_eq!(a.divergences.len(), 0, "seed {} ({}) diverged", r.seed, r.mode);
            assert_eq!(a.nonce_reuses, 0, "seed {} ({}) reused a nonce", r.seed, r.mode);
            assert!(r.deterministic, "seed {} ({}) replayed differently", r.seed, r.mode);
            assert_eq!(
                a.recovered_post + a.recovered_pre,
                a.crash_recoveries,
                "seed {} ({}): a recovery matched neither legal state",
                r.seed,
                r.mode
            );
        }
        // The sweep must actually exercise the crash path, and the
        // telemetry registry must have seen the traffic without losing
        // span records.
        assert!(
            rows.iter().map(|r| r.report.crash_recoveries).sum::<u64>() > 0,
            "no scenario drew a crash fault; widen the sweep"
        );
        for r in &rows {
            assert!(r.report.completed > 0, "seed {} ({}) completed no requests", r.seed, r.mode);
            assert_eq!(r.report.dropped_events, 0, "seed {} ({}) dropped spans", r.seed, r.mode);
        }
        let table = render(&rows);
        assert!(table.contains("0 divergences"));
        assert!(table.contains("0 nondeterministic"));
    }
}
