//! Chaos CLI: replay N seeded fault scenarios, each twice, and fail on
//! any oracle divergence, nonce reuse, or nondeterministic replay.
//!
//! ```text
//! chaos [--seeds N] [--events N] [--faults N] [--mode encrypted|cleartext]
//!       [--base LABEL] [--jobs N]
//!       [--family mirror|migration|attest|fleet|both|all] [--matrix] [--json]
//! ```
//!
//! Seeds run in parallel across `--jobs` worker threads (default: all
//! cores). Every seed is still executed twice and diffed, the per-seed
//! output lines are printed in seed order regardless of completion
//! order, and the exit status is unchanged: 0 clean, 1 divergence /
//! nonce reuse / nondeterministic replay, 2 bad usage.
//!
//! Seed labels are `<base>-<N>` for the mirror family and
//! `<base>-mig-<N>`, `<base>-att-<N>`, `<base>-fleet-<N>` for the
//! others (the family is appended here, so `--base` takes a bare label
//! such as `ci`); the crash matrix runs on `<base>-matrix`.
//!
//! `--family` picks the scenario family: `mirror` (default) is the
//! single-host mirror pipeline, `migration` the multi-host cluster
//! scenarios, `attest` the attestation-plane quote-storm/replay
//! scenarios, `fleet` the control-plane churn scenarios (failure
//! detection, concurrent drivers, rebalancing under crash storms),
//! `both` runs mirror + migration back to back on the same seed list,
//! `all` runs every family. Attest seeds *expect* critical sentinel
//! alerts (the injected attacks must be detected), so their clean
//! criterion is divergence-freedom alone — missed detections and false
//! positives are folded into the divergence list by the family itself.
//! Fleet seeds additionally require zero lost / duplicated / orphaned
//! vTPMs and that every injected drive conflict resolved to at most one
//! winner. `--matrix` additionally runs the exhaustive
//! crash-at-every-step migration matrix (both roles x every protocol
//! step) on one seed.
//!
//! Each seed prints one text line, `<kind> <seed>: <name> <value> ...`,
//! derived from the same field list as the JSON report: numbers, flags
//! and labels as they are, nested objects flattened to `name.field`,
//! lists (faults, cells, drives, divergences, alerts) as their length,
//! and the transcript as its first 8 bytes in hex. Divergence and alert
//! lines follow, indented.
//!
//! `--json` switches the per-seed output to one JSON object per line
//! (stable field order; `report` is the full seed report, plus
//! `deterministic` and `failed` verdicts), still printed in seed order
//! — pipe it into `jq` or the bench tooling. The summary line and exit
//! status are unchanged.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use vtpm::MirrorMode;
use vtpm_harness::{
    run_attest_chaos, run_chaos, run_crash_matrix, run_fleet_chaos, run_migration_chaos,
    AttestChaosConfig, AttestChaosReport, ChaosConfig, ChaosReport, CrashMatrixReport,
    FleetChaosConfig, FleetChaosReport, MigrationChaosConfig, MigrationChaosReport, Report,
};
use xen_sim::Result as XenResult;

/// Everything one seed produced: its report text (divergence detail
/// included) and whether it counts as a failure.
struct SeedOutcome {
    text: String,
    failed: bool,
}

/// Wrap a report's JSON with the harness verdicts, as one line.
fn json_line(report_json: &str, deterministic: bool, failed: bool) -> String {
    format!("{{\"report\":{report_json},\"deterministic\":{deterministic},\"failed\":{failed}}}\n")
}

/// What the CLI reads off one family's seed report beyond its fields.
trait SeedReport: Report + PartialEq {
    /// The seed's own verdict, replay determinism aside.
    fn clean(&self) -> bool;
    /// Lines printed indented under the summary.
    fn details(&self) -> Vec<&String>;
}

/// Run one seed twice via `run`, diff the replays, and render the
/// report line (`kind` is `seed` or `matrix`).
fn run_twice<R: SeedReport>(
    kind: &str,
    seed: &str,
    json: bool,
    run: impl Fn() -> XenResult<R>,
) -> SeedOutcome {
    let first = match run() {
        Ok(r) => r,
        Err(e) => {
            let text = format!("{kind} {seed}: harness error: {e}\n");
            return SeedOutcome { text, failed: true };
        }
    };
    let replay = match run() {
        Ok(r) => r,
        Err(e) => {
            let text = format!("{kind} {seed}: replay error: {e}\n");
            return SeedOutcome { text, failed: true };
        }
    };
    let deterministic = first == replay;
    let failed = !deterministic || !first.clean();
    if json {
        return SeedOutcome { text: json_line(&first.json(), deterministic, failed), failed };
    }
    let mut text = format!(
        "{kind} {seed}:{}{}\n",
        first.text(),
        if deterministic { "" } else { "  REPLAY MISMATCH" },
    );
    for d in first.details() {
        text.push_str(&format!("    {d}\n"));
    }
    SeedOutcome { text, failed }
}

impl SeedReport for ChaosReport {
    /// Scrub failures are *not* a failure condition: an injected crash
    /// can land on a post-commit hygiene scrub, which is best-effort by
    /// design (recovery re-scrubs). They are surfaced in the report line
    /// and covered by the determinism diff instead. A critical sentinel
    /// alert on a clean (attack-free) seed is a false positive and fails
    /// the seed.
    fn clean(&self) -> bool {
        self.divergences.is_empty()
            && self.nonce_reuses == 0
            && self.dropped_events == 0
            && self.sentinel_critical == 0
    }

    fn details(&self) -> Vec<&String> {
        self.divergences.iter().chain(&self.sentinel_alerts).collect()
    }
}

impl SeedReport for MigrationChaosReport {
    fn clean(&self) -> bool {
        self.divergences.is_empty() && self.sentinel_critical == 0
    }

    fn details(&self) -> Vec<&String> {
        self.divergences.iter().chain(&self.sentinel_alerts).collect()
    }
}

impl SeedReport for AttestChaosReport {
    /// Critical sentinel alerts are *expected* here (injected attacks
    /// must be detected — a missed detection is reported as a divergence
    /// by the family itself), so clean means divergence-free.
    fn clean(&self) -> bool {
        self.divergences.is_empty()
    }

    fn details(&self) -> Vec<&String> {
        self.divergences.iter().chain(&self.sentinel_alerts).collect()
    }
}

impl SeedReport for FleetChaosReport {
    /// No divergences, every VM accounted for exactly once (zero lost /
    /// duplicated / orphaned, journals settled), every injected conflict
    /// resolved to at most one winner, and no critical sentinel alerts
    /// (churn-storm alerts are Warning-class and expected).
    fn clean(&self) -> bool {
        self.divergences.is_empty()
            && self.lost == 0
            && self.duplicated == 0
            && self.orphaned == 0
            && self.unsettled == 0
            && self.multi_winner_conflicts == 0
            && self.sentinel_critical == 0
    }

    fn details(&self) -> Vec<&String> {
        self.divergences.iter().chain(&self.sentinel_alerts).collect()
    }
}

impl SeedReport for CrashMatrixReport {
    fn clean(&self) -> bool {
        self.failures.is_empty() && self.cells.len() == 18
    }

    fn details(&self) -> Vec<&String> {
        self.failures.iter().collect()
    }
}

/// Fan `seeds` out over `jobs` worker threads, printing outcomes in
/// seed order; returns the number of failed seeds.
fn run_family(seeds: usize, jobs: usize, run: impl Fn(usize) -> SeedOutcome + Sync) -> usize {
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, SeedOutcome)>();
    let mut failures = 0usize;
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            scope.spawn(move || loop {
                let s = next.fetch_add(1, Ordering::Relaxed);
                if s >= seeds {
                    break;
                }
                if tx.send((s, run(s))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        let mut pending: BTreeMap<usize, SeedOutcome> = BTreeMap::new();
        let mut next_print = 0usize;
        for (s, outcome) in rx {
            pending.insert(s, outcome);
            while let Some(o) = pending.remove(&next_print) {
                print!("{}", o.text);
                if o.failed {
                    failures += 1;
                }
                next_print += 1;
            }
        }
    });
    failures
}

fn main() -> ExitCode {
    let mut seeds = 32usize;
    let mut cfg = ChaosConfig::default();
    let mut base = String::from("chaos");
    let mut jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let [mut mirror_family, mut migration_family, mut attest_family, mut fleet_family] =
        [true, false, false, false];
    let mut matrix = false;
    let mut json = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| -> Option<&String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("{name} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--seeds" => match take("--seeds").and_then(|v| v.parse().ok()) {
                Some(n) => seeds = n,
                None => return ExitCode::from(2),
            },
            "--events" => match take("--events").and_then(|v| v.parse().ok()) {
                Some(n) => cfg.events = n,
                None => return ExitCode::from(2),
            },
            "--faults" => match take("--faults").and_then(|v| v.parse().ok()) {
                Some(n) => cfg.faults = n,
                None => return ExitCode::from(2),
            },
            "--mode" => match take("--mode").map(String::as_str) {
                Some("encrypted") => cfg.mirror_mode = MirrorMode::Encrypted,
                Some("cleartext") => cfg.mirror_mode = MirrorMode::Cleartext,
                _ => {
                    eprintln!("--mode is encrypted|cleartext");
                    return ExitCode::from(2);
                }
            },
            "--base" => match take("--base") {
                Some(b) => base = b.clone(),
                None => return ExitCode::from(2),
            },
            "--jobs" => match take("--jobs").and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1usize => jobs = n,
                _ => {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::from(2);
                }
            },
            "--family" => {
                [mirror_family, migration_family, attest_family, fleet_family] =
                    match take("--family").map(String::as_str) {
                        Some("mirror") => [true, false, false, false],
                        Some("migration") => [false, true, false, false],
                        Some("attest") => [false, false, true, false],
                        Some("fleet") => [false, false, false, true],
                        Some("both") => [true, true, false, false],
                        Some("all") => [true; 4],
                        _ => {
                            eprintln!("--family is mirror|migration|attest|fleet|both|all");
                            return ExitCode::from(2);
                        }
                    }
            }
            "--matrix" => matrix = true,
            "--json" => json = true,
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    jobs = jobs.min(seeds.max(1));

    // Work-stealing over the seed index; results stream back over a
    // channel and are printed strictly in seed order (out-of-order
    // completions buffer until their turn).
    let mut failures = 0usize;
    let mut ran = 0usize;
    if mirror_family {
        failures += run_family(seeds, jobs, |s| {
            let seed = format!("{base}-{s}");
            run_twice("seed", &seed, json, || run_chaos(seed.as_bytes(), &cfg))
        });
        ran += seeds;
    }
    if migration_family {
        let mig_cfg = MigrationChaosConfig {
            sealed: cfg.mirror_mode == MirrorMode::Encrypted,
            ..Default::default()
        };
        failures += run_family(seeds, jobs, |s| {
            let seed = format!("{base}-mig-{s}");
            run_twice("seed", &seed, json, || run_migration_chaos(seed.as_bytes(), &mig_cfg))
        });
        ran += seeds;
    }
    if attest_family {
        let att_cfg = AttestChaosConfig::default();
        failures += run_family(seeds, jobs, |s| {
            let seed = format!("{base}-att-{s}");
            run_twice("seed", &seed, json, || run_attest_chaos(seed.as_bytes(), &att_cfg))
        });
        ran += seeds;
    }
    if fleet_family {
        let fleet_cfg = FleetChaosConfig::default();
        failures += run_family(seeds, jobs, |s| {
            let seed = format!("{base}-fleet-{s}");
            run_twice("seed", &seed, json, || run_fleet_chaos(seed.as_bytes(), &fleet_cfg))
        });
        ran += seeds;
    }
    if matrix {
        let seed = format!("{base}-matrix");
        let outcome = run_twice("matrix", &seed, json, || run_crash_matrix(seed.as_bytes(), true));
        print!("{}", outcome.text);
        if outcome.failed {
            failures += 1;
        }
        ran += 1;
    }

    if failures > 0 {
        println!("{failures}/{ran} seeds failed");
        ExitCode::from(1)
    } else {
        println!("{ran} seeds clean, replays deterministic");
        ExitCode::SUCCESS
    }
}
