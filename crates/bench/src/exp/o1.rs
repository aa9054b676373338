//! R-O1: telemetry self-overhead on the manager's request path.
//!
//! Not a figure from the paper — it validates this repo's own
//! observability subsystem. The claim under test: with the registry
//! enabled (`ManagerConfig::telemetry_enabled`, the default), the
//! per-command cost of span minting, stage stamping, histogram updates,
//! and the span-ring push is at most [`BUDGET_PCT`] of the median
//! command latency, per command class. The comparison is enabled vs
//! runtime-disabled registries inside one binary — the disabled manager
//! takes the identical code path minus the registry work, which is
//! exactly the increment the budget bounds.
//!
//! Two bases are reported, following the repo's wall/virtual split
//! (see R-T1): the **wall** percentage compares the registry increment
//! to the raw software cost of `handle()` in this simulator, and the
//! **deployment** percentage compares the same increment to the
//! modelled command latency on real hardware (virtual time: ring
//! transport plus the command's TPM cost). The budget gates the
//! deployment number — that is the latency a guest actually observes;
//! the wall number is reported for transparency and is large for
//! read-only commands precisely because their simulated software path
//! is a few hundred nanoseconds, thousands of times cheaper than the
//! hardware they model.
//!
//! Methodology: two managers (telemetry on / off), identical
//! configuration, virtual-time charging off so wall time is the
//! measurement. Batches of pre-encoded commands alternate A/B/A/B
//! between the managers to cancel clock drift and frequency ramps; the
//! per-command number is the median over batches. The deployment
//! latency comes from a third manager with charging on — the virtual
//! clock is deterministic, so its per-command cost is exact.

use std::sync::Arc;
use std::time::Instant;

use vtpm::{Envelope, ManagerConfig, MirrorMode, VtpmManager};
use vtpm_telemetry::json_str;
use xen_sim::{DomainId, Hypervisor};

use crate::{extend_cmd, json_list, median, pcr_read_cmd, STARTUP};

/// Hard overhead budget, percent of the modelled deployment latency.
pub const BUDGET_PCT: f64 = 3.0;

/// One command class, enabled vs disabled.
#[derive(Debug, Clone)]
pub struct O1Row {
    /// Command class measured.
    pub command: &'static str,
    /// Median wall ns/command with the registry disabled.
    pub disabled_ns: f64,
    /// Median wall ns/command with the registry enabled.
    pub enabled_ns: f64,
    /// Modelled deployment latency (virtual ns/command, deterministic).
    pub deploy_ns: f64,
    /// Batches timed per configuration.
    pub batches: usize,
    /// Commands per batch.
    pub per_batch: usize,
}

impl O1Row {
    /// Absolute registry increment, ns/command.
    pub fn overhead_ns(&self) -> f64 {
        self.enabled_ns - self.disabled_ns
    }

    /// Increment relative to the simulator's software path, percent.
    pub fn wall_overhead_pct(&self) -> f64 {
        self.overhead_ns() / self.disabled_ns * 100.0
    }

    /// Increment relative to the modelled deployment latency, percent —
    /// the number the budget gates.
    pub fn deploy_overhead_pct(&self) -> f64 {
        self.overhead_ns() / self.deploy_ns * 100.0
    }
}

/// Largest per-class deployment-basis overhead in the sweep — what the
/// CI gate compares against [`BUDGET_PCT`].
pub fn max_overhead_pct(rows: &[O1Row]) -> f64 {
    rows.iter().map(|r| r.deploy_overhead_pct()).fold(f64::NEG_INFINITY, f64::max)
}

/// The CI gate: the worst class's deployment overhead exceeds the budget.
pub fn gate_failed(rows: &[O1Row]) -> bool {
    max_overhead_pct(rows) > BUDGET_PCT
}

/// A started manager plus one pre-encoded request per command class.
/// The stock hook has no replay guard, so the same encoded bytes can be
/// replayed every iteration — per-command work is constant and the
/// enabled/disabled diff isolates the registry cost.
struct Rig {
    hv: Arc<Hypervisor>,
    mgr: VtpmManager,
    wire: Vec<Vec<u8>>,
}

impl Rig {
    fn build(telemetry_enabled: bool, charge: bool, classes: &[(&'static str, Vec<u8>)]) -> Rig {
        let hv = Arc::new(Hypervisor::boot(4096, 16).unwrap());
        let mgr = VtpmManager::new(
            Arc::clone(&hv),
            b"bench-o1",
            ManagerConfig {
                mirror_mode: MirrorMode::Encrypted,
                charge_virtual_time: charge,
                telemetry_enabled,
                ..Default::default()
            },
        )
        .unwrap();
        let inst = mgr.create_instance().unwrap();
        let env = |command: Vec<u8>| Envelope {
            domain: 1,
            instance: inst,
            seq: 1,
            locality: 0,
            tag: None,
            command,
        };
        mgr.handle(DomainId(1), &env(STARTUP.to_vec()).encode());
        let wire = classes.iter().map(|(_, cmd)| env(cmd.clone()).encode()).collect();
        Rig { hv, mgr, wire }
    }

    /// Time one batch of `n` replays of class `class`; returns wall ns/cmd.
    fn batch(&self, class: usize, n: usize) -> f64 {
        let wire = &self.wire[class];
        let t0 = Instant::now();
        for _ in 0..n {
            std::hint::black_box(self.mgr.handle(DomainId(1), wire));
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    }

    /// Virtual clock cost of one batch of `n` replays, ns/cmd.
    fn virt_batch(&self, class: usize, n: usize) -> f64 {
        let wire = &self.wire[class];
        let v0 = self.hv.clock.now_ns();
        for _ in 0..n {
            std::hint::black_box(self.mgr.handle(DomainId(1), wire));
        }
        (self.hv.clock.now_ns() - v0) as f64 / n as f64
    }
}

/// Run the experiment: `batches` timed batches of `per_batch` commands
/// per class per configuration, interleaved A/B.
pub fn run(batches: usize, per_batch: usize) -> Vec<O1Row> {
    let classes: Vec<(&'static str, Vec<u8>)> = vec![
        ("pcr_read", pcr_read_cmd(0)),
        ("extend", extend_cmd(3, 0xA5)),
    ];
    let on = Rig::build(true, false, &classes);
    let off = Rig::build(false, false, &classes);
    let deploy = Rig::build(true, true, &classes);

    classes
        .iter()
        .enumerate()
        .map(|(ci, (name, _))| {
            // Warm both managers on this class (first mutation mirrors
            // the whole state; page cache and branch predictors settle).
            on.batch(ci, per_batch);
            off.batch(ci, per_batch);
            let mut on_ns = Vec::with_capacity(batches);
            let mut off_ns = Vec::with_capacity(batches);
            for _ in 0..batches {
                on_ns.push(on.batch(ci, per_batch));
                off_ns.push(off.batch(ci, per_batch));
            }
            O1Row {
                command: name,
                disabled_ns: median(&mut off_ns),
                enabled_ns: median(&mut on_ns),
                deploy_ns: deploy.virt_batch(ci, per_batch.max(16)),
                batches,
                per_batch,
            }
        })
        .collect()
}

/// Render the table, ending with the PASS/FAIL budget verdict line the
/// CI gate greps for.
pub fn render(rows: &[O1Row]) -> String {
    let mut out = String::new();
    out.push_str("R-O1  Telemetry self-overhead (enabled vs runtime-disabled registry)\n");
    out.push_str(&format!(
        "{:<10} {:>13} {:>13} {:>9} {:>9} {:>14} {:>9}   ({} batches x {} cmds)\n",
        "command",
        "off(ns/cmd)",
        "on(ns/cmd)",
        "delta",
        "wall",
        "deploy(ns)",
        "deploy",
        rows.first().map_or(0, |r| r.batches),
        rows.first().map_or(0, |r| r.per_batch),
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>13.1} {:>13.1} {:>9.1} {:>8.2}% {:>14.0} {:>8.3}%\n",
            r.command,
            r.disabled_ns,
            r.enabled_ns,
            r.overhead_ns(),
            r.wall_overhead_pct(),
            r.deploy_ns,
            r.deploy_overhead_pct(),
        ));
    }
    let max = max_overhead_pct(rows);
    out.push_str(&format!(
        "budget: max overhead {:.3}% of deployment latency vs {:.1}% allowed — {}\n",
        max,
        BUDGET_PCT,
        if max <= BUDGET_PCT { "PASS" } else { "FAIL" },
    ));
    out
}

/// Artifact fields (`repro o1 --json`): per-class rows, the gated
/// maximum, and the budget.
pub fn json(rows: &[O1Row]) -> String {
    let classes = json_list(rows, |r| {
        format!(
            "{{\"command\":{},\"disabled_ns\":{:.1},\"enabled_ns\":{:.1},\
             \"deploy_ns\":{:.0},\"deploy_overhead_pct\":{:.3}}}",
            json_str(r.command),
            r.disabled_ns,
            r.enabled_ns,
            r.deploy_ns,
            r.deploy_overhead_pct()
        )
    });
    format!(
        "\"batches\":{},\"per_batch\":{},\"classes\":{classes},\
         \"telemetry_max_deploy_overhead_pct\":{:.3},\"budget_pct\":{:.1}",
        rows.first().map_or(0, |r| r.batches),
        rows.first().map_or(0, |r| r.per_batch),
        max_overhead_pct(rows),
        BUDGET_PCT,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let rows = run(5, 50);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.disabled_ns > 0.0 && r.enabled_ns > 0.0);
            assert!(
                r.deploy_ns >= 60_000.0,
                "{}: deployment latency below the modelled transport floor",
                r.command
            );
            assert!(
                r.deploy_overhead_pct() < 25.0,
                "{}: deployment overhead {:.2}% out of band even for a debug build",
                r.command,
                r.deploy_overhead_pct()
            );
        }
        let table = render(&rows);
        assert!(table.contains("pcr_read"));
        assert!(table.contains("budget: max overhead"));
    }
}
