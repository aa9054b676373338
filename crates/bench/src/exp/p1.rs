//! R-P1: the Dom0 manager's hot path at scale — wall-clock per-command
//! overhead versus resident instance count.
//!
//! The routing table is sharded (64-way striped instance/region maps),
//! so the read-path cost of `handle` should stay flat from 100 to
//! 10 000 resident instances: the gate ([`overhead_ratio`] vs
//! [`BUDGET_RATIO`]) fails the build if the largest count's ns/cmd
//! exceeds 1.5x the smallest's. The read phase round-robins over a
//! fixed-size active set (64 instances, spread across the id range so
//! every shard is exercised) while the *resident* count scales — that
//! isolates the routing/lookup cost from the unavoidable cache
//! footprint of touching 10k distinct multi-KiB TPM states, which is a
//! property of DRAM, not of the manager.
//!
//! The smallest-count world stays alive for the whole sweep, and its
//! read passes interleave with each larger world's, pass by pass, in
//! one process. Box noise then lands on both sides of a ratio instead
//! of on whichever count happened to be timed during it. Each row
//! reports the best-of ratio against the smallest world next to the
//! spread of its per-pass ratios. The mutate phase drives Extends
//! through the mirror write path and reports its data-page writes.
//!
//! Worlds are fanned out from one template instance: a single
//! `create_instance` pays the RSA keygen, then `restore_instance`
//! clones its serialized state under fresh ids, which is what makes a
//! 10k-instance point affordable.

use std::sync::Arc;
use std::time::Instant;

use vtpm::{Envelope, ManagerConfig, MirrorMode, VtpmInstance, VtpmManager};
use xen_sim::{DomainId, Hypervisor};

use crate::{extend_cmd, json_list, pcr_read_cmd, STARTUP};

/// Hard ceiling on `ns/cmd(largest count) / ns/cmd(smallest count)`.
pub const BUDGET_RATIO: f64 = 1.5;

/// Timed read passes per larger count, each paired with one pass of
/// the smallest-count world (after one warmup pass per world).
const READ_PASSES: usize = 6;

/// One measured point of the scaling curve.
#[derive(Debug, Clone)]
pub struct P1Point {
    /// Resident instances in the world.
    pub instances: usize,
    /// Best wall ns per PcrRead command over the fixed active set
    /// (routing hot path) across the timed passes.
    pub read_ns_per_cmd: f64,
    /// Best-of read ratio against the smallest-count world, over the
    /// passes interleaved with this count's (1.0 for the smallest).
    pub read_ratio: f64,
    /// Lowest per-pass ratio (pass i here / pass i of the smallest).
    pub pass_ratio_min: f64,
    /// Highest per-pass ratio.
    pub pass_ratio_max: f64,
    /// Wall ns per Extend round-robin command (mirror write path).
    pub mutate_ns_per_cmd: f64,
    /// Data pages written during the mutate phase.
    pub data_pages_written: u64,
}

/// One resident-instance world and its request sequence counter.
struct World {
    mgr: VtpmManager,
    ids: Vec<u32>,
    /// Fixed-size active set, evenly spaced so all 64 shards see
    /// traffic regardless of the resident count.
    active: Vec<u32>,
    seq: u64,
}

fn envelope(instance: u32, seq: u64, command: Vec<u8>) -> Vec<u8> {
    Envelope { domain: 1, instance, seq, locality: 0, tag: None, command }.encode()
}

impl World {
    /// Build a `count`-instance world by cloning one template
    /// instance's state under fresh ids (one keygen total).
    fn build(count: usize) -> Self {
        // ~4 frames per single-page encrypted region (meta + A/B slots +
        // slack) plus headroom for growth during the mutate phase.
        let frames = count * 8 + 2048;
        let mgr = VtpmManager::new(
            Arc::new(Hypervisor::boot(frames, 16).expect("boot")),
            b"p1-scale",
            ManagerConfig {
                mirror_mode: MirrorMode::Encrypted,
                charge_virtual_time: false,
                telemetry_enabled: false,
                ..Default::default()
            },
        )
        .expect("manager");
        let first = mgr.create_instance().expect("template");
        // Start the template once; every clone inherits the started state.
        mgr.handle(DomainId(1), &envelope(first, 1, STARTUP.to_vec()));
        let state = mgr.export_instance_state(first).expect("template state");
        let cfg = mgr.config().vtpm_config.clone();
        let ids: Vec<u32> = (first..).take(count).collect();
        for &id in &ids[1..] {
            let inst = VtpmInstance::from_state(id, &state, &id.to_be_bytes(), cfg.clone())
                .expect("clone template");
            mgr.restore_instance(id, inst).expect("fan out");
        }
        let n = 64.min(ids.len());
        let active = (0..n).map(|i| ids[i * ids.len() / n]).collect();
        World { mgr, ids, active, seq: 1 }
    }

    /// One pass of `cmds` PcrReads over the active set: wall ns/cmd.
    fn read_pass(&mut self, cmds: usize) -> f64 {
        drive(&self.mgr, &mut self.seq, &self.active, &pcr_read_cmd(0), cmds)
    }

    /// The mutate phase, then one warmup read pass: a point with the
    /// read fields still to fill in.
    fn mutate_and_warm(&mut self, mutate_cmds: usize, read_cmds: usize) -> P1Point {
        let pages_before = self.mgr.mirror_io_stats().data_pages_written;
        let ext = extend_cmd(3, 0x5A);
        let mutate_ns_per_cmd = drive(&self.mgr, &mut self.seq, &self.ids, &ext, mutate_cmds);
        let data_pages_written = self.mgr.mirror_io_stats().data_pages_written - pages_before;
        self.read_pass(read_cmds);
        P1Point {
            instances: self.ids.len(),
            read_ns_per_cmd: f64::INFINITY,
            read_ratio: 1.0,
            pass_ratio_min: 1.0,
            pass_ratio_max: 1.0,
            mutate_ns_per_cmd,
            data_pages_written,
        }
    }
}

/// `cmds` copies of `command`, round-robin over `targets`: wall ns/cmd.
fn drive(mgr: &VtpmManager, seq: &mut u64, targets: &[u32], command: &[u8], cmds: usize) -> f64 {
    let t0 = Instant::now();
    for j in 0..cmds {
        *seq += 1;
        mgr.handle(DomainId(1), &envelope(targets[j % targets.len()], *seq, command.to_vec()));
    }
    t0.elapsed().as_nanos() as f64 / cmds.max(1) as f64
}

/// Run the sweep: each world first runs `mutate_cmds` Extends, then
/// every count after the first is timed against the first (smallest)
/// count's world in `READ_PASSES` interleaved `read_cmds`-PcrRead
/// passes. One point per count, in `counts` order.
pub fn run(counts: &[usize], read_cmds: usize, mutate_cmds: usize) -> Vec<P1Point> {
    let Some((&base_count, larger)) = counts.split_first() else { return Vec::new() };
    let mut base = World::build(base_count);
    let mut out = vec![base.mutate_and_warm(mutate_cmds, read_cmds)];
    for &count in larger {
        let mut world = World::build(count);
        let mut point = world.mutate_and_warm(mutate_cmds, read_cmds);
        let (mut b_best, mut ratios) = (f64::INFINITY, Vec::with_capacity(READ_PASSES));
        for pass in 0..READ_PASSES {
            // (smallest world, this world) ns/cmd; which world goes first
            // alternates, so drift inside a pair cancels out.
            let (b, w) = if pass % 2 == 0 {
                let b = base.read_pass(read_cmds);
                (b, world.read_pass(read_cmds))
            } else {
                let w = world.read_pass(read_cmds);
                (base.read_pass(read_cmds), w)
            };
            b_best = b_best.min(b);
            point.read_ns_per_cmd = point.read_ns_per_cmd.min(w);
            ratios.push(w / b);
        }
        ratios.sort_by(f64::total_cmp);
        point.read_ratio = point.read_ns_per_cmd / b_best;
        (point.pass_ratio_min, point.pass_ratio_max) = (ratios[0], ratios[READ_PASSES - 1]);
        out[0].read_ns_per_cmd = out[0].read_ns_per_cmd.min(b_best);
        out.push(point);
    }
    out
}

/// The gate: the largest count's best-of read ratio against the
/// smallest count's world, over their interleaved passes. 1.0 =
/// perfectly flat.
pub fn overhead_ratio(points: &[P1Point]) -> f64 {
    points.last().map_or(0.0, |p| p.read_ratio)
}

/// The CI gate: the read path degrades past [`BUDGET_RATIO`].
pub fn gate_failed(points: &[P1Point]) -> bool {
    overhead_ratio(points) > BUDGET_RATIO
}

/// Artifact fields (`repro p1 --json`): the sweep's command counts, one
/// object per instance count, the gated ratio, and the budget.
pub fn json(points: &[P1Point], read_cmds: usize, mutate_cmds: usize) -> String {
    let rows = json_list(points, |p| {
        format!(
            "{{\"instances\":{},\"read_ns_per_cmd\":{:.1},\"read_ratio\":{:.3},\
             \"pass_ratio_min\":{:.3},\"pass_ratio_max\":{:.3},\
             \"mutate_ns_per_cmd\":{:.1},\"data_pages_written\":{}}}",
            p.instances,
            p.read_ns_per_cmd,
            p.read_ratio,
            p.pass_ratio_min,
            p.pass_ratio_max,
            p.mutate_ns_per_cmd,
            p.data_pages_written
        )
    });
    format!(
        "\"read_cmds\":{read_cmds},\"mutate_cmds\":{mutate_cmds},\"read_passes\":{READ_PASSES},\
         \"points\":{rows},\"overhead_ratio\":{:.3},\"budget_ratio\":{:.1}",
        overhead_ratio(points),
        BUDGET_RATIO,
    )
}

/// Render the table.
pub fn render(points: &[P1Point]) -> String {
    let mut out = String::new();
    out.push_str("R-P1  Manager hot path vs resident instances (wall ns/cmd)\n");
    out.push_str("instances  read-ns/cmd  ratio  pass-ratios   mut-ns/cmd  pages\n");
    for p in points {
        out.push_str(&format!(
            "{:<10} {:>11.0} {:>5.2}x  {:>4.2}-{:<4.2}x  {:>11.0} {:>6}\n",
            p.instances,
            p.read_ns_per_cmd,
            p.read_ratio,
            p.pass_ratio_min,
            p.pass_ratio_max,
            p.mutate_ns_per_cmd,
            p.data_pages_written,
        ));
    }
    out.push_str(&format!(
        "scaling ratio (best read-ns, largest/smallest count, {READ_PASSES} interleaved passes): \
         {:.2}x (budget {:.1}x)\n",
        overhead_ratio(points),
        BUDGET_RATIO
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let points = run(&[4, 16], 60, 32);
        assert_eq!(points.len(), 2, "one row per count");
        assert_eq!(points[0].read_ratio, 1.0, "the smallest count is the base");
        for p in &points {
            assert!(p.read_ns_per_cmd > 0.0);
            assert!(p.mutate_ns_per_cmd > 0.0);
            // Every Extend changes the state, so each commits a page.
            assert!(p.data_pages_written >= 32, "{p:?}");
            // Best-of over best-of always lies inside the per-pass spread.
            assert!(p.pass_ratio_min <= p.read_ratio && p.read_ratio <= p.pass_ratio_max, "{p:?}");
        }
        let r = render(&points);
        assert!(r.contains("R-P1"));
        assert!(overhead_ratio(&points) > 0.0);
    }
}
