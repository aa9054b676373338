//! # vtpm-bench
//!
//! The experiment harness: one module per table/figure of the
//! reconstructed evaluation (see DESIGN.md for the index and EXPERIMENTS.md
//! for recorded results). Each module exposes `run(...)` returning typed
//! rows and `render(...)` producing the text table the `repro` binary
//! prints. The eight gated experiments (o1, m1, d1, p1, c1, a1, m2, o2)
//! also expose `json(...)`, the fields of the machine-readable artifact
//! that `repro <exp> --json` wraps with [`artifact`] — the one
//! measurement path and the one report shape.
//!
//! | module | experiment |
//! |---|---|
//! | [`exp::t1`] | R-T1: per-command latency, baseline vs improved |
//! | [`exp::f1`] | R-F1: throughput vs concurrent VMs |
//! | [`exp::t2`] | R-T2: attack matrix |
//! | [`exp::f2`] | R-F2: overhead breakdown of the improved path |
//! | [`exp::t3`] | R-T3: policy-engine latency vs rule count |
//! | [`exp::f3`] | R-F3: migration time vs state size |
//! | [`exp::f4`] | R-F4: manager throughput vs worker threads |
//! | [`exp::t4`] | R-T4: per-mechanism ablation |
//! | [`exp::f5`] | R-F5: dump-scan at scale |
//! | [`exp::r1`] | R-R1: chaos + crash/recovery of the mirror pipeline |
//! | [`exp::o1`] | R-O1: telemetry self-overhead on the request path |
//! | [`exp::o2`] | R-O2: fleet observatory — aggregation fidelity, SLO burn loop, self-overhead |
//! | [`exp::m1`] | R-M1: live-migration downtime vs state size (cluster) |
//! | [`exp::m2`] | R-M2: fleet churn sweep — p99 downtime + exactly-once accounting |
//! | [`exp::d1`] | R-D1: sentinel detection quality (FP sweep + injections) |
//! | [`exp::p1`] | R-P1: manager hot path vs resident instance count |
//! | [`exp::c1`] | R-C1: crypto floor (RSA/AES/SHA) with regression gates |
//! | [`exp::a1`] | R-A1: attestation plane at farm scale |

/// Experiment modules, one per table/figure.
pub mod exp {
    pub mod a1;
    pub mod c1;
    pub mod d1;
    pub mod f1;
    pub mod f2;
    pub mod f3;
    pub mod f4;
    pub mod f5;
    pub mod f6;
    pub mod m1;
    pub mod m2;
    pub mod o1;
    pub mod o2;
    pub mod p1;
    pub mod r1;
    pub mod t1;
    pub mod t2;
    pub mod t3;
    pub mod t4;
}

use vtpm_cluster::{Cluster, ClusterConfig};
use vtpm_fleet::{Fleet, FleetConfig};
use vtpm_telemetry::json_str;

/// Median of `samples` (sorts in place; upper median for even counts).
pub(crate) fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// A JSON array with one element per item, each rendered by `f`.
pub(crate) fn json_list<T>(items: &[T], f: impl FnMut(&T) -> String) -> String {
    format!("[{}]", items.iter().map(f).collect::<Vec<_>>().join(","))
}

/// A TPM 1.2 request: `TPM_TAG_RQU_COMMAND`, total length, ordinal, body.
pub(crate) fn tpm_command(ordinal: u32, body: &[u8]) -> Vec<u8> {
    let mut cmd = Vec::with_capacity(10 + body.len());
    cmd.extend_from_slice(&0x00C1u16.to_be_bytes());
    cmd.extend_from_slice(&((10 + body.len()) as u32).to_be_bytes());
    cmd.extend_from_slice(&ordinal.to_be_bytes());
    cmd.extend_from_slice(body);
    cmd
}

/// `TPM_PCRRead(pcr)` — the cheap read-only command.
pub(crate) fn pcr_read_cmd(pcr: u32) -> Vec<u8> {
    tpm_command(tpm::ordinal::PCR_READ, &pcr.to_be_bytes())
}

/// `TPM_Extend(pcr, [fill; 20])` — the cheap state-mutating command.
pub(crate) fn extend_cmd(pcr: u32, fill: u8) -> Vec<u8> {
    tpm_command(tpm::ordinal::EXTEND, &[&pcr.to_be_bytes()[..], &[fill; 20]].concat())
}

/// `TPM_Startup(ST_CLEAR)`, the first command every fresh instance needs.
pub(crate) const STARTUP: [u8; 12] = [0x00, 0xC1, 0, 0, 0, 12, 0, 0, 0, 0x99, 0, 1];

/// A live `hosts`-host cluster with `vms` VMs created, under a default
/// fleet controller.
pub(crate) fn fleet_rig(seed: &[u8], hosts: usize, vms: usize) -> (Cluster, Fleet) {
    let config = ClusterConfig { hosts, frames_per_host: 4096, ..Default::default() };
    let mut cluster = Cluster::new(seed, config).expect("cluster");
    for _ in 0..vms {
        cluster.create_vm().expect("vm");
    }
    let fleet = Fleet::new(FleetConfig::default(), &cluster);
    (cluster, fleet)
}

/// One experiment's machine-readable artifact: a single-line JSON
/// object `{"exp", "quick", <fields>, "gate"}`, where `fields` is the
/// comma-separated member list an experiment's `json(...)` returns.
pub fn artifact(exp: &str, quick: bool, fields: &str, gate_failed: bool) -> String {
    format!(
        "{{\"exp\":{},\"quick\":{quick},{fields},\"gate\":{}}}",
        json_str(exp),
        json_str(if gate_failed { "FAIL" } else { "PASS" }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_keys(doc: &str, keys: &[&str]) {
        assert!(doc.starts_with('{') && doc.ends_with('}') && !doc.contains('\n'), "{doc}");
        for key in keys {
            assert!(doc.contains(&format!("\"{key}\":")), "missing {key} in {doc}");
        }
    }

    /// The `--json` artifacts keep every field the per-subsystem bench
    /// artifacts carried (`bench` became `exp`).
    #[test]
    fn artifacts_carry_the_bench_schema() {
        let points = exp::p1::run(&[4, 16], 200, 20);
        let fields = exp::p1::json(&points, 200, 20);
        let doc = artifact("p1", true, &fields, exp::p1::gate_failed(&points));
        assert!(doc.starts_with(r#"{"exp":"p1","quick":true,"#));
        assert_keys(
            &doc,
            &[
                "exp", "quick", "gate", "read_cmds", "mutate_cmds", "read_passes", "points",
                "overhead_ratio", "budget_ratio", "instances", "read_ns_per_cmd", "read_ratio",
                "pass_ratio_min", "pass_ratio_max", "mutate_ns_per_cmd", "data_pages_written",
            ],
        );

        let report = exp::c1::run(1, 1, 1, 1);
        let doc = artifact("c1", true, &exp::c1::json(&report), exp::c1::gate_failed(&report));
        assert_keys(
            &doc,
            &[
                "exp", "quick", "gate", "rsa_priv_us", "rsa_pub_us", "rsa_schoolbook_us",
                "rsa_speedup", "aes_ctr_mbps", "aes_ctr_scalar_mbps", "sha256_mbps",
                "sha256_small_ns", "min_rsa_speedup", "max_rsa_priv_us", "min_aes_ctr_mbps",
            ],
        );
    }
}
