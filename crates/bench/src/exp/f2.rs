//! R-F2 (Figure 2): where the improved path's overhead goes.
//!
//! Three views of the access-control hook on a Seal-shaped command:
//!
//! * the *modelled* virtual-time cost of each mechanism (from
//!   [`vtpm_ac::AcCosts`], what a hardware deployment pays);
//! * the *measured* wall-clock cost of `authorize()` with each mechanism
//!   switched on alone, minus the all-off floor, on one hook shape and
//!   one pre-signed envelope stream. Configurations take turns within
//!   each pass and the delta is the median of the per-pass differences,
//!   so the column isolates the mechanism itself (a whole-Seal
//!   comparison would drown a ~50 ns probe in RSA timing noise);
//! * the per-stage *virtual-time* breakdown of the full improved request
//!   path (ingress, AC hook, execute, mirror), read from the manager's
//!   telemetry spans over a run of encrypted Extends.

use std::sync::Arc;
use std::time::Instant;

use vtpm::{AccessHook, Envelope, ManagerConfig, MirrorMode, RequestContext, VtpmManager};
use vtpm_ac::{AcConfig, AcCosts, ImprovedHook};
use vtpm_telemetry::HistogramSnapshot;
use xen_sim::{DomainId, Hypervisor};

use crate::{extend_cmd, median, tpm_command, STARTUP};

/// Commands per Seal operation that pass through the hook (OSAP, Seal).
const COMMANDS_PER_OP: u64 = 2;

/// Approximate Seal command size, bytes (the tag covers all of it).
const CMD_BYTES: usize = 100;

/// Timed passes per configuration.
const PASSES: usize = 21;

/// Encrypted Extends driven through the full path for the stage table.
const STAGE_EXTENDS: usize = 200;

/// One bar of the figure.
#[derive(Debug, Clone)]
pub struct F2Component {
    /// Mechanism label.
    pub name: &'static str,
    /// Modelled virtual cost per Seal request (ns).
    pub modelled_ns: u64,
    /// Measured wall-clock `authorize()` cost of the mechanism alone
    /// over the all-off floor, per Seal request (ns).
    pub measured_delta_ns: f64,
}

/// The full R-F2 result.
#[derive(Debug, Clone)]
pub struct F2Report {
    /// One bar per mechanism.
    pub components: Vec<F2Component>,
    /// Median wall ns per `authorize()` call, per AC configuration.
    pub authorize_ns: Vec<(&'static str, f64)>,
    /// Virtual-time histogram per request-path stage.
    pub stages: Vec<(&'static str, HistogramSnapshot)>,
}

impl F2Report {
    /// Median ns per `authorize()` call under configuration `name`.
    pub fn authorize(&self, name: &str) -> f64 {
        self.authorize_ns.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, ns)| *ns)
    }
}

fn only(auth: bool, replay: bool, policy: bool, audit: bool) -> AcConfig {
    AcConfig { auth, replay, policy, audit, max_guest_locality: 4 }
}

/// Wall ns per `authorize()` call for each configuration, one sample
/// per pass of `reps` pre-signed Seal envelopes; the configurations take
/// turns within every pass, so a pass's samples are directly comparable.
/// Every hook is built from the same seed, so one credential signs the
/// stream for all of them; sequence numbers keep rising across passes,
/// so the replay guard admits every call.
fn authorize_samples(configs: &[AcConfig], reps: usize) -> Vec<Vec<f64>> {
    let hv = Arc::new(Hypervisor::boot(64, 4).expect("boot"));
    let hooks: Vec<ImprovedHook> = configs
        .iter()
        .map(|cfg| ImprovedHook::new(Arc::clone(&hv), b"f2-authorize", *cfg))
        .collect();
    let keys: Vec<_> = hooks.iter().map(|h| h.credentials.provision(1, 1)).collect();
    assert!(keys.windows(2).all(|w| w[0] == w[1]), "same seed, same credential");
    let cmd = tpm_command(tpm::ordinal::SEAL, &[0; CMD_BYTES - 10]);

    let mut samples = vec![Vec::with_capacity(PASSES); configs.len()];
    for pass in 0..PASSES {
        let envs: Vec<Envelope> = (0..reps)
            .map(|i| {
                let seq = (pass * reps + i + 1) as u64;
                let command = cmd.clone();
                Envelope { domain: 1, instance: 1, seq, locality: 0, tag: None, command }
                    .sign(&keys[0])
            })
            .collect();
        for (hook, out) in hooks.iter().zip(samples.iter_mut()) {
            let t0 = Instant::now();
            for env in &envs {
                let ctx = RequestContext {
                    request_id: env.seq,
                    source_domain: DomainId(1),
                    claimed_domain: env.domain,
                    instance: env.instance,
                    seq: env.seq,
                    locality: env.locality,
                    ordinal: tpm::ordinal_of(&env.command),
                    tag: env.tag.as_ref(),
                    command: &env.command,
                };
                std::hint::black_box(hook.authorize(&ctx));
            }
            out.push(t0.elapsed().as_nanos() as f64 / reps.max(1) as f64);
        }
    }
    samples
}

/// Median over passes of the per-pass difference `with - without`.
fn paired_delta(with: &[f64], without: &[f64]) -> f64 {
    let mut d: Vec<f64> = with.iter().zip(without).map(|(a, b)| a - b).collect();
    median(&mut d)
}

/// Drive `extends` encrypted Extends through a manager guarded by the
/// full improved hook and read the per-stage virtual-time histograms
/// off its telemetry registry (measured at each stage boundary, not
/// reconstructed by subtraction).
fn stage_breakdown(extends: usize) -> Vec<(&'static str, HistogramSnapshot)> {
    let hv = Arc::new(Hypervisor::boot(4096, 16).expect("boot"));
    let mgr = VtpmManager::new(
        Arc::clone(&hv),
        b"f2-stages",
        ManagerConfig { mirror_mode: MirrorMode::Encrypted, ..Default::default() },
    )
    .expect("manager");
    let hook = Arc::new(ImprovedHook::new(Arc::clone(&hv), b"f2-stages", AcConfig::default()));
    let inst = mgr.create_instance().expect("instance");
    let key = hook.credentials.provision(1, inst);
    mgr.set_hook(hook);
    let commands = std::iter::once(STARTUP.to_vec())
        .chain(std::iter::repeat_n(extend_cmd(3, 0xA5), extends));
    for (seq, command) in (1..).zip(commands) {
        let env = Envelope { domain: 1, instance: inst, seq, locality: 0, tag: None, command };
        mgr.handle(DomainId(1), &env.sign(&key).encode());
    }
    let snap = mgr.metrics_snapshot().expect("telemetry enabled by default");
    vec![
        ("ingress", snap.stage_ingress),
        ("ac_hook", snap.stage_ac),
        ("execute", snap.stage_exec),
        ("mirror", snap.stage_mirror),
        ("total", snap.total),
    ]
}

/// Run the breakdown with `reps` `authorize()` calls per configuration
/// per pass.
pub fn run(reps: usize) -> F2Report {
    let costs = AcCosts::default();
    let per_request_auth = costs.auth_base_ns + costs.auth_per_byte_ns * CMD_BYTES as u64;

    let configs = [
        ("none", AcConfig::none()),
        ("auth", only(true, false, false, false)),
        ("auth+replay", only(true, true, false, false)),
        ("policy", only(false, false, true, false)),
        ("audit", only(false, false, false, true)),
        ("full", AcConfig { max_guest_locality: 4, ..AcConfig::default() }),
    ];
    let samples = authorize_samples(&configs.map(|(_, cfg)| cfg), reps);
    let [none, auth, auth_replay, policy, audit, _] = &samples[..] else { unreachable!() };
    let per_op = |with: &[f64], without: &[f64]| {
        paired_delta(with, without) * COMMANDS_PER_OP as f64
    };

    let components = vec![
        F2Component {
            name: "auth (AC1 tag verify)",
            modelled_ns: per_request_auth * COMMANDS_PER_OP,
            measured_delta_ns: per_op(auth, none),
        },
        F2Component {
            name: "replay guard",
            modelled_ns: costs.replay_ns * COMMANDS_PER_OP,
            measured_delta_ns: per_op(auth_replay, auth),
        },
        F2Component {
            name: "policy (AC2)",
            modelled_ns: costs.policy_ns * COMMANDS_PER_OP,
            measured_delta_ns: per_op(policy, none),
        },
        F2Component {
            name: "audit (AC4)",
            modelled_ns: costs.audit_ns * COMMANDS_PER_OP,
            measured_delta_ns: per_op(audit, none),
        },
    ];
    let authorize_ns =
        configs.iter().zip(samples).map(|((name, _), mut s)| (*name, median(&mut s))).collect();
    F2Report { components, authorize_ns, stages: stage_breakdown(STAGE_EXTENDS) }
}

/// Render the breakdown.
pub fn render(r: &F2Report) -> String {
    let mut out = String::new();
    out.push_str(
        "R-F2  Overhead breakdown of the improved path (per Seal operation)\n\
         component                modelled(us)   measured-delta(us)\n",
    );
    for c in &r.components {
        out.push_str(&format!(
            "{:<24} {:>12.2} {:>20.3}\n",
            c.name,
            c.modelled_ns as f64 / 1e3,
            c.measured_delta_ns / 1e3,
        ));
    }
    let total: u64 = r.components.iter().map(|c| c.modelled_ns).sum();
    out.push_str(&format!(
        "modelled total: {:.2} us   measured full-vs-none: {:.3} us\n",
        total as f64 / 1e3,
        (r.authorize("full") - r.authorize("none")) * COMMANDS_PER_OP as f64 / 1e3,
    ));
    out.push_str("\nauthorize() wall ns per call (median of passes)\n");
    for (name, ns) in &r.authorize_ns {
        out.push_str(&format!("  {name:<12} {ns:>10.1}\n"));
    }
    out.push_str(&format!(
        "\nstage virtual ns, full improved path ({STAGE_EXTENDS} encrypted Extends)\n\
         {:<10} {:>9} {:>9} {:>9} {:>9} {:>6}\n",
        "stage", "p50", "p90", "p99", "max", "n"
    ));
    for (stage, h) in &r.stages {
        out.push_str(&format!(
            "{stage:<10} {:>9} {:>9} {:>9} {:>9} {:>6}\n",
            h.p50, h.p90, h.p99, h.max, h.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_holds_small() {
        let r = run(3);
        let comps = &r.components;
        assert_eq!(comps.len(), 4);
        // The HMAC verify dominates the modelled budget, as the paper's
        // breakdown should show.
        let auth = comps.iter().find(|c| c.name.starts_with("auth")).unwrap();
        for other in comps.iter().filter(|c| !c.name.starts_with("auth")) {
            assert!(auth.modelled_ns > other.modelled_ns, "{}", other.name);
        }
        // Every mechanism on costs more than every mechanism off.
        assert!(r.authorize("full") > r.authorize("none"), "{:?}", r.authorize_ns);
        assert_eq!(r.stages.len(), 5);
        let table = render(&r);
        assert!(table.contains("modelled total"));
        assert!(table.contains("ac_hook"));
    }
}
