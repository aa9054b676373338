//! Adapters from the stack's native records to the sentinel's
//! plain-field [`StreamEvent`]s.
//!
//! `vtpm-sentinel` deliberately depends only on the telemetry crate, so
//! audit entries and hypervisor dump events cross into it as flattened
//! views; the harness owns the conversion (it is the process boundary a
//! real detection plane would sit behind).

use vtpm::VtpmManager;
use vtpm_ac::{AuditEntry, AuditOutcome};
use vtpm_attest::{AttestEvent, VerifierPool};
use vtpm_cluster::Cluster;
use vtpm_fleet::Fleet;
use vtpm_sentinel::{Alert, AttestView, AuditKind, AuditView, DumpView, Sentinel, StreamEvent};
use xen_sim::DumpEvent;

/// Flatten one audit-chain entry for the sentinel stream.
pub fn audit_event(host: u32, e: &AuditEntry) -> StreamEvent {
    let kind = match e.outcome {
        AuditOutcome::Allowed => AuditKind::Allowed,
        AuditOutcome::Denied(r) => AuditKind::Denied(r.code()),
        AuditOutcome::Migration(s) => AuditKind::MigrationStage(s as u8),
    };
    StreamEvent::Audit(AuditView {
        host,
        at_ns: e.timestamp_ns,
        request_id: e.request_id,
        domain: e.domain,
        instance: e.instance,
        ordinal: e.ordinal,
        kind,
    })
}

/// Stream cursors over a cluster's audit chains and migration spans.
#[derive(Debug, Default)]
pub(crate) struct ClusterFeed {
    /// Per host, the audit index of the next entry to feed.
    audit: Vec<u64>,
    spans: usize,
}

impl ClusterFeed {
    /// Feed the sentinel every record new since the last call: each
    /// host's audit entries in host order (a host that joined since
    /// starts from its first entry), then the migration spans. Each
    /// record is fed exactly once, as long as a host appends fewer than
    /// [`vtpm_ac::AUDIT_WINDOW`] audit entries between calls.
    pub(crate) fn feed(&mut self, cluster: &Cluster, sentinel: &mut Sentinel) {
        self.audit.resize(cluster.hosts.len(), 0);
        for (h, next) in self.audit.iter_mut().enumerate() {
            let entries = cluster.hosts[h].audit.entries_since(*next);
            for e in &entries {
                sentinel.observe(audit_event(h as u32, e));
            }
            if let Some(last) = entries.last() {
                *next = last.index + 1;
            }
        }
        let spans = cluster.telemetry().spans();
        for m in &spans[self.spans..] {
            sentinel.observe(StreamEvent::MigrationSpan(m.clone()));
        }
        self.spans = spans.len();
    }
}

/// Flatten one hypervisor dump-trail entry for the sentinel stream.
pub fn dump_event(host: u32, d: &DumpEvent) -> StreamEvent {
    StreamEvent::Dump(DumpView {
        host,
        at_ns: d.at_ns,
        caller_domain: d.caller.0,
        frames: d.frames,
        foreign_frames: d.foreign_frames,
    })
}

/// Flatten one verifier-plane verdict for the sentinel stream.
pub fn attest_event(host: u32, e: &AttestEvent) -> StreamEvent {
    StreamEvent::Attest(AttestView {
        host,
        at_ns: e.at_ns,
        verifier: e.verifier,
        instance: e.instance,
        verdict: e.verdict,
    })
}

/// Close the detection loop: latch the manager's admission throttle for
/// every domain a deny-rate alert implicates. Returns how many domains
/// were throttled. Idempotent — the admission controller's `throttle`
/// is a latch, so feeding the same alerts twice changes nothing — and a
/// no-op when admission control is disabled in the manager's config.
pub fn apply_admission_alerts(mgr: &VtpmManager, alerts: &[Alert]) -> usize {
    let mut applied = 0;
    for alert in alerts {
        if alert.detector != "deny-rate" {
            continue;
        }
        if let Some(domain) = alert.domain {
            if mgr.admission().throttle(domain) {
                applied += 1;
            }
        }
    }
    applied
}

/// Close the detection loop on the verifier plane: latch the pool's
/// admission throttle for every verifier a quote-storm alert
/// implicates. Returns how many verifiers were newly throttled; same
/// idempotence as [`apply_admission_alerts`].
pub fn apply_verifier_alerts(pool: &VerifierPool, alerts: &[Alert]) -> usize {
    let mut applied = 0;
    for alert in alerts {
        if alert.detector != "quote-storm" {
            continue;
        }
        if let Some(verifier) = alert.domain {
            if pool.throttle_verifier(verifier) {
                applied += 1;
            }
        }
    }
    applied
}

/// Close the detection loop on the fleet plane: the sentinel's
/// churn-storm detector pauses the rebalancer while a crash storm is
/// raging (rebalancing *into* churn multiplies in-doubt handoffs) and
/// releases it when the storm clears. Raise alerts carry a plain
/// detail; the matching clear's detail starts with `"cleared"` — this
/// bridge keys on that prefix. Per-host flap alerts share the detector
/// name but are informational here. Returns `(paused, resumed)` —
/// latch transitions actually applied; re-feeding the same alerts is a
/// no-op because the latch is level-sensitive.
pub fn apply_fleet_alerts(fleet: &mut Fleet, alerts: &[Alert]) -> (usize, usize) {
    let (mut paused, mut resumed) = (0, 0);
    for alert in alerts {
        if alert.detector != "churn-storm" {
            continue;
        }
        if alert.detail.starts_with("cleared") {
            if fleet.paused() {
                fleet.resume_rebalance();
                resumed += 1;
            }
        } else if alert.detail.starts_with("churn storm") && !fleet.paused() {
            fleet.pause_rebalance();
            paused += 1;
        }
    }
    (paused, resumed)
}

/// Close the observability loop on the fleet plane: a
/// **migration-blackout** SLO burn means guest-visible downtime is
/// eating its error budget *right now*, and the one lever the
/// controller owns that adds downtime is the rebalancer — so a burn
/// pauses it and the matching clear (detail prefixed `"cleared"`, same
/// convention as the churn bridge) releases it. Other rules' burns
/// (verify latency, scrub budget) are surfaced but not acted on here:
/// their levers live on other planes. Returns `(paused, resumed)`
/// latch transitions actually applied; level-sensitive and idempotent
/// like [`apply_fleet_alerts`].
pub fn apply_slo_alerts(fleet: &mut Fleet, alerts: &[Alert]) -> (usize, usize) {
    let (mut paused, mut resumed) = (0, 0);
    for alert in alerts {
        if alert.detector != "slo-burn" || !alert.detail.contains("migration-blackout") {
            continue;
        }
        if alert.detail.starts_with("cleared") {
            if fleet.paused() {
                fleet.resume_rebalance();
                resumed += 1;
            }
        } else if !fleet.paused() {
            fleet.pause_rebalance();
            paused += 1;
        }
    }
    (paused, resumed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vtpm::{AdmissionConfig, ManagerConfig};
    use vtpm_sentinel::{Sentinel, SentinelConfig};
    use vtpm_telemetry::{Outcome, SpanRecord};
    use xen_sim::Hypervisor;

    fn denied_span(host: u32, id: u64, domain: u32, end_ns: u64) -> StreamEvent {
        StreamEvent::Span {
            host,
            record: SpanRecord {
                request_id: id,
                domain,
                ordinal: 0x14,
                ingress_ns: end_ns.saturating_sub(100),
                decode_ns: end_ns.saturating_sub(80),
                ac_ns: end_ns.saturating_sub(60),
                exec_ns: end_ns.saturating_sub(40),
                mirror_ns: end_ns.saturating_sub(20),
                end_ns,
                mirror_bytes: 0,
                outcome: Outcome::Denied(0),
            },
        }
    }

    #[test]
    fn deny_rate_alert_throttles_the_implicated_domain() {
        let hv = Arc::new(Hypervisor::boot(2048, 8).unwrap());
        let mgr = vtpm::VtpmManager::new(
            Arc::clone(&hv),
            b"bridge",
            ManagerConfig {
                admission: AdmissionConfig { enabled: true, ..Default::default() },
                ..Default::default()
            },
        )
        .unwrap();

        // A sustained majority-denied stream from domain 7 trips the
        // sentinel's deny-rate detector...
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        for i in 0..20 {
            sentinel.observe(denied_span(0, i, 7, 1_000 * i));
        }
        let alerts: Vec<Alert> = sentinel.alerts().to_vec();
        assert!(alerts.iter().any(|a| a.detector == "deny-rate" && a.domain == Some(7)));

        // ...and the bridge latches the manager's admission throttle for
        // exactly that domain, idempotently.
        assert!(!mgr.admission().is_throttled(7));
        assert_eq!(apply_admission_alerts(&mgr, &alerts), 1);
        assert!(mgr.admission().is_throttled(7));
        assert!(!mgr.admission().is_throttled(1), "uninvolved domains stay admitted");
        assert_eq!(apply_admission_alerts(&mgr, &alerts), 0, "re-applying is a no-op");
        assert_eq!(mgr.admission().throttle_events(), 1);
    }

    #[test]
    fn slo_burn_alert_pauses_and_resumes_the_rebalancer() {
        use vtpm_cluster::{Cluster, ClusterConfig};
        use vtpm_fleet::{Fleet, FleetConfig};

        let cluster = Cluster::new(b"slo-bridge", ClusterConfig::default()).unwrap();
        let mut fleet = Fleet::new(FleetConfig::default(), &cluster);

        // An observatory blackout burn arrives as a gauge, trips the
        // sentinel's slo-burn relay...
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        let gauge = |name, value, at_ns| StreamEvent::Gauge { host: 99, at_ns, name, value };
        sentinel.observe(gauge("slo_burn:migration-blackout", 250, 1_000));
        let alerts: Vec<Alert> = sentinel.alerts().to_vec();
        assert!(alerts.iter().any(|a| a.detector == "slo-burn"));

        // ...and the bridge pauses the rebalancer, idempotently.
        assert!(!fleet.paused());
        assert_eq!(apply_slo_alerts(&mut fleet, &alerts), (1, 0));
        assert!(fleet.paused());
        assert_eq!(apply_slo_alerts(&mut fleet, &alerts), (0, 0), "re-applying is a no-op");

        // A verify-latency burn is not this bridge's lever.
        sentinel.observe(gauge("slo_burn:verify-latency", 130, 2_000));
        let fresh: Vec<Alert> = sentinel.alerts()[1..].to_vec();
        let mut other = Fleet::new(FleetConfig::default(), &cluster);
        assert_eq!(apply_slo_alerts(&mut other, &fresh), (0, 0));
        assert!(!other.paused());

        // The clear releases the latch.
        sentinel.observe(gauge("slo_burn:migration-blackout", 0, 3_000));
        let fresh: Vec<Alert> = sentinel.alerts()[2..].to_vec();
        assert_eq!(apply_slo_alerts(&mut fleet, &fresh), (0, 1));
        assert!(!fleet.paused());
    }

    #[test]
    fn cluster_feed_streams_each_audit_record_once_across_a_window_slide() {
        use vtpm_ac::{AuditOutcome, AUDIT_WINDOW};
        use vtpm_cluster::{Cluster, ClusterConfig};

        let cluster = Cluster::new(b"feed-slide", ClusterConfig::default()).unwrap();
        let base: Vec<u64> = cluster.hosts.iter().map(|h| h.audit.len() as u64).collect();
        let mut feed = ClusterFeed::default();
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        feed.feed(&cluster, &mut sentinel);
        let mut expected: u64 = base.iter().sum();
        assert_eq!(sentinel.events_seen(), expected);

        // Rounds of just under a window each push host 0 well past two
        // window slides; every record must still reach the sentinel once.
        let round = AUDIT_WINDOW as u64 - 1;
        for r in 0..3 {
            for i in 0..round {
                cluster.hosts[0].audit.record(r * round + i, 0, 1, 1, 0x17, AuditOutcome::Allowed);
            }
            feed.feed(&cluster, &mut sentinel);
            expected += round;
            assert_eq!(sentinel.events_seen(), expected, "round {r}");
        }
        assert!(cluster.hosts[0].audit.entries().anchor.index > 0, "the window slid");
        assert_eq!(feed.audit[0], cluster.hosts[0].audit.len() as u64);
        // A feed with nothing new observes nothing.
        feed.feed(&cluster, &mut sentinel);
        assert_eq!(sentinel.events_seen(), expected);
    }

    #[test]
    fn quote_storm_alert_throttles_the_implicated_verifier() {
        use vtpm_attest::VerifierConfig;

        // A scripted verifier hammering the plane trips the sentinel's
        // quote-storm detector...
        let mut sentinel = Sentinel::new(SentinelConfig::default());
        for i in 0..70u64 {
            sentinel.observe(StreamEvent::Attest(vtpm_sentinel::AttestView {
                host: 0,
                at_ns: 1_000 + i * 100,
                verifier: 42,
                instance: 3,
                verdict: 0,
            }));
        }
        let alerts: Vec<Alert> = sentinel.alerts().to_vec();
        assert!(alerts.iter().any(|a| a.detector == "quote-storm" && a.domain == Some(42)));

        // ...and the bridge latches the pool's admission throttle for
        // exactly that verifier.
        let pool = VerifierPool::new(VerifierConfig {
            admission: AdmissionConfig { enabled: true, ..Default::default() },
            ..Default::default()
        });
        assert!(!pool.is_throttled(42));
        assert_eq!(apply_verifier_alerts(&pool, &alerts), 1);
        assert!(pool.is_throttled(42));
        assert!(!pool.is_throttled(7), "uninvolved verifiers stay admitted");
        assert_eq!(apply_verifier_alerts(&pool, &alerts), 0, "re-applying is a no-op");
    }
}
