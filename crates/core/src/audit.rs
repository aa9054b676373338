//! AC4: the tamper-evident audit log.
//!
//! Every access decision is appended as an entry hash-chained to its
//! predecessor (`h_i = SHA256(h_{i-1} || entry_i)`), so truncation or
//! in-place modification is detectable by re-walking the chain.
//!
//! Memory is bounded: the log keeps only the last [`AUDIT_WINDOW`]
//! entries plus the *anchor*, the index and chain value just before the
//! first retained entry. Older entries are folded into the anchor and are
//! gone; a deployment would periodically extend the anchor (or the head)
//! into a vTPM PCR, or ship entries to a collector before they slide out.
//! [`AuditLog::entries`] returns the window with its anchor, and
//! [`AuditLog::verify`] walks it from there: it rejects any edited field,
//! any dropped or reordered entry (the window's first included) and any
//! edited anchor, but like any hash chain it cannot see a clean tail
//! truncation or a consistently rewritten anchor without the externally
//! anchored head. `len()` and `denials()` are run totals, not window
//! counts; [`AuditLog::entries_since`] is the index-based cursor for
//! consumers that stream the log.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

use parking_lot::Mutex;
use tpm_crypto::{sha256::Sha256, Digest};

use vtpm::DenyReason;

/// A live-migration protocol stage transition, recorded by the cluster
/// migration driver into the hash chain of every host it touches — so a
/// host that later denies having handed an instance off (or claims a
/// different epoch) contradicts its own tamper-evident log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationStage {
    /// Destination accepted a prepare for (vm, epoch).
    Prepared = 0,
    /// Source froze the instance (downtime window opens).
    Quiesced = 1,
    /// Source shipped the sealed package.
    Transferred = 2,
    /// Destination verified binding/integrity/epoch of the package.
    Verified = 3,
    /// Destination adopted the instance (downtime window closes).
    Committed = 4,
    /// Source released (scrubbed) its copy.
    Released = 5,
    /// Either side aborted; the source copy stays authoritative.
    Aborted = 6,
    /// Destination refused a stale or replayed epoch (anti-rollback).
    RejectedStale = 7,
}

/// The decision recorded for an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditOutcome {
    /// Request was dispatched.
    Allowed,
    /// Request was denied for the given reason.
    Denied(DenyReason),
    /// A live-migration stage transition (AC4 coverage of the handoff
    /// protocol; the entry's `instance` is the cluster-wide vm id and
    /// its `ordinal` carries the migration epoch).
    Migration(MigrationStage),
}

/// One audit record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditEntry {
    /// Position in the log (0-based).
    pub index: u64,
    /// Virtual timestamp (ns) when the decision was made.
    pub timestamp_ns: u64,
    /// Telemetry request id (`RequestContext::request_id`), covered by
    /// the chain hash, so audit entries join against telemetry spans.
    /// 0 for decisions made outside the instrumented request path.
    pub request_id: u64,
    /// Requesting domain (claimed).
    pub domain: u32,
    /// Target instance.
    pub instance: u32,
    /// TPM ordinal (0 when unparsable).
    pub ordinal: u32,
    /// The decision.
    pub outcome: AuditOutcome,
    /// Chain hash up to and including this entry.
    pub chain: [u8; 32],
}

/// Serialized chain material for one entry: three u64s, three u32s, and
/// the outcome code — 37 bytes, built on the stack.
fn entry_material(
    index: u64,
    timestamp_ns: u64,
    request_id: u64,
    domain: u32,
    instance: u32,
    ordinal: u32,
    outcome: &AuditOutcome,
) -> [u8; 37] {
    let mut buf = [0u8; 37];
    buf[0..8].copy_from_slice(&index.to_be_bytes());
    buf[8..16].copy_from_slice(&timestamp_ns.to_be_bytes());
    buf[16..24].copy_from_slice(&request_id.to_be_bytes());
    buf[24..28].copy_from_slice(&domain.to_be_bytes());
    buf[28..32].copy_from_slice(&instance.to_be_bytes());
    buf[32..36].copy_from_slice(&ordinal.to_be_bytes());
    let code: u8 = match outcome {
        AuditOutcome::Allowed => 0,
        AuditOutcome::Denied(r) => 1 + *r as u8,
        // Migration stages occupy a disjoint code band well above any
        // deny reason, so no stage can collide with (or be rewritten
        // into) an allow/deny record without breaking the chain.
        AuditOutcome::Migration(s) => 32 + *s as u8,
    };
    buf[36] = code;
    buf
}

/// One chain link: `SHA256(prev ‖ material)`, streamed through the
/// incremental context — no concatenation buffer, no allocation. The
/// digest is byte-identical to hashing the concatenation.
fn chain_hash(prev: &[u8; 32], material: &[u8; 37]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(prev);
    h.update(material);
    let mut out = [0u8; 32];
    h.finalize_into(&mut out);
    out
}

/// Entries the log retains in memory (about 576 KiB of entries); older
/// ones are folded into the window's [`AuditAnchor`].
pub const AUDIT_WINDOW: usize = 8192;

/// The chain position just before a retained window. The default is
/// genesis: index 0 and the zero hash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditAnchor {
    /// Index of the first entry after the anchor (entries dropped so far).
    pub index: u64,
    /// Chain hash of entry `index - 1` (the zero hash at genesis).
    pub chain: [u8; 32],
}

/// A copy of the retained entries together with their anchor, as
/// returned by [`AuditLog::entries`]. Derefs to the entry `Vec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditWindow {
    /// The chain position before `entries[0]`.
    pub anchor: AuditAnchor,
    /// The retained entries, oldest first.
    pub entries: Vec<AuditEntry>,
}

impl Deref for AuditWindow {
    type Target = Vec<AuditEntry>;
    fn deref(&self) -> &Vec<AuditEntry> {
        &self.entries
    }
}

impl DerefMut for AuditWindow {
    fn deref_mut(&mut self) -> &mut Vec<AuditEntry> {
        &mut self.entries
    }
}

impl<'a> IntoIterator for &'a AuditWindow {
    type Item = &'a AuditEntry;
    type IntoIter = std::slice::Iter<'a, AuditEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Entries [`AuditLog::verify`] can walk: an [`AuditWindow`] from its
/// carried anchor, a bare slice from genesis.
pub trait AuditRecords {
    /// The anchor to start from and the entries that follow it.
    fn anchored(&self) -> (AuditAnchor, &[AuditEntry]);
}

impl AuditRecords for AuditWindow {
    fn anchored(&self) -> (AuditAnchor, &[AuditEntry]) {
        (self.anchor, &self.entries)
    }
}

impl AuditRecords for [AuditEntry] {
    fn anchored(&self) -> (AuditAnchor, &[AuditEntry]) {
        (AuditAnchor::default(), self)
    }
}

#[derive(Default)]
struct Inner {
    anchor: AuditAnchor,
    window: VecDeque<AuditEntry>,
    denials: usize,
}

impl Inner {
    fn len(&self) -> u64 {
        self.anchor.index + self.window.len() as u64
    }
}

/// The log.
#[derive(Default)]
pub struct AuditLog {
    inner: Mutex<Inner>,
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a decision; returns the new chain head. `request_id` is
    /// the telemetry id the manager minted for the request (0 outside
    /// the request path); it is covered by the chain hash. Once the
    /// window is full the oldest entry is folded into the anchor.
    pub fn record(
        &self,
        timestamp_ns: u64,
        request_id: u64,
        domain: u32,
        instance: u32,
        ordinal: u32,
        outcome: AuditOutcome,
    ) -> [u8; 32] {
        let mut inner = self.inner.lock();
        let index = inner.len();
        let prev = inner.window.back().map_or(inner.anchor.chain, |e| e.chain);
        let material =
            entry_material(index, timestamp_ns, request_id, domain, instance, ordinal, &outcome);
        let chain = chain_hash(&prev, &material);
        if inner.window.len() == AUDIT_WINDOW {
            let dropped = inner.window.pop_front().expect("window is full");
            inner.anchor = AuditAnchor { index: dropped.index + 1, chain: dropped.chain };
        }
        if matches!(outcome, AuditOutcome::Denied(_)) {
            inner.denials += 1;
        }
        inner.window.push_back(AuditEntry {
            index,
            timestamp_ns,
            request_id,
            domain,
            instance,
            ordinal,
            outcome,
            chain,
        });
        chain
    }

    /// Number of entries ever recorded (not just the retained window).
    pub fn len(&self) -> usize {
        self.inner.lock().len() as usize
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the retained window and its anchor (reporting, verification).
    pub fn entries(&self) -> AuditWindow {
        let inner = self.inner.lock();
        AuditWindow { anchor: inner.anchor, entries: inner.window.iter().cloned().collect() }
    }

    /// Copy the retained entries whose index is at least `index`: the
    /// cursor for consumers that stream the log. A consumer that falls
    /// more than [`AUDIT_WINDOW`] entries behind finds the first returned
    /// index above the one it asked for; the entries between are gone.
    pub fn entries_since(&self, index: u64) -> Vec<AuditEntry> {
        let inner = self.inner.lock();
        let skip = index.saturating_sub(inner.anchor.index).min(inner.window.len() as u64);
        inner.window.range(skip as usize..).cloned().collect()
    }

    /// Count of denied entries ever recorded.
    pub fn denials(&self) -> usize {
        self.inner.lock().denials
    }

    /// Current chain head (zero hash when empty).
    pub fn head(&self) -> [u8; 32] {
        let inner = self.inner.lock();
        inner.window.back().map_or(inner.anchor.chain, |e| e.chain)
    }

    /// Re-walk the chain from its anchor; true iff every link verifies.
    /// `verify` on a tampered copy (the attacker's edited log) returns
    /// false. A bare slice is walked from genesis, so a slid window
    /// stripped of its anchor does not verify.
    pub fn verify<R: AuditRecords + ?Sized>(records: &R) -> bool {
        let (anchor, entries) = records.anchored();
        let mut prev = anchor.chain;
        for (i, e) in entries.iter().enumerate() {
            if e.index != anchor.index + i as u64 {
                return false;
            }
            let material = entry_material(
                e.index,
                e.timestamp_ns,
                e.request_id,
                e.domain,
                e.instance,
                e.ordinal,
                &e.outcome,
            );
            if chain_hash(&prev, &material) != e.chain {
                return false;
            }
            prev = e.chain;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(n: usize) -> AuditLog {
        let log = AuditLog::new();
        for i in 0..n {
            let outcome = if i % 3 == 0 {
                AuditOutcome::Denied(DenyReason::BadTag)
            } else {
                AuditOutcome::Allowed
            };
            log.record(i as u64 * 1000, i as u64 + 1, 1, 1, 0x17, outcome);
        }
        log
    }

    #[test]
    fn chain_verifies_when_untouched() {
        let log = log_with(10);
        assert_eq!(log.len(), 10);
        assert!(AuditLog::verify(&log.entries()));
        assert_eq!(log.denials(), 4);
        assert_ne!(log.head(), [0; 32]);
    }

    #[test]
    fn empty_log_verifies() {
        let log = AuditLog::new();
        assert!(AuditLog::verify(&log.entries()));
        assert_eq!(log.head(), [0; 32]);
        assert!(log.is_empty());
    }

    #[test]
    fn in_place_edit_detected() {
        let log = log_with(5);
        let mut entries = log.entries();
        entries[2].domain = 99; // attacker rewrites who did it
        assert!(!AuditLog::verify(&entries));
    }

    #[test]
    fn request_id_edit_detected() {
        // The span join key is covered by the chain: an attacker cannot
        // re-point an audit entry at a different request's span.
        let log = log_with(5);
        let mut entries = log.entries();
        entries[2].request_id = 42;
        assert!(!AuditLog::verify(&entries));
    }

    #[test]
    fn outcome_flip_detected() {
        let log = log_with(5);
        let mut entries = log.entries();
        entries[3].outcome = AuditOutcome::Allowed;
        assert!(!AuditLog::verify(&entries));
    }

    #[test]
    fn truncation_from_middle_detected() {
        let log = log_with(5);
        let mut entries = log.entries();
        entries.remove(1);
        assert!(!AuditLog::verify(&entries));
        // Truncating the *tail* is only detectable against an externally
        // anchored head — verify() alone accepts a clean prefix:
        let prefix = &log.entries()[..3];
        assert!(AuditLog::verify(prefix));
        // ...which is why the head hash matters:
        assert_ne!(prefix.last().unwrap().chain, log.head());
    }

    #[test]
    fn migration_stage_entries_are_chained() {
        let log = AuditLog::new();
        for (i, stage) in [
            MigrationStage::Prepared,
            MigrationStage::Quiesced,
            MigrationStage::Transferred,
            MigrationStage::Verified,
            MigrationStage::Committed,
            MigrationStage::Released,
        ]
        .into_iter()
        .enumerate()
        {
            // instance = cluster vm id, ordinal = migration epoch.
            log.record(i as u64 * 500, 0, 2, 7, 3, AuditOutcome::Migration(stage));
        }
        assert!(AuditLog::verify(&log.entries()));
        assert_eq!(log.denials(), 0, "stage records are not denials");
        // Rewriting history — claiming the handoff aborted when the log
        // says it committed — breaks the chain.
        let mut entries = log.entries();
        entries[4].outcome = AuditOutcome::Migration(MigrationStage::Aborted);
        assert!(!AuditLog::verify(&entries));
        // So does moving the epoch (ordinal) of a recorded stage.
        let mut entries = log.entries();
        entries[0].ordinal = 2;
        assert!(!AuditLog::verify(&entries));
    }

    #[test]
    fn chain_hash_edit_detected() {
        let log = log_with(4);
        let mut entries = log.entries();
        entries[1].chain[0] ^= 1;
        assert!(!AuditLog::verify(&entries));
    }

    /// A log that has slid past its window by `extra` entries.
    fn slid_log(extra: usize) -> AuditLog {
        let log = log_with(AUDIT_WINDOW + extra);
        assert_eq!(log.entries().anchor.index, extra as u64);
        log
    }

    #[test]
    fn memory_is_independent_of_run_length() {
        const RECORDS: usize = 1_000_000;
        let log = log_with(RECORDS);
        {
            let inner = log.inner.lock();
            assert_eq!(inner.window.len(), AUDIT_WINDOW);
            assert!(inner.window.capacity() <= 2 * AUDIT_WINDOW, "{}", inner.window.capacity());
        }
        assert_eq!(log.len(), RECORDS);
        // log_with denies every third record.
        assert_eq!(log.denials(), RECORDS.div_ceil(3));
        let window = log.entries();
        assert_eq!(window.len(), AUDIT_WINDOW);
        assert_eq!(window.anchor.index, (RECORDS - AUDIT_WINDOW) as u64);
        assert_eq!(window.last().unwrap().chain, log.head());
        assert!(AuditLog::verify(&window));
    }

    #[test]
    fn slid_window_rejects_edited_anchor() {
        let log = slid_log(10);
        let mut window = log.entries();
        window.anchor.chain[5] ^= 1;
        assert!(!AuditLog::verify(&window));
        let mut window = log.entries();
        window.anchor.index += 1;
        assert!(!AuditLog::verify(&window));
        // Stripped of its anchor the window is walked from genesis.
        assert!(!AuditLog::verify(&log.entries().entries[..]));
    }

    #[test]
    fn slid_window_rejects_dropped_or_reordered_entries() {
        let log = slid_log(10);
        let mut window = log.entries();
        window.remove(0);
        assert!(!AuditLog::verify(&window), "dropping the window's first entry");
        let mut window = log.entries();
        window.remove(AUDIT_WINDOW / 2);
        assert!(!AuditLog::verify(&window));
        let mut window = log.entries();
        window.swap(0, 1);
        assert!(!AuditLog::verify(&window));
    }

    #[test]
    fn slid_window_rejects_edited_entries() {
        let log = slid_log(10);
        for edit in [
            |e: &mut AuditEntry| e.domain = 99,
            |e: &mut AuditEntry| e.timestamp_ns += 1,
            |e: &mut AuditEntry| e.request_id = 42,
            |e: &mut AuditEntry| e.outcome = AuditOutcome::Migration(MigrationStage::Aborted),
            |e: &mut AuditEntry| e.chain[0] ^= 1,
        ] {
            for at in [0, AUDIT_WINDOW - 1] {
                let mut window = log.entries();
                edit(&mut window[at]);
                assert!(!AuditLog::verify(&window), "edit at {at}");
            }
        }
    }

    #[test]
    fn entries_since_is_an_index_cursor() {
        let log = slid_log(100);
        assert_eq!(log.entries_since(0).len(), AUDIT_WINDOW, "dropped entries are gone");
        let tail = log.entries_since(log.len() as u64 - 3);
        assert_eq!(tail.iter().map(|e| e.index).collect::<Vec<_>>(), [8289, 8290, 8291]);
        assert!(log.entries_since(log.len() as u64).is_empty());
        assert!(log.entries_since(u64::MAX).is_empty());
    }

    #[test]
    fn concurrent_appends_keep_chain_valid() {
        use std::sync::Arc;
        let log = Arc::new(AuditLog::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        log.record(i, 0, t, 1, 0x15, AuditOutcome::Allowed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 200);
        assert!(AuditLog::verify(&log.entries()));
    }
}
