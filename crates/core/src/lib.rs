//! # vtpm-ac
//!
//! **The paper's contribution**: improved access control for the Xen
//! vTPM, reproducing *Improvement for vTPM Access Control on Xen*
//! (Morikawa, Ebara, Onishi, Nakano — ICPPW 2010).
//!
//! The stock Xen vTPM trusts its environment: the domain↔instance
//! binding is mutable XenStore data, any ordinal reaching the manager
//! executes, and instance secrets sit in cleartext Dom0 memory where
//! "CPU and memory dump software" (the abstract's attack) reads them.
//! This crate hardens that access path with four mechanisms, installed
//! into the unmodified manager through its [`vtpm::AccessHook`] seam:
//!
//! * **AC1 — authenticated binding** ([`credentials`], [`replay`]): a
//!   per-domain credential provisioned at domain-build time keys an
//!   HMAC-SHA256 over every request envelope; sequence numbers defeat
//!   replay. Configuration rewrites (XenStore rebinding) and request
//!   forgery stop working because the binding is now key possession.
//! * **AC2 — command filtering** ([`policy`]): an ordered-rule policy
//!   engine over ordinal groups decides (domain, ordinal) with an
//!   epoch-invalidated decision cache.
//! * **AC3 — dump-resistant state** (mechanism lives in `vtpm`:
//!   [`vtpm::MirrorMode::Encrypted`] + ring scrubbing; this crate turns
//!   it on via [`SecurePlatform`]): resident instance state is encrypted
//!   under a master key held in hypervisor-protected memory.
//! * **AC4 — audit** ([`audit`]): every decision appends to a
//!   hash-chained, tamper-evident log.
//!
//! [`SecurePlatform`] assembles all of it; `vtpm::Platform::baseline()`
//! is the unmodified comparator.

pub mod audit;
pub mod credentials;
pub mod improved;
pub mod policy;
pub mod provision;
pub mod replay;

pub use audit::{
    AuditAnchor, AuditEntry, AuditLog, AuditOutcome, AuditRecords, AuditWindow, MigrationStage,
    AUDIT_WINDOW,
};
pub use credentials::{CredentialTable, CREDENTIAL_LEN};
pub use improved::{AcConfig, AcCosts, ImprovedHook};
pub use policy::{OrdinalGroup, PolicyEngine, PolicyParseError};
pub use provision::SecurePlatform;
pub use replay::ReplayGuard;
