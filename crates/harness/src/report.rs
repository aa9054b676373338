//! One report path for every chaos family.
//!
//! * [`Transcript`] — the typed writer every run folds its observables
//!   into. It streams into SHA-256 and accepts only fixed-width
//!   integers, `bool`s, length-prefixed byte strings and the declared
//!   ASCII record [`Tag`]s, so a count or an id can never be truncated
//!   into it and adjacent strings can never run together.
//! * [`Report`] — each report declares its fields once, in output
//!   order, as a [`Fields`] list. One renderer turns that list into the
//!   `--json` object ([`Report::json`]) and another into the chaos CLI's
//!   text summary ([`Report::text`]).

use tpm_crypto::hash::Digest as _;
use tpm_crypto::sha256::Sha256;
use vtpm_cluster::FabricStats;
use vtpm_sentinel::{Sentinel, Severity};
use vtpm_telemetry::json_str;

use crate::hex;

/// A transcript record tag: one ASCII byte naming the record that
/// follows. Only the tags declared here exist.
#[derive(Clone, Copy)]
pub(crate) struct Tag(u8);

impl Tag {
    /// A fabric fault was armed on an upcoming send.
    pub const FAULT: Tag = Tag(b'F');
    /// A migration committed.
    pub const COMMITTED: Tag = Tag(b'C');
    /// A migration aborted.
    pub const ABORTED: Tag = Tag(b'A');
    /// A migration was refused as stale.
    pub const REJECTED_STALE: Tag = Tag(b'R');
    /// A host (or the manager) crashed.
    pub const CRASH: Tag = Tag(b'X');
    /// Recovery matched the post-command oracle.
    pub const RECOVERED_POST: Tag = Tag(b'P');
    /// Recovery matched the pre-command oracle.
    pub const RECOVERED_PRE: Tag = Tag(b'p');
    /// A single fleet drive was submitted.
    pub const DRIVE: Tag = Tag(b'D');
    /// A deliberate double-drive was submitted.
    pub const DOUBLE_DRIVE: Tag = Tag(b'W');
    /// A crashed host was revived.
    pub const REVIVE: Tag = Tag(b'U');
    /// A host joined.
    pub const JOIN: Tag = Tag(b'J');
    /// The round's action was a no-op.
    pub const QUIET: Tag = Tag(b'Q');
}

/// The run transcript, streamed into SHA-256. Integers are big-endian
/// at their full width (`usize` as `u64`), a `bool` is one 0/1 byte,
/// and byte strings carry a `u64` length prefix. There is no bare-byte
/// writer: the only single bytes are `bool`s and [`Tag`]s.
pub(crate) struct Transcript(Sha256);

impl Default for Transcript {
    fn default() -> Self {
        Transcript(Sha256::new())
    }
}

impl Transcript {
    /// A record tag.
    pub fn tag(&mut self, tag: Tag) -> &mut Self {
        self.0.update(&[tag.0]);
        self
    }

    /// A `u32`, big-endian.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.0.update(&v.to_be_bytes());
        self
    }

    /// A `u64`, big-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.update(&v.to_be_bytes());
        self
    }

    /// A `usize`, written as a `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// A `bool`, as one 0/1 byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.0.update(&[u8::from(v)]);
        self
    }

    /// A byte string, length-prefixed.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.usize(b.len());
        self.0.update(b);
        self
    }

    /// A string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// The SHA-256 over everything written.
    pub fn digest(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.0.finalize_into(&mut out);
        out
    }
}

/// Close a run's sentinel stream: its alert lines, critical-alert count
/// and flight-dump count, each folded into the transcript.
pub(crate) fn close_sentinel(sentinel: &Sentinel, t: &mut Transcript) -> (Vec<String>, u64, u64) {
    let alerts: Vec<String> = sentinel.alerts().iter().map(|a| a.line()).collect();
    let critical =
        sentinel.alerts().iter().filter(|a| a.severity == Severity::Critical).count() as u64;
    let flight_dumps = sentinel.flight_dumps().len() as u64;
    t.usize(alerts.len());
    for line in &alerts {
        t.str(line);
    }
    t.u64(critical).u64(flight_dumps);
    (alerts, critical, flight_dumps)
}

/// One report field's value.
#[derive(Debug)]
pub enum Value<'a> {
    /// A count, id or size.
    Num(u64),
    /// A flag.
    Bool(bool),
    /// A label.
    Str(&'a str),
    /// Lines (divergences, alerts): a JSON string array; their count in
    /// the text summary.
    Lines(&'a [String]),
    /// A transcript digest: full hex in JSON, its first 8 bytes in text.
    Digest(&'a [u8; 32]),
    /// A nested object: a JSON object; `name.field value` pairs in text.
    Obj(Fields<'a>),
    /// A list of objects: a JSON array; its length in text.
    List(Vec<Fields<'a>>),
}

/// `impl From<$ty> for Value` for each field type a report declares.
macro_rules! value_from {
    ($($ty:ty => |$v:ident| $value:expr;)*) => {
        $(impl<'a> From<$ty> for Value<'a> {
            fn from($v: $ty) -> Self {
                $value
            }
        })*
    };
}

value_from! {
    u64 => |v| Value::Num(v);
    u32 => |v| Value::Num(v.into());
    usize => |v| Value::Num(v as u64);
    bool => |v| Value::Bool(v);
    &'a str => |v| Value::Str(v);
    &'a String => |v| Value::Str(v);
    &'a Vec<String> => |v| Value::Lines(v);
    &'a [u8; 32] => |v| Value::Digest(v);
    Fields<'a> => |v| Value::Obj(v);
    Vec<Fields<'a>> => |v| Value::List(v);
}

/// A report's fields, in output order.
#[derive(Debug, Default)]
pub struct Fields<'a>(Vec<(&'static str, Value<'a>)>);

impl<'a> Fields<'a> {
    /// Append one field.
    pub fn put(mut self, name: &'static str, value: impl Into<Value<'a>>) -> Self {
        self.0.push((name, value.into()));
        self
    }
}

/// The fabric counters, as migration and fleet reports nest them.
pub(crate) fn fabric_fields(f: &FabricStats) -> Fields<'static> {
    Fields::default()
        .put("sent", f.sent)
        .put("delivered", f.delivered)
        .put("dropped", f.dropped)
        .put("duplicated", f.duplicated)
        .put("reordered", f.reordered)
        .put("crash_lost", f.crash_lost)
}

/// A chaos report: one field declaration, two renderings.
pub trait Report {
    /// Every field, in output order.
    fn fields(&self) -> Fields<'_>;

    /// One single-line JSON object — the `--json` chaos CLI format.
    fn json(&self) -> String {
        json(&self.fields())
    }

    /// The text summary: ` name value` per field, nested objects
    /// flattened to `name.field`, lists as their length, the
    /// transcript as its first 8 bytes.
    fn text(&self) -> String {
        text("", &self.fields())
    }
}

fn json(fields: &Fields) -> String {
    let array = |items: Vec<String>| format!("[{}]", items.join(","));
    let members: Vec<String> = fields
        .0
        .iter()
        .map(|(name, value)| {
            let value = match value {
                Value::Num(n) => n.to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Str(s) => json_str(s),
                Value::Lines(lines) => array(lines.iter().map(|l| json_str(l)).collect()),
                Value::Digest(d) => json_str(&hex(&d[..])),
                Value::Obj(inner) => json(inner),
                Value::List(items) => array(items.iter().map(json).collect()),
            };
            format!("{}:{value}", json_str(name))
        })
        .collect();
    format!("{{{}}}", members.join(","))
}

fn text(prefix: &str, fields: &Fields) -> String {
    fields
        .0
        .iter()
        .map(|(name, value)| {
            let shown = match value {
                Value::Num(n) => n.to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Str(s) => s.to_string(),
                Value::Lines(lines) => lines.len().to_string(),
                Value::Digest(d) => hex(&d[..8]),
                Value::Obj(inner) => return text(&format!("{prefix}{name}."), inner),
                Value::List(items) => items.len().to_string(),
            };
            format!(" {prefix}{name} {shown}")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(write: impl FnOnce(&mut Transcript)) -> [u8; 32] {
        let mut t = Transcript::default();
        write(&mut t);
        t.digest()
    }

    #[test]
    fn distinct_fields_never_alias() {
        // The old `as u8` / unprefixed writes made each pair collide.
        assert_ne!(digest(|t| { t.u64(1); }), digest(|t| { t.u64(257); }));
        assert_ne!(digest(|t| { t.usize(1); }), digest(|t| { t.usize(257); }));
        assert_ne!(digest(|t| { t.u32(1); }), digest(|t| { t.u32(257); }));
        assert_ne!(digest(|t| { t.str("ab").str("c"); }), digest(|t| { t.str("a").str("bc"); }));
        assert_ne!(digest(|t| { t.bytes(b""); }), digest(|_| {}));
    }

    struct Demo {
        lines: Vec<String>,
        digest: [u8; 32],
    }

    impl Report for Demo {
        fn fields(&self) -> Fields<'_> {
            Fields::default()
                .put("family", "demo")
                .put("n", 7u64)
                .put("ok", true)
                .put("obj", Fields::default().put("a", 1u64).put("b", 2u64))
                .put("list", vec![Fields::default().put("at", 3usize).put("why", "x\"y")])
                .put("empty", Vec::<Fields>::new())
                .put("lines", &self.lines)
                .put("transcript", &self.digest)
        }
    }

    #[test]
    fn one_declaration_renders_json_and_text() {
        let mut digest = [1u8; 32];
        digest[0] = 0xab;
        let r = Demo { lines: vec!["one".into(), "t\"wo".into()], digest };
        let hex_digest = hex(&digest);
        assert_eq!(
            r.json(),
            format!(
                "{{\"family\":\"demo\",\"n\":7,\"ok\":true,\"obj\":{{\"a\":1,\"b\":2}},\
                 \"list\":[{{\"at\":3,\"why\":\"x\\\"y\"}}],\"empty\":[],\
                 \"lines\":[\"one\",\"t\\\"wo\"],\"transcript\":\"{hex_digest}\"}}"
            )
        );
        assert_eq!(
            r.text(),
            " family demo n 7 ok true obj.a 1 obj.b 2 list 1 empty 0 lines 2 \
             transcript ab01010101010101"
        );
    }
}
