//! The traced run: the same seed and plans as the end-to-end run, driven
//! through five arms interleaved in batches so that every arm sees the
//! same host speed:
//!
//! * `ring`: the real split-driver path, with a span around each op and
//!   each `Transport::transact`;
//! * `plain`: the same guests and path with no spans (the tracing
//!   overhead is `ring` against `plain`; the per-thread CPU and context
//!   switches of the transport are read over `plain` batches);
//! * `direct`: a transport that signs an envelope and calls
//!   `VtpmManager::handle` in the client thread;
//! * `walk`: a transport that calls the layers of `handle` one by one:
//!   envelope sign/encode/decode, `AccessHook::authorize` on the
//!   installed `ImprovedHook`, then `VtpmManager::with_instance` around
//!   `execute` (the rest of `with_instance` is the mirror refresh);
//! * `stock`: the direct transport on `Platform::baseline`, for the
//!   improved-vs-stock overhead.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer, kept in memory per client thread, and written out at exit.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tpm::Transport;
use tpm_crypto::{sha256, AesCtr, BigUint, Drbg, RsaPrivateKey};
use vtpm::{
    AccessDecision, AccessHook, Envelope, InstanceId, Platform, RequestContext, ResponseEnvelope,
    ResponseStatus, TpmFront, VtpmManager, VTPM_FAIL_RC,
};
use vtpm_ac::{ImprovedHook, SecurePlatform};
use workload::{CommandMix, Op};
use xen_sim::DomainId;

use crate::load::{self, op_index, CheckTally, Counted, OpSamples};
use crate::plan::{classes, GuestDriver, Workload};
use crate::stats::{self, ratio, Report};
use crate::sys::{self, TaskTotals};

/// Ops each client thread runs per arm per batch.
const BATCH_OPS: usize = 48;
/// Ops each guest runs in the count pass (exact counters).
const COUNT_OPS: usize = 32;
/// Spans kept per client thread for the span file; all spans are
/// aggregated, only the first ones are written out.
const SPANS_KEPT: usize = 50_000;
/// Bound on |walk-arm layer sum / direct-arm `manager.handle_us` - 1|.
const COVERAGE_BOUND: f64 = 0.25;
/// Where the span file goes, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Arm {
    Ring,
    Plain,
    Direct,
    Walk,
    Stock,
}

const ARMS: [Arm; 5] = [Arm::Ring, Arm::Plain, Arm::Direct, Arm::Walk, Arm::Stock];

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Layer {
    /// One guest op (client side, whole exchange).
    Op,
    /// One `Transport::transact` (one TPM command).
    Transact,
    /// `Envelope` build + sign.
    Sign,
    /// `Envelope::encode`.
    Encode,
    /// `VtpmManager::handle` (direct and stock arms).
    Handle,
    /// `Envelope::decode` (walk arm).
    Decode,
    /// `AccessHook::authorize` (walk arm).
    Authorize,
    /// `VtpmManager::with_instance` (walk arm; execute + mirror refresh).
    WithInstance,
    /// `VtpmInstance::execute` (walk arm, inside `WithInstance`).
    Execute,
    /// `ResponseEnvelope::encode` (walk arm).
    Respond,
    /// Response decode back in the client.
    Reply,
}

/// One recorded span.
#[derive(Clone, Copy)]
struct Span {
    op_id: u64,
    arm: Arm,
    layer: Layer,
    /// Index of the enclosing span in the thread's span list, if kept.
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// What one (arm, layer, op class) spent: per-op sums of the layer's
/// span durations (an op may issue several commands), span count and
/// total, and self time (duration minus child spans).
#[derive(Default)]
struct LayerAgg {
    per_op_us: Vec<f64>,
    spans: f64,
    total_us: f64,
    self_us: f64,
}

impl LayerAgg {
    fn merge(&mut self, other: LayerAgg) {
        self.per_op_us.extend(other.per_op_us);
        self.spans += other.spans;
        self.total_us += other.total_us;
        self.self_us += other.self_us;
    }
}

struct Open {
    layer: Layer,
    start: Instant,
    children_ns: u64,
    kept: Option<usize>,
}

/// The per-thread span recorder.
struct SpanLog {
    enabled: bool,
    arm: Arm,
    op: Op,
    op_id: u64,
    epoch: Instant,
    stack: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    /// Per-layer duration sums of the op in flight.
    this_op: HashMap<Layer, f64>,
    agg: HashMap<(Arm, Layer, Op), LayerAgg>,
}

impl SpanLog {
    fn new(epoch: Instant) -> Self {
        SpanLog {
            enabled: false,
            arm: Arm::Plain,
            op: Op::GetRandom,
            op_id: 0,
            epoch,
            stack: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            this_op: HashMap::new(),
            agg: HashMap::new(),
        }
    }
}

thread_local! {
    static LOG: RefCell<SpanLog> = RefCell::new(SpanLog::new(Instant::now()));
}

/// Run `f` inside a span of `layer` (a no-op wrapper while disabled).
fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let on = LOG.with(|l| {
        let mut l = l.borrow_mut();
        if !l.enabled {
            return false;
        }
        let kept = if l.kept.len() < SPANS_KEPT {
            let parent = l.stack.last().and_then(|o| o.kept);
            let s = Span {
                op_id: l.op_id,
                arm: l.arm,
                layer,
                parent,
                start_ns: 0,
                end_ns: 0,
            };
            l.kept.push(s);
            Some(l.kept.len() - 1)
        } else {
            l.dropped += 1;
            None
        };
        l.stack.push(Open {
            layer,
            start: Instant::now(),
            children_ns: 0,
            kept,
        });
        true
    });
    let out = f();
    if on {
        let end = Instant::now();
        LOG.with(|l| {
            let mut l = l.borrow_mut();
            let open = l.stack.pop().expect("span stack balanced");
            debug_assert_eq!(open.layer, layer);
            let dur_ns = (end - open.start).as_nanos() as u64;
            if let Some(parent) = l.stack.last_mut() {
                parent.children_ns += dur_ns;
            }
            if let Some(i) = open.kept {
                let epoch = l.epoch;
                l.kept[i].start_ns = (open.start - epoch).as_nanos() as u64;
                l.kept[i].end_ns = (end - epoch).as_nanos() as u64;
            }
            let (arm, op) = (l.arm, l.op);
            let agg = l.agg.entry((arm, layer, op)).or_default();
            agg.spans += 1.0;
            agg.total_us += dur_ns as f64 / 1e3;
            agg.self_us += dur_ns.saturating_sub(open.children_ns) as f64 / 1e3;
            *l.this_op.entry(layer).or_default() += dur_ns as f64 / 1e3;
            if layer == Layer::Op {
                let this_op = std::mem::take(&mut l.this_op);
                for (layer, us) in this_op {
                    l.agg
                        .entry((arm, layer, op))
                        .or_default()
                        .per_op_us
                        .push(us);
                }
            }
        });
    }
    out
}

/// Select the arm and op the next spans belong to.
fn begin_op(arm: Arm, op: Op, op_id: u64) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        l.enabled = arm != Arm::Plain;
        l.arm = arm;
        l.op = op;
        l.op_id = op_id;
    });
}

/// The response a frontend synthesizes when its request was refused.
fn refused_response() -> Vec<u8> {
    let mut out = Vec::with_capacity(10);
    out.extend_from_slice(&0x00C4u16.to_be_bytes());
    out.extend_from_slice(&10u32.to_be_bytes());
    out.extend_from_slice(&VTPM_FAIL_RC.to_be_bytes());
    out
}

fn reply_body(resp: &[u8]) -> Vec<u8> {
    span(Layer::Reply, || match ResponseEnvelope::decode(resp) {
        Ok(r) if r.status == ResponseStatus::Ok => r.body,
        _ => refused_response(),
    })
}

/// Commands a transport has carried.
trait Sent {
    fn sent(&mut self) -> u64;
}

/// Ring arm transport: a span around the real frontend's transact.
struct Traced(Counted<TpmFront>);

impl Sent for Traced {
    fn sent(&mut self) -> u64 {
        self.0.commands
    }
}

impl Transport for Traced {
    fn transact(&mut self, cmd: &[u8]) -> Vec<u8> {
        span(Layer::Transact, || self.0.transact(cmd))
    }
}

/// Who a benchmark-side transport speaks for.
struct Endpoint {
    manager: Arc<VtpmManager>,
    domain: u32,
    instance: InstanceId,
    key: Option<[u8; 32]>,
    seq: u64,
    commands: u64,
}

impl Endpoint {
    fn envelope(&mut self, cmd: &[u8]) -> Envelope {
        self.seq += 1;
        self.commands += 1;
        let seq = self.seq;
        span(Layer::Sign, || {
            let e = Envelope {
                domain: self.domain,
                instance: self.instance,
                seq,
                locality: 0,
                tag: None,
                command: cmd.to_vec(),
            };
            match &self.key {
                Some(k) => e.sign(k),
                None => e,
            }
        })
    }
}

/// Direct (and stock) arm transport: envelope straight into `handle`.
struct Direct(Endpoint);

impl Sent for Direct {
    fn sent(&mut self) -> u64 {
        self.0.commands
    }
}

impl Transport for Direct {
    fn transact(&mut self, cmd: &[u8]) -> Vec<u8> {
        span(Layer::Transact, || {
            let env = self.0.envelope(cmd);
            let bytes = span(Layer::Encode, || env.encode());
            let manager = &self.0.manager;
            let resp = span(Layer::Handle, || {
                manager.handle(DomainId(self.0.domain), &bytes)
            });
            reply_body(&resp)
        })
    }
}

/// Walk arm transport: the layers of `handle`, called one by one.
struct Walk {
    ep: Endpoint,
    hook: Arc<ImprovedHook>,
    mutating: u64,
}

impl Sent for Walk {
    fn sent(&mut self) -> u64 {
        self.ep.commands
    }
}

impl Transport for Walk {
    fn transact(&mut self, cmd: &[u8]) -> Vec<u8> {
        span(Layer::Transact, || {
            let env = self.ep.envelope(cmd);
            let bytes = span(Layer::Encode, || env.encode());
            let Ok(env) = span(Layer::Decode, || Envelope::decode(&bytes)) else {
                return refused_response();
            };
            let ctx = RequestContext {
                request_id: 0,
                source_domain: DomainId(self.ep.domain),
                claimed_domain: env.domain,
                instance: env.instance,
                seq: env.seq,
                locality: env.locality,
                ordinal: tpm::ordinal_of(&env.command),
                tag: env.tag.as_ref(),
                command: &env.command,
            };
            if span(Layer::Authorize, || self.hook.authorize(&ctx)) != AccessDecision::Allow {
                return refused_response();
            }
            let executed = span(Layer::WithInstance, || {
                self.ep.manager.with_instance(env.instance, |i| {
                    let before = i.tpm.state_generation();
                    let body = span(Layer::Execute, || i.execute(env.locality, &env.command));
                    (body, i.tpm.state_generation() != before)
                })
            });
            let Some((body, mutated)) = executed else {
                return refused_response();
            };
            self.mutating += mutated as u64;
            let resp = span(Layer::Respond, || {
                ResponseEnvelope {
                    seq: env.seq,
                    status: ResponseStatus::Ok,
                    body,
                }
                .encode()
            });
            reply_body(&resp)
        })
    }
}

/// One client thread's guests on every arm (same guest indices, so the
/// same plans).
#[derive(Default)]
struct ClientSet {
    thread: usize,
    ring: Vec<(InstanceId, GuestDriver<Traced>)>,
    direct: Vec<(InstanceId, GuestDriver<Direct>)>,
    walk: Vec<(InstanceId, GuestDriver<Walk>)>,
    /// The direct transport on the baseline platform's manager.
    stock: Vec<(InstanceId, GuestDriver<Direct>)>,
}

/// What one client thread measured.
#[derive(Default)]
struct ClientOut {
    samples: HashMap<Arm, OpSamples>,
    agg: HashMap<(Arm, Layer, Op), LayerAgg>,
    kept: Vec<Span>,
    dropped: u64,
    plain_cmds: u64,
    plain_tasks: TaskTotals,
    crypto: Crypto,
}

/// Timed calls to the crypto primitives on fixed inputs.
#[derive(Default)]
struct Crypto {
    sha256_4k_us: Vec<f64>,
    aes_ctr_4k_us: Vec<f64>,
    rsa1024_private_us: Vec<f64>,
}

struct CryptoInputs {
    page: Vec<u8>,
    ctr: AesCtr,
    rsa: RsaPrivateKey,
    cipher: BigUint,
}

impl CryptoInputs {
    fn new(seed: u64) -> Self {
        let mut rng = Drbg::new(format!("perfbench/crypto/{seed}").as_bytes());
        let page = rng.bytes(4096);
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        let rsa = RsaPrivateKey::generate(1024, &mut rng);
        let cipher = BigUint::from_bytes_be(&rng.bytes(64));
        CryptoInputs {
            page,
            ctr: AesCtr::new(&key, [7; 8]),
            rsa,
            cipher,
        }
    }

    fn sample(&self, out: &mut Crypto) {
        let t = Instant::now();
        std::hint::black_box(sha256(std::hint::black_box(&self.page)));
        out.sha256_4k_us.push(t.elapsed().as_secs_f64() * 1e6);
        let mut buf = self.page.clone();
        let t = Instant::now();
        self.ctr.apply_keystream(std::hint::black_box(&mut buf));
        out.aes_ctr_4k_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&buf);
        let t = Instant::now();
        std::hint::black_box(self.rsa.raw(std::hint::black_box(&self.cipher)));
        out.rsa1024_private_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
}

/// Run `n` ops round-robin over `guests` on `arm`.
fn batch<T: Transport>(
    arm: Arm,
    guests: &mut [(InstanceId, GuestDriver<T>)],
    n: usize,
    next_id: &mut u64,
    samples: &mut OpSamples,
    epoch: Instant,
) {
    for k in 0..n {
        let (_, driver) = &mut guests[k % guests.len()];
        let op = driver.next_op();
        *next_id += 1;
        begin_op(arm, op, *next_id);
        let t0 = Instant::now();
        let outcome = span(Layer::Op, || driver.run(op));
        samples.record(op, t0, epoch, outcome);
    }
}

fn sent<T: Transport + Sent>(guests: &mut [(InstanceId, GuestDriver<T>)]) -> u64 {
    guests
        .iter_mut()
        .map(|(_, d)| d.transport_mut().sent())
        .sum()
}

fn client_loop(
    mut set: ClientSet,
    barrier: &Barrier,
    stop: &AtomicBool,
    deadline: Instant,
    seed: u64,
    crypto: Option<&CryptoInputs>,
) -> (ClientSet, ClientOut) {
    let epoch = Instant::now();
    LOG.with(|l| *l.borrow_mut() = SpanLog::new(epoch));
    let mut out = ClientOut::default();
    let mut next_id = (set.thread as u64) << 48;
    let leader = set.thread == 0;
    // Every thread draws the same arm order from the same DRBG.
    let mut order_rng = Drbg::new(format!("perfbench/arm-order/{seed}").as_bytes());
    let mut order = ARMS;
    loop {
        // A fresh order every round: the first batch on the ring after a
        // benchmark-side arm runs colder, and no arm may always be it.
        for i in (1..order.len()).rev() {
            order.swap(i, order_rng.below(i as u64 + 1) as usize);
        }
        for arm in order {
            barrier.wait();
            let before = (arm == Arm::Plain && leader).then(TaskTotals::now);
            let cmds0 = sent(&mut set.ring);
            barrier.wait();
            let samples = out.samples.entry(arm).or_default();
            match arm {
                Arm::Ring | Arm::Plain => {
                    batch(arm, &mut set.ring, BATCH_OPS, &mut next_id, samples, epoch)
                }
                Arm::Direct => batch(
                    arm,
                    &mut set.direct,
                    BATCH_OPS,
                    &mut next_id,
                    samples,
                    epoch,
                ),
                Arm::Walk => batch(arm, &mut set.walk, BATCH_OPS, &mut next_id, samples, epoch),
                Arm::Stock => batch(arm, &mut set.stock, BATCH_OPS, &mut next_id, samples, epoch),
            }
            barrier.wait();
            if arm == Arm::Plain {
                out.plain_cmds += sent(&mut set.ring) - cmds0;
                if let Some(before) = before {
                    out.plain_tasks.add(&TaskTotals::now().since(&before));
                }
            }
        }
        if leader {
            if let Some(c) = crypto {
                c.sample(&mut out.crypto);
            }
            if Instant::now() >= deadline {
                stop.store(true, Ordering::SeqCst);
            }
        }
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        out.agg = std::mem::take(&mut l.agg);
        out.kept = std::mem::take(&mut l.kept);
        out.dropped = l.dropped;
        l.enabled = false;
    });
    (set, out)
}

/// Counters that must come out identical whichever arm runs the plan.
#[derive(Debug, PartialEq, Eq, Clone, Copy, Default)]
struct ExactCounts {
    ops: u64,
    commands: u64,
    mirror_updates: u64,
    mirror_clean: u64,
    mirror_bytes: u64,
    mirror_data_pages: u64,
    audit_entries: u64,
}

impl ExactCounts {
    fn add(&mut self, o: &ExactCounts) {
        self.ops += o.ops;
        self.commands += o.commands;
        self.mirror_updates += o.mirror_updates;
        self.mirror_clean += o.mirror_clean;
        self.mirror_bytes += o.mirror_bytes;
        self.mirror_data_pages += o.mirror_data_pages;
        self.audit_entries += o.audit_entries;
    }
}

/// Run the next [`COUNT_OPS`] plan ops of every guest, one guest at a
/// time, and count what the manager's mirror and the audit log did.
fn count_pass<T: Transport + Sent>(
    guests: &mut [(InstanceId, GuestDriver<T>)],
    manager: &VtpmManager,
    hook: &ImprovedHook,
) -> Result<ExactCounts, String> {
    let io0 = manager.mirror_io_stats();
    let audit0 = hook.audit.len() as u64;
    let cmds0 = sent(guests);
    for (_, driver) in guests.iter_mut() {
        for _ in 0..COUNT_OPS {
            let op = driver.next_op();
            driver.run(op).map_err(|e| format!("count pass: {e}"))?;
        }
    }
    let io = manager.mirror_io_stats();
    Ok(ExactCounts {
        ops: (guests.len() * COUNT_OPS) as u64,
        commands: sent(guests) - cmds0,
        mirror_updates: io.updates - io0.updates,
        mirror_clean: io.clean_updates - io0.clean_updates,
        mirror_bytes: io.bytes_written - io0.bytes_written,
        mirror_data_pages: io.data_pages_written - io0.data_pages_written,
        audit_entries: hook.audit.len() as u64 - audit0,
    })
}

/// Domain ids for the benchmark-side arms: far above any launched guest.
const DIRECT_DOMAIN_BASE: u32 = 0x1000;
const WALK_DOMAIN_BASE: u32 = 0x2000;
const STOCK_DOMAIN_BASE: u32 = 0x3000;

/// A fresh instance on `manager` spoken for by `domain`, with an AC1
/// credential when the manager runs the improved hook.
fn endpoint(
    manager: &Arc<VtpmManager>,
    hook: Option<&ImprovedHook>,
    domain: u32,
) -> Result<Endpoint, String> {
    let instance = manager
        .create_instance()
        .map_err(|e| format!("create instance: {e:?}"))?;
    let key = hook.map(|h| h.credentials.provision(domain, instance));
    Ok(Endpoint {
        manager: Arc::clone(manager),
        domain,
        instance,
        key,
        seq: 0,
        commands: 0,
    })
}

fn prepare<T: Transport>(
    transport: T,
    instance: InstanceId,
    mix: &CommandMix,
    seed: u64,
    g: usize,
) -> Result<(InstanceId, GuestDriver<T>), String> {
    let mut driver = GuestDriver::prepare(transport, mix.clone(), seed, g)?;
    load::warm_up(&mut driver)?;
    Ok((instance, driver))
}

type Aggs = HashMap<(Arm, Layer, Op), LayerAgg>;

/// (total µs, span count) of (arm, layer) over every op class.
fn layer_total_us(aggs: &Aggs, arm: Arm, layer: Layer) -> (f64, f64) {
    aggs.iter()
        .filter(|((a, l, _), _)| *a == arm && *l == layer)
        .fold((0.0, 0.0), |(sum, n), (_, g)| {
            (sum + g.total_us, n + g.spans)
        })
}

/// Mean duration of one (arm, layer) span.
fn layer_mean_us(aggs: &Aggs, arm: Arm, layer: Layer) -> f64 {
    let (sum, n) = layer_total_us(aggs, arm, layer);
    ratio(sum, n)
}

fn layer_self_us(aggs: &Aggs, arm: Arm, layer: Layer) -> f64 {
    aggs.iter()
        .filter(|((a, l, _), _)| *a == arm && *l == layer)
        .map(|(_, g)| g.self_us)
        .sum()
}

/// Median over `op`-class ops of the time one op spent in (arm, layer).
fn layer_p50_us(aggs: &mut Aggs, arm: Arm, layer: Layer, op: Op) -> f64 {
    aggs.get_mut(&(arm, layer, op))
        .map(|g| stats::median(&mut g.per_op_us))
        .unwrap_or(0.0)
}

fn write_spans(path: &str, outs: &[ClientOut]) -> std::io::Result<()> {
    fs::create_dir_all(SPAN_DIR)?;
    let mut f = std::io::BufWriter::new(fs::File::create(path)?);
    writeln!(f, "thread,index,op_id,arm,layer,parent,start_ns,end_ns")?;
    for (t, out) in outs.iter().enumerate() {
        for (i, s) in out.kept.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                f,
                "{t},{i},{},{:?},{:?},{parent},{},{}",
                s.op_id, s.arm, s.layer, s.start_ns, s.end_ns
            )?;
        }
    }
    f.flush()
}

/// Both platforms and every client thread's guests on every arm.
struct Rig {
    sp: SecurePlatform,
    stock: Platform,
    sets: Vec<ClientSet>,
}

fn set_up(w: &Workload, mix: &CommandMix, seed: u64) -> Result<Rig, String> {
    let sp = SecurePlatform::full(&load::platform_seed(w)).map_err(|e| format!("boot: {e:?}"))?;
    let stock =
        Platform::baseline(&load::platform_seed(w)).map_err(|e| format!("boot baseline: {e:?}"))?;
    let manager = &sp.platform.manager;
    let mut sets: Vec<ClientSet> = (0..w.threads)
        .map(|t| ClientSet {
            thread: t,
            ..ClientSet::default()
        })
        .collect();
    for g in 0..w.guests {
        let set = &mut sets[g % w.threads];
        let d = g as u32;
        let guest = sp
            .launch_guest(&format!("guest{g}"))
            .map_err(|e| format!("launch: {e:?}"))?;
        let ring = Traced(Counted {
            inner: guest.front,
            commands: 0,
        });
        set.ring.push(prepare(ring, guest.instance, mix, seed, g)?);
        let ep = endpoint(manager, Some(&sp.hook), DIRECT_DOMAIN_BASE + d)?;
        let id = ep.instance;
        set.direct.push(prepare(Direct(ep), id, mix, seed, g)?);
        let ep = endpoint(manager, Some(&sp.hook), WALK_DOMAIN_BASE + d)?;
        let walk = Walk {
            ep,
            hook: Arc::clone(&sp.hook),
            mutating: 0,
        };
        let id = walk.ep.instance;
        set.walk.push(prepare(walk, id, mix, seed, g)?);
        let ep = endpoint(&stock.manager, None, STOCK_DOMAIN_BASE + d)?;
        let id = ep.instance;
        set.stock.push(prepare(Direct(ep), id, mix, seed, g)?);
    }
    Ok(Rig { sp, stock, sets })
}

/// The interleaved phase: one client thread per set until `seconds`
/// have passed.
fn interleave(sets: Vec<ClientSet>, seed: u64, seconds: u64) -> Vec<(ClientSet, ClientOut)> {
    let crypto_inputs = CryptoInputs::new(seed);
    let barrier = Barrier::new(sets.len());
    let stop = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = sets
            .into_iter()
            .map(|set| {
                let (barrier, stop) = (&barrier, &stop);
                let crypto = (set.thread == 0).then_some(&crypto_inputs);
                std::thread::Builder::new()
                    .name(format!("{}-{}", sys::CLIENT_THREAD_PREFIX, set.thread))
                    .spawn_scoped(s, move || {
                        client_loop(set, barrier, stop, deadline, seed, crypto)
                    })
                    .expect("spawn client thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Everything the client threads measured, merged.
#[derive(Default)]
struct Merged {
    samples: HashMap<Arm, OpSamples>,
    aggs: Aggs,
    plain_cmds: u64,
    plain_tasks: TaskTotals,
    crypto: Crypto,
    dropped: u64,
}

impl Merged {
    fn add(&mut self, out: ClientOut) {
        for (arm, s) in out.samples {
            self.samples.entry(arm).or_default().merge(s);
        }
        for (key, agg) in out.agg {
            self.aggs.entry(key).or_default().merge(agg);
        }
        self.plain_cmds += out.plain_cmds;
        self.plain_tasks.add(&out.plain_tasks);
        self.crypto.sha256_4k_us.extend(out.crypto.sha256_4k_us);
        self.crypto.aes_ctr_4k_us.extend(out.crypto.aes_ctr_4k_us);
        self.crypto
            .rsa1024_private_us
            .extend(out.crypto.rsa1024_private_us);
        self.dropped += out.dropped;
    }

    /// Mix-weighted per-class p50 of `arm`'s ops (see `load::mix_p50`).
    fn mix_p50(&mut self, mix: &CommandMix, arm: Arm) -> f64 {
        self.samples
            .get_mut(&arm)
            .map(|s| load::mix_p50(mix, &mut s.latency_us))
            .unwrap_or(0.0)
    }

    fn class_p50(&mut self, arm: Arm, op: Op) -> f64 {
        self.samples
            .get_mut(&arm)
            .map(|s| stats::median(&mut s.latency_us[op_index(op)]))
            .unwrap_or(0.0)
    }
}

/// Commands sent on `guests` and their modelled PCR banks.
fn collect<T: Transport + Sent>(
    guests: &mut [(InstanceId, GuestDriver<T>)],
    models: &mut Vec<(InstanceId, [[u8; 20]; crate::plan::PCRS])>,
) -> u64 {
    models.extend(guests.iter().map(|(id, d)| (*id, *d.model_pcrs())));
    sent(guests)
}

/// The traced run of workload `w`.
pub fn run(w: &Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let mix = (w.mix)();
    let Rig {
        sp,
        stock,
        mut sets,
    } = set_up(w, &mix, seed)?;
    let manager = &sp.platform.manager;

    // Count pass: the same plan slice on the ring, direct and walk arms;
    // the counters must agree exactly.
    let mut tally = CheckTally::default();
    let mut c = ExactCounts::default();
    for set in sets.iter_mut() {
        let ring = count_pass(&mut set.ring, manager, &sp.hook)?;
        let direct = count_pass(&mut set.direct, manager, &sp.hook)?;
        let walk = count_pass(&mut set.walk, manager, &sp.hook)?;
        tally.check(ring == direct && ring == walk, || {
            format!(
                "count pass differs between arms: ring {ring:?} direct {direct:?} walk {walk:?}"
            )
        });
        c.add(&ring);
    }

    let steal0 = sys::steal_ms();
    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    let (mut sets, outs): (Vec<ClientSet>, Vec<ClientOut>) =
        interleave(sets, seed, seconds).into_iter().unzip();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let steal_ms = sys::steal_ms() - steal0;
    let span_path = format!("{SPAN_DIR}/spans-{}-{seed}.csv", w.name);
    if let Err(e) = write_spans(&span_path, &outs) {
        eprintln!("perfbench: could not write {span_path}: {e}");
    }
    let mut m = Merged::default();
    for out in outs {
        m.add(out);
    }

    // End-of-run checks, as in the end-to-end run, on every arm.
    let mut models = Vec::new();
    let mut stock_models = Vec::new();
    let mut improved_sent = 0;
    let mut stock_sent = 0;
    let mut walk_mutating = 0;
    for set in sets.iter_mut() {
        improved_sent +=
            collect(&mut set.ring, &mut models) + collect(&mut set.direct, &mut models);
        collect(&mut set.walk, &mut models);
        walk_mutating += set
            .walk
            .iter_mut()
            .map(|(_, d)| d.transport_mut().mutating)
            .sum::<u64>();
        stock_sent += collect(&mut set.stock, &mut stock_models);
    }
    let improved_stats = manager.stats_snapshot();
    let stock_stats = stock.manager.stats_snapshot();
    load::check_pcr_banks(manager, &models, &mut tally);
    load::check_pcr_banks(&stock.manager, &stock_models, &mut tally);
    load::check_manager(manager, &sp.hook, improved_sent, &mut tally);
    load::check_stats(&stock.manager, stock_sent, &mut tally);
    let ids: Vec<_> = models.iter().map(|(id, _)| *id).collect();
    load::check_mirror(manager, &ids, &mut tally);
    let stock_ids: Vec<_> = stock_models.iter().map(|(id, _)| *id).collect();
    load::check_mirror(&stock.manager, &stock_ids, &mut tally);

    // Coverage: the walk arm's layers against the direct arm's handle.
    let walk_layers = [
        Layer::Decode,
        Layer::Authorize,
        Layer::WithInstance,
        Layer::Respond,
    ];
    let walk_cmds = layer_total_us(&m.aggs, Arm::Walk, Layer::Transact).1;
    let walk_sum: f64 = walk_layers
        .iter()
        .map(|&l| layer_total_us(&m.aggs, Arm::Walk, l).0)
        .sum();
    let handle_us = layer_mean_us(&m.aggs, Arm::Direct, Layer::Handle);
    let coverage = ratio(ratio(walk_sum, walk_cmds), handle_us);
    tally.check((coverage - 1.0).abs() <= COVERAGE_BOUND, || {
        format!(
            "walk-arm layers cover {coverage:.3} of manager.handle_us (bound ±{COVERAGE_BOUND})"
        )
    });

    for arm in ARMS {
        if let Some(e) = m.samples.get(&arm).and_then(|s| s.first_error.as_ref()) {
            eprintln!("perfbench: {arm:?} arm: {e}");
        }
    }
    if let Some(e) = &tally.first_error {
        eprintln!("perfbench: check failed: {e}");
    }

    let mut r = Report::default();
    for s in m.samples.values() {
        r.attempted += s.attempted;
        r.failed += s.failed;
    }
    r.attempted += tally.attempted;
    r.failed += tally.failed;

    let per_update = |v: u64| ratio(v as f64, c.mirror_updates as f64);
    let aggs = &mut m.aggs;
    let execute_us = layer_mean_us(aggs, Arm::Walk, Layer::Execute);
    let refresh_us = ratio(
        layer_self_us(aggs, Arm::Walk, Layer::WithInstance),
        walk_cmds,
    );
    let authorize_us = layer_mean_us(aggs, Arm::Walk, Layer::Authorize);
    // vtpm::mirror
    r.metric("mirror.refresh_us", refresh_us, "us");
    r.metric(
        "mirror.updates_per_op",
        ratio(c.mirror_updates as f64, c.ops as f64),
        "count",
    );
    r.metric(
        "mirror.kib_per_update",
        per_update(c.mirror_bytes) / 1024.0,
        "KiB",
    );
    r.metric(
        "mirror.data_pages_per_update",
        per_update(c.mirror_data_pages),
        "count",
    );
    r.metric("mirror.clean_ratio", per_update(c.mirror_clean), "ratio");
    // tpm_crypto
    r.metric(
        "crypto.sha256_4k_us",
        stats::median(&mut m.crypto.sha256_4k_us),
        "us",
    );
    r.metric(
        "crypto.aes_ctr_4k_us",
        stats::median(&mut m.crypto.aes_ctr_4k_us),
        "us",
    );
    r.metric(
        "crypto.rsa1024_private_us",
        stats::median(&mut m.crypto.rsa1024_private_us),
        "us",
    );
    // tpm
    r.metric("tpm.execute_us", execute_us, "us");
    r.metric(
        "tpm.execute_us.read",
        layer_p50_us(aggs, Arm::Walk, Layer::Execute, Op::PcrRead),
        "us",
    );
    r.metric(
        "tpm.execute_us.random",
        layer_p50_us(aggs, Arm::Walk, Layer::Execute, Op::GetRandom),
        "us",
    );
    r.metric(
        "tpm.mutating_share",
        ratio(walk_mutating as f64, walk_cmds),
        "ratio",
    );
    // vtpm_ac
    r.metric("ac.authorize_us", authorize_us, "us");
    r.metric(
        "ac.audit_entries_per_cmd",
        ratio(c.audit_entries as f64, c.commands as f64),
        "count",
    );
    // vtpm::manager
    r.metric("manager.handle_us", handle_us, "us");
    r.metric(
        "manager.handle_us.read",
        layer_p50_us(aggs, Arm::Direct, Layer::Handle, Op::PcrRead),
        "us",
    );
    r.metric(
        "manager.handle_us.random",
        layer_p50_us(aggs, Arm::Direct, Layer::Handle, Op::GetRandom),
        "us",
    );
    let skipped = ratio((c.commands - c.mirror_updates) as f64, c.commands as f64);
    r.metric("manager.mirror_skip_ratio", skipped, "ratio");
    let refused = [improved_stats, stock_stats]
        .iter()
        .map(|s| s.denied + s.errors + s.throttled)
        .sum::<u64>();
    r.metric("manager.refused", refused as f64, "count");
    // vtpm::device + xen_sim
    let cmd_us = layer_mean_us(aggs, Arm::Ring, Layer::Transact);
    let plain_cmds = m.plain_cmds as f64;
    r.metric("transport.cmd_us", cmd_us, "us");
    r.metric("transport.rtt_us", cmd_us - handle_us, "us");
    r.metric(
        "transport.ctxsw_per_cmd",
        ratio(m.plain_tasks.switches, plain_cmds),
        "count",
    );
    r.metric(
        "transport.dom0_cpu_us_per_cmd",
        ratio(m.plain_tasks.other_cpu_ns / 1e3, plain_cmds),
        "us",
    );
    r.metric(
        "transport.guest_cpu_us_per_cmd",
        ratio(m.plain_tasks.client_cpu_ns / 1e3, plain_cmds),
        "us",
    );
    // workload / tpm::client
    let ring_ops = m
        .samples
        .get(&Arm::Ring)
        .map(|s| s.completed())
        .unwrap_or(0) as f64;
    r.metric(
        "client.cmds_per_op",
        ratio(c.commands as f64, c.ops as f64),
        "count",
    );
    r.metric(
        "client.self_us_per_op",
        ratio(layer_self_us(aggs, Arm::Ring, Layer::Op), ring_ops),
        "us",
    );
    r.metric(
        "client.tag_us",
        layer_mean_us(aggs, Arm::Walk, Layer::Sign),
        "us",
    );
    // The paper's headline number, the host, and the trace itself.
    let improved = m.mix_p50(&mix, Arm::Direct);
    let stock_p50 = m.mix_p50(&mix, Arm::Stock);
    r.metric(
        "ac.overhead_pct",
        (ratio(improved, stock_p50) - 1.0) * 100.0,
        "%",
    );
    r.metric("host.steal_ms", steal_ms, "ms");
    r.metric("walk.coverage", coverage, "ratio");
    let traced = m.mix_p50(&mix, Arm::Ring);
    let plain = m.mix_p50(&mix, Arm::Plain);
    r.metric(
        "trace.overhead_pct",
        (ratio(traced, plain) - 1.0) * 100.0,
        "%",
    );

    // Diagnostics: per-class numbers for the classes in this mix, and
    // each walk-arm layer's share of the direct arm's handle time.
    for op in classes(&mix) {
        let stem = load::class_stem(op);
        let (ring, direct, stock_us) = (
            m.class_p50(Arm::Plain, op),
            m.class_p50(Arm::Direct, op),
            m.class_p50(Arm::Stock, op),
        );
        r.diagnostic(&format!("ring.{stem}_p50_us"), ring, "us");
        r.diagnostic(&format!("direct.{stem}_p50_us"), direct, "us");
        r.diagnostic(&format!("stock.{stem}_p50_us"), stock_us, "us");
        r.diagnostic(
            &format!("ac.overhead_pct.{stem}"),
            (ratio(direct, stock_us) - 1.0) * 100.0,
            "%",
        );
        let aggs = &mut m.aggs;
        r.diagnostic(
            &format!("tpm.execute_us.{stem}"),
            layer_p50_us(aggs, Arm::Walk, Layer::Execute, op),
            "us",
        );
        r.diagnostic(
            &format!("manager.handle_us.{stem}"),
            layer_p50_us(aggs, Arm::Direct, Layer::Handle, op),
            "us",
        );
    }
    let aggs = &m.aggs;
    let handle_share = |us: f64| ratio(us, handle_us);
    let decode = layer_mean_us(aggs, Arm::Walk, Layer::Decode)
        + layer_mean_us(aggs, Arm::Walk, Layer::Respond);
    r.diagnostic("share.handle.mirror", handle_share(refresh_us), "ratio");
    r.diagnostic("share.handle.execute", handle_share(execute_us), "ratio");
    r.diagnostic(
        "share.handle.authorize",
        handle_share(authorize_us),
        "ratio",
    );
    r.diagnostic("share.handle.envelope_codec", handle_share(decode), "ratio");
    r.diagnostic(
        "share.cmd.transport",
        ratio(cmd_us - handle_us, cmd_us),
        "ratio",
    );
    r.diagnostic("share.cmd.handle", ratio(handle_us, cmd_us), "ratio");
    r.diagnostic("cpu_per_wall", ratio(cpu_s, wall_s), "ratio");
    r.diagnostic("plain_cmds", plain_cmds, "count");
    r.diagnostic("spans_dropped_from_file", m.dropped as f64, "count");
    r.diagnostic(
        "crypto_samples",
        m.crypto.sha256_4k_us.len() as f64,
        "count",
    );
    Ok(r)
}
