//! Workloads, per-guest op plans, and the benchmark-side guest driver
//! that checks every TPM output against a model of what it must be.

use tpm::{handle, SealedBlob, TpmClient, Transport};
use tpm_crypto::{sha1, Drbg};
use workload::{CommandMix, Op};

/// One benchmark workload: how many guests are resident, how many
/// closed-loop client threads serve them, and the command mix.
pub struct Workload {
    pub name: &'static str,
    pub guests: usize,
    pub threads: usize,
    pub mix: fn() -> CommandMix,
}

/// The workloads, by name.
pub const WORKLOADS: [Workload; 3] = [
    // Integrity-measurement traffic: every Extend mutates permanent
    // state, so the state mirror does most of the Dom0 work.
    Workload {
        name: "measure_8vm",
        guests: 8,
        threads: 1,
        mix: CommandMix::measurement,
    },
    // Sealed storage: the RSA path in the TPM and its crypto; the mirror
    // writes nothing. The control workload for mirror/transport changes.
    Workload {
        name: "seal_2vm",
        guests: 2,
        threads: 1,
        mix: CommandMix::sealing_heavy,
    },
    // Consolidation: many resident guests, two requests in flight, so
    // event channels and backend threads dominate.
    Workload {
        name: "consolidated_32vm",
        guests: 32,
        threads: 2,
        mix: CommandMix::light,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The op classes a workload's mix draws, in `Op::ALL` order.
pub fn classes(mix: &CommandMix) -> Vec<Op> {
    Op::ALL
        .into_iter()
        .filter(|&op| mix.weight(op) > 0)
        .collect()
}

/// PCRs the plans extend and read (rotating, as the guest driver in the
/// `workload` crate does).
pub const PCRS: usize = 8;

/// Ops drawn from the mix per refill of a plan.
const PLAN_CHUNK: usize = 1024;

/// A guest's op plan: an endless stream drawn with
/// [`CommandMix::sequence`] from a DRBG keyed by (seed, guest), so the
/// same seed and guest index always give the same ops.
pub struct Plan {
    mix: CommandMix,
    rng: Drbg,
    buf: Vec<Op>,
    pos: usize,
}

impl Plan {
    pub fn new(mix: CommandMix, seed: u64, guest: usize) -> Self {
        let rng = Drbg::new(format!("perfbench/plan/{seed}/{guest}").as_bytes());
        Plan {
            mix,
            rng,
            buf: Vec::new(),
            pos: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.pos == self.buf.len() {
            self.buf = self.mix.sequence(PLAN_CHUNK, &mut self.rng);
            self.pos = 0;
        }
        self.pos += 1;
        self.buf[self.pos - 1]
    }
}

/// A prepared guest: owned and started TPM, a reference sealed blob,
/// and a model of its PCR bank and last sealed secret.
pub struct GuestDriver<T: Transport> {
    client: TpmClient<T>,
    srk_auth: [u8; 20],
    data_auth: [u8; 20],
    pcrs: [[u8; 20]; PCRS],
    secret: Vec<u8>,
    sealed: SealedBlob,
    operands: Drbg,
    pcr_cursor: usize,
    plan: Plan,
}

impl<T: Transport> GuestDriver<T> {
    /// Startup, take ownership and seal a reference secret, all through
    /// `transport`. Guest `guest` of `seed` gets the same auths, operands
    /// and plan on every arm.
    pub fn prepare(transport: T, mix: CommandMix, seed: u64, guest: usize) -> Result<Self, String> {
        let tag = format!("perfbench/guest/{seed}/{guest}");
        let mut operands = Drbg::new(tag.as_bytes());
        let mut owner_auth = [0u8; 20];
        let mut srk_auth = [0u8; 20];
        let mut data_auth = [0u8; 20];
        operands.fill_bytes(&mut owner_auth);
        operands.fill_bytes(&mut srk_auth);
        operands.fill_bytes(&mut data_auth);

        let mut client = TpmClient::new(transport, tag.as_bytes());
        client
            .startup_clear()
            .map_err(|e| format!("startup: {e}"))?;
        client
            .take_ownership(&owner_auth, &srk_auth)
            .map_err(|e| format!("ownership: {e}"))?;
        let secret = b"reference-secret".to_vec();
        let sealed = client
            .seal(handle::SRK, &srk_auth, &data_auth, None, &secret)
            .map_err(|e| format!("reference seal: {e}"))?;
        Ok(GuestDriver {
            client,
            srk_auth,
            data_auth,
            pcrs: [[0u8; 20]; PCRS],
            secret,
            sealed,
            operands,
            pcr_cursor: 0,
            plan: Plan::new(mix, seed, guest),
        })
    }

    /// The next op of this guest's plan.
    pub fn next_op(&mut self) -> Op {
        self.plan.next_op()
    }

    /// The modelled PCR bank (PCRs `0..PCRS`).
    pub fn model_pcrs(&self) -> &[[u8; 20]; PCRS] {
        &self.pcrs
    }

    pub fn transport_mut(&mut self) -> &mut T {
        self.client.transport_mut()
    }

    /// Run one op (a full TPM exchange, sessions included) and check its
    /// output: PcrRead and Extend against the extend-chain model, Unseal
    /// against the secret last sealed, GetRandom by length.
    pub fn run(&mut self, op: Op) -> Result<(), String> {
        let pcr = self.pcr_cursor % PCRS;
        self.pcr_cursor += 1;
        match op {
            Op::GetRandom => {
                let bytes = self
                    .client
                    .get_random(16)
                    .map_err(|e| format!("GetRandom: {e}"))?;
                if bytes.len() != 16 {
                    return Err(format!("GetRandom returned {} bytes", bytes.len()));
                }
            }
            Op::PcrRead => {
                let value = self
                    .client
                    .pcr_read(pcr as u32)
                    .map_err(|e| format!("PcrRead: {e}"))?;
                if value != self.pcrs[pcr] {
                    return Err(format!("PcrRead {pcr} disagrees with the model"));
                }
            }
            Op::Extend => {
                let mut digest = [0u8; 20];
                self.operands.fill_bytes(&mut digest);
                let mut chain = [0u8; 40];
                chain[..20].copy_from_slice(&self.pcrs[pcr]);
                chain[20..].copy_from_slice(&digest);
                self.pcrs[pcr] = sha1(&chain);
                let value = self
                    .client
                    .extend(pcr as u32, &digest)
                    .map_err(|e| format!("Extend: {e}"))?;
                if value != self.pcrs[pcr] {
                    return Err(format!("Extend {pcr} disagrees with the model"));
                }
            }
            Op::Seal => {
                let secret = self.operands.bytes(16);
                self.sealed = self
                    .client
                    .seal(handle::SRK, &self.srk_auth, &self.data_auth, None, &secret)
                    .map_err(|e| format!("Seal: {e}"))?;
                self.secret = secret;
            }
            Op::Unseal => {
                let out = self
                    .client
                    .unseal(handle::SRK, &self.srk_auth, &self.data_auth, &self.sealed)
                    .map_err(|e| format!("Unseal: {e}"))?;
                if out != self.secret {
                    return Err("Unseal returned another secret than the last sealed".into());
                }
            }
            other => return Err(format!("{} is not in any benchmark mix", other.name())),
        }
        Ok(())
    }
}
