//! `repro` — regenerate every table and figure of the evaluation.
//!
//! ```text
//! repro t1|f1|t2|f2|t3|f3|f4|t4|f5|f6|r1|o1|m1|m2|o2|d1|p1|c1|a1  # one experiment
//! repro all                          # everything
//! repro all --quick                  # reduced repetitions (CI-sized)
//! repro p1 --quick --json            # artifact JSON on stdout, table on stderr
//! ```
//!
//! With `--json`, each gated experiment (o1, m1, d1, p1, c1, a1, m2,
//! o2) prints one single-line JSON object carrying `"exp"` and
//! `"gate"` to stdout, and every text table goes to stderr — so
//! `repro <exp> --json > BENCH_<exp>.json` captures the artifact.
//!
//! Exits nonzero if any gated experiment fails its gate (each is
//! documented on its `exp::*` module's `gate_failed`) — the CI gate in
//! `scripts/ci.sh` relies on that.

use vtpm_bench::exp;

struct Sizes {
    t1_reps: usize,
    f1_vms: Vec<usize>,
    f1_ops: usize,
    f2_reps: usize,
    t3_rules: Vec<usize>,
    t3_iters: usize,
    f3_kib: Vec<usize>,
    f3_reps: usize,
    f4_workers: Vec<usize>,
    f4_instances: usize,
    f4_per_instance: usize,
    t4_reps: usize,
    f5_vms: Vec<usize>,
    f6_utils: Vec<f64>,
    f6_arrivals: usize,
    r1_seeds: usize,
    r1_events: usize,
    r1_faults: usize,
    o1_batches: usize,
    o1_per_batch: usize,
    m1_kib: Vec<usize>,
    m1_reps: usize,
    m2_hosts: usize,
    m2_vms: usize,
    m2_rounds: usize,
    m2_seeds: usize,
    m2_beats: usize,
    m2_tick_hosts: usize,
    m2_tick_vms: usize,
    m2_ticks: usize,
    m2_cost_reps: usize,
    o2_hosts: usize,
    o2_vms: usize,
    o2_rounds: usize,
    o2_seeds: usize,
    d1_mirror_seeds: usize,
    d1_migration_seeds: usize,
    d1_events: usize,
    d1_faults: usize,
    d1_stream_events: usize,
    p1_counts: Vec<usize>,
    p1_read_cmds: usize,
    p1_mutate_cmds: usize,
    c1_passes: usize,
    c1_rsa_reps: usize,
    c1_schoolbook_reps: usize,
    c1_aes_mib: usize,
    a1_instances: usize,
    a1_verifiers: usize,
    a1_quotes: usize,
    a1_uncached_quotes: usize,
    a1_attack_seeds: usize,
    a1_clean_seeds: usize,
}

/// `quick_value` when sizing for CI (`--quick`), else `full_value`.
fn pick<T>(quick: bool, quick_value: T, full_value: T) -> T {
    if quick {
        quick_value
    } else {
        full_value
    }
}

impl Sizes {
    /// Every size as `q(--quick, full)`.
    fn new(quick: bool) -> Self {
        let q = |quick_value: usize, full_value: usize| pick(quick, quick_value, full_value);
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        Sizes {
            t1_reps: q(10, 200),
            f1_vms: pick(quick, vec![1, 2, 4], vec![1, 2, 4, 8, 16, 32]),
            f1_ops: q(10, 60),
            f2_reps: q(100, 500),
            t3_rules: pick(quick, vec![10, 100, 1_000], vec![10, 100, 1_000, 10_000]),
            t3_iters: q(20_000, 200_000),
            f3_kib: pick(quick, vec![0, 8, 32], vec![0, 4, 16, 64, 256]),
            f3_reps: q(2, 5),
            f4_workers: pick(
                quick,
                vec![1, 2, 4],
                (0..).map(|i| 1usize << i).take_while(|&w| w <= cores.max(2)).collect(),
            ),
            f4_instances: q(8, 16),
            f4_per_instance: q(300, 2_000),
            t4_reps: q(10, 100),
            f5_vms: pick(quick, vec![1, 4, 8], vec![1, 2, 4, 8, 16, 32]),
            f6_utils: pick(quick, vec![0.2, 0.8], vec![0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99]),
            f6_arrivals: q(10_000, 200_000),
            r1_seeds: q(4, 16),
            r1_events: q(48, 80),
            r1_faults: q(4, 6),
            o1_batches: q(15, 40),
            o1_per_batch: q(200, 500),
            // The budget gate reads the worst premium (largest size),
            // so --quick keeps it and drops the middle of the sweep.
            m1_kib: pick(quick, vec![0, 512], vec![0, 16, 64, 256, 512]),
            m1_reps: q(1, 2),
            // The fleet-scale claim: 100 hosts / 1000 VMs under
            // continuous churn, every seed replayed twice. The gates
            // (accounting, single-winner, replay) are scale-free;
            // --quick keeps the churn and drops the scale.
            m2_hosts: q(8, 100),
            m2_vms: q(24, 1_000),
            m2_rounds: q(6, 8),
            m2_seeds: 2,
            // Control-plane costs: heartbeats per host through the
            // detector, and controller ticks over a busy cluster.
            m2_beats: q(2_000, 20_000),
            m2_tick_hosts: q(16, 32),
            m2_tick_vms: q(64, 256),
            m2_ticks: q(50, 200),
            m2_cost_reps: q(3, 5),
            // The observatory rides the same chaos family; its gates
            // (no attack-free burn, fidelity, loop, overhead) are
            // scale-free, so the sweep stays lighter than R-M2's.
            o2_hosts: q(8, 32),
            o2_vms: q(24, 160),
            o2_rounds: q(5, 8),
            o2_seeds: q(1, 2),
            // 32 + 32 + the matrix = the 65-scenario sweep the chaos CI
            // stage replays byte-for-byte.
            d1_mirror_seeds: q(4, 32),
            d1_migration_seeds: q(4, 32),
            d1_events: q(30, 60),
            d1_faults: q(3, 5),
            d1_stream_events: q(20_000, 200_000),
            // The gate is the ratio of the extremes, so --quick keeps
            // the 100- and 10k-instance endpoints and drops the middle.
            p1_counts: pick(quick, vec![100, 10_000], vec![100, 1_000, 10_000]),
            p1_read_cmds: q(40_000, 50_000),
            p1_mutate_cmds: q(2_000, 5_000),
            // Medians over several passes: the gate compares in-process
            // ratios, which survive CI noise even at --quick sizes.
            c1_passes: q(3, 5),
            c1_rsa_reps: q(10, 30),
            c1_schoolbook_reps: q(3, 6),
            c1_aes_mib: q(1, 4),
            // The farm-scale claim: 1k+ verifiers, 10k+ quote requests
            // against the cached plane, per-request baseline sampled at
            // a count that keeps the run minutes-free (qps is a rate).
            // The speedup gate is a ratio, so --quick shrinks both
            // sides of it together.
            a1_instances: q(4, 16),
            a1_verifiers: q(64, 1_024),
            a1_quotes: q(512, 10_000),
            a1_uncached_quotes: q(64, 512),
            a1_attack_seeds: q(1, 3),
            a1_clean_seeds: q(1, 3),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let sizes = Sizes::new(quick);
    let which: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    let mut failed_gates = Vec::new();
    let which: Vec<&str> = if which.is_empty() || which.contains(&"all") {
        vec![
            "t1", "f1", "t2", "f2", "t3", "f3", "f4", "t4", "f5", "f6", "r1", "o1", "m1", "m2",
            "o2", "d1", "p1", "c1", "a1",
        ]
    } else {
        which
    };

    for exp_name in which {
        let t0 = std::time::Instant::now();
        // Gated experiments also yield (gate failed, artifact fields).
        let (output, gate) = match exp_name {
            "t1" => (exp::t1::render(&exp::t1::run(sizes.t1_reps)), None),
            "f1" => (exp::f1::render(&exp::f1::run(&sizes.f1_vms, sizes.f1_ops)), None),
            "t2" => (exp::t2::render(&exp::t2::run()), None),
            "f2" => (exp::f2::render(&exp::f2::run(sizes.f2_reps)), None),
            "t3" => (exp::t3::render(&exp::t3::run(&sizes.t3_rules, sizes.t3_iters)), None),
            "f3" => (exp::f3::render(&exp::f3::run(&sizes.f3_kib, sizes.f3_reps)), None),
            "f4" => (
                exp::f4::render(&exp::f4::run(
                    &sizes.f4_workers,
                    sizes.f4_instances,
                    sizes.f4_per_instance,
                )),
                None,
            ),
            "t4" => (exp::t4::render(&exp::t4::run(sizes.t4_reps)), None),
            "f5" => (exp::f5::render(&exp::f5::run(&sizes.f5_vms)), None),
            "f6" => (exp::f6::render(&exp::f6::run(&sizes.f6_utils, sizes.f6_arrivals)), None),
            "r1" => (
                exp::r1::render(&exp::r1::run(sizes.r1_seeds, sizes.r1_events, sizes.r1_faults)),
                None,
            ),
            "o1" => {
                let rows = exp::o1::run(sizes.o1_batches, sizes.o1_per_batch);
                let gate = (exp::o1::gate_failed(&rows), exp::o1::json(&rows));
                (exp::o1::render(&rows), Some(gate))
            }
            "m1" => {
                let points = exp::m1::run(&sizes.m1_kib, sizes.m1_reps);
                let gate = (exp::m1::gate_failed(&points), exp::m1::json(&points));
                (exp::m1::render(&points), Some(gate))
            }
            "m2" => {
                let report =
                    exp::m2::run(sizes.m2_hosts, sizes.m2_vms, sizes.m2_rounds, sizes.m2_seeds);
                let cost = exp::m2::control_cost(
                    sizes.m2_beats,
                    sizes.m2_tick_hosts,
                    sizes.m2_tick_vms,
                    sizes.m2_ticks,
                    sizes.m2_cost_reps,
                );
                let gate = (exp::m2::gate_failed(&report), exp::m2::json(&report, &cost));
                (exp::m2::render(&report) + &exp::m2::render_cost(&cost), Some(gate))
            }
            "o2" => {
                let report =
                    exp::o2::run(sizes.o2_hosts, sizes.o2_vms, sizes.o2_rounds, sizes.o2_seeds);
                let gate = (exp::o2::gate_failed(&report), exp::o2::json(&report));
                (exp::o2::render(&report), Some(gate))
            }
            "d1" => {
                let report = exp::d1::run(
                    sizes.d1_mirror_seeds,
                    sizes.d1_migration_seeds,
                    sizes.d1_events,
                    sizes.d1_faults,
                    sizes.d1_stream_events,
                );
                let gate = (exp::d1::gate_failed(&report), exp::d1::json(&report));
                (exp::d1::render(&report), Some(gate))
            }
            "p1" => {
                let points =
                    exp::p1::run(&sizes.p1_counts, sizes.p1_read_cmds, sizes.p1_mutate_cmds);
                let fields = exp::p1::json(&points, sizes.p1_read_cmds, sizes.p1_mutate_cmds);
                (exp::p1::render(&points), Some((exp::p1::gate_failed(&points), fields)))
            }
            "c1" => {
                let report = exp::c1::run(
                    sizes.c1_passes,
                    sizes.c1_rsa_reps,
                    sizes.c1_schoolbook_reps,
                    sizes.c1_aes_mib,
                );
                let gate = (exp::c1::gate_failed(&report), exp::c1::json(&report));
                (exp::c1::render(&report), Some(gate))
            }
            "a1" => {
                let report = exp::a1::run(
                    sizes.a1_instances,
                    sizes.a1_verifiers,
                    sizes.a1_quotes,
                    sizes.a1_uncached_quotes,
                    sizes.a1_attack_seeds,
                    sizes.a1_clean_seeds,
                );
                let gate = (exp::a1::gate_failed(&report), exp::a1::json(&report));
                (exp::a1::render(&report), Some(gate))
            }
            other => {
                eprintln!("unknown experiment `{other}` (expected t1|f1|t2|f2|t3|f3|f4|t4|f5|f6|r1|o1|m1|m2|o2|d1|p1|c1|a1|all)");
                std::process::exit(2);
            }
        };
        let footer = format!("[{} completed in {:.1}s]\n", exp_name, t0.elapsed().as_secs_f64());
        if json {
            eprintln!("{output}\n{footer}");
        } else {
            println!("{output}\n{footer}");
        }
        if let Some((failed, fields)) = gate {
            if failed {
                failed_gates.push(exp_name);
            }
            if json {
                println!("{}", vtpm_bench::artifact(exp_name, quick, &fields, failed));
            }
        }
    }
    if !failed_gates.is_empty() {
        eprintln!("gate failed: {}", failed_gates.join(", "));
        std::process::exit(1);
    }
}
