//! Regenerates the tables and figures of the paper's evaluation (Section 5).
//!
//! ```text
//! cargo run --release -p mv-bench --bin figures -- all --quick
//! cargo run --release -p mv-bench --bin figures -- fig5
//! cargo run --release -p mv-bench --bin figures -- fig10 --authors 20000
//! ```
//!
//! Sub-commands: `fig1`, `fig4`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`,
//! `fig10`, `fig11`, `session`, `sharded`, `microbench`, `approx`,
//! `resilience`, `serve`, `ablation`, `all`.
//! Options: `--quick` (3 scaling points instead of 10, fewer queries),
//! `--authors N` (size of the "full" dataset for fig1/fig10/fig11; default
//! 10000), `--threads N` (worker threads for the exact-backend workloads of
//! fig5/fig6 and the `session` smoke; default 1), `--shards N` (shard count
//! of the `sharded` scale-out campaign; default 4), `--json PATH` (where to
//! write the machine-readable report; default `BENCH_figures.json`),
//! `--no-json`.
//!
//! The fig5/fig6 rows and the `session` series include the shared
//! OBDD-manager counters (nodes allocated, unique-table / apply-cache hit
//! rates, peak node count), so cache reuse across queries is observable in
//! `BENCH_figures.json`.
//!
//! Besides the human-readable tables on stdout, every run writes a
//! machine-readable report with one series per figure. Dataset generation is
//! fully deterministic (seeded), so series *shapes* (sizes, counts, block
//! structure) are reproducible across runs and machines; timings naturally
//! are not.

use mv_bench::json::Json;
use mv_bench::*;

struct Options {
    quick: bool,
    full_authors: usize,
    threads: usize,
    shards: usize,
    chaos_seed: u64,
    json_path: Option<String>,
}

/// The machine-readable report accumulated while figures run.
struct Report {
    figures: Json,
}

impl Report {
    fn new() -> Report {
        Report {
            figures: Json::obj::<String>([]),
        }
    }

    fn add(&mut self, figure: &str, series: Json) {
        self.figures.push(figure, series);
    }

    fn write(self, opts: &Options) {
        let Some(path) = &opts.json_path else {
            return;
        };
        let report = Json::obj([
            ("schema_version", Json::from(1u64)),
            ("generator", Json::from("mv-bench figures")),
            ("quick", Json::from(opts.quick)),
            ("full_authors", Json::from(opts.full_authors)),
            ("dataset_seed", Json::from(dataset_seed())),
            ("figures", self.figures),
        ]);
        match std::fs::write(path, format!("{report}\n")) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
    }
}

/// The sub-commands `main` accepts; anything else is an error, not a no-op.
const KNOWN_FIGURES: &[&str] = &[
    "fig1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "session",
    "sharded",
    "microbench",
    "approx",
    "resilience",
    "serve",
    "updates",
    "ablation",
    "all",
];

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: figures [{}] [--quick] [--authors N] [--threads N] [--shards N] [--chaos-seed N] [--json PATH | --no-json]",
        KNOWN_FIGURES.join("|")
    );
    std::process::exit(2);
}

/// The deterministic generator seed shared by every dataset scale.
fn dataset_seed() -> u64 {
    mv_dblp::DblpConfig::with_authors(1).seed
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut opts = Options {
        quick: false,
        full_authors: 10_000,
        threads: 1,
        shards: 4,
        chaos_seed: 0xC0FFEE,
        json_path: Some("BENCH_figures.json".to_string()),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--authors" => {
                i += 1;
                opts.full_authors = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| usage_error("--authors needs a number"));
            }
            "--threads" => {
                i += 1;
                opts.threads = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| usage_error("--threads needs a number"));
            }
            "--shards" => {
                i += 1;
                opts.shards = args
                    .get(i)
                    .and_then(|a| a.parse::<usize>().ok())
                    .filter(|&s| s >= 1)
                    .unwrap_or_else(|| usage_error("--shards needs a number >= 1"));
            }
            "--chaos-seed" => {
                i += 1;
                opts.chaos_seed = args
                    .get(i)
                    .and_then(|a| a.parse().ok())
                    .unwrap_or_else(|| usage_error("--chaos-seed needs a number"));
            }
            "--json" => {
                i += 1;
                let path = args
                    .get(i)
                    .unwrap_or_else(|| usage_error("--json needs a path"));
                opts.json_path = Some(path.clone());
            }
            "--no-json" => opts.json_path = None,
            other if KNOWN_FIGURES.contains(&other) => which.push(other.to_string()),
            other => usage_error(&format!("unknown sub-command or option `{other}`")),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    let all = which.iter().any(|w| w == "all");
    let wants = |name: &str| all || which.iter().any(|w| w == name);
    let mut report = Report::new();

    if wants("fig1") {
        report.add("fig1", fig1(&opts));
    }
    if wants("fig4") {
        report.add("fig4", fig4(&opts));
    }
    if wants("fig5") {
        report.add("fig5", fig5(&opts));
    }
    if wants("fig6") {
        report.add("fig6", fig6(&opts));
    }
    if wants("fig7") || wants("fig8") {
        report.add("fig7_fig8", fig7_fig8(&opts));
    }
    if wants("fig9") {
        report.add("fig9", fig9(&opts));
    }
    if wants("fig10") {
        report.add("fig10", fig10_fig11(&opts, false));
    }
    if wants("fig11") {
        report.add("fig11", fig10_fig11(&opts, true));
    }
    if wants("session") {
        report.add("session", session(&opts));
    }
    if wants("sharded") {
        report.add("sharded", sharded(&opts));
        report.add("query_sharded", query_sharded(&opts));
    }
    if wants("microbench") {
        report.add("microbench", microbench(&opts));
    }
    if wants("approx") {
        report.add("approx", approx(&opts));
    }
    if wants("resilience") {
        report.add("resilience", resilience(&opts));
    }
    if wants("serve") {
        report.add("serve", serve(&opts));
    }
    if wants("updates") {
        report.add("updates", updates(&opts));
    }
    if wants("ablation") {
        report.add("ablation", ablations(&opts));
    }
    report.write(&opts);
}

/// The parallel batch-session smoke: a 1-thread and an N-worker session
/// must agree exactly, and both expose the shared-manager counters.
fn session(opts: &Options) -> Json {
    let threads = opts.threads.max(2);
    let queries = if opts.quick { 3 } else { 10 };
    println!("== Session: parallel batch evaluation ({threads} workers) ==");
    println!(
        "{:>10} {:>9} {:>16} {:>14} {:>12} {:>12}",
        "aid domain", "queries", "sequential (s)", "parallel (s)", "max |diff|", "mgr nodes"
    );
    let mut rows = Vec::new();
    for n in scales(opts.quick) {
        let p = session_smoke(n, queries, threads);
        println!(
            "{:>10} {:>9} {:>16.6} {:>14.6} {:>12.2e} {:>12}",
            p.num_authors,
            p.num_queries,
            secs(p.sequential),
            secs(p.parallel),
            p.max_abs_diff,
            p.manager.nodes_allocated
        );
        let mut row = Json::obj([
            ("num_authors", Json::from(p.num_authors)),
            ("threads", Json::from(p.threads)),
            ("num_queries", Json::from(p.num_queries)),
            ("sequential_s", Json::from(secs(p.sequential))),
            ("parallel_s", Json::from(secs(p.parallel))),
            ("max_abs_diff", Json::from(p.max_abs_diff)),
            ("plan_steps", Json::from(p.query.plan.steps)),
            ("plan_probe_steps", Json::from(p.query.plan.probe_steps)),
            ("blocks_scanned", Json::from(p.query.exec.blocks_scanned)),
            ("csr_probe_steps", Json::from(p.query.exec.csr_probe_steps)),
            ("batches", Json::from(p.query.exec.batches)),
        ]);
        row.push("manager", manager_stats_json(&p.manager));
        rows.push(row);
    }
    println!();
    Json::arr(rows)
}

/// The scale-out sharding campaign: a sustained batch of ≥10⁵ Boolean
/// queries (≥4·10⁴ in `--quick`) through a component-sharded session at
/// `--shards` shards versus the single-shard baseline, with per-query
/// service-latency percentiles and the merged per-shard manager counters.
fn sharded(opts: &Options) -> Json {
    let num_shards = opts.shards;
    let (num_authors, num_queries) = if opts.quick {
        (2_000, 40_000)
    } else {
        (3_000, 120_000)
    };
    println!("== Sharded: component-partitioned scale-out ({num_shards} shards) ==");
    println!(
        "{:>10} {:>9} {:>8} {:>14} {:>12} {:>8} {:>10} {:>10} {:>10}",
        "aid domain",
        "queries",
        "shards",
        "1-shard (s)",
        "sharded (s)",
        "speedup",
        "p50 (us)",
        "p95 (us)",
        "p99 (us)"
    );
    let p = sharded_throughput(num_authors, num_queries, num_shards);
    println!(
        "{:>10} {:>9} {:>8} {:>14.6} {:>12.6} {:>7.2}x {:>10.1} {:>10.1} {:>10.1}",
        p.num_authors,
        p.num_queries,
        p.num_shards,
        secs(p.single_shard),
        secs(p.sharded),
        p.speedup_total(),
        secs(p.p50) * 1e6,
        secs(p.p95) * 1e6,
        secs(p.p99) * 1e6,
    );
    println!(
        "             {} components, per-shard queries {:?}, {} oracle fallbacks, max |diff| {:.2e}",
        p.num_components, p.shard_queries, p.fallbacks, p.max_abs_diff,
    );
    let mut row = Json::obj([
        ("num_authors", Json::from(p.num_authors)),
        ("num_shards", Json::from(p.num_shards)),
        ("num_components", Json::from(p.num_components)),
        ("num_queries", Json::from(p.num_queries)),
        ("single_shard_s", Json::from(secs(p.single_shard))),
        ("sharded_s", Json::from(secs(p.sharded))),
        ("sharded_speedup_total", Json::from(p.speedup_total())),
        ("p50_s", Json::from(secs(p.p50))),
        ("p95_s", Json::from(secs(p.p95))),
        ("p99_s", Json::from(secs(p.p99))),
        ("max_abs_diff", Json::from(p.max_abs_diff)),
        ("fallbacks", Json::from(p.fallbacks)),
        ("plan_steps", Json::from(p.query.plan.steps)),
        ("batches", Json::from(p.query.exec.batches)),
        ("index_nodes_compiled", Json::from(p.index_nodes.0)),
        ("index_nodes_after", Json::from(p.index_nodes.1)),
    ]);
    row.push(
        "per_shard_queries",
        Json::arr(p.shard_queries.iter().map(|&q| Json::from(q))),
    );
    row.push("manager", manager_stats_json(&p.manager));
    println!();
    Json::arr([row])
}

/// The `query_sharded` microbenchmark: the mixed point + broad workload
/// through warmed sharded sessions at 1/2/4/8 shards, best-of-reps. Both
/// profiles stay at the 800-author domain: the shard-count sweep isolates
/// how the win scales with the number of managers, while the `sharded`
/// campaign above covers domain scale.
fn query_sharded(opts: &Options) -> Json {
    let (num_authors, num_queries, reps) = if opts.quick {
        (800, 4_000, 2)
    } else {
        (800, 20_000, 3)
    };
    println!("== Microbench: sharded batch evaluation (1/2/4/8 shards, best of {reps}) ==");
    let p = microbench_query_sharded(num_authors, num_queries, reps);
    println!(
        "{:>10} {:>9} {:>8} {:>14} {:>9}",
        "aid domain", "queries", "shards", "batch (s)", "speedup"
    );
    let mut rows = Vec::new();
    for &(shards, time) in &p.shard_times {
        println!(
            "{:>10} {:>9} {:>8} {:>14.6} {:>8.2}x",
            p.num_authors,
            p.num_queries,
            shards,
            secs(time),
            p.speedup_at(shards)
        );
        rows.push(Json::obj([
            ("num_authors", Json::from(p.num_authors)),
            ("num_queries", Json::from(p.num_queries)),
            ("reps", Json::from(p.reps)),
            ("num_shards", Json::from(shards)),
            ("batch_s", Json::from(secs(time))),
            ("speedup", Json::from(p.speedup_at(shards))),
            ("max_abs_diff", Json::from(p.max_abs_diff)),
        ]));
    }
    println!();
    Json::arr(rows)
}

/// The `manager_hotpath` microbenchmark: the same apply+negate+bulk-
/// probability workload through the cache-conscious manager and through the
/// pre-rework hash-map reference, with the speedups and the manager's
/// probe/eviction counters recorded in the report.
fn microbench(opts: &Options) -> Json {
    let (num_vars, num_queries, clauses, reps) = microbench_scale(opts.quick);
    println!("== Microbench: manager hot paths (dense tables vs SipHash hash maps) ==");
    println!(
        "  workload: {num_queries} queries x {clauses} two-literal clauses over {num_vars} vars, {reps} probability passes"
    );
    let p = microbench_manager_hotpath(num_vars, num_queries, clauses, reps);
    println!(
        "{:>24} {:>14} {:>14} {:>10}",
        "phase", "manager (s)", "reference (s)", "speedup"
    );
    println!(
        "{:>24} {:>14.6} {:>14.6} {:>9.2}x",
        "apply + negate",
        secs(p.manager_apply),
        secs(p.reference_apply),
        p.speedup_apply()
    );
    println!(
        "{:>24} {:>14.6} {:>14.6} {:>9.2}x",
        "bulk probability",
        secs(p.manager_prob),
        secs(p.reference_prob),
        p.speedup_prob()
    );
    println!(
        "{:>24} {:>14.6} {:>14.6} {:>9.2}x",
        "total",
        secs(p.manager_apply + p.manager_prob),
        secs(p.reference_apply + p.reference_prob),
        p.speedup_total()
    );
    println!(
        "  manager stats: {} nodes, apply hit rate {:.3}, prob hit rate {:.3}, {} lossy evictions, {} table resizes",
        p.manager.nodes_allocated,
        p.manager.apply_cache_hit_rate(),
        p.manager.prob_cache_hit_rate(),
        p.manager.cache_evictions,
        p.manager.computed_resizes,
    );
    println!();
    let mut row = Json::obj([
        ("num_vars", Json::from(p.num_vars)),
        ("num_queries", Json::from(p.num_queries)),
        ("clauses_per_query", Json::from(p.clauses_per_query)),
        ("prob_reps", Json::from(p.prob_reps)),
        ("manager_apply_s", Json::from(secs(p.manager_apply))),
        ("manager_prob_s", Json::from(secs(p.manager_prob))),
        ("reference_apply_s", Json::from(secs(p.reference_apply))),
        ("reference_prob_s", Json::from(secs(p.reference_prob))),
        ("speedup_apply", Json::from(p.speedup_apply())),
        ("speedup_prob", Json::from(p.speedup_prob())),
        ("speedup_total", Json::from(p.speedup_total())),
        ("max_abs_diff", Json::from(p.max_abs_diff)),
    ]);
    row.push("manager", manager_stats_json(&p.manager));
    Json::arr([row])
}

/// The `approx` series: the Monte Carlo backend on the Figure 5/6 workload
/// — exact-vs-approx error against the MV-index oracle, CI width at each
/// sample budget, interval-method usage and sampling throughput.
fn approx(opts: &Options) -> Json {
    let queries = if opts.quick { 2 } else { 3 };
    let ladder = approx_ladder(opts.quick);
    println!("== Approx: Monte Carlo vs exact on the Figure 5/6 workload ==");
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>12} {:>10} {:>14}",
        "aid domain", "queries", "max |err|", "mean width", "covered", "methods", "samples/sec"
    );
    let mut rows = Vec::new();
    for n in scales(opts.quick) {
        let p = approx_accuracy(n, queries, opts.threads.max(1), &ladder);
        let last = p.rungs.last().expect("ladder is non-empty");
        println!(
            "{:>10} {:>8} {:>12.5} {:>12.5} {:>9}/{:<2} {:>3}w{:>2}h{:>2}n {:>14.0}",
            p.num_authors,
            p.num_queries,
            p.abs_err_max,
            last.mean_half_width,
            p.covered,
            p.num_queries,
            p.methods[0],
            p.methods[1],
            p.methods[2],
            p.samples_per_sec,
        );
        let rungs: Vec<Json> = p
            .rungs
            .iter()
            .map(|r| {
                Json::obj([
                    ("samples", Json::from(r.samples)),
                    ("mean_half_width", Json::from(r.mean_half_width)),
                    ("max_half_width", Json::from(r.max_half_width)),
                    ("max_abs_err", Json::from(r.max_abs_err)),
                ])
            })
            .collect();
        rows.push(Json::obj([
            ("num_authors", Json::from(p.num_authors)),
            ("num_queries", Json::from(p.num_queries)),
            ("seed", Json::from(p.seed)),
            ("rungs", Json::arr(rungs)),
            ("samples_per_sec", Json::from(p.samples_per_sec)),
            ("total_samples", Json::from(p.total_samples)),
            ("approx_abs_err_max", Json::from(p.abs_err_max)),
            ("approx_abs_err_mean", Json::from(p.abs_err_mean)),
            ("covered", Json::from(p.covered)),
            ("method_wilson", Json::from(p.methods[0])),
            ("method_hoeffding", Json::from(p.methods[1])),
            ("method_normal", Json::from(p.methods[2])),
        ]));
    }
    println!();
    Json::arr(rows)
}

/// The resilience campaign: the sharded workload evaluated through the
/// degradation ladder twice — clean and under the seeded fault-injection
/// campaign of [`resilience_chaos_config`] — with the chaos run's loss,
/// degradation, retry, exactness and latency accounting. CI gates on this
/// series: zero lost queries, bounded degraded fraction, exact-rung
/// answers within 1e-9 of the clean run.
fn resilience(opts: &Options) -> Json {
    let num_shards = opts.shards;
    let (num_authors, num_queries) = if opts.quick {
        (2_000, 40_000)
    } else {
        (3_000, 120_000)
    };
    println!(
        "== Resilience: degradation ladder under fault injection ({num_shards} shards, seed {}) ==",
        opts.chaos_seed
    );
    let p = resilience_campaign(num_authors, num_queries, num_shards, opts.chaos_seed);
    println!(
        "{:>10} {:>9} {:>10} {:>6} {:>10} {:>10} {:>9} {:>9} {:>12}",
        "aid domain",
        "queries",
        "chaos (s)",
        "lost",
        "degraded",
        "fallbacks",
        "retries",
        "p99 (us)",
        "exact |err|"
    );
    println!(
        "{:>10} {:>9} {:>10.3} {:>6} {:>9.3}% {:>10} {:>9} {:>9.1} {:>12.2e}",
        p.num_authors,
        p.num_queries,
        secs(p.chaos_time),
        p.lost,
        100.0 * p.degraded_fraction(),
        p.fallbacks,
        p.retries,
        secs(p.p99) * 1e6,
        p.exact_max_abs_err,
    );
    println!(
        "             rungs: {} exact, {} bounded, {} monte-carlo; degraded max |err| {:.2e} (max eps {:.3})",
        p.rungs.exact, p.rungs.bounded, p.rungs.monte_carlo, p.degraded_max_abs_err, p.max_epsilon,
    );
    for (site, fault, draws, injected) in &p.injections {
        println!(
            "             chaos {site}:{} {injected}/{draws} injected",
            fault.name()
        );
    }
    let injections: Vec<Json> = p
        .injections
        .iter()
        .map(|(site, fault, draws, injected)| {
            Json::obj([
                ("site", Json::from(site.as_str())),
                ("fault", Json::from(fault.name())),
                ("draws", Json::from(*draws)),
                ("injected", Json::from(*injected)),
            ])
        })
        .collect();
    let mut row = Json::obj([
        ("num_authors", Json::from(p.num_authors)),
        ("num_shards", Json::from(p.num_shards)),
        ("num_queries", Json::from(p.num_queries)),
        ("chaos_seed", Json::from(p.chaos_seed)),
        ("clean_s", Json::from(secs(p.clean_time))),
        ("chaos_s", Json::from(secs(p.chaos_time))),
        ("lost", Json::from(p.lost)),
        ("degraded", Json::from(p.degraded)),
        ("degraded_fraction", Json::from(p.degraded_fraction())),
        ("rung_exact", Json::from(p.rungs.exact)),
        ("rung_bounded", Json::from(p.rungs.bounded)),
        ("rung_monte_carlo", Json::from(p.rungs.monte_carlo)),
        ("fallbacks", Json::from(p.fallbacks)),
        ("retries", Json::from(p.retries)),
        ("exact_max_abs_err", Json::from(p.exact_max_abs_err)),
        ("degraded_max_abs_err", Json::from(p.degraded_max_abs_err)),
        ("max_epsilon", Json::from(p.max_epsilon)),
        ("p50_s", Json::from(secs(p.p50))),
        ("p95_s", Json::from(secs(p.p95))),
        ("p99_s", Json::from(secs(p.p99))),
    ]);
    row.push("injections", Json::arr(injections));
    println!();
    Json::arr([row])
}

/// The serving soak: the paced over-capacity workload through a running
/// [`mv_core::MvdbServer`], clean and under the seeded serve chaos
/// campaign. CI gates on this series: zero lost admitted queries, bounded
/// shed fraction, at least one arena compaction with bounded growth, and
/// tail latency under the deadline.
fn serve(opts: &Options) -> Json {
    let (num_authors, num_queries) = if opts.quick {
        (800, 400)
    } else {
        (2_000, 1_500)
    };
    println!(
        "== Serve: always-on soak at 1.5x capacity ({} shards, seed {}) ==",
        opts.shards, opts.chaos_seed
    );
    let p = serve_soak(num_authors, num_queries, opts.shards, opts.chaos_seed);
    println!(
        "  capacity {:.0} q/s, offered {:.0} q/s, deadline {:.2}s, compact watermark {} nodes",
        p.capacity_qps,
        p.offered_qps,
        secs(p.deadline),
        p.compact_watermark,
    );
    println!(
        "{:>8} {:>9} {:>6} {:>6} {:>10} {:>22} {:>10} {:>10} {:>10}",
        "pass",
        "answered",
        "shed",
        "lost",
        "degr adm",
        "rungs e/b/mc",
        "p50 (ms)",
        "p99 (ms)",
        "compact"
    );
    let print_run = |label: &str, r: &mv_bench::ServeRun| {
        println!(
            "{:>8} {:>9} {:>6} {:>6} {:>10} {:>10} {:>10.2} {:>10.2} {:>10}",
            label,
            r.answered,
            r.shed,
            r.lost,
            r.degraded_admissions,
            format!(
                "{}/{}/{}",
                r.rungs.exact, r.rungs.bounded, r.rungs.monte_carlo
            ),
            secs(r.p50) * 1e3,
            secs(r.p99) * 1e3,
            r.stats.compactions,
        );
    };
    print_run("clean", &p.clean);
    print_run("chaos", &p.chaos);
    println!(
        "  chaos pass: {} respawns, {} quarantined, {} requeues, arena {} -> {} bytes at last compaction",
        p.chaos.stats.respawns,
        p.chaos.stats.quarantined,
        p.chaos.stats.requeues,
        p.chaos.stats.arena_bytes_before,
        p.chaos.stats.arena_bytes_after,
    );
    println!();
    Json::arr([Json::obj([
        ("num_authors", Json::from(p.num_authors)),
        ("num_shards", Json::from(p.num_shards)),
        ("num_workers", Json::from(p.num_workers)),
        ("num_queries", Json::from(p.num_queries)),
        ("chaos_seed", Json::from(p.chaos_seed)),
        ("deadline_s", Json::from(secs(p.deadline))),
        ("compact_watermark", Json::from(p.compact_watermark)),
        ("capacity_qps", Json::from(p.capacity_qps)),
        ("offered_qps", Json::from(p.offered_qps)),
        ("clean", serve_run_json(&p.clean)),
        ("chaos", serve_run_json(&p.chaos)),
    ])])
}

/// Serializes one [`mv_bench::ServeRun`] pass for the machine-readable
/// report (shared by the `serve` and `updates` series).
fn serve_run_json(r: &mv_bench::ServeRun) -> Json {
    let injections: Vec<Json> = r
        .injections
        .iter()
        .map(|(site, fault, draws, injected)| {
            Json::obj([
                ("site", Json::from(site.as_str())),
                ("fault", Json::from(fault.name())),
                ("draws", Json::from(*draws)),
                ("injected", Json::from(*injected)),
            ])
        })
        .collect();
    Json::obj([
        ("elapsed_s", Json::from(secs(r.elapsed))),
        ("offered", Json::from(r.offered)),
        ("shed", Json::from(r.shed)),
        ("shed_fraction", Json::from(r.shed_fraction())),
        ("answered", Json::from(r.answered)),
        ("lost", Json::from(r.lost)),
        ("degraded_admissions", Json::from(r.degraded_admissions)),
        ("rung_exact", Json::from(r.rungs.exact)),
        ("rung_bounded", Json::from(r.rungs.bounded)),
        ("rung_monte_carlo", Json::from(r.rungs.monte_carlo)),
        ("throughput_qps", Json::from(r.throughput_qps)),
        ("exact_max_abs_err", Json::from(r.exact_max_abs_err)),
        ("degraded_max_abs_err", Json::from(r.degraded_max_abs_err)),
        ("max_epsilon", Json::from(r.max_epsilon)),
        ("p50_s", Json::from(secs(r.p50))),
        ("p95_s", Json::from(secs(r.p95))),
        ("p99_s", Json::from(secs(r.p99))),
        ("requeues", Json::from(r.stats.requeues)),
        ("respawns", Json::from(r.stats.respawns)),
        ("quarantined", Json::from(r.stats.quarantined)),
        ("compactions", Json::from(r.stats.compactions)),
        ("reclaimed_nodes", Json::from(r.stats.reclaimed_nodes)),
        ("arena_bytes_before", Json::from(r.stats.arena_bytes_before)),
        ("arena_bytes_after", Json::from(r.stats.arena_bytes_after)),
        ("updates_applied", Json::from(r.stats.updates_applied)),
        ("update_failures", Json::from(r.stats.update_failures)),
        ("injections", Json::arr(injections)),
    ])
}

/// Serializes the writer-side accounting of one live-update pass.
fn update_stats_json(u: &mv_bench::UpdateStats) -> Json {
    Json::obj([
        ("applied", Json::from(u.applied)),
        ("failed", Json::from(u.failed)),
        ("weight_only", Json::from(u.weight_only)),
        ("structural", Json::from(u.structural)),
        ("shards_rebuilt", Json::from(u.shards_rebuilt)),
        ("shards_reused", Json::from(u.shards_reused)),
    ])
}

/// Live updates under snapshot semantics: the same paced read stream
/// served read-only, with a clean concurrent writer, and with the writer
/// under the update chaos campaign. CI gates on this series: zero lost
/// queries in every pass, every answer exact against some published
/// snapshot, bounded reader-tail inflation relative to the read-only
/// baseline, and a fully-landed clean update schedule.
fn updates(opts: &Options) -> Json {
    let (num_authors, num_queries) = if opts.quick {
        (600, 400)
    } else {
        (1_500, 1_200)
    };
    println!(
        "== Updates: live-writer soak at 0.8x capacity ({} shards, seed {}) ==",
        opts.shards, opts.chaos_seed
    );
    let p = update_soak(num_authors, num_queries, opts.shards, opts.chaos_seed);
    println!(
        "  capacity {:.0} q/s, offered {:.0} q/s, deadline {:.2}s, {} update batches",
        p.capacity_qps,
        p.offered_qps,
        secs(p.deadline),
        p.num_updates,
    );
    println!(
        "{:>10} {:>9} {:>6} {:>6} {:>12} {:>12} {:>10} {:>10}",
        "pass", "answered", "shed", "lost", "max err", "upd ok/fail", "p50 (ms)", "p99 (ms)"
    );
    let print_run = |label: &str, r: &mv_bench::ServeRun, u: Option<&mv_bench::UpdateStats>| {
        println!(
            "{:>10} {:>9} {:>6} {:>6} {:>12.2e} {:>12} {:>10.2} {:>10.2}",
            label,
            r.answered,
            r.shed,
            r.lost,
            r.exact_max_abs_err,
            u.map_or("-".to_string(), |u| format!("{}/{}", u.applied, u.failed)),
            secs(r.p50) * 1e3,
            secs(r.p99) * 1e3,
        );
    };
    print_run("read_only", &p.read_only, None);
    print_run("live", &p.live, Some(&p.live_updates));
    print_run("chaos", &p.chaos, Some(&p.chaos_updates));
    println!(
        "  live writer: {} weight-only, {} structural, {} shards rebuilt, {} reused",
        p.live_updates.weight_only,
        p.live_updates.structural,
        p.live_updates.shards_rebuilt,
        p.live_updates.shards_reused,
    );
    println!();
    Json::arr([Json::obj([
        ("num_authors", Json::from(p.num_authors)),
        ("num_shards", Json::from(p.num_shards)),
        ("num_workers", Json::from(p.num_workers)),
        ("num_queries", Json::from(p.num_queries)),
        ("num_updates", Json::from(p.num_updates)),
        ("chaos_seed", Json::from(p.chaos_seed)),
        ("deadline_s", Json::from(secs(p.deadline))),
        ("capacity_qps", Json::from(p.capacity_qps)),
        ("offered_qps", Json::from(p.offered_qps)),
        ("read_only", serve_run_json(&p.read_only)),
        ("live", serve_run_json(&p.live)),
        ("chaos", serve_run_json(&p.chaos)),
        ("live_updates", update_stats_json(&p.live_updates)),
        ("chaos_updates", update_stats_json(&p.chaos_updates)),
    ])])
}

/// Serializes shared-OBDD-manager counters for the machine-readable report.
fn manager_stats_json(s: &mv_obdd::ManagerStats) -> Json {
    Json::obj([
        ("nodes_allocated", Json::from(s.nodes_allocated)),
        ("peak_nodes", Json::from(s.peak_nodes)),
        ("unique_hits", Json::from(s.unique_hits)),
        ("unique_misses", Json::from(s.unique_misses)),
        ("unique_hit_rate", Json::from(s.unique_hit_rate())),
        ("apply_cache_hits", Json::from(s.apply_cache_hits)),
        ("apply_cache_misses", Json::from(s.apply_cache_misses)),
        ("apply_cache_hit_rate", Json::from(s.apply_cache_hit_rate())),
        ("prob_cache_hits", Json::from(s.prob_cache_hits)),
        ("prob_cache_misses", Json::from(s.prob_cache_misses)),
        ("prob_cache_hit_rate", Json::from(s.prob_cache_hit_rate())),
        // Lossy overwrites in the direct-mapped computed table and the
        // doublings it went through while tracking arena growth.
        ("cache_evictions", Json::from(s.cache_evictions)),
        ("computed_resizes", Json::from(s.computed_resizes)),
        // Deep copies between managers; 0 means the apply/concat paths
        // stayed inside shared arenas for the whole workload.
        ("imported_nodes", Json::from(s.imported_nodes)),
        // Arena GC: compaction passes, nodes they reclaimed, and the
        // resident-size gauges at snapshot time.
        ("compactions", Json::from(s.compactions)),
        ("reclaimed_nodes", Json::from(s.reclaimed_nodes)),
        ("live_nodes", Json::from(s.live_nodes)),
        ("arena_bytes", Json::from(s.arena_bytes)),
    ])
}

fn ablations(opts: &Options) -> Json {
    println!("== Ablation A: block-partitioned MV-index vs monolithic ¬W OBDD ==");
    println!(
        "{:>10} {:>8} {:>18} {:>18}",
        "aid domain", "blocks", "partitioned (s)", "monolithic (s)"
    );
    let queries = if opts.quick { 3 } else { 10 };
    let mut block_rows = Vec::new();
    for n in scales(opts.quick) {
        let p = ablation_block_index(n, queries);
        println!(
            "{:>10} {:>8} {:>18.6} {:>18.6}",
            p.num_authors,
            p.num_blocks,
            secs(p.partitioned),
            secs(p.monolithic)
        );
        block_rows.push(Json::obj([
            ("num_authors", Json::from(p.num_authors)),
            ("num_blocks", Json::from(p.num_blocks)),
            ("partitioned_s", Json::from(secs(p.partitioned))),
            ("monolithic_s", Json::from(secs(p.monolithic))),
        ]));
    }
    println!();
    println!("== Ablation B: inferred separator-first π vs identity π ==");
    println!(
        "{:>10} {:>14} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "aid domain",
        "inferred (s)",
        "identity (s)",
        "syn(inf)",
        "syn(id)",
        "size(inf)",
        "size(id)"
    );
    let mut pi_rows = Vec::new();
    for n in scales(opts.quick) {
        let p = ablation_pi_order(n);
        println!(
            "{:>10} {:>14.4} {:>14.4} {:>12} {:>12} {:>10} {:>10}",
            p.num_authors,
            secs(p.inferred.0),
            secs(p.identity.0),
            p.inferred.1,
            p.identity.1,
            p.sizes.0,
            p.sizes.1
        );
        pi_rows.push(Json::obj([
            ("num_authors", Json::from(p.num_authors)),
            ("inferred_s", Json::from(secs(p.inferred.0))),
            ("identity_s", Json::from(secs(p.identity.0))),
            ("syntheses_inferred", Json::from(p.inferred.1)),
            ("syntheses_identity", Json::from(p.identity.1)),
            ("size_inferred", Json::from(p.sizes.0)),
            ("size_identity", Json::from(p.sizes.1)),
        ]));
    }
    println!();
    Json::obj([
        ("block_index", Json::arr(block_rows)),
        ("pi_order", Json::arr(pi_rows)),
    ])
}

fn fig1(opts: &Options) -> Json {
    let n = if opts.quick { 2000 } else { opts.full_authors };
    println!("== Figure 1: dataset and MV-index inventory (synthetic DBLP, {n} authors) ==");
    let r = fig1_inventory(n);
    let s = r.stats;
    println!("  deterministic tables:");
    println!("    Author                    {:>10}", s.author);
    println!("    Wrote                     {:>10}", s.wrote);
    println!("    Pub                       {:>10}", s.publication);
    println!("    HomePage                  {:>10}", s.homepage);
    println!("    FirstPub                  {:>10}", s.first_pub);
    println!("    DBLPAffiliation           {:>10}", s.dblp_affiliation);
    println!("    CoPubRecent               {:>10}", s.co_pub_recent);
    println!("  probabilistic tables:");
    println!("    Student^p                 {:>10}", s.student);
    println!("    Advisor^p                 {:>10}", s.advisor);
    println!("    Affiliation^p             {:>10}", s.affiliation);
    println!("  MarkoView outputs:");
    println!("    V1                        {:>10}", s.v1);
    println!("    V2                        {:>10}", s.v2);
    println!("    V3                        {:>10}", s.v3);
    println!("  MV-index (Section 5.4):");
    println!("    blocks                    {:>10}", r.index.num_blocks);
    println!("    OBDD nodes                {:>10}", r.index.total_nodes);
    println!(
        "    constrained tuples        {:>10}",
        r.index.num_variables
    );
    println!(
        "    construction time         {:>10.3} s",
        secs(r.compile_time)
    );
    println!("    consistent                {:>10}", r.consistent);
    println!();
    Json::obj([
        ("num_authors", Json::from(n)),
        (
            "tables",
            Json::obj([
                ("author", Json::from(s.author)),
                ("wrote", Json::from(s.wrote)),
                ("publication", Json::from(s.publication)),
                ("homepage", Json::from(s.homepage)),
                ("first_pub", Json::from(s.first_pub)),
                ("dblp_affiliation", Json::from(s.dblp_affiliation)),
                ("co_pub_recent", Json::from(s.co_pub_recent)),
                ("student", Json::from(s.student)),
                ("advisor", Json::from(s.advisor)),
                ("affiliation", Json::from(s.affiliation)),
                ("v1", Json::from(s.v1)),
                ("v2", Json::from(s.v2)),
                ("v3", Json::from(s.v3)),
            ]),
        ),
        (
            "index",
            Json::obj([
                ("num_blocks", Json::from(r.index.num_blocks)),
                ("total_nodes", Json::from(r.index.total_nodes)),
                ("num_variables", Json::from(r.index.num_variables)),
                ("compile_s", Json::from(secs(r.compile_time))),
                ("consistent", Json::from(r.consistent)),
            ]),
        ),
    ])
}

fn fig4(opts: &Options) -> Json {
    println!("== Figure 4: lineage size of W per dataset ==");
    println!(
        "{:>10} {:>14} {:>14}",
        "aid domain", "lineage size", "groundings"
    );
    let mut rows = Vec::new();
    for n in scales(opts.quick) {
        let p = fig4_lineage_size(n);
        println!(
            "{:>10} {:>14} {:>14}",
            p.num_authors, p.lineage_size, p.num_clauses
        );
        rows.push(Json::obj([
            ("num_authors", Json::from(p.num_authors)),
            ("lineage_size", Json::from(p.lineage_size)),
            ("num_clauses", Json::from(p.num_clauses)),
        ]));
    }
    println!();
    Json::arr(rows)
}

/// Prints the Figure 5/6 table header: the MC-SAT baseline columns followed
/// by one column per comparison backend (by construction, so a new backend
/// shows up automatically).
fn print_method_header(t: &MethodTimings) {
    print!(
        "{:>10} {:>16} {:>18}",
        "aid domain", "Alchemy-total(s)", "Alchemy-sampling(s)"
    );
    for b in &t.backends {
        print!(" {:>24}", format!("{}(s)", b.name));
    }
    println!(" {:>12}", "compile(s)");
}

fn print_method_row(t: &MethodTimings) {
    print!(
        "{:>10} {:>16.4} {:>18.4}",
        t.num_authors,
        secs(t.alchemy_total),
        secs(t.alchemy_sampling),
    );
    for b in &t.backends {
        print!(" {:>24.6}", secs(b.total));
    }
    println!(" {:>12.4}", secs(t.index_compile));
}

fn method_timings_json(t: &MethodTimings) -> Json {
    let mut row = Json::obj([
        ("num_authors", Json::from(t.num_authors)),
        ("alchemy_total_s", Json::from(secs(t.alchemy_total))),
        ("alchemy_sampling_s", Json::from(secs(t.alchemy_sampling))),
        ("index_compile_s", Json::from(secs(t.index_compile))),
    ]);
    for b in &t.backends {
        row.push(format!("{}_s", b.name), Json::from(secs(b.total)));
    }
    row.push("manager", manager_stats_json(&t.manager));
    row
}

fn method_comparison(opts: &Options, label: &str, advisor_of_student: bool) -> Json {
    let queries = if opts.quick { 2 } else { 5 };
    println!(
        "== {label} ({queries} queries per point, {} session worker(s)) ==",
        opts.threads.max(1)
    );
    let mut rows = Vec::new();
    let mut header_printed = false;
    for n in scales(opts.quick) {
        let t = if advisor_of_student {
            fig5_advisor_of_student(n, queries, opts.threads)
        } else {
            fig6_students_of_advisor(n, queries, opts.threads)
        };
        if !header_printed {
            print_method_header(&t);
            header_printed = true;
        }
        print_method_row(&t);
        rows.push(method_timings_json(&t));
    }
    println!();
    Json::arr(rows)
}

fn fig5(opts: &Options) -> Json {
    method_comparison(opts, "Figure 5: querying the advisor of a student", true)
}

fn fig6(opts: &Options) -> Json {
    method_comparison(opts, "Figure 6: querying all students of an advisor", false)
}

fn fig7_fig8(opts: &Options) -> Json {
    println!("== Figures 7 and 8: V2 OBDD size and construction time ==");
    println!(
        "{:>10} {:>12} {:>18} {:>18} {:>10}",
        "aid domain", "OBDD size", "MV construction(s)", "Cudd-style(s)", "speedup"
    );
    let mut rows = Vec::new();
    for n in scales(opts.quick) {
        let p = fig7_fig8_obdd_construction(n);
        assert!(p.sizes_match, "both constructions must build the same OBDD");
        let speedup = secs(p.synthesis_time) / secs(p.conobdd_time).max(1e-9);
        println!(
            "{:>10} {:>12} {:>18.4} {:>18.4} {:>9.1}x",
            p.num_authors,
            p.obdd_size,
            secs(p.conobdd_time),
            secs(p.synthesis_time),
            speedup
        );
        rows.push(Json::obj([
            ("num_authors", Json::from(p.num_authors)),
            ("obdd_size", Json::from(p.obdd_size)),
            ("conobdd_s", Json::from(secs(p.conobdd_time))),
            ("synthesis_s", Json::from(secs(p.synthesis_time))),
        ]));
    }
    println!();
    Json::arr(rows)
}

fn fig9(opts: &Options) -> Json {
    let reps = if opts.quick { 5 } else { 20 };
    println!("== Figure 9: MVIntersect vs CC-MVIntersect (worst-case 20-tuple query) ==");
    println!(
        "{:>10} {:>12} {:>18} {:>20} {:>10}",
        "aid domain", "index size", "MVIntersect(s)", "CC-MVIntersect(s)", "speedup"
    );
    let mut rows = Vec::new();
    for n in scales(opts.quick) {
        let p = fig9_intersection(n, reps);
        let speedup = secs(p.mv_intersect) / secs(p.cc_mv_intersect).max(1e-12);
        println!(
            "{:>10} {:>12} {:>18.6} {:>20.6} {:>9.2}x",
            p.num_authors,
            p.index_size,
            secs(p.mv_intersect),
            secs(p.cc_mv_intersect),
            speedup
        );
        rows.push(Json::obj([
            ("num_authors", Json::from(p.num_authors)),
            ("index_size", Json::from(p.index_size)),
            ("mv_intersect_s", Json::from(secs(p.mv_intersect))),
            ("cc_mv_intersect_s", Json::from(secs(p.cc_mv_intersect))),
        ]));
    }
    println!();
    Json::arr(rows)
}

fn fig10_fig11(opts: &Options, affiliation: bool) -> Json {
    let n = if opts.quick { 2000 } else { opts.full_authors };
    let label = if affiliation {
        "Figure 11: querying affiliations of an author"
    } else {
        "Figure 10: querying students of an advisor"
    };
    println!("== {label} (full dataset, {n} authors) ==");
    let r = fig10_fig11_full_dataset(n, 10, affiliation);
    println!(
        "  index: {} nodes in {} blocks, compiled in {:.2} s",
        r.index_size,
        r.num_blocks,
        secs(r.compile_time)
    );
    println!("{:>6} {:>10} {:>14}", "query", "answers", "time (ms)");
    let mut rows = Vec::new();
    for q in &r.queries {
        println!(
            "{:>6} {:>10} {:>14.3}",
            q.label,
            q.num_answers,
            secs(q.time) * 1000.0
        );
        rows.push(Json::obj([
            ("label", Json::from(q.label.clone())),
            ("num_answers", Json::from(q.num_answers)),
            ("time_s", Json::from(secs(q.time))),
        ]));
    }
    let avg: f64 = r.queries.iter().map(|q| secs(q.time)).sum::<f64>() / r.queries.len() as f64;
    println!("  average per-query time: {:.3} ms", avg * 1000.0);
    println!();
    Json::obj([
        ("num_authors", Json::from(r.num_authors)),
        ("compile_s", Json::from(secs(r.compile_time))),
        ("index_size", Json::from(r.index_size)),
        ("num_blocks", Json::from(r.num_blocks)),
        ("avg_query_s", Json::from(avg)),
        ("queries", Json::arr(rows)),
    ])
}
