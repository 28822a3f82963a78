//! Regenerates every measured claim of Appel & MacQueen 1994.
//!
//! ```text
//! cargo run --release -p smlsc-bench --bin paper_tables            # all tables
//! cargo run --release -p smlsc-bench --bin paper_tables -- e3      # one table
//! cargo run --release -p smlsc-bench --bin paper_tables -- e1 --full   # paper-scale E1
//! ```
//!
//! Table ids follow `EXPERIMENTS.md` / `DESIGN.md` §4.

use std::time::Instant;

use smlsc_bench::{
    histogram_row, ms, paper_scale, pct, recompiles_after_edit, time_full_build,
    time_full_build_with_telemetry,
};
use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::unit::BinFile;
use smlsc_ids::digest::log2_collision_probability;
use smlsc_ids::{Digest128, Pid};
use smlsc_pickle::{collect_external_pids, dehydrate, ContextPids, PickleOptions};
use smlsc_statics::elab::{elaborate_unit, ImportEnv};
use smlsc_workload::{EditKind, Topology};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let all = which.is_empty();
    let run = |id: &str| all || which.contains(&id);

    if run("e1") {
        e1_manager_overhead(full);
    }
    if run("e2") {
        e2_collisions();
    }
    if run("e3") {
        e3_cutoff_vs_baselines();
    }
    if run("e4") {
        e4_sharing();
    }
    if run("e5") {
        e5_indexed_contexts();
    }
    if run("e6") {
        e6_type_safe_linkage();
    }
}

/// §6: "hashing took 20 seconds … of a 32-minute compile" and
/// "dehydration/rehydration … 0.01 seconds [per unit]": the manager's
/// overhead is a small fraction of compilation.
fn e1_manager_overhead(full: bool) {
    // funs=150 gives ≈65k lines over 200 units (the paper's corpus size);
    // the default is smaller so the table regenerates quickly.
    let funs = if full { 150 } else { 40 };
    let w = paper_scale(funs);
    println!("== E1: manager overhead within a full build ==");
    println!(
        "workload: {} units, {} source lines{}",
        w.module_count(),
        w.total_lines(),
        if full {
            " (paper scale)"
        } else {
            " (use --full for ~65k lines)"
        }
    );
    let (mut irm, report, total, telemetry) = time_full_build_with_telemetry(&w, Strategy::Cutoff);
    let t = &report.timings;
    println!("{:<28} {:>10} {:>8}", "phase", "time(ms)", "share");
    println!(
        "{:<28} {:>10} {:>8}",
        "parse",
        ms(t.parse),
        pct(t.parse, total)
    );
    println!(
        "{:<28} {:>10} {:>8}",
        "elaborate (typecheck+translate)",
        ms(t.elaborate),
        pct(t.elaborate, total)
    );
    println!(
        "{:<28} {:>10} {:>8}  <- the paper's ~1%",
        "hash (intrinsic pids)",
        ms(t.hash),
        pct(t.hash, total)
    );
    println!(
        "{:<28} {:>10} {:>8}  <- the paper's ~1%",
        "dehydrate (pickling)",
        ms(t.dehydrate),
        pct(t.dehydrate, total)
    );
    println!("{:<28} {:>10} {:>8}", "total build", ms(total), "100%");

    // Real per-unit distributions from the trace collector — aggregate
    // sums above hide the tail; the paper's per-unit claims live here.
    println!("\nper-unit phase histograms (µs):");
    println!(
        "{:<20} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "span", "count", "p50", "p90", "p99", "max"
    );
    for name in [
        "compile.parse",
        "compile.elaborate",
        "compile.hash",
        "compile.dehydrate",
        "pickle.dehydrate",
        "irm.analyze",
    ] {
        if let Some(row) = histogram_row(&telemetry, name) {
            println!("{row}");
        }
    }

    // Incremental rebuild: rehydration cost of cached statenvs.
    let mut w2 = paper_scale(funs);
    let victim = w2.most_depended_on();
    w2.edit(victim, EditKind::InterfaceAdd);
    let t0 = Instant::now();
    let inc = irm.build(w2.project()).expect("incremental build");
    let inc_total = t0.elapsed();
    println!(
        "incremental build after an interface edit: {} units recompiled, {} ms total, {} µs rehydrating cached statenvs",
        inc.recompiled.len(),
        ms(inc_total),
        inc.rehydrate.as_micros(),
    );
    println!();
}

/// §5: pid collision probabilities.  At truncated widths the observed
/// birthday collisions match n²/2^w; at 128 bits the same arithmetic
/// gives the paper's 2⁻¹⁰².
fn e2_collisions() {
    println!("== E2: pid collision probabilities (§5) ==");
    println!(
        "{:>6} {:>8} {:>12} {:>12}",
        "width", "n", "observed", "expected(n²/2^w)"
    );
    for width in [16u32, 20, 24] {
        for n in [1u64 << 8, 1 << 10, 1 << 12] {
            let mut seen = std::collections::HashSet::new();
            let mut collisions = 0u64;
            for i in 0..n {
                let mut d = Digest128::new();
                d.write_str("synthetic interface");
                d.write_u64(i);
                let h = d.finish_pid().truncate(width);
                if !seen.insert(h) {
                    collisions += 1;
                }
            }
            let expected = (n as f64) * (n as f64) / 2f64.powi(width as i32);
            println!(
                "{:>6} {:>8} {:>12} {:>12.2}",
                width, n, collisions, expected
            );
        }
    }
    let lg = log2_collision_probability(1 << 13, 128);
    println!("at 128 bits with 2^13 pids: log2 P(collision) = {lg:.0}  (paper: -102)");
    // Sanity at full width over real interfaces: all export pids of a
    // 200-unit workload are distinct.
    let w = paper_scale(2);
    let (irm, _, _) = time_full_build(&w, Strategy::Cutoff);
    let mut pids = std::collections::HashSet::new();
    for i in 0..w.module_count() {
        let bin = irm.bin(&smlsc_workload::module_name(i)).expect("built");
        pids.insert(bin.unit.export_pid);
    }
    println!(
        "full-width check: {} units -> {} distinct export pids\n",
        w.module_count(),
        pids.len()
    );
}

/// §1/§5: units recompiled after one edit — cutoff vs. make vs.
/// classical, across topologies and edit kinds.
fn e3_cutoff_vs_baselines() {
    println!("== E3: units recompiled after one edit to the most-depended-on module ==");
    let topologies: [(&str, Topology); 3] = [
        ("chain(50)", Topology::Chain { n: 50 }),
        ("diamond(8x8)", Topology::Diamond { width: 8, depth: 8 }),
        (
            "library(120)",
            Topology::Library {
                lib: 20,
                clients: 100,
                seed: 7,
            },
        ),
    ];
    let edits = [
        ("comment", EditKind::CommentOnly),
        ("body", EditKind::BodyOnly),
        ("iface-add", EditKind::InterfaceAdd),
        ("type-change", EditKind::InterfaceChangeType),
    ];
    for relay in [false, true] {
        println!(
            "\n-- interfaces {} dependency types --",
            if relay {
                "RELAY (re-export)"
            } else {
                "do not mention"
            }
        );
        println!(
            "{:<14} {:<12} {:>7} {:>8} {:>10} {:>10}",
            "topology", "edit", "units", "cutoff", "timestamp", "classical"
        );
        for (tname, topo) in topologies {
            for (ename, kind) in edits {
                let mut row = Vec::new();
                let mut total = 0;
                for strategy in [Strategy::Cutoff, Strategy::Timestamp, Strategy::Classical] {
                    let (n, t) = recompiles_after_edit(topo, 3, relay, kind, strategy);
                    row.push(n);
                    total = t;
                }
                println!(
                    "{:<14} {:<12} {:>7} {:>8} {:>10} {:>10}",
                    tname, ename, total, row[0], row[1], row[2]
                );
            }
        }
    }
    println!();
}

/// §4: sharing preservation — without it, pickles of shared DAGs blow up
/// exponentially.
fn e4_sharing() {
    println!("== E4: pickle size with and without DAG-sharing preservation (§4) ==");
    println!(
        "{:>6} {:>14} {:>16} {:>8}",
        "depth", "shared(bytes)", "unshared(bytes)", "ratio"
    );
    for depth in [2usize, 4, 6, 8, 10, 12] {
        let mut src = String::from("structure S0 = struct val x = 1 end\n");
        for i in 1..=depth {
            src.push_str(&format!(
                "structure S{i} = struct structure L = S{} structure R = S{} end\n",
                i - 1,
                i - 1
            ));
        }
        let ast = smlsc_syntax::parse_unit(&src).expect("parses");
        let unit = elaborate_unit(&ast, &ImportEnv::empty()).expect("elaborates");
        let shared = dehydrate(
            &unit.exports,
            &ContextPids::indexed([]),
            &PickleOptions::default(),
        )
        .expect("pickles");
        let unshared = dehydrate(
            &unit.exports,
            &ContextPids::indexed([]),
            &PickleOptions {
                preserve_sharing: false,
            },
        )
        .expect("pickles");
        println!(
            "{:>6} {:>14} {:>16} {:>7.1}x",
            depth,
            shared.bytes.len(),
            unshared.bytes.len(),
            unshared.bytes.len() as f64 / shared.bytes.len() as f64
        );
    }
    println!();
}

/// §5: indexed vs. linear context environments during dehydration.
fn e5_indexed_contexts() {
    println!("== E5: dehydration with indexed vs. linear context lookup (§5) ==");
    // A unit importing a real dependency, dehydrated against contexts of
    // growing size (padding with synthetic pids).
    let dep_src = "structure Dep = struct datatype d = D of int val x = D 1 fun get (D n) = n end";
    let dep_ast = smlsc_syntax::parse_unit(dep_src).expect("parses");
    let dep = elaborate_unit(&dep_ast, &ImportEnv::empty()).expect("elaborates");
    // Gives Dep's entities their pids, so the client's pickle stubs them.
    smlsc_core::pickle_interface(smlsc_ids::Symbol::intern("dep"), &dep.exports, [])
        .expect("pickles");

    let mut client_src = String::from("structure C = struct\n");
    for i in 0..60 {
        client_src.push_str(&format!("  fun f{i} y = Dep.get (Dep.D y) + {i}\n"));
        client_src.push_str(&format!("  val v{i} : Dep.d = Dep.D {i}\n"));
    }
    client_src.push_str("end\n");
    let client_ast = smlsc_syntax::parse_unit(&client_src).expect("parses");
    let client = elaborate_unit(
        &client_ast,
        &ImportEnv {
            units: vec![smlsc_statics::elab::ImportedUnit {
                name: smlsc_ids::Symbol::intern("dep"),
                exports: dep.exports.clone(),
            }],
            shadowing: false,
        },
    )
    .expect("elaborates");
    let real = collect_external_pids([dep.exports.as_ref()]);

    println!(
        "{:>10} {:>14} {:>14} {:>8}",
        "ctx pids", "indexed(µs)", "linear(µs)", "ratio"
    );
    for extra in [100usize, 1_000, 10_000, 50_000] {
        let mut pids: Vec<Pid> = real.clone();
        // Synthetic padding *below* the real pids so linear search pays.
        let mut padded: Vec<Pid> = (0..extra)
            .map(|i| Pid::of_bytes(format!("ctx-{i}").as_bytes()))
            .collect();
        padded.append(&mut pids);
        let reps = 20;
        let indexed_ctx = ContextPids::indexed(padded.clone());
        let t0 = Instant::now();
        for _ in 0..reps {
            dehydrate(&client.exports, &indexed_ctx, &PickleOptions::default()).expect("pickles");
        }
        let indexed = t0.elapsed() / reps;
        let linear_ctx = ContextPids::linear(padded);
        let t0 = Instant::now();
        for _ in 0..reps {
            dehydrate(&client.exports, &linear_ctx, &PickleOptions::default()).expect("pickles");
        }
        let linear = t0.elapsed() / reps;
        println!(
            "{:>10} {:>14.1} {:>14.1} {:>7.1}x",
            extra,
            indexed.as_secs_f64() * 1e6,
            linear.as_secs_f64() * 1e6,
            linear.as_secs_f64() / indexed.as_secs_f64().max(1e-9)
        );
    }
    println!();
}

/// §3/§5: the type-safe linker catches the "makefile bug".
fn e6_type_safe_linkage() {
    println!("== E6: type-safe linkage (§5's impossible makefile bug) ==");
    let build = || {
        let mut p = Project::new();
        p.add("config", "structure Config = struct val limit = 10 end");
        p.add(
            "engine",
            "structure Engine = struct fun run x = if x < Config.limit then x else Config.limit end",
        );
        p
    };
    println!("{:<12} {:<28} {:<10}", "strategy", "scenario", "outcome");
    for strategy in [Strategy::Timestamp, Strategy::Cutoff] {
        let mut irm = Irm::new(strategy);
        let mut p = build();
        irm.build(&p).expect("builds");
        p.edit(
            "config",
            "structure Config = struct val maxValue = 10 val limit = 10 end",
        )
        .expect("edits");
        // Clock skew: the dependent's bin claims to be newest.
        let mut skewed: BinFile = irm.bin("engine").expect("built").clone();
        skewed.mtime = u64::MAX;
        irm.inject_bin(skewed);
        let outcome = match irm.execute(&p) {
            Ok((report, _)) => format!(
                "linked (recompiled {:?})",
                report
                    .recompiled
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
            ),
            Err(e) => format!("REFUSED: {e}"),
        };
        println!(
            "{:<12} {:<28} {}",
            strategy.to_string(),
            "iface edit + clock skew",
            outcome
        );
    }
    println!();
}
