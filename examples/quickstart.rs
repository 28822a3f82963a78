//! Quickstart: build a small project with the IRM, edit a module, and
//! watch cutoff recompilation skip the unaffected units.
//!
//! Run with `cargo run --example quickstart`.

use smlsc::core::irm::{Irm, Project, Strategy, UnitOutcome};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut project = Project::new();
    project.add(
        "list_util",
        "structure ListUtil = struct
           fun length [] = 0
             | length (_ :: xs) = 1 + length xs
           fun sum [] = 0
             | sum (x :: xs) = x + sum xs
         end",
    );
    project.add(
        "stats",
        "structure Stats = struct
           fun mean l = ListUtil.sum l div ListUtil.length l
         end",
    );
    project.add(
        "main",
        "structure Main = struct
           val data = [3, 5, 7, 9]
           val avg = Stats.mean data
         end",
    );

    let mut irm = Irm::new(Strategy::Cutoff);

    println!("== initial build ==");
    let (report, env) = irm.execute(&project)?;
    println!(
        "compiled {} units in order {:?}",
        report.recompiled.len(),
        report.order.iter().map(|s| s.as_str()).collect::<Vec<_>>()
    );
    print_main(&env);

    println!("\n== body edit to list_util (interface unchanged) ==");
    project.edit(
        "list_util",
        "structure ListUtil = struct
           fun length [] = 0
             | length (_ :: xs) = 1 + length xs
           local
             (* sum is now accumulator-based; the helper stays local so
                the exported interface is untouched *)
             fun sumAcc acc [] = acc
               | sumAcc acc (x :: xs) = sumAcc (acc + x) xs
           in
             fun sum l = sumAcc 0 l
           end
         end",
    )?;
    let (report, env) = irm.execute(&project)?;
    println!(
        "recompiled: {:?}  reused: {:?}",
        report
            .recompiled
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
        report
            .order
            .iter()
            .filter(|s| report.outcome_for(s.as_str()) == Some(&UnitOutcome::Reused))
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
    );
    print_main(&env);

    println!("\n== comment edit to stats ==");
    project.edit(
        "stats",
        "(* documentation only *)
         structure Stats = struct
           fun mean l = ListUtil.sum l div ListUtil.length l
         end",
    )?;
    let report = irm.build(&project)?;
    println!(
        "recompiled: {:?} (cutoff: the interface hash did not change)",
        report
            .recompiled
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>()
    );
    Ok(())
}

fn print_main(env: &smlsc::core::DynEnv) {
    use smlsc::dynamics::value::Value;
    let main = env
        .get(smlsc::ids::Symbol::intern("main"))
        .expect("main is linked");
    let Value::Record(units) = &main.values else {
        return;
    };
    let Value::Record(fields) = &units[0] else {
        return;
    };
    // Slots: data, avg (in declaration order).
    println!("Main.avg = {}", fields[1]);
}
