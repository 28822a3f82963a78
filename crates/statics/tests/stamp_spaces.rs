//! Generative stamp ranges under concurrent elaboration: two workers
//! elaborate functors at once, and each functor body's `[gen_lo,
//! gen_hi)` range holds only stamps its own worker generated.

use std::sync::Barrier;

use smlsc_ids::Symbol;
use smlsc_statics::elab::{elaborate_unit, ImportEnv};

/// Elaborates `rounds` functors, each generating datatypes in its body,
/// and returns every body's range and the body's datatype stamps.
fn functor_ranges(rounds: usize, start: &Barrier) -> Vec<((u64, u64), Vec<u64>)> {
    let src = "functor F (X : sig type t end) = struct \
               datatype a = A of X.t  datatype b = B | C of a end";
    let ast = smlsc_syntax::parse_unit(src).expect("parses");
    start.wait();
    (0..rounds)
        .map(|_| {
            let unit = elaborate_unit(&ast, &ImportEnv::empty()).expect("elaborates");
            let f = unit.exports.fct(Symbol::intern("F")).expect("functor F");
            let stamps = ["a", "b"]
                .iter()
                .map(|t| {
                    let tc = f
                        .body
                        .bindings
                        .tycon(Symbol::intern(t))
                        .expect("body tycon");
                    tc.stamp.as_raw()
                })
                .collect();
            ((f.gen_lo, f.gen_hi), stamps)
        })
        .collect()
}

#[test]
fn a_functor_body_range_holds_no_other_workers_stamp() {
    const ROUNDS: usize = 200;
    let start = Barrier::new(2);
    let (mine, theirs) = std::thread::scope(|s| {
        let other = s.spawn(|| functor_ranges(ROUNDS, &start));
        let mine = functor_ranges(ROUNDS, &start);
        (mine, other.join().expect("worker elaborates"))
    });
    for (ranges, others) in [(&mine, &theirs), (&theirs, &mine)] {
        for ((lo, hi), own) in ranges.iter() {
            assert!(
                own.iter().all(|s| (*lo..*hi).contains(s)),
                "own stamps in range"
            );
            for (_, stamps) in others.iter() {
                assert!(
                    stamps.iter().all(|s| !(*lo..*hi).contains(s)),
                    "another worker's stamp {stamps:?} fell in [{lo}, {hi})"
                );
            }
        }
    }
}
