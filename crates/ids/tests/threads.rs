//! The process-global tables under concurrent use: the symbol interner
//! and the per-thread stamp spaces.  Each test forces its interleaving
//! with barriers.  This binary holds the only interning test, so the
//! interner's ids here are exactly the ones it hands out.

use std::hash::{Hash, Hasher};
use std::sync::Barrier;

use smlsc_ids::{StampGenerator, Symbol};

/// Reads a symbol's id: `Symbol` hashes as its `u32` id.
fn id_of(s: Symbol) -> u32 {
    #[derive(Default)]
    struct Id(Option<u32>);
    impl Hasher for Id {
        fn write(&mut self, _: &[u8]) {
            unreachable!("a symbol hashes as one u32")
        }
        fn write_u32(&mut self, n: u32) {
            self.0 = Some(n);
        }
        fn finish(&self) -> u64 {
            0
        }
    }
    let mut h = Id::default();
    s.hash(&mut h);
    h.0.expect("a symbol hashes its id")
}

#[test]
fn concurrent_interning_agrees_round_trips_and_stays_dense() {
    const THREADS: usize = 4;
    const NAMES: usize = 3000;
    // Thread t interns names t*1000 .. t*1000+3000: every name but the
    // first and last thousand is interned by two or three threads, in
    // different orders.
    let names = |t: usize| -> Vec<String> {
        let mut v: Vec<String> = (t * 1000..t * 1000 + NAMES)
            .map(|i| format!("n{i}"))
            .collect();
        if t % 2 == 1 {
            v.reverse();
        }
        v
    };
    let start = Barrier::new(THREADS);
    let interned: Vec<Vec<(String, Symbol)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let start = &start;
                s.spawn(move || {
                    let names = names(t);
                    start.wait();
                    names
                        .into_iter()
                        .map(|n| {
                            let sym = Symbol::intern(&n);
                            (n, sym)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("interns"))
            .collect()
    });
    // Equal strings gave equal symbols, on every thread.
    let mut by_name = std::collections::HashMap::new();
    for (n, sym) in interned.iter().flatten() {
        assert_eq!(*by_name.entry(n.clone()).or_insert(*sym), *sym, "{n}");
    }
    // Every symbol reads back on a thread that did not intern it.
    std::thread::scope(|s| {
        for (t, syms) in interned.iter().enumerate() {
            let other = &interned[(t + 1) % THREADS];
            s.spawn(move || {
                for (n, sym) in syms.iter().chain(other) {
                    assert_eq!(sym.as_str(), n);
                }
            });
        }
    });
    // Distinct names got distinct ids, and the ids are 0..n, no gap.
    assert_eq!(by_name.len(), (THREADS - 1) * 1000 + NAMES);
    let mut ids: Vec<u32> = by_name.values().map(|&s| id_of(s)).collect();
    ids.sort_unstable();
    assert!(ids.iter().copied().eq(0..by_name.len() as u32));
}

#[test]
fn a_threads_stamp_range_holds_only_its_own_stamps() {
    let phase = Barrier::new(2);
    let (lo, mine, hi, theirs) = std::thread::scope(|s| {
        let other = s.spawn(|| {
            let mut g = StampGenerator::new();
            phase.wait();
            // Runs strictly between the first thread's `lo` and `hi`.
            let theirs: Vec<u64> = (0..100).map(|_| g.fresh().as_raw()).collect();
            phase.wait();
            theirs
        });
        let mut g = StampGenerator::new();
        let lo = StampGenerator::peek_raw();
        let mut mine = vec![g.fresh().as_raw()];
        phase.wait();
        phase.wait();
        mine.push(StampGenerator::global_fresh().as_raw());
        let hi = StampGenerator::peek_raw();
        (lo, mine, hi, other.join().expect("draws stamps"))
    });
    assert!(mine.iter().all(|s| (lo..hi).contains(s)));
    assert_eq!(
        hi - lo,
        mine.len() as u64,
        "the range is this thread's stamps"
    );
    assert!(theirs.iter().all(|s| !(lo..hi).contains(s)));
    let mut all: Vec<u64> = mine.iter().chain(&theirs).copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), mine.len() + theirs.len(), "stamps are unique");
}
