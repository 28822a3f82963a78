//! Seeded mutation over the pack's section decoders: bit flips,
//! truncations and inflated counts of valid stamp and graph sections
//! must decode to `Err` (or, when the mutation happens to stay
//! well-formed, `Ok`), never panic, and never allocate out of
//! proportion to the input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use smlsc_core::depgraph::DepGraph;
use smlsc_core::stamps::{decode_section, Analysis, StampCache, StampEntry};
use smlsc_ids::{Pid, Symbol};

/// Tracks the largest single allocation, so a decoder that trusts an
/// inflated count shows up even when the allocation happens to succeed.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// xorshift64*: a seeded, dependency-free mutation source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One mutation of `bytes`: flipped bits, a truncation, or a 4-byte
/// word overwritten with a huge count.
fn mutate(bytes: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.below(3) {
        0 => {
            for _ in 0..=rng.below(4) {
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
        }
        1 => out.truncate(rng.below(out.len())),
        _ => {
            let i = rng.below(out.len().saturating_sub(3).max(1));
            let huge = [u32::MAX, u32::MAX / 2, 1 << 24, out.len() as u32 + 1][rng.below(4)];
            for (k, b) in huge.to_le_bytes().iter().enumerate() {
                if let Some(slot) = out.get_mut(i + k) {
                    *slot = *b;
                }
            }
        }
    }
    out
}

/// Feeds `iterations` seeded mutations of `valid` to `decode`,
/// asserting each call returns without panicking and without any
/// allocation larger than a small multiple of its input.
fn fuzz(valid: &[u8], seed: u64, iterations: usize, decode: impl Fn(&[u8]) -> bool) {
    assert!(decode(valid), "the unmutated section decodes");
    let mut rng = Rng(seed);
    let mut rejected = 0;
    for _ in 0..iterations {
        let input = mutate(valid, &mut rng);
        LARGEST.store(0, Ordering::Relaxed);
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&input)))
            .unwrap_or_else(|_| panic!("decoder panicked on {input:?}"));
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest <= 64 * input.len() + 4096,
            "a {}-byte input allocated {largest} bytes at once",
            input.len()
        );
        rejected += usize::from(!ok);
    }
    assert!(
        rejected > iterations / 4,
        "only {rejected} mutations rejected"
    );
}

fn stamp_section() -> Vec<u8> {
    let mut cache = StampCache::new();
    for (i, name) in ["a", "b", "c", "d"].iter().enumerate() {
        let imports = ["A", "B", "C"][..i.min(3)]
            .iter()
            .map(|s| Symbol::intern(s))
            .collect();
        cache.record(
            Symbol::intern(name),
            StampEntry {
                stat: (i % 2 == 0).then_some((1_000 + i as u64, 40)),
                analysis: Arc::new(Analysis::new(
                    Pid::of_bytes(name.as_bytes()),
                    imports,
                    vec![Symbol::intern(&name.to_uppercase())],
                )),
            },
        );
    }
    cache
        .encode_section(true, 5_000)
        .expect("records to encode")
}

fn graph_section() -> Vec<u8> {
    let order: Vec<Symbol> = ["A", "B", "C", "D"]
        .iter()
        .map(|s| Symbol::intern(s))
        .collect();
    let pids = order
        .iter()
        .map(|s| Pid::of_bytes(s.as_str().as_bytes()))
        .collect();
    DepGraph::new(order, pids, vec![vec![], vec![0], vec![0, 1], vec![2]]).encode()
}

#[test]
fn mutated_sections_are_errors_never_panics_or_huge_allocations() {
    let stamps = stamp_section();
    let graph = graph_section();
    for seed in [1, 7, 0x5eed] {
        fuzz(&stamps, seed, 2_000, |b| decode_section(b).is_ok());
        fuzz(&graph, seed, 2_000, |b| DepGraph::decode(b).is_ok());
    }
}
