//! Seeded mutation over the on-disk and on-socket decoders — the pack's
//! segment walk (each segment's length word and footer), its stamp
//! section (name table, name ids) and graph section, its index, the
//! `SMLCBIN3` bin container and the environment pickle inside it, store
//! objects, daemon frames and `builds.jsonl` lines: bit flips,
//! truncations and inflated counts of valid bytes must decode to `Err`
//! (or, when the mutation happens to stay well-formed, `Ok`), never
//! panic, and never allocate out of proportion to the input.
//!
//! The index and the bin payload sit under digests; each mutation is
//! resealed under a recomputed digest, so the mutated bytes reach the
//! payload decoders instead of stopping at the digest check.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use smlsc_core::depgraph::DepGraph;
use smlsc_core::irm::{Irm, Project, Strategy};
use smlsc_core::pack::{PackReader, PACK_FILE};
use smlsc_core::stamps::{decode_section, Analysis, StampCache, StampEntry};
use smlsc_core::BinFile;
use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::{rehydrate, RehydrateContext};

/// Tracks the largest single allocation of the current thread, so a
/// decoder that trusts an inflated count shows up even when the
/// allocation happens to succeed — and the tests, which run on threads
/// of their own, do not see each other's allocations.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

/// Resets the current thread's largest allocation, returning it.
fn take_largest() -> usize {
    LARGEST.with(|l| l.replace(0))
}

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
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
    fuzz_with(valid, seed, iterations, 0, decode);
}

/// [`fuzz`] for a decoder that also allocates a `fixed`-byte buffer
/// whatever its input (a file reader's).
fn fuzz_with(
    valid: &[u8],
    seed: u64,
    iterations: usize,
    fixed: usize,
    decode: impl Fn(&[u8]) -> bool,
) {
    assert!(decode(valid), "the unmutated section decodes");
    let mut rng = Rng(seed);
    let mut rejected = 0;
    for _ in 0..iterations {
        let input = mutate(valid, &mut rng);
        take_largest();
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&input)))
            .unwrap_or_else(|_| panic!("decoder panicked on {input:?}"));
        let largest = take_largest();
        assert!(
            largest <= 64 * input.len() + 4096 + fixed,
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

/// The byte offsets of every name id in a stamp section, and its name
/// table's length: the section layout of `smlsc_core::stamps`, walked.
fn stamp_name_ids(section: &[u8]) -> (Vec<usize>, u32) {
    let u32_at = |at: usize| u32::from_le_bytes(section[at..at + 4].try_into().unwrap());
    let ntable = u32_at(8);
    let mut at = 12;
    for _ in 0..ntable {
        at += 4 + u32_at(at) as usize;
    }
    let records = u32_at(at);
    at += 4;
    let mut ids = Vec::new();
    for _ in 0..records {
        ids.push(at);
        // The id, the stat flag and stat, the two pids.
        at += 4 + 1 + 16 + 32;
        for _ in 0..2 {
            let n = u32_at(at) as usize;
            ids.extend((0..n).map(|k| at + 4 + 4 * k));
            at += 4 + 4 * n;
        }
    }
    assert_eq!(at, section.len(), "walked the whole section");
    (ids, ntable)
}

/// Decodes `input` as a stamp section, which must fail without a panic
/// or an allocation beyond the input.
fn stamp_section_rejects(input: &[u8], what: &str) {
    take_largest();
    let decoded = std::panic::catch_unwind(|| decode_section(input).is_ok())
        .unwrap_or_else(|_| panic!("{what}: decoder panicked"));
    let largest = take_largest();
    assert!(!decoded, "{what}: decoded");
    assert!(
        largest <= 4 * input.len() + 4096,
        "{what}: a {}-byte input allocated {largest} bytes at once",
        input.len()
    );
}

#[test]
fn stamp_name_ids_out_of_range_inflated_tables_and_truncations_are_errors() {
    let valid = stamp_section();
    let (ids, ntable) = stamp_name_ids(&valid);
    assert!(ids.len() > 8, "records carry unit, import and export ids");
    for &at in &ids {
        for bad in [ntable, ntable + 1, u32::MAX] {
            let mut input = valid.clone();
            input[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            stamp_section_rejects(&input, &format!("id {bad} at byte {at}"));
        }
    }
    for inflated in [ntable + 1, valid.len() as u32, u32::MAX / 2, u32::MAX] {
        let mut input = valid.clone();
        input[8..12].copy_from_slice(&inflated.to_le_bytes());
        stamp_section_rejects(&input, &format!("table count {inflated}"));
    }
    for cut in 0..valid.len() {
        stamp_section_rejects(&valid[..cut], &format!("cut at {cut}"));
    }
}

/// A bin file and a pack from a small build whose units import each
/// other and carry functions, tuples, datatypes, `let`s, a signature
/// and a functor.  Returns the bins of `top` and of the import-free
/// `base` and `lib`.
fn built(dir: &std::path::Path) -> [BinFile; 3] {
    let mut p = Project::new();
    p.add(
        "base",
        "structure Base = struct datatype t = A | B of int * int \
         fun f (A, n) = n | f (B (x, y), n) = let val z = x + y in z + n end end",
    );
    p.add(
        "top",
        "structure Top = struct val v = Base.f (Base.B (1, 2), 3) \
         fun g (x, y) = (y, x) end",
    );
    p.add(
        "lib",
        "signature KEY = sig type t val k : t end \
         functor Keyed (K : KEY) = struct type t = K.t fun pair x = (x, K.k) end \
         structure IntKey = Keyed (struct type t = int val k = 3 end)",
    );
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).expect("fixture builds");
    irm.save_bins(dir).expect("fixture saves");
    ["top", "base", "lib"].map(|u| irm.bin(u).expect("every unit has a bin").clone())
}

/// `SMLCBIN3` magic, payload, then the 16-byte digest of both.
const BIN_MAGIC_LEN: usize = 8;

fn reseal_bin(magic: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = magic.to_vec();
    out.extend_from_slice(payload);
    out.extend_from_slice(&Pid::of_bytes(&out).as_raw().to_le_bytes());
    out
}

fn bin_payload(bytes: &[u8]) -> &[u8] {
    &bytes[BIN_MAGIC_LEN..bytes.len() - 16]
}

#[test]
fn mutated_bin_payloads_are_errors_never_panics_or_huge_allocations() {
    let dir = std::env::temp_dir().join(format!("smlsc-decoders-bin-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let [top, ..] = built(&dir);
    let bytes = top.to_bytes();
    let magic = &bytes[..BIN_MAGIC_LEN];
    let payload = bin_payload(&bytes);
    for seed in [3, 11, 0xb1b] {
        fuzz(payload, seed, 2_000, |p| {
            BinFile::from_bytes(&reseal_bin(magic, p)).is_ok()
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The import count right after the name and the source, export and
/// mtime fields: inflated, it must be an error, not an allocation of
/// that many edges.
#[test]
fn an_inflated_import_count_is_an_error() {
    let dir = std::env::temp_dir().join(format!("smlsc-decoders-nimports-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let [bin, ..] = built(&dir);
    let bytes = bin.to_bytes();
    let payload = bin_payload(&bytes);
    let at = 4 + bin.unit.name.as_str().len() + 16 + 16 + 8;
    let nimports = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
    assert_eq!(nimports as usize, bin.unit.imports.len());
    for huge in [u32::MAX, 1 << 24, payload.len() as u32] {
        let mut p = payload.to_vec();
        p[at..at + 4].copy_from_slice(&huge.to_le_bytes());
        let sealed = reseal_bin(&bytes[..BIN_MAGIC_LEN], &p);
        take_largest();
        assert!(BinFile::from_bytes(&sealed).is_err(), "count {huge}");
        let largest = take_largest();
        assert!(
            largest <= 64 * sealed.len() + 4096,
            "count {huge} allocated {largest} bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The first segment's index bytes and their offset in `pack`: the
/// footer's first two words, 40 bytes before the segment's end.
fn first_index(pack: &[u8]) -> (usize, &[u8]) {
    let word = |at: usize| u64::from_le_bytes(pack[at..at + 8].try_into().unwrap()) as usize;
    let end = 9 + word(9);
    let (offset, len) = (word(end - 40), word(end - 32));
    (offset, &pack[offset..offset + len])
}

/// `pack` with its first segment's index replaced by `index`: the
/// footer and the segment length word rewritten around it, the index
/// digest recomputed.
fn reseal_pack(pack: &[u8], index: &[u8]) -> Vec<u8> {
    let (offset, _) = first_index(pack);
    let mut out = pack[..offset].to_vec();
    out.extend_from_slice(index);
    out.extend_from_slice(&(offset as u64).to_le_bytes());
    out.extend_from_slice(&(index.len() as u64).to_le_bytes());
    out.extend_from_slice(&Pid::of_bytes(index).as_raw().to_le_bytes());
    out.extend_from_slice(b"SMLSPKI1");
    let len = (out.len() - 9) as u64;
    out[9..17].copy_from_slice(&len.to_le_bytes());
    out
}

#[test]
fn mutated_pack_indexes_are_errors_never_panics_or_huge_allocations() {
    let dir = std::env::temp_dir().join(format!("smlsc-decoders-pack-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    built(&dir);
    let path = dir.join(PACK_FILE);
    let pack = std::fs::read(&path).unwrap();
    let (_, index) = first_index(&pack);
    assert_eq!(reseal_pack(&pack, index), pack, "resealing is exact");
    let index = index.to_vec();
    let mutated = dir.join("mutated.pack");
    for seed in [5, 13, 0x1de] {
        fuzz(&index, seed, 1_000, |ix| {
            std::fs::write(&mutated, reseal_pack(&pack, ix)).unwrap();
            // No valid first segment is a whole-pack error.
            PackReader::open(&mutated).is_ok()
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The environment pickles of the import-free units rehydrate against
/// the pervasives alone.
#[test]
fn mutated_env_pickles_are_errors_never_panics_or_huge_allocations() {
    let dir = std::env::temp_dir().join(format!("smlsc-decoders-env-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let [_, base, lib] = built(&dir);
    let ctx = RehydrateContext::with_pervasives(std::iter::empty());
    for (bin, seed) in [(&base, 17), (&lib, 19), (&lib, 0xe4f)] {
        fuzz(&bin.unit.env_pickle, seed, 2_000, |b| {
            rehydrate(b, &ctx, bin.unit.name, bin.unit.export_pid).is_ok()
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Each segment's framing — its length word and its footer (index
/// offset, index length, index digest, magic) — is the one part of a
/// pack no digest covers.  `pack` with segment `seg` (start, end)
/// reframed by `framing`, a possibly mutated copy of those 48 bytes; a
/// framing cut short cuts the file there.
fn reframe(pack: &[u8], (start, end): (usize, usize), framing: &[u8]) -> Vec<u8> {
    let mut out = pack[..start].to_vec();
    out.extend_from_slice(&framing[..framing.len().min(8)]);
    if framing.len() > 8 {
        out.extend_from_slice(&pack[start + 8..end - 40]);
        out.extend_from_slice(&framing[8..]);
    }
    out
}

/// Opens every seeded mutation of segment `seg`'s framing in `pack`
/// and hands the result to `check`; asserts no panic and no allocation
/// beyond the file's own size.
fn fuzz_framing(
    pack: &[u8],
    seg: (usize, usize),
    path: &std::path::Path,
    check: impl Fn(Result<Option<PackReader>, smlsc_core::CoreError>),
) {
    let framing = [&pack[seg.0..seg.0 + 8], &pack[seg.1 - 40..seg.1]].concat();
    assert_eq!(reframe(pack, seg, &framing), pack, "reframing is exact");
    for seed in [23, 29, 0xf2a] {
        let mut rng = Rng(seed);
        for _ in 0..500 {
            let f = mutate(&framing, &mut rng);
            // Unchanged, or cut to nothing: no segment there at all.
            if f == framing || f.is_empty() {
                continue;
            }
            let bytes = reframe(pack, seg, &f);
            std::fs::write(path, &bytes).unwrap();
            take_largest();
            let opened = std::panic::catch_unwind(|| PackReader::open(path))
                .unwrap_or_else(|_| panic!("segment walk panicked on framing {f:?}"));
            let largest = take_largest();
            assert!(
                largest <= bytes.len() + 4096,
                "a {}-byte pack allocated {largest} bytes at once",
                bytes.len()
            );
            check(opened);
        }
    }
}

/// The segments of `pack`, walked by their length words.
fn segments(pack: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 9;
    while start < pack.len() {
        let len = u64::from_le_bytes(pack[start..start + 8].try_into().unwrap()) as usize;
        out.push((start, start + len));
        start += len;
    }
    out
}

#[test]
fn a_mutated_first_segment_frame_is_an_error_never_a_panic_or_huge_allocation() {
    let dir = std::env::temp_dir().join(format!("smlsc-decoders-frame-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    built(&dir);
    let pack = std::fs::read(dir.join(PACK_FILE)).unwrap();
    let [first] = segments(&pack)[..] else {
        panic!("a fresh pack is one segment")
    };
    fuzz_framing(&pack, first, &dir.join("mutated.pack"), |opened| {
        assert!(opened.is_err(), "a pack with no valid first segment opened");
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_mutated_appended_segment_frame_is_a_torn_tail() {
    let dir = std::env::temp_dir().join(format!("smlsc-decoders-tail-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Enough units that one edited leaf fits the pack's growth bound
    // and its save appends a segment.
    let mut p = Project::new();
    for i in 0..200 {
        p.add(
            format!("u{i}"),
            format!("structure U{i} = struct val v = {i} end"),
        );
    }
    let mut irm = Irm::new(Strategy::Cutoff);
    irm.build(&p).unwrap();
    irm.save_bins(&dir).unwrap();
    p.edit("u7", "structure U7 = struct val v = 7000 end")
        .unwrap();
    irm.build(&p).unwrap();
    irm.save_bins(&dir).unwrap();
    let pack = std::fs::read(dir.join(PACK_FILE)).unwrap();
    let [_, appended] = segments(&pack)[..] else {
        panic!("the leaf edit appended one segment")
    };
    fuzz_framing(&pack, appended, &dir.join("mutated.pack"), |opened| {
        let reader = opened
            .expect("the first segment still opens")
            .expect("present");
        assert!(reader.torn_tail() > 0, "a mutated segment was served");
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes the object `object` makes of each seeded mutation of `valid`
/// (skipping any that leaves it unchanged) as `key`'s object in
/// `store`, then fetches `key` and decodes the payload as a bin.  Every
/// mutation must give `expected` — `None` for a miss, `Some(false)` for
/// a served payload that does not decode — with no panic and no
/// allocation beyond a small multiple of the input.
fn fetch_rejects_all(
    store: &smlsc_core::store::Store,
    key: Pid,
    valid: &[u8],
    seed: u64,
    object: impl Fn(&[u8]) -> Vec<u8>,
    expected: Option<bool>,
) {
    let path = store.object_path(key);
    let mut rng = Rng(seed);
    for _ in 0..400 {
        let input = mutate(valid, &mut rng);
        if input == valid {
            continue;
        }
        let bytes = object(&input);
        std::fs::write(&path, &bytes).unwrap();
        take_largest();
        let fetched = std::panic::catch_unwind(|| {
            store
                .get(key)
                .map(|payload| BinFile::from_bytes(&payload).is_ok())
        })
        .unwrap_or_else(|_| panic!("store fetch panicked on {bytes:?}"));
        let largest = take_largest();
        assert!(
            largest <= 64 * bytes.len() + 4096,
            "a {}-byte object allocated {largest} bytes at once",
            bytes.len()
        );
        assert_eq!(fetched, expected, "mutated object {bytes:?}");
    }
}

/// `SMLSTOR1` store objects: the magic, the payload's 16-byte digest,
/// then the payload — here a sealed bin.  A mutated object is a miss.
/// Resealed under a recomputed envelope digest, a mutated bin still
/// fails its own self-digest: no pack index vouches for store bytes.
#[test]
fn mutated_store_objects_are_errors_never_panics_or_huge_allocations() {
    let dir = std::env::temp_dir().join(format!("smlsc-decoders-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let [top, ..] = built(&dir.join("bins"));
    let store = smlsc_core::store::Store::open(dir.join("store")).unwrap();
    let key = Pid::of_bytes(b"top");
    let bin = top.to_bytes();
    assert!(store.put(key, &bin).unwrap());
    let object = std::fs::read(store.object_path(key)).unwrap();
    assert_eq!(
        store.get(key),
        Some(bin.clone()),
        "the valid object is served"
    );
    let envelope = |payload: &[u8]| {
        [
            b"SMLSTOR1".as_slice(),
            &Pid::of_bytes(payload).as_raw().to_le_bytes(),
            payload,
        ]
        .concat()
    };
    assert_eq!(envelope(&bin), object, "resealing is exact");
    for seed in [31, 37, 0x570] {
        fetch_rejects_all(&store, key, &object, seed, <[u8]>::to_vec, None);
        fetch_rejects_all(&store, key, &bin, seed, envelope, Some(false));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A build request and a build response, each as one daemon frame.
fn daemon_frames() -> [Vec<u8>; 2] {
    use smlsc_daemon::{protocol, Request, Response};
    let mut request = Vec::new();
    protocol::send(&mut request, &Request::build(true)).unwrap();
    let mut reply = Response::new();
    reply.summary = "built 2 unit(s) [cutoff]: 1 recompiled, 1 reused".into();
    reply.notes = vec!["warning: unit `a`: inexhaustive match".into()];
    reply.exit_code = 1;
    let mut response = Vec::new();
    protocol::send(&mut response, &reply).unwrap();
    [request, response]
}

#[test]
fn mutated_daemon_frames_are_errors_never_panics_or_huge_allocations() {
    use smlsc_daemon::{protocol, Request, Response};
    let [request, response] = daemon_frames();
    for seed in [41, 43, 0xda3] {
        fuzz(&request, seed, 2_000, |b| {
            protocol::recv::<Request>(&mut std::io::Cursor::new(b)).is_ok()
        });
        fuzz(&response, seed, 2_000, |b| {
            protocol::recv::<Response>(&mut std::io::Cursor::new(b)).is_ok()
        });
    }
}

/// A length prefix alone commits no memory: reading a frame that
/// declares `MAX_FRAME` and then ends allocates one chunk.
#[test]
fn a_bare_max_frame_prefix_allocates_one_chunk() {
    use smlsc_daemon::protocol::{read_frame, MAX_FRAME, READ_CHUNK};
    let prefix = MAX_FRAME.to_le_bytes();
    take_largest();
    let err = read_frame(&mut std::io::Cursor::new(prefix)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    let largest = take_largest();
    assert!(largest <= READ_CHUNK, "allocated {largest} bytes at once");
}

/// 50,000 nested `[` — a 50 KB input — parse to `Err` on a thread with
/// a 256 KiB stack, from the socket and from the ledger alike.
#[test]
fn deep_nesting_is_an_error_on_a_small_stack() {
    let dir = std::env::temp_dir().join(format!("smlsc-decoders-deep-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let deep = "[".repeat(50_000);
    let worker = std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn({
            let dir = dir.clone();
            move || {
                let mut frame = Vec::new();
                smlsc_daemon::protocol::write_frame(&mut frame, deep.as_bytes()).unwrap();
                let got = smlsc_daemon::protocol::recv::<smlsc_daemon::Request>(
                    &mut std::io::Cursor::new(frame),
                );
                assert_eq!(got.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
                let ledger = smlsc_core::Ledger::for_bin_dir(&dir);
                std::fs::write(dir.join("builds.jsonl"), format!("{deep}\n")).unwrap();
                assert!(ledger.read().is_empty());
                assert_eq!(ledger.audit().valid, 0);
            }
        })
        .unwrap();
    worker.join().expect("no stack overflow");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutated_ledger_lines_are_errors_never_panics_or_huge_allocations() {
    let dir = std::env::temp_dir().join(format!("smlsc-decoders-ledger-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = smlsc_core::Ledger::for_bin_dir(&dir);
    let report = {
        let mut p = Project::new();
        p.add("a", "structure A = struct val x = 1 end");
        Irm::new(Strategy::Cutoff).build(&p).unwrap()
    };
    let collector = smlsc_core::trace::Collector::new();
    let record = smlsc_core::LedgerRecord::from_build(&report, &collector, 2, 1234, 0);
    ledger.append(&record).unwrap();
    let line = std::fs::read(dir.join("builds.jsonl")).unwrap();
    // `Ledger::read` reads through a `BufReader` with its 8 KiB buffer.
    for seed in [47, 53, 0x1ed] {
        fuzz_with(&line, seed, 1_000, 8 << 10, |b| {
            std::fs::write(dir.join("builds.jsonl"), b).unwrap();
            let records = ledger.read();
            assert!(records.len() <= 1);
            records.len() == 1
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}
