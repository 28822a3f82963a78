//! The persistent import DAG: the graph section of `bins.pack`.
//!
//! A warm build needs the resolved dependency graph — the topological
//! order plus each unit's deduplicated import list — before it can
//! schedule anything.  Deriving it costs a full export-map construction,
//! an import-name resolution per unit, and a DFS over the whole
//! project: all linear-or-worse work that a warm build would repeat
//! every cold process even when no import changed.
//!
//! [`DepGraph`] makes that derivation persistent.  A save that derived
//! a new graph writes it as the graph section of the segment it appends
//! to `bins.pack` ([`crate::pack`]; the segment's index digest covers
//! it); the next cold process rehydrates it with no per-unit name
//! resolution.  The graph is keyed on interfaces in the paper's sense
//! of cutoff: each unit's record holds the `names_pid` of its analysis,
//! a digest of its import and export name lists, and the graph is
//! current iff the unit set is the same and every unit's recorded
//! `names_pid` matches its analysis.  A body edit keeps its names, so
//! the graph stays a hit; only a changed import or export name, or an
//! added, removed or renamed unit, re-derives it (`deps.pack_misses`
//! counts it).  A pack with no valid graph section costs a derivation,
//! never correctness.
//!
//! # Section layout
//!
//! ```text
//! u32 unit count
//! per unit, in topological order:
//!   str  unit name
//!   u128 names pid (import/export name digest at derivation time)
//!   u32  import count, then that many u32 topological slot indices
//! ```
//!
//! Import edges are stored as indices into the record table itself, so
//! loading performs zero hash lookups per edge; the topological
//! invariant (every import index precedes its importer) is validated on
//! load and doubles as a structural corruption check.

use std::collections::HashMap;

use smlsc_ids::{Pid, Symbol};
use smlsc_pickle::wire::{Reader, Writer};

/// The resolved import DAG: topological order, per-unit deduplicated
/// import lists (as names and as topological indices), and the
/// `names_pid` each unit had when the graph was derived.
#[derive(Debug, Clone)]
pub struct DepGraph {
    order: Vec<Symbol>,
    names_pids: Vec<Pid>,
    import_units: Vec<Vec<Symbol>>,
    import_idx: Vec<Vec<usize>>,
    index_of: HashMap<Symbol, usize>,
}

impl DepGraph {
    /// Assembles a graph from a topological order, per-slot names pids,
    /// and per-slot import indices (each index must point to an earlier
    /// slot).  The name-level import lists and the reverse index are
    /// derived here so every construction path agrees on them.
    pub fn new(order: Vec<Symbol>, names_pids: Vec<Pid>, import_idx: Vec<Vec<usize>>) -> DepGraph {
        debug_assert_eq!(order.len(), names_pids.len());
        debug_assert_eq!(order.len(), import_idx.len());
        let import_units = import_idx
            .iter()
            .map(|deps| deps.iter().map(|&j| order[j]).collect())
            .collect();
        let index_of = order.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        DepGraph {
            order,
            names_pids,
            import_units,
            import_idx,
            index_of,
        }
    }

    /// Number of units in the graph.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the graph has no units.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The topological order.
    pub fn order(&self) -> &[Symbol] {
        &self.order
    }

    /// The topological slot of `unit`, if it is in the graph.
    pub fn index_of(&self, unit: Symbol) -> Option<usize> {
        self.index_of.get(&unit).copied()
    }

    /// The `names_pid` recorded for topological slot `i`.
    pub fn names_pid(&self, i: usize) -> Pid {
        self.names_pids[i]
    }

    /// The deduplicated import units of topological slot `i`.
    pub fn import_units(&self, i: usize) -> &[Symbol] {
        &self.import_units[i]
    }

    /// The imports of topological slot `i` as topological slots.
    pub fn import_idx(&self, i: usize) -> &[usize] {
        &self.import_idx[i]
    }

    /// Encodes the graph as a pack graph section.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.order.len() as u32);
        for i in 0..self.order.len() {
            w.str(self.order[i].as_str());
            w.u128(self.names_pids[i].as_raw());
            w.u32(self.import_idx[i].len() as u32);
            for &j in &self.import_idx[i] {
                w.u32(j as u32);
            }
        }
        w.into_bytes()
    }

    /// Decodes a pack graph section.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field or broken invariant.
    pub fn decode(bytes: &[u8]) -> Result<DepGraph, String> {
        let mut r = Reader::new(bytes);
        let bad = |e| format!("graph section: {e}");
        let n = r.u32().map_err(bad)? as usize;
        // The segment digest vouches for the bytes; these bounds guard
        // against a *well-digested* section written by a buggy producer.
        if n > bytes.len() {
            return Err(format!("graph section: implausible unit count {n}"));
        }
        let mut order = Vec::with_capacity(n);
        let mut names_pids = Vec::with_capacity(n);
        let mut import_idx = Vec::with_capacity(n);
        for i in 0..n {
            order.push(Symbol::intern(r.str_ref().map_err(bad)?));
            names_pids.push(Pid::from_raw(r.u128().map_err(bad)?));
            let m = r.u32().map_err(bad)? as usize;
            if m > bytes.len() {
                return Err(format!("graph section: implausible import count {m}"));
            }
            let mut deps = Vec::with_capacity(m);
            for _ in 0..m {
                let j = r.u32().map_err(bad)? as usize;
                if j >= i {
                    return Err(format!(
                        "graph section: import slot {j} does not precede unit slot {i}"
                    ));
                }
                deps.push(j);
            }
            import_idx.push(deps);
        }
        if !r.at_end() {
            return Err("graph section: trailing bytes after the last record".into());
        }
        let g = DepGraph::new(order, names_pids, import_idx);
        if g.index_of.len() != g.order.len() {
            return Err("graph section: duplicate unit names".into());
        }
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DepGraph {
        let a = Symbol::intern("A");
        let b = Symbol::intern("B");
        let c = Symbol::intern("C");
        DepGraph::new(
            vec![a, b, c],
            vec![
                Pid::of_bytes(b"a"),
                Pid::of_bytes(b"b"),
                Pid::of_bytes(b"c"),
            ],
            vec![vec![], vec![0], vec![0, 1]],
        )
    }

    #[test]
    fn roundtrips_through_a_section() {
        let g = sample();
        let back = DepGraph::decode(&g.encode()).expect("clean section decodes");
        assert_eq!(back.order(), g.order());
        assert_eq!(back.import_idx(2), g.import_idx(2));
        assert_eq!(back.import_units(2), &[g.order()[0], g.order()[1]]);
        assert_eq!(back.names_pid(1), g.names_pid(1));
        assert_eq!(back.index_of(Symbol::intern("C")), Some(2));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_errors() {
        let bytes = sample().encode();
        for cut in [0, 3, bytes.len() / 3, bytes.len() - 1] {
            assert!(DepGraph::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert!(DepGraph::decode(&long).is_err());
    }

    #[test]
    fn forward_edges_are_structural_corruption() {
        // A well-formed section whose edges violate the topological
        // invariant must not load: rebuild-from-analyses is the only
        // safe answer.
        let a = Symbol::intern("A");
        let b = Symbol::intern("B");
        let bogus = DepGraph {
            order: vec![a, b],
            names_pids: vec![Pid::of_bytes(b"a"), Pid::of_bytes(b"b")],
            import_units: vec![vec![b], vec![]],
            import_idx: vec![vec![1], vec![]],
            index_of: [(a, 0), (b, 1)].into_iter().collect(),
        };
        assert!(DepGraph::decode(&bogus.encode()).is_err());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = DepGraph::new(vec![], vec![], vec![]);
        let back = DepGraph::decode(&g.encode()).expect("empty section is valid");
        assert!(back.is_empty());
    }
}
