//! The seeded project and the seeded edit script, plus the expected
//! outcome of every step computed from the workload's graph alone.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smlsc::workload::{
    module_name, monorepo_plan, EditKind, MonorepoPlan, Topology, Workload, WorkloadSpec,
};

/// One step of the closed loop: an edit written to disk, or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Build with nothing changed.
    Noop,
    /// Edit module `.0` by `.1`, then build.
    Edit(usize, EditKind),
}

impl Step {
    /// A short stable label (`noop`, `M123:body`, ...).
    pub fn label(&self) -> String {
        match self {
            Step::Noop => "noop".to_string(),
            Step::Edit(i, kind) => format!(
                "M{i}:{}",
                match kind {
                    EditKind::CommentOnly => "comment",
                    EditKind::BodyOnly => "body",
                    EditKind::InterfaceAdd => "iface",
                    EditKind::InterfaceChangeType => "retype",
                }
            ),
        }
    }
}

/// The generated sources on disk, the generator state that edits them,
/// and what the benchmark expects of each build.
pub struct Repo {
    /// The project directory (`*.sml` files; bins in `.smlsc-bins`).
    pub dir: PathBuf,
    work: Workload,
    plan: MonorepoPlan,
    /// Direct importers of each module.
    importers: Vec<u64>,
    /// `BodyOnly` edits applied to each module.
    body_salt: Vec<u64>,
}

impl Repo {
    /// Writes a fresh `units`-module monorepo for `seed` into `dir`,
    /// overwriting the sources already there.
    pub fn generate(dir: &Path, units: usize, seed: u64) -> std::io::Result<Repo> {
        std::fs::create_dir_all(dir)?;
        let work = Workload::new(WorkloadSpec {
            topology: Topology::Monorepo { units, seed },
            funs_per_module: 2,
            reexport_dep_types: false,
        });
        let mut importers = vec![0u64; units];
        for deps in work.deps() {
            for &d in deps {
                importers[d] += 1;
            }
        }
        let repo = Repo {
            dir: dir.to_path_buf(),
            work,
            plan: monorepo_plan(units),
            importers,
            body_salt: vec![0; units],
        };
        for i in 0..units {
            repo.write(i)?;
        }
        Ok(repo)
    }

    fn write(&self, i: usize) -> std::io::Result<()> {
        let name = module_name(i);
        let text = self
            .work
            .project()
            .file(&name)
            .expect("generated module")
            .read_text()
            .expect("generated text is inline");
        std::fs::write(self.dir.join(format!("{name}.sml")), text)
    }

    /// Number of modules.
    pub fn units(&self) -> usize {
        self.body_salt.len()
    }

    /// The section layout of the graph.
    pub fn plan(&self) -> MonorepoPlan {
        self.plan
    }

    /// The bin directory the CLI and the daemon use.
    pub fn bin_dir(&self) -> PathBuf {
        self.dir.join(".smlsc-bins")
    }

    /// Writes `step`'s edit to disk (nothing for a no-op).
    pub fn apply(&mut self, step: Step) -> std::io::Result<()> {
        let Step::Edit(i, kind) = step else {
            return Ok(());
        };
        self.work.edit(i, kind);
        if kind == EditKind::BodyOnly {
            self.body_salt[i] += 1;
        }
        self.write(i)
    }

    /// Units a cutoff build must recompile after `step`: none for a
    /// no-op, the edited unit for a body or comment edit, and the unit
    /// plus its direct importers for an interface addition (their own
    /// interfaces do not change, so the cascade stops there).
    pub fn expected_recompiles(&self, step: Step) -> u64 {
        match step {
            Step::Noop => 0,
            Step::Edit(_, EditKind::CommentOnly | EditKind::BodyOnly) => 1,
            Step::Edit(i, EditKind::InterfaceAdd | EditKind::InterfaceChangeType) => {
                1 + self.importers[i]
            }
        }
    }

    /// `(tag, sumDeps)` module `i` must export after the edits applied
    /// so far.  `tag` is the module index; `sumDeps` adds, over the
    /// imports `d`, `d.get (d.mk 1) = 1 + body_salt(d) mod 17`, plus the
    /// functor argument's `tag` for a chain link.
    pub fn expected_values(&self, i: usize) -> (i64, Option<i64>) {
        let deps = &self.work.deps()[i];
        if deps.is_empty() {
            return (i as i64, None);
        }
        let param = if self.plan.is_chain_link(i) {
            deps[0] as i64
        } else {
            0
        };
        let sum: i64 = deps
            .iter()
            .map(|&d| 1 + (self.body_salt[d] % 17) as i64)
            .sum();
        (i as i64, Some(param + sum))
    }

    /// Bytes of the build state a user keeps on disk: the bin archive,
    /// the import-DAG sidecar and the stamp cache.
    pub fn artifact_bytes(&self) -> u64 {
        let bins = self.bin_dir();
        ["bins.pack", "deps.pack", "stamps.json"]
            .iter()
            .filter_map(|f| std::fs::metadata(bins.join(f)).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// The seeded edit script, dealt in decks of [`DECK`] steps.  Every deck
/// has the same mix, so a run's figures do not hinge on how many rare
/// (expensive) edits a time-bounded loop happened to draw:
///
/// | steps | edit |
/// |---|---|
/// | 8 | `BodyOnly` on a leaf |
/// | 2 | `CommentOnly` on a hub |
/// | 2 | `CommentOnly` on a chain member |
/// | 3 | `BodyOnly` on a hub |
/// | 2 | `InterfaceAdd` on a chain member (not a chain tail) |
/// | 1 | `InterfaceAdd` on a hub |
/// | 2 | no-op build, one in each half of the deck |
///
/// The seed picks the order within each deck and the units edited.
pub struct Script {
    rng: StdRng,
    plan: MonorepoPlan,
}

/// Steps per deck.
pub const DECK: usize = 20;

impl Script {
    /// The script for `seed` over a graph with layout `plan`.
    pub fn new(seed: u64, plan: MonorepoPlan) -> Script {
        Script {
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_ed17_5c21_9700),
            plan,
        }
    }

    /// Deals the next deck.
    pub fn deck(&mut self) -> Vec<Step> {
        let p = self.plan;
        let mut steps = Vec::with_capacity(DECK);
        for _ in 0..8 {
            let leaf = self.rng.gen_range(p.leaf_base()..p.units);
            steps.push(Step::Edit(leaf, EditKind::BodyOnly));
        }
        for _ in 0..2 {
            let hub = self.hub();
            steps.push(Step::Edit(hub, EditKind::CommentOnly));
            let member = self.chain_member();
            steps.push(Step::Edit(member, EditKind::CommentOnly));
        }
        for _ in 0..3 {
            let hub = self.hub();
            steps.push(Step::Edit(hub, EditKind::BodyOnly));
        }
        for _ in 0..2 {
            let member = self.chain_member();
            steps.push(Step::Edit(member, EditKind::InterfaceAdd));
        }
        let hub = self.hub();
        steps.push(Step::Edit(hub, EditKind::InterfaceAdd));
        // Fisher-Yates over the edits; then one no-op into each half of
        // the deck, so no-op samples are spread over the run like the
        // edits are.
        for i in (1..steps.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            steps.swap(i, j);
        }
        let first = self.rng.gen_range(0..DECK / 2);
        steps.insert(first, Step::Noop);
        let second = self.rng.gen_range(DECK / 2..DECK);
        steps.insert(second, Step::Noop);
        steps
    }

    fn hub(&mut self) -> usize {
        self.rng.gen_range(0..self.plan.hubs)
    }

    /// A chain head or interior link: its only importer is the next
    /// link, so an interface addition recompiles exactly two units.
    fn chain_member(&mut self) -> usize {
        let c = self.rng.gen_range(0..self.plan.chains);
        let k = self.rng.gen_range(0..self.plan.depth - 1);
        self.plan.hubs + c * self.plan.depth + k
    }
}
