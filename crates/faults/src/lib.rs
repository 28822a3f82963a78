//! `smlsc-faults`: deterministic fault injection for the build pipeline.
//!
//! Crash-safety claims — atomic publication, quarantine-on-corruption,
//! stale-lock breaking, keep-going scheduling — are only real if they
//! are *exercised* by design rather than by luck.  This crate gives the
//! pipeline named **fault points** (see [`points`]) and a seeded,
//! parseable **fault plan** that can fire IO errors, torn writes,
//! delays, and panics at those points.
//!
//! The hooks are compiled in unconditionally: with no plan installed
//! (the default), [`check`] is one relaxed atomic load and one
//! thread-local read, so chaos suites run against the same release
//! binaries users get.
//!
//! A plan is either global ([`install_global`], for `--inject-faults`)
//! or scoped to the installing thread ([`install_scoped`], for tests).
//! Builds that fan out onto worker threads carry a scoped plan along
//! with [`fork_current`]/[`install_forked`], the way `smlsc-trace`
//! carries sinks.
//!
//! # Spec grammar
//!
//! A plan is parsed from `--inject-faults <spec>` or the `SMLSC_FAULTS`
//! environment variable:
//!
//! ```text
//! spec    := clause ( ';' clause )*
//! clause  := 'seed=' u64
//!          | point '=' action
//! point   := 'store.publish' | 'store.fetch' | 'store.lock'
//!          | 'bin.save' | 'bin.load' | 'compile.unit'
//!          | 'ledger.append' | 'ledger.rotate' | 'stamp.save'
//!          | 'pack.save' | 'pack.lock' | 'deps.save' | 'daemon.accept'
//!          | 'daemon.watch' | 'daemon.lock'
//! action  := kind [ '(' filter ')' ] [ '@' nth ] [ '%' percent ] [ '*' count ]
//! kind    := 'io' | 'torn' | 'delay:' millis | 'panic' | 'crash'
//! ```
//!
//! * `filter` — fire only when the call's detail string (unit name,
//!   lock file name, object key) contains `filter`;
//! * `@nth` — fire starting at the nth matching call (1-based);
//! * `%percent` — fire with this probability per call, decided
//!   deterministically from `(seed, point, call index)`;
//! * `*count` — fire at most `count` times.
//!
//! Examples: `compile.unit=panic(M3)@1*1` panics the first compile of
//! unit `M3`; `seed=42;store.publish=torn%30;store.fetch=io%25` tears
//! 30% of store writes and fails 25% of store reads, reproducibly;
//! `stamp.save=crash(staged)@1` aborts the process the first time a
//! stamp save has staged its tmp file but not yet renamed it.
//!
//! # Semantics at the point
//!
//! [`check`] executes `Delay` (sleeps), `Panic` (panics with an
//! `"injected fault"` message), and `Crash` (calls
//! `std::process::abort()`, skipping every destructor — exactly the
//! debris a SIGKILL or power loss leaves) itself; `Io` and `Torn` are
//! returned to the caller, which interprets them in context — an
//! injected IO error for `Io`, a deliberately truncated write (or
//! read) for `Torn`.
//!
//! Durable-write points check several times per operation with a
//! *stage* detail string (`begin`, `staged`, `renamed`, and for ledger
//! appends and appended pack segments `mid`), so a `crash(<stage>)`
//! filter selects exactly which half-finished state the process dies
//! in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use smlsc_trace as trace;

/// Canonical fault-point names.  Keeping them here prevents drift
/// between the code that checks a point and the specs that name it.
pub mod points {
    /// `Store::put`: the commit of one object; `begin` fires before the
    /// key lock is taken.
    pub const STORE_PUBLISH: &str = "store.publish";
    /// `Store::get`: read + digest verification of one object.
    pub const STORE_FETCH: &str = "store.fetch";
    /// Store lock acquisition (`fsutil::acquire`: fires while holding
    /// the lock file, so a `panic` models an owner that dies
    /// mid-critical-section; `io` backs the lock out).
    pub const STORE_LOCK: &str = "store.lock";
    /// `Irm::save_bins`: persisting one unit's bin.
    pub const BIN_SAVE: &str = "bin.save";
    /// `Irm::load_bins`: reading one bin file back.
    pub const BIN_LOAD: &str = "bin.load";
    /// One unit's compile (after the rebuild decision and store probe).
    pub const COMPILE_UNIT: &str = "compile.unit";
    /// `Ledger::append`: the single `O_APPEND` write of one build
    /// record to `builds.jsonl` (`io` fails the write, `torn` truncates
    /// the record mid-line, modelling a crash during the append).
    pub const LEDGER_APPEND: &str = "ledger.append";
    /// The daemon's accept loop: one client connection being accepted
    /// (`io` drops the connection before any frame is exchanged, so
    /// clients must fall back to an in-process build).
    pub const DAEMON_ACCEPT: &str = "daemon.accept";
    /// One poll sweep of the daemon's filesystem watcher (`io` skips the
    /// sweep; invalidation is deferred, never lost, because the next
    /// sweep re-diffs against the same snapshot).
    pub const DAEMON_WATCH: &str = "daemon.watch";
    /// `StampCache::save`: the tmp+fsync+rename publication of
    /// `stamps.json`.  Checked at stages `begin`, `staged`, `renamed`.
    pub const STAMP_SAVE: &str = "stamp.save";
    /// `PackWriter`: one save of `bins.pack`.  A full rewrite checks
    /// stages `begin` (on create), `staged`, `renamed`; an appended
    /// segment checks `begin`, `mid` (half the segment written) and
    /// `staged` (segment fsynced).  `torn` keeps half of the bytes on
    /// either path.
    pub const PACK_SAVE: &str = "pack.save";
    /// `bins.pack.lock` acquisition (the same `fsutil::acquire`, held
    /// by every pack writer: a `crash` leaves the stale lock that the
    /// next writer breaks and `doctor` reports).
    pub const PACK_LOCK: &str = "pack.lock";
    /// `Ledger::rotate_if_needed`: the tmp+rename that truncates an
    /// over-long `builds.jsonl`.  Checked at stages `begin`, `staged`,
    /// `renamed`.
    pub const LEDGER_ROTATE: &str = "ledger.rotate";
    /// `DepGraph::save`: the tmp+fsync+rename publication of the
    /// `deps.pack` import-DAG sidecar.  Checked at stages `begin`,
    /// `staged`, `renamed`.
    pub const DEPS_SAVE: &str = "deps.save";
    /// Daemon lockfile acquisition (the same `fsutil::acquire`: a
    /// `crash` models a daemon that dies holding the lock — the stale
    /// state `doctor` and lock takeover must clear).
    pub const DAEMON_LOCK: &str = "daemon.lock";
    /// Every fault point, for specs that want blanket coverage.
    pub const ALL: &[&str] = &[
        STORE_PUBLISH,
        STORE_FETCH,
        STORE_LOCK,
        BIN_SAVE,
        BIN_LOAD,
        COMPILE_UNIT,
        LEDGER_APPEND,
        LEDGER_ROTATE,
        STAMP_SAVE,
        PACK_SAVE,
        PACK_LOCK,
        DEPS_SAVE,
        DAEMON_ACCEPT,
        DAEMON_WATCH,
        DAEMON_LOCK,
    ];
}

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with an injected IO error.
    Io,
    /// The write (or read) is deliberately truncated mid-payload.
    Torn,
    /// The call stalls for the given duration before proceeding.
    Delay(Duration),
    /// The call panics, as an internal compiler bug would.
    Panic,
    /// The process aborts on the spot (`std::process::abort()`): no
    /// unwinding, no destructors — the state a SIGKILL or power loss
    /// leaves behind.  Only meaningful in a subprocess under test.
    Crash,
}

/// One armed fault: a kind plus its firing conditions.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// The fault point this rule arms.
    pub point: &'static str,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// Fire only when the call's detail contains this substring.
    pub filter: Option<String>,
    /// First matching call (1-based) at which the rule may fire.
    pub from_nth: u64,
    /// Per-call firing probability in percent (`None` = always).
    pub percent: Option<u8>,
    /// Maximum number of firings.
    pub max_fires: u64,
}

impl FaultRule {
    /// A rule firing on every matching call at `point`.
    pub fn new(point: &'static str, kind: FaultKind) -> FaultRule {
        FaultRule {
            point,
            kind,
            filter: None,
            from_nth: 1,
            percent: None,
            max_fires: u64::MAX,
        }
    }

    /// Restricts the rule to calls whose detail contains `filter`.
    pub fn filtered(mut self, filter: impl Into<String>) -> FaultRule {
        self.filter = Some(filter.into());
        self
    }

    /// Fires with `percent`% probability per matching call.
    pub fn percent(mut self, percent: u8) -> FaultRule {
        self.percent = Some(percent.min(100));
        self
    }

    /// Fires at most `n` times.
    pub fn times(mut self, n: u64) -> FaultRule {
        self.max_fires = n;
        self
    }

    /// Starts firing at the `nth` matching call (1-based).
    pub fn from_nth(mut self, nth: u64) -> FaultRule {
        self.from_nth = nth.max(1);
        self
    }
}

/// A seeded set of fault rules.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for probabilistic (`%`) rules.
    pub seed: u64,
    /// The armed rules.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn with(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Parses a plan from the spec grammar (see the crate docs).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed `{seed}` (expected an unsigned integer)"))?;
                continue;
            }
            let (point_str, action) = clause
                .split_once('=')
                .ok_or_else(|| format!("bad clause `{clause}` (expected `point=action`)"))?;
            let point_str = point_str.trim();
            let point = points::ALL
                .iter()
                .find(|p| **p == point_str)
                .copied()
                .ok_or_else(|| {
                    format!(
                        "unknown fault point `{point_str}` (expected one of {})",
                        points::ALL.join(", ")
                    )
                })?;
            plan.rules.push(parse_action(point, action.trim())?);
        }
        Ok(plan)
    }
}

fn parse_action(point: &'static str, action: &str) -> Result<FaultRule, String> {
    // Split trailing modifiers (`@nth`, `%percent`, `*count`) off the
    // kind.  Modifiers never contain '(' so the filter is unambiguous.
    let mut rest = action;
    let mut rule_kind: Option<FaultKind> = None;
    for (name, prefix_len) in [
        ("io", 2),
        ("torn", 4),
        ("panic", 5),
        ("crash", 5),
        ("delay:", 6),
    ] {
        if rest.starts_with(name) {
            if name == "delay:" {
                let tail = &rest[prefix_len..];
                let end = tail
                    .find(|c: char| !c.is_ascii_digit())
                    .unwrap_or(tail.len());
                let ms: u64 = tail[..end]
                    .parse()
                    .map_err(|_| format!("bad delay millis in `{action}`"))?;
                rule_kind = Some(FaultKind::Delay(Duration::from_millis(ms)));
                rest = &tail[end..];
            } else {
                rule_kind = Some(match name {
                    "io" => FaultKind::Io,
                    "torn" => FaultKind::Torn,
                    "crash" => FaultKind::Crash,
                    _ => FaultKind::Panic,
                });
                rest = &rest[prefix_len..];
            }
            break;
        }
    }
    let kind = rule_kind.ok_or_else(|| {
        format!("unknown fault kind in `{action}` (expected io, torn, delay:<ms>, panic, or crash)")
    })?;
    let mut rule = FaultRule::new(point, kind);
    if let Some(after_paren) = rest.strip_prefix('(') {
        let close = after_paren
            .find(')')
            .ok_or_else(|| format!("unclosed filter in `{action}`"))?;
        rule.filter = Some(after_paren[..close].to_string());
        rest = &after_paren[close + 1..];
    }
    while !rest.is_empty() {
        let (tag, tail) = rest.split_at(1);
        let end = tail
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(tail.len());
        let num: u64 = tail[..end]
            .parse()
            .map_err(|_| format!("bad modifier `{rest}` in `{action}`"))?;
        match tag {
            "@" => rule.from_nth = num.max(1),
            "%" => rule.percent = Some(u8::try_from(num.min(100)).expect("<= 100")),
            "*" => rule.max_fires = num,
            _ => return Err(format!("bad modifier `{rest}` in `{action}`")),
        }
        rest = &tail[end..];
    }
    Ok(rule)
}

/// Per-rule firing state (call and fire counters).
#[derive(Debug)]
struct RuleState {
    rule: FaultRule,
    calls: AtomicU64,
    fires: AtomicU64,
}

#[derive(Debug)]
struct PlanState {
    seed: u64,
    rules: Vec<RuleState>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Arc<PlanState>>> = RwLock::new(None);

thread_local! {
    /// The plan installed on this thread by [`install_scoped`] or
    /// [`install_forked`]; it takes precedence over the global plan.
    static LOCAL: RefCell<Option<Arc<PlanState>>> = const { RefCell::new(None) };
}

fn plan_state(plan: FaultPlan) -> Arc<PlanState> {
    Arc::new(PlanState {
        seed: plan.seed,
        rules: plan
            .rules
            .into_iter()
            .map(|rule| RuleState {
                rule,
                calls: AtomicU64::new(0),
                fires: AtomicU64::new(0),
            })
            .collect(),
    })
}

/// Installs `plan` process-wide, replacing any previous global plan.
/// Intended for binaries (`--inject-faults` / `SMLSC_FAULTS`); tests
/// use [`install_scoped`], whose plan only the installing thread (and
/// the workers it forks the plan onto) can see.
pub fn install_global(plan: FaultPlan) {
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(plan_state(plan));
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Removes the global plan, restoring the zero-cost no-op behaviour.
pub fn clear() {
    ACTIVE.store(false, Ordering::SeqCst);
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// A plan installed on the current thread; the thread's previous plan
/// (usually none) comes back when the guard drops.  Not `Send`: the
/// guard must drop on the thread it was made on.
#[derive(Debug)]
pub struct ScopedFaults {
    prev: Option<Arc<PlanState>>,
    _thread_bound: PhantomData<*const ()>,
}

fn install_local(state: Arc<PlanState>) -> ScopedFaults {
    let prev = LOCAL.with(|l| l.borrow_mut().replace(state));
    ScopedFaults {
        prev,
        _thread_bound: PhantomData,
    }
}

/// Installs `plan` on the calling thread for the lifetime of the
/// returned guard.  Other threads never see it, so tests running side
/// by side in one process cannot observe each other's faults; a build
/// that fans out onto worker threads carries it along with
/// [`fork_current`].
pub fn install_scoped(plan: FaultPlan) -> ScopedFaults {
    install_local(plan_state(plan))
}

impl Drop for ScopedFaults {
    fn drop(&mut self) {
        let prev = self.prev.take();
        LOCAL.with(|l| *l.borrow_mut() = prev);
    }
}

/// A `Send`-able handle to the calling thread's scoped plan, for
/// [`install_forked`] on a worker thread.  Call and fire counters stay
/// shared, so `@nth` and `*count` modifiers count across every thread
/// the plan was forked onto.
#[derive(Debug, Clone)]
pub struct ForkedFaults(Arc<PlanState>);

/// The calling thread's scoped plan, if any (a global plan needs no
/// forking: every thread sees it).
pub fn fork_current() -> Option<ForkedFaults> {
    LOCAL.with(|l| l.borrow().clone()).map(ForkedFaults)
}

/// Installs a forked plan on the current thread until the guard drops.
pub fn install_forked(plan: ForkedFaults) -> ScopedFaults {
    install_local(plan.0)
}

/// True when a plan is visible to the calling thread.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) || LOCAL.with(|l| l.borrow().is_some())
}

/// Checks a fault point against the calling thread's plan, else the
/// global one.  With no plan installed this is one relaxed atomic load
/// and one thread-local read.  `Delay` faults sleep here and return `None`;
/// `Panic` faults panic here (with a message naming the point); `Io`
/// and `Torn` are returned for the caller to interpret.
pub fn check(point: &'static str, detail: &str) -> Option<FaultKind> {
    let state = LOCAL.with(|l| l.borrow().clone()).or_else(|| {
        if !ACTIVE.load(Ordering::Relaxed) {
            return None;
        }
        PLAN.read().unwrap_or_else(|e| e.into_inner()).clone()
    })?;
    for rs in &state.rules {
        if rs.rule.point != point {
            continue;
        }
        if let Some(f) = &rs.rule.filter {
            if !detail.contains(f.as_str()) {
                continue;
            }
        }
        let n = rs.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if n < rs.rule.from_nth {
            continue;
        }
        if rs.fires.load(Ordering::Relaxed) >= rs.rule.max_fires {
            continue;
        }
        if let Some(p) = rs.rule.percent {
            // Deterministic per (seed, point, call index): the *set* of
            // firing calls is fixed no matter how threads interleave.
            let roll = splitmix64(state.seed ^ str_hash(point) ^ n.wrapping_mul(0x9E37_79B9)) % 100;
            if roll >= u64::from(p) {
                continue;
            }
        }
        rs.fires.fetch_add(1, Ordering::Relaxed);
        trace::counter(names::FAULTS_INJECTED, 1);
        trace::event(names::FAULT_EVENT)
            .field("point", point)
            .field("detail", detail)
            .field("kind", kind_name(rs.rule.kind));
        match rs.rule.kind {
            FaultKind::Delay(d) => {
                std::thread::sleep(d);
                return None;
            }
            FaultKind::Panic => panic!("injected fault: panic at {point} ({detail})"),
            FaultKind::Crash => {
                // Announce the kill on stderr so a harness can tell an
                // injected crash from an organic abort, then die
                // without unwinding — no Drop handler runs, exactly as
                // if the process had been SIGKILLed here.
                eprintln!("injected fault: crash at {point} ({detail})");
                std::process::abort();
            }
            k @ (FaultKind::Io | FaultKind::Torn) => return Some(k),
        }
    }
    None
}

/// The IO error callers raise for an injected [`FaultKind::Io`].
pub fn io_error(point: &'static str, detail: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: io at {point} ({detail})"))
}

fn kind_name(k: FaultKind) -> &'static str {
    match k {
        FaultKind::Io => "io",
        FaultKind::Torn => "torn",
        FaultKind::Delay(_) => "delay",
        FaultKind::Panic => "panic",
        FaultKind::Crash => "crash",
    }
}

/// Trace names emitted by this crate.
pub mod names {
    /// Counter: faults fired so far.
    pub const FAULTS_INJECTED: &str = "faults.injected";
    /// Event: one per fired fault, with `point`, `detail`, `kind`.
    pub const FAULT_EVENT: &str = "fault.injected";
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn str_hash(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_is_no_op() {
        assert!(!active());
        assert!(check(points::STORE_FETCH, "anything").is_none());
    }

    #[test]
    fn parse_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=42; store.publish=torn%30; compile.unit=panic(M3)@2*1; store.lock=delay:50; bin.load=io",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rules.len(), 4);
        let r = &plan.rules[1];
        assert_eq!(r.point, points::COMPILE_UNIT);
        assert_eq!(r.kind, FaultKind::Panic);
        assert_eq!(r.filter.as_deref(), Some("M3"));
        assert_eq!(r.from_nth, 2);
        assert_eq!(r.max_fires, 1);
        assert_eq!(plan.rules[0].percent, Some(30));
        assert_eq!(
            plan.rules[2].kind,
            FaultKind::Delay(Duration::from_millis(50))
        );
        assert_eq!(plan.rules[3].kind, FaultKind::Io);
    }

    #[test]
    fn parse_crash_rules_at_every_durable_write_point() {
        let plan = FaultPlan::parse(
            "stamp.save=crash(staged)@1; pack.save=crash(renamed); ledger.rotate=crash; \
             ledger.append=crash(mid)@2*1; store.publish=crash(begin); daemon.lock=crash",
        )
        .unwrap();
        assert_eq!(plan.rules.len(), 6);
        assert!(plan.rules.iter().all(|r| r.kind == FaultKind::Crash));
        assert_eq!(plan.rules[0].point, points::STAMP_SAVE);
        assert_eq!(plan.rules[0].filter.as_deref(), Some("staged"));
        assert_eq!(plan.rules[1].point, points::PACK_SAVE);
        assert_eq!(plan.rules[2].point, points::LEDGER_ROTATE);
        assert_eq!(plan.rules[3].point, points::LEDGER_APPEND);
        assert_eq!(plan.rules[3].from_nth, 2);
        assert_eq!(plan.rules[3].max_fires, 1);
        assert_eq!(plan.rules[4].point, points::STORE_PUBLISH);
        assert_eq!(plan.rules[5].point, points::DAEMON_LOCK);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("bogus.point=io").is_err());
        assert!(FaultPlan::parse("store.fetch=explode").is_err());
        assert!(FaultPlan::parse("store.fetch").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("compile.unit=panic(unclosed").is_err());
    }

    #[test]
    fn filter_nth_and_count_fire_deterministically() {
        let plan = FaultPlan::default().with(
            FaultRule::new(points::BIN_SAVE, FaultKind::Io)
                .filtered("target")
                .from_nth(2)
                .times(1),
        );
        let _guard = install_scoped(plan);
        assert!(check(points::BIN_SAVE, "other").is_none(), "filter misses");
        assert!(
            check(points::BIN_SAVE, "target").is_none(),
            "1st call skipped"
        );
        assert_eq!(
            check(points::BIN_SAVE, "target"),
            Some(FaultKind::Io),
            "2nd call fires"
        );
        assert!(
            check(points::BIN_SAVE, "target").is_none(),
            "count exhausted"
        );
    }

    #[test]
    fn percent_is_seed_deterministic() {
        let fired = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed)
                .with(FaultRule::new(points::STORE_FETCH, FaultKind::Io).percent(40));
            let _guard = install_scoped(plan);
            (0..64)
                .map(|_| check(points::STORE_FETCH, "k").is_some())
                .collect()
        };
        let a = fired(7);
        let b = fired(7);
        let c = fired(8);
        assert_eq!(a, b, "same seed, same firing set");
        assert_ne!(a, c, "different seed, different firing set");
        let hits = a.iter().filter(|x| **x).count();
        assert!(hits > 10 && hits < 45, "~40% of 64, got {hits}");
    }

    #[test]
    fn panic_kind_panics_at_the_point() {
        let plan =
            FaultPlan::default().with(FaultRule::new(points::COMPILE_UNIT, FaultKind::Panic));
        let _guard = install_scoped(plan);
        let err = std::panic::catch_unwind(|| check(points::COMPILE_UNIT, "m")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
        assert!(msg.contains("compile.unit"), "{msg}");
    }

    #[test]
    fn scope_clears_on_drop() {
        {
            let _guard = install_scoped(
                FaultPlan::default().with(FaultRule::new(points::BIN_LOAD, FaultKind::Io)),
            );
            assert!(active());
            assert_eq!(check(points::BIN_LOAD, "x"), Some(FaultKind::Io));
        }
        assert!(!active());
        assert!(check(points::BIN_LOAD, "x").is_none());
    }

    #[test]
    fn scoped_plan_is_thread_local_unless_forked() {
        let _guard = install_scoped(
            FaultPlan::default().with(FaultRule::new(points::BIN_SAVE, FaultKind::Io).times(1)),
        );
        let forked = fork_current().expect("a scoped plan forks");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!active(), "another thread never sees a scoped plan");
                assert!(check(points::BIN_SAVE, "x").is_none());
            });
            s.spawn(move || {
                let _g = install_forked(forked);
                assert_eq!(check(points::BIN_SAVE, "x"), Some(FaultKind::Io));
            });
        });
        // The fire count is shared with the forked copy: `*1` is spent.
        assert!(check(points::BIN_SAVE, "x").is_none());
    }
}
