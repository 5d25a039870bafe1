//! Seeded, deterministic fault injection for resilience testing.
//!
//! A [`ChaosConfig`] names *sites* (stable string labels compiled into the
//! evaluation paths — see [`sites`]) and attaches per-site fault rules:
//! inject a panic, artificial deadline pressure, or forced budget
//! exhaustion with a given rate. Whether call `n` at a site injects is a
//! pure function of `(seed, site, fault, n)` — a splitmix-style hash
//! compared against the rate — so a campaign with a fixed seed injects a
//! reproducible *number* of faults regardless of thread interleaving (the
//! set of per-site draw indices is always `0..N`; only their assignment to
//! queries varies).
//!
//! Chaos is process-global but scoped: [`chaos::install`](install) returns
//! a guard that holds a static mutex for its lifetime (serialising chaos
//! tests against each other) and uninstalls the config on drop. With no
//! config installed, [`inject`] is a single relaxed atomic load — the
//! production fast path stays unmeasurable.
//!
//! Configs also parse from the `MV_CHAOS` environment variable
//! (`seed=42;route:panic=0.01;exact_rung:budget=0.05`), which is how the
//! bench harness and CI chaos job switch campaigns on without code changes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};

/// The stable site labels compiled into the evaluation paths.
pub mod sites {
    /// Sharded phase 1: per-query routing (lineage + partition lookup).
    pub const ROUTE: &str = "route";
    /// Sharded phase 2: per-item evaluation on a shard worker.
    pub const SHARD_EVAL: &str = "shard_eval";
    /// Unsharded session: per-query evaluation on a stripe worker.
    pub const SESSION_EVAL: &str = "session_eval";
    /// Resilience ladder rung 1: the exact inner backend.
    pub const EXACT_RUNG: &str = "exact_rung";
    /// Resilience ladder rung 2: bounded-exact synthesis.
    pub const BOUNDED_RUNG: &str = "bounded_rung";
    /// Resilience ladder rung 3: Monte Carlo estimation.
    pub const MC_RUNG: &str = "mc_rung";
    /// Cross-shard/quarantine fallback on the unsharded oracle.
    pub const ORACLE: &str = "oracle";
    /// Serving layer: admission control (`MvdbServer::submit`).
    pub const ADMIT: &str = "admit";
    /// Serving layer: a worker dispatching an admitted request.
    pub const DISPATCH: &str = "dispatch";
    /// Serving layer: a worker's heartbeat tick. `panic` kills the worker
    /// thread (supervision respawns it); `deadline` stalls it past the
    /// heartbeat timeout (supervision quarantines it as wedged).
    pub const HEARTBEAT: &str = "heartbeat";
    /// Serving layer: the per-worker arena compaction pass.
    pub const COMPACT: &str = "compact";
    /// Serving layer: applying an update batch to the writer's engine
    /// clone (`MvdbServer::submit_update`, before the apply runs).
    pub const UPDATE_APPLY: &str = "update_apply";
    /// Serving layer: publishing an updated engine snapshot (after the
    /// apply succeeded, before readers can see the new snapshot).
    pub const UPDATE_SWAP: &str = "update_swap";

    /// Every site, for sweeps ("inject at each site in turn").
    pub const ALL: &[&str] = &[
        ROUTE,
        SHARD_EVAL,
        SESSION_EVAL,
        EXACT_RUNG,
        BOUNDED_RUNG,
        MC_RUNG,
        ORACLE,
        ADMIT,
        DISPATCH,
        HEARTBEAT,
        COMPACT,
        UPDATE_APPLY,
        UPDATE_SWAP,
    ];
}

/// The kinds of fault a chaos rule can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// Panic at the site (must be caught by an isolation boundary).
    Panic,
    /// Behave as if the wall-clock deadline just passed.
    Deadline,
    /// Behave as if the work budget just ran out.
    Budget,
}

impl Fault {
    fn tag(self) -> u64 {
        match self {
            Fault::Panic => 1,
            Fault::Deadline => 2,
            Fault::Budget => 3,
        }
    }

    /// The spec keyword (`panic`/`deadline`/`budget`).
    pub fn name(self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Deadline => "deadline",
            Fault::Budget => "budget",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "panic" => Ok(Fault::Panic),
            "deadline" => Ok(Fault::Deadline),
            "budget" => Ok(Fault::Budget),
            other => Err(format!(
                "unknown fault kind `{other}` (expected panic, deadline or budget)"
            )),
        }
    }
}

/// One fault rule: at `site`, inject `fault` on a `rate` fraction of calls.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRule {
    /// The site label (see [`sites`]).
    pub site: String,
    /// What to inject.
    pub fault: Fault,
    /// Injection probability per draw, in `[0, 1]`.
    pub rate: f64,
}

/// A seeded fault-injection campaign: a seed plus a set of site rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the deterministic injection stream.
    pub seed: u64,
    /// The active rules.
    pub rules: Vec<ChaosRule>,
}

impl ChaosConfig {
    /// An empty campaign under the given seed.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule (builder style).
    pub fn rule(mut self, site: &str, fault: Fault, rate: f64) -> Self {
        self.rules.push(ChaosRule {
            site: site.to_string(),
            fault,
            rate,
        });
        self
    }

    /// Parses a spec of the form
    /// `seed=42;route:panic=0.01;exact_rung:budget=0.05`. Entries are
    /// `;`-separated; `seed=N` may appear anywhere (default 0); every other
    /// entry is `site:fault=rate`. Malformed entries — a missing `=`, an
    /// unknown site or fault keyword, a rate outside `[0, 1]` — are hard
    /// errors, never silently dropped: a typo'd campaign must not let a
    /// "chaos" run pass without injecting anything.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut config = ChaosConfig::new(0);
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("chaos entry `{entry}` has no `=`"))?;
            if key.trim() == "seed" {
                config.seed = value
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad chaos seed `{value}`: {e}"))?;
                continue;
            }
            let (site, fault) = key
                .trim()
                .split_once(':')
                .ok_or_else(|| format!("chaos entry `{entry}` is not `site:fault=rate`"))?;
            let site = site.trim();
            if !sites::ALL.contains(&site) {
                return Err(format!(
                    "unknown chaos site `{site}` (known sites: {})",
                    sites::ALL.join(", ")
                ));
            }
            let fault = Fault::parse(fault.trim())?;
            let rate: f64 = value
                .trim()
                .parse()
                .map_err(|e| format!("bad chaos rate `{value}`: {e}"))?;
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(format!("chaos rate {rate} is outside [0, 1]"));
            }
            config.rules.push(ChaosRule {
                site: site.to_string(),
                fault,
                rate,
            });
        }
        Ok(config)
    }

    /// Reads a campaign from the `MV_CHAOS` environment variable, if set.
    /// A malformed spec is an error (silently ignoring a typo'd campaign
    /// would let a "chaos" CI job pass without injecting anything).
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("MV_CHAOS") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }
}

struct ActiveRule {
    fault: Fault,
    rate: f64,
    /// Per-rule draw counter — the `n` in `hash(seed, site, fault, n)`.
    draws: AtomicU64,
    injected: AtomicU64,
}

struct ChaosState {
    seed: u64,
    /// site → its rules, checked in config order.
    rules: BTreeMap<String, Vec<ActiveRule>>,
}

/// `true` iff some chaos config is installed (the production fast path).
static ACTIVE: AtomicBool = AtomicBool::new(false);
static STATE: RwLock<Option<ChaosState>> = RwLock::new(None);
/// Serialises campaigns: held by the [`ChaosGuard`] for its whole lifetime
/// so concurrent tests cannot see each other's faults.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());

/// A process-wide panic hook, as accepted by [`std::panic::set_hook`].
type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// Uninstalls the chaos config (and releases the campaign lock) on drop.
#[must_use = "chaos uninstalls when the guard drops"]
pub struct ChaosGuard {
    _lock: MutexGuard<'static, ()>,
    previous_hook: Option<PanicHook>,
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *STATE.write().unwrap_or_else(PoisonError::into_inner) = None;
        if let Some(hook) = self.previous_hook.take() {
            std::panic::set_hook(hook);
        }
    }
}

impl std::fmt::Debug for ChaosGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChaosGuard")
    }
}

/// Installs a campaign process-wide and returns the scope guard. Blocks
/// until any previous campaign's guard has dropped.
pub fn install(config: ChaosConfig) -> ChaosGuard {
    // A previous guard-holder panicking mid-campaign must not wedge every
    // later chaos test: the poison is benign because we overwrite the state.
    let lock = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rules: BTreeMap<String, Vec<ActiveRule>> = BTreeMap::new();
    for rule in &config.rules {
        rules
            .entry(rule.site.clone())
            .or_default()
            .push(ActiveRule {
                fault: rule.fault,
                rate: rule.rate,
                draws: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            });
    }
    *STATE.write().unwrap_or_else(PoisonError::into_inner) = Some(ChaosState {
        seed: config.seed,
        rules,
    });
    ACTIVE.store(true, Ordering::SeqCst);
    // Injected panics are caught at the isolation boundaries by design;
    // letting each one run the default hook would bury real output under
    // thousands of backtraces. Forward everything else unchanged.
    let previous_hook = std::panic::take_hook();
    let forward = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with(PANIC_PREFIX));
        if !injected {
            forward(info);
        }
    }));
    ChaosGuard {
        _lock: lock,
        previous_hook: Some(previous_hook),
    }
}

/// The empty campaign, for tests that expect *no* injection: chaos rules are
/// process-global, so such a test holds the campaign lock (with no rules)
/// to keep a sibling test's faults off its evaluations.
#[cfg(test)]
pub(crate) fn quiet() -> ChaosGuard {
    install(ChaosConfig::new(0))
}

/// Message prefix of every chaos-injected panic; the install-scoped panic
/// hook uses it to keep injected panics out of stderr.
const PANIC_PREFIX: &str = "chaos: injected panic";

/// `true` while a campaign is installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// splitmix64-style finalizer: decorrelates the structured input words.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn site_hash(site: &str) -> u64 {
    // FNV-1a, matching the repo's other stable string hashes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Uniform in `[0, 1)` from the top 53 bits.
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draws the site's rules once and returns the first fault that fires.
/// With no campaign installed this is one relaxed load.
pub fn inject(site: &str) -> Option<Fault> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    let state = STATE.read().unwrap_or_else(PoisonError::into_inner);
    let state = state.as_ref()?;
    let rules = state.rules.get(site)?;
    for rule in rules {
        let n = rule.draws.fetch_add(1, Ordering::Relaxed);
        let h = mix(state.seed ^ site_hash(site).rotate_left(17) ^ rule.fault.tag() << 56)
            .wrapping_add(mix(n));
        if u01(mix(h)) < rule.rate {
            rule.injected.fetch_add(1, Ordering::Relaxed);
            return Some(rule.fault);
        }
    }
    None
}

/// Draws the site and *applies* the fault: panics for [`Fault::Panic`]
/// (to be caught at the nearest isolation boundary), or returns the
/// matching degradable [`CoreError`](crate::CoreError) for deadline/budget
/// pressure. `Ok(())` when nothing fires.
pub fn apply(site: &'static str) -> crate::Result<()> {
    inject(site).map_or(Ok(()), |fault| raise(site, fault))
}

/// Applies a fault that [`inject`] drew for `site` earlier (see
/// [`apply`]) — for a site whose draws must happen in a fixed order while
/// its faults fire on worker threads.
pub(crate) fn raise(site: &'static str, fault: Fault) -> crate::Result<()> {
    match fault {
        Fault::Panic => panic!("chaos: injected panic at site `{site}`"),
        Fault::Deadline => Err(crate::CoreError::DeadlineExceeded {
            elapsed: std::time::Duration::ZERO,
        }),
        Fault::Budget => Err(crate::CoreError::BudgetExceeded { steps: 0, limit: 0 }),
    }
}

/// Per-rule injection counts of the installed campaign:
/// `(site, fault, draws, injected)`, in site order.
pub fn injection_counts() -> Vec<(String, Fault, u64, u64)> {
    let state = STATE.read().unwrap_or_else(PoisonError::into_inner);
    let Some(state) = state.as_ref() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (site, rules) in &state.rules {
        for rule in rules {
            out.push((
                site.clone(),
                rule.fault,
                rule.draws.load(Ordering::Relaxed),
                rule.injected.load(Ordering::Relaxed),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_env_spec() {
        let c = ChaosConfig::parse("seed=42; route:panic=0.01; exact_rung:budget=0.5").unwrap();
        assert_eq!(c.seed, 42);
        assert_eq!(c.rules.len(), 2);
        assert_eq!(c.rules[0].site, "route");
        assert_eq!(c.rules[0].fault, Fault::Panic);
        assert!((c.rules[0].rate - 0.01).abs() < 1e-12);
        assert_eq!(c.rules[1].fault, Fault::Budget);
        assert!(ChaosConfig::parse("route:explode=0.1").is_err());
        assert!(ChaosConfig::parse("route:panic=1.5").is_err());
        assert!(ChaosConfig::parse("gibberish").is_err());
    }

    #[test]
    fn parse_rejects_unknown_sites_with_a_descriptive_error() {
        let err = ChaosConfig::parse("warp_core:panic=0.1").unwrap_err();
        assert!(err.contains("unknown chaos site `warp_core`"), "{err}");
        // The error names the valid sites, so a typo is self-diagnosing.
        assert!(err.contains(sites::ROUTE), "{err}");
        assert!(err.contains(sites::HEARTBEAT), "{err}");
        // A valid rule before the bad one does not rescue the spec.
        assert!(ChaosConfig::parse("route:panic=0.1;warp_core:panic=0.1").is_err());
    }

    #[test]
    fn parse_accepts_every_known_site() {
        for site in sites::ALL {
            let spec = format!("{site}:deadline=0.5");
            let c = ChaosConfig::parse(&spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(c.rules.len(), 1);
            assert_eq!(c.rules[0].site, *site);
        }
    }

    #[test]
    fn parse_edge_cases_empty_spec_and_rate_bounds() {
        // Empty and whitespace-only specs are valid no-op campaigns.
        let empty = ChaosConfig::parse("").unwrap();
        assert_eq!(empty, ChaosConfig::new(0));
        let blank = ChaosConfig::parse(" ;  ; ").unwrap();
        assert!(blank.rules.is_empty());
        // Rate bounds are inclusive; NaN and out-of-range are rejected.
        assert!(ChaosConfig::parse("route:panic=0.0").is_ok());
        assert!(ChaosConfig::parse("route:panic=1.0").is_ok());
        assert!(ChaosConfig::parse("route:panic=-0.1").is_err());
        assert!(ChaosConfig::parse("route:panic=NaN").is_err());
        assert!(ChaosConfig::parse("route:panic=").is_err());
        // Seed entries parse anywhere; malformed seeds are errors.
        assert!(ChaosConfig::parse("seed=not_a_number").is_err());
        assert_eq!(
            ChaosConfig::parse("oracle:budget=0.2;seed=9").unwrap().seed,
            9
        );
    }

    #[test]
    fn uninstalled_chaos_never_fires() {
        // Hold the campaign lock so no parallel test installs mid-assert.
        let _lock = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(inject(sites::ROUTE), None);
        assert!(apply(sites::ORACLE).is_ok());
        assert!(!active());
    }

    #[test]
    fn injection_counts_are_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let _guard = install(ChaosConfig::new(seed).rule(sites::ROUTE, Fault::Panic, 0.25));
            (0..4_000)
                .filter(|_| inject(sites::ROUTE).is_some())
                .count()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must inject identically");
        assert_ne!(a, c, "different seeds should differ");
        // Rate 0.25 over 4000 draws: the count should be near 1000.
        assert!((700..1300).contains(&a), "count {a} far from the rate");
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never_does() {
        let _guard = install(
            ChaosConfig::new(1)
                .rule(sites::EXACT_RUNG, Fault::Budget, 1.0)
                .rule(sites::MC_RUNG, Fault::Deadline, 0.0),
        );
        for _ in 0..64 {
            assert_eq!(inject(sites::EXACT_RUNG), Some(Fault::Budget));
            assert_eq!(inject(sites::MC_RUNG), None);
        }
        let counts = injection_counts();
        assert_eq!(counts.len(), 2);
        assert_eq!(
            counts[0],
            (sites::EXACT_RUNG.to_string(), Fault::Budget, 64, 64)
        );
        assert_eq!(
            counts[1],
            (sites::MC_RUNG.to_string(), Fault::Deadline, 64, 0)
        );
    }

    #[test]
    fn apply_maps_faults_to_degradable_errors() {
        let _guard = install(
            ChaosConfig::new(3)
                .rule(sites::BOUNDED_RUNG, Fault::Deadline, 1.0)
                .rule(sites::SHARD_EVAL, Fault::Panic, 1.0),
        );
        let err = apply(sites::BOUNDED_RUNG).unwrap_err();
        assert!(err.is_degradable(), "{err}");
        let panicked = std::panic::catch_unwind(|| apply(sites::SHARD_EVAL)).is_err();
        assert!(panicked);
    }

    #[test]
    fn guard_drop_uninstalls() {
        {
            let _guard = install(ChaosConfig::new(5).rule(sites::ORACLE, Fault::Panic, 1.0));
            assert!(active());
        }
        // Re-acquire the lock: a parallel test may install in the gap.
        let _lock = INSTALL_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(!active());
        assert_eq!(inject(sites::ORACLE), None);
    }
}
