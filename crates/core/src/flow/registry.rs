//! Global pass and strategy registries.
//!
//! Every pass slot of a [`crate::FlowSpec`] and every strategy id resolves
//! through these registries. Built-ins are installed on first access;
//! out-of-tree crates add their own implementations with the `register_*`
//! functions — typically once at startup:
//!
//! ```
//! use rchls_core::flow::{self, Scheduler};
//! use rchls_dfg::Dfg;
//! use rchls_sched::{schedule_density, Delays, Schedule, ScheduleError};
//! use std::sync::Arc;
//!
//! /// An out-of-tree scheduler: density scheduling with a post-check.
//! #[derive(Debug)]
//! struct AuditedDensity;
//!
//! impl Scheduler for AuditedDensity {
//!     fn id(&self) -> &str {
//!         "audited-density"
//!     }
//!     fn schedule(
//!         &self,
//!         dfg: &Dfg,
//!         delays: &Delays,
//!         latency: u32,
//!     ) -> Result<Schedule, ScheduleError> {
//!         let s = schedule_density(dfg, delays, latency)?;
//!         s.validate(dfg, delays)?;
//!         Ok(s)
//!     }
//! }
//!
//! flow::register_scheduler(Arc::new(AuditedDensity)).unwrap();
//! assert!(flow::scheduler_ids().iter().any(|id| id == "audited-density"));
//! // Any FlowSpec naming the id now composes it:
//! let spec = rchls_core::FlowSpec::default().with_scheduler("audited-density");
//! assert!(spec.resolve().is_ok());
//! ```

use crate::flow::passes::{
    Binder, ColoringBinder, ColoringReferenceBinder, DensityReferenceScheduler, DensityScheduler,
    ForceDirectedReferenceScheduler, ForceDirectedScheduler, LeftEdgeBinder,
    LeftEdgeReferenceBinder, MaxDelayVictim, MinReliabilityLossVictim, NoRefine, RefinePass,
    Scheduler, VictimPolicy,
};
use crate::flow::refine::{GreedyReferenceRefine, GreedyRefine};
use crate::flow::strategy::{Baseline, Combined, Ours, Pipelined, Redundancy, Strategy};
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// Registering a pass or strategy failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryError {
    kind: &'static str,
    id: String,
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a {} with id {:?} is already registered",
            self.kind, self.id
        )
    }
}

impl std::error::Error for RegistryError {}

/// One id-keyed table. Insertion order is preserved (built-ins first),
/// so listings are deterministic.
struct Table<T: ?Sized> {
    kind: &'static str,
    entries: RwLock<Vec<(String, Arc<T>)>>,
}

impl<T: ?Sized> Table<T> {
    fn new(kind: &'static str, builtins: Vec<(String, Arc<T>)>) -> Table<T> {
        Table {
            kind,
            entries: RwLock::new(builtins),
        }
    }

    fn get(&self, id: &str) -> Option<Arc<T>> {
        crate::sync::read_unpoisoned(&self.entries)
            .iter()
            .find(|(k, _)| k == id)
            .map(|(_, v)| Arc::clone(v))
    }

    fn ids(&self) -> Vec<String> {
        crate::sync::read_unpoisoned(&self.entries)
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    fn insert(&self, id: String, value: Arc<T>) -> Result<(), RegistryError> {
        let mut entries = crate::sync::write_unpoisoned(&self.entries);
        if entries.iter().any(|(k, _)| *k == id) {
            return Err(RegistryError {
                kind: self.kind,
                id,
            });
        }
        entries.push((id, value));
        Ok(())
    }
}

struct Registries {
    schedulers: Table<dyn Scheduler>,
    binders: Table<dyn Binder>,
    victims: Table<dyn VictimPolicy>,
    refines: Table<dyn RefinePass>,
    strategies: Table<dyn Strategy>,
}

fn registries() -> &'static Registries {
    static REGISTRIES: OnceLock<Registries> = OnceLock::new();
    REGISTRIES.get_or_init(|| {
        let sched = |s: Arc<dyn Scheduler>| (s.id().to_owned(), s);
        let bind = |b: Arc<dyn Binder>| (b.id().to_owned(), b);
        let vict = |v: Arc<dyn VictimPolicy>| (v.id().to_owned(), v);
        let refi = |r: Arc<dyn RefinePass>| (r.id().to_owned(), r);
        let strat = |s: Arc<dyn Strategy>| (s.id().to_owned(), s);
        Registries {
            schedulers: Table::new(
                "scheduler",
                vec![
                    sched(Arc::new(DensityScheduler)),
                    sched(Arc::new(ForceDirectedScheduler)),
                    sched(Arc::new(DensityReferenceScheduler)),
                    sched(Arc::new(ForceDirectedReferenceScheduler)),
                ],
            ),
            binders: Table::new(
                "binder",
                vec![
                    bind(Arc::new(LeftEdgeBinder)),
                    bind(Arc::new(ColoringBinder)),
                    bind(Arc::new(LeftEdgeReferenceBinder)),
                    bind(Arc::new(ColoringReferenceBinder)),
                ],
            ),
            victims: Table::new(
                "victim policy",
                vec![
                    vict(Arc::new(MaxDelayVictim)),
                    vict(Arc::new(MinReliabilityLossVictim)),
                ],
            ),
            refines: Table::new(
                "refine pass",
                vec![
                    refi(Arc::new(GreedyRefine)),
                    refi(Arc::new(NoRefine)),
                    refi(Arc::new(GreedyReferenceRefine)),
                ],
            ),
            strategies: Table::new(
                "strategy",
                vec![
                    strat(Arc::new(Baseline)),
                    strat(Arc::new(Ours)),
                    strat(Arc::new(Combined)),
                    strat(Arc::new(Pipelined::auto())),
                    strat(Arc::new(Redundancy)),
                ],
            ),
        }
    })
}

/// Looks up a scheduler by id.
#[must_use]
pub fn scheduler(id: &str) -> Option<Arc<dyn Scheduler>> {
    registries().schedulers.get(id)
}

/// Looks up a binder by id.
#[must_use]
pub fn binder(id: &str) -> Option<Arc<dyn Binder>> {
    registries().binders.get(id)
}

/// Looks up a victim policy by id.
#[must_use]
pub fn victim_policy(id: &str) -> Option<Arc<dyn VictimPolicy>> {
    registries().victims.get(id)
}

/// Looks up a refine pass by id.
#[must_use]
pub fn refine_pass(id: &str) -> Option<Arc<dyn RefinePass>> {
    registries().refines.get(id)
}

/// Looks up a strategy by id.
///
/// A registered id matches exactly. On a miss, the parametric ids of the
/// built-in [`Pipelined`] strategy resolve too: `pipelined@auto` and
/// `pipelined@ii=N` for `N ≥ 1`, the tokens it writes into cache keys and
/// store entries (see [`Strategy::fingerprint_token`]). Only canonical
/// spellings resolve, so `pipelined@ii=0`, `pipelined@ii=03` and
/// `ours@ii=2` are unknown ids.
#[must_use]
pub fn strategy(id: &str) -> Option<Arc<dyn Strategy>> {
    registries()
        .strategies
        .get(id)
        .or_else(|| parametric_strategy(id))
}

/// Builds the [`Pipelined`] instance a parametric id names, if `id` is
/// exactly the fingerprint token of that instance.
fn parametric_strategy(id: &str) -> Option<Arc<dyn Strategy>> {
    let pipelined = match id.strip_prefix("pipelined@")? {
        "auto" => Pipelined::auto(),
        param => {
            let ii = param.strip_prefix("ii=")?.parse::<u32>().ok();
            Pipelined::with_ii(ii.filter(|&ii| ii > 0)?)
        }
    };
    (pipelined.fingerprint_token() == id).then(|| Arc::new(pipelined) as Arc<dyn Strategy>)
}

/// Registered scheduler ids, built-ins first then registration order.
#[must_use]
pub fn scheduler_ids() -> Vec<String> {
    registries().schedulers.ids()
}

/// Registered binder ids, built-ins first then registration order.
#[must_use]
pub fn binder_ids() -> Vec<String> {
    registries().binders.ids()
}

/// Registered victim-policy ids, built-ins first then registration order.
#[must_use]
pub fn victim_policy_ids() -> Vec<String> {
    registries().victims.ids()
}

/// Registered refine-pass ids, built-ins first then registration order.
#[must_use]
pub fn refine_pass_ids() -> Vec<String> {
    registries().refines.ids()
}

/// Registered strategy ids, built-ins first then registration order.
#[must_use]
pub fn strategy_ids() -> Vec<String> {
    registries().strategies.ids()
}

/// Registers an out-of-tree scheduler under its [`Scheduler::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken (built-ins
/// cannot be replaced).
pub fn register_scheduler(pass: Arc<dyn Scheduler>) -> Result<(), RegistryError> {
    registries().schedulers.insert(pass.id().to_owned(), pass)
}

/// Registers an out-of-tree binder under its [`Binder::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken.
pub fn register_binder(pass: Arc<dyn Binder>) -> Result<(), RegistryError> {
    registries().binders.insert(pass.id().to_owned(), pass)
}

/// Registers an out-of-tree victim policy under its [`VictimPolicy::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken.
pub fn register_victim_policy(pass: Arc<dyn VictimPolicy>) -> Result<(), RegistryError> {
    registries().victims.insert(pass.id().to_owned(), pass)
}

/// Registers an out-of-tree refine pass under its [`RefinePass::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken.
pub fn register_refine_pass(pass: Arc<dyn RefinePass>) -> Result<(), RegistryError> {
    registries().refines.insert(pass.id().to_owned(), pass)
}

/// Registers an out-of-tree strategy under its [`Strategy::id`].
///
/// # Errors
///
/// Returns a [`RegistryError`] when the id is already taken.
pub fn register_strategy(strategy: Arc<dyn Strategy>) -> Result<(), RegistryError> {
    registries()
        .strategies
        .insert(strategy.id().to_owned(), strategy)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_are_always_present() {
        for id in [
            "density",
            "force-directed",
            "density-reference",
            "force-directed-reference",
        ] {
            assert!(scheduler(id).is_some(), "{id}");
        }
        for id in [
            "left-edge",
            "coloring",
            "left-edge-reference",
            "coloring-reference",
        ] {
            assert!(binder(id).is_some(), "{id}");
        }
        for id in ["max-delay", "min-reliability-loss"] {
            assert!(victim_policy(id).is_some(), "{id}");
        }
        for id in ["greedy", "off", "greedy-reference"] {
            assert!(refine_pass(id).is_some(), "{id}");
        }
        for id in ["baseline", "ours", "combined", "pipelined", "redundancy"] {
            assert!(strategy(id).is_some(), "{id}");
        }
        assert!(scheduler("nope").is_none());
        assert!(strategy("nope").is_none());
    }

    #[test]
    fn id_listings_lead_with_builtins() {
        assert_eq!(scheduler_ids()[0], "density");
        assert_eq!(binder_ids()[0], "left-edge");
        assert_eq!(victim_policy_ids()[0], "max-delay");
        assert_eq!(refine_pass_ids()[0], "greedy");
        assert_eq!(strategy_ids()[0], "baseline");
    }

    #[test]
    fn every_builtin_token_names_its_strategy() {
        let mut tokens: Vec<String> = strategy_ids()
            .iter()
            .map(|id| strategy(id).unwrap().fingerprint_token())
            .collect();
        tokens.extend((1..=16).map(|ii| Pipelined::with_ii(ii).fingerprint_token()));
        tokens.push(Pipelined::with_ii(u32::MAX).fingerprint_token());
        for token in tokens {
            let resolved = strategy(&token).unwrap_or_else(|| panic!("{token} does not resolve"));
            assert_eq!(resolved.fingerprint_token(), token);
        }
    }

    #[test]
    fn non_canonical_parametric_ids_are_unknown() {
        for id in [
            "pipelined@ii=0",
            "pipelined@ii=03",
            "pipelined@ii=+3",
            "pipelined@ii=",
            "pipelined@ii=x",
            "pipelined@ii= 3",
            "pipelined@ii=4294967296",
            "pipelined@",
            "pipelined@Auto",
            "pipelined@auto ",
            "ours@ii=2",
            "ours@auto",
        ] {
            assert!(strategy(id).is_none(), "{id}");
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let err = register_scheduler(Arc::new(DensityScheduler)).unwrap_err();
        assert!(err.to_string().contains("density"));
        assert!(register_binder(Arc::new(LeftEdgeBinder)).is_err());
        assert!(register_victim_policy(Arc::new(MaxDelayVictim)).is_err());
        assert!(register_refine_pass(Arc::new(NoRefine)).is_err());
        assert!(register_strategy(Arc::new(Ours)).is_err());
    }
}
