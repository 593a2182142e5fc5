//! # hg-detector — CAI threat detection engine
//!
//! Implements paper §VI: given the rules of installed apps, detect the seven
//! Cross-App Interference threat categories of Table I:
//!
//! | Category | Kinds | Section |
//! |---|---|---|
//! | Action-Interference | Actuator Race (AR), Goal Conflict (GC) | §VI-A |
//! | Trigger-Interference | Covert Triggering (CT), Self Disabling (SD), Loop Triggering (LT) | §VI-B |
//! | Condition-Interference | Enabling (EC), Disabling (DC) | §VI-C |
//!
//! plus chained (indirect) threats through user-allowed pairs (§VI-D,
//! [`chained`]).
//!
//! Detection per pair is candidate filtering (action analysis over the
//! M_AR/M_GC maps from `hg-capability`) followed by overlapping-condition
//! detection via `hg-solver`, with solver-result reuse across threat kinds
//! as in the paper's Fig. 9.
//!
//! For serving installs against a large population, the per-pair filter is
//! lifted into a persistent candidate index ([`index`]) driven by the
//! incremental [`DetectionEngine`] ([`incremental`]): installed rules are
//! prepared (unified + faceted) once, and a new rule visits only the
//! index-colliding subset — provably reporting the same threat set as the
//! exhaustive pairwise sweep.
//!
//! # Examples
//!
//! ```
//! use hg_detector::{Detector, ThreatKind};
//! use hg_symexec::{extract, ExtractorConfig};
//!
//! // Two apps race on the same (type-unified) light.
//! let a = extract(r#"
//!     input "m", "capability.motionSensor"
//!     input "lamp", "capability.switch", title: "lamp"
//!     def installed() { subscribe(m, "motion", h) }
//!     def h(evt) { if (evt.value == "active") { lamp.on() } }
//! "#, "A", &ExtractorConfig::default()).unwrap();
//! let b = extract(r#"
//!     input "m", "capability.motionSensor"
//!     input "lamp", "capability.switch", title: "lamp"
//!     def installed() { subscribe(m, "motion", h) }
//!     def h(evt) { if (evt.value == "active") { lamp.off() } }
//! "#, "B", &ExtractorConfig::default()).unwrap();
//!
//! let detector = Detector::store_wide();
//! let (threats, _) = detector.detect_pair(&a.rules[0], &b.rules[0]);
//! assert!(threats.iter().any(|t| t.kind == ThreatKind::ActuatorRace));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chained;
pub mod engine;
pub mod incremental;
pub mod index;
pub mod overlap;
pub mod report;
pub mod verdict_cache;

pub use chained::{find_chains, Chain, Edge};
pub use engine::Detector;
pub use incremental::DetectionEngine;
pub use index::{actuator_key, CandidateIndex, PreparedRule};
pub use overlap::{OverlapSolver, Unification, UserValues};
pub use report::{DetectStats, Threat, ThreatKind};
pub use verdict_cache::{CacheStats, HotPair, PairKey, VerdictCache};
