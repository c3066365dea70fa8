//! `aire-vdb` — the versioned database substrate.
//!
//! The paper's prototype modifies the Django ORM so that every write to a
//! model object transparently creates a new *version*, reads fetch the
//! latest version during normal execution and "the correct past version
//! during local repair", and rollback of an object to time `t` "delet\[es\]
//! all versions after `t`" (§6). This crate is that storage engine, built
//! from scratch:
//!
//! * [`Schema`] — runtime-defined tables with unique-key and foreign-key
//!   metadata (used for dependency tracking, §6) and the
//!   `AppVersionedModel` flag of §6 ("Repair for a versioned API").
//! * [`VersionedStore`] — per-row version chains over [`Jv`] documents,
//!   with reads *as of* any [`LogicalTime`], rollback-to-time, archived
//!   (audit) versions, and garbage collection (§9).
//! * [`Filter`] — conjunctive predicates for scans. Scans report their
//!   predicate footprint so the repair log can detect *phantom*
//!   dependencies: a repaired insert must taint past scans whose predicate
//!   it matches even though they never read that row id.
//! * [`index`](mod@index) — secondary equality indexes over fields
//!   declared with [`Schema::with_index`]. Scans push equality
//!   predicates down to the index (falling back to the full walk) and
//!   the recovery mutations — rollback, GC, restore — keep the index
//!   consistent, so filtered reads stay fast *during* repair.
//! * [`access`](mod@access) — the request→row access graph: every
//!   database operation recorded as a `(request, table, row-id,
//!   read|write)` edge, the substrate for Ancora-style taint closure
//!   and selective re-execution (`aire-core::taint`).
//!
//! The store itself is deliberately policy-free: it does not know about
//! requests or repair. The repair controller drives it through rollback
//! and timestamped writes, and the logger records the version references
//! that reads and writes return.
//!
//! [`Jv`]: aire_types::Jv
//! [`LogicalTime`]: aire_types::LogicalTime

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod access;
pub mod filter;
pub mod index;
pub mod schema;
pub mod store;
pub mod version;

pub use access::{AccessGraph, AccessKind, AccessStats};
pub use filter::Filter;
pub use index::{ScanPlan, TableIndexes};
pub use schema::{FieldDef, FieldKind, Schema};
pub use store::{StoreError, StoreStats, VersionedStore, WriteOutcome};
pub use version::{RowKey, Version};
