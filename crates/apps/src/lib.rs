//! `aire-apps` — the web applications of the paper's evaluation (§7).
//!
//! The paper evaluates Aire on real Django applications; this crate
//! re-implements the slices of them the evaluation exercises, on top of
//! `aire-web`:
//!
//! * [`oauth`] — a Django-OAuth-like provider with the debug
//!   email-verification flag whose misconfiguration is the Figure 4
//!   vulnerability.
//! * [`askbot`] — the Q&A forum: OAuth signup, questions/answers/votes,
//!   automatic cross-posting of code snippets to Dpaste, and the daily
//!   summary email (the external event needing compensation).
//! * [`dpaste`] — the pastebin Askbot cross-posts code to.
//! * [`spreadsheet`] — the authors' spreadsheet service with trigger
//!   scripts, used for the ACL-distribution and data-synchronization
//!   scenarios of Figure 5.
//! * [`company`] — the §1 motivating example: a centralized
//!   access-control service pushing permissions to a Salesforce-like CRM
//!   and a Workday-like employee-management service.
//! * [`objstore`] — an S3-like PUT/GET store (Figure 2).
//! * [`vkv`] — the branching versioned key-value store of Figure 3 and
//!   §5.2, whose immutable versions live in an `AppVersionedModel`
//!   table.
//! * [`observer`] — a minimal Aire-enabled client service that fetches
//!   and records values from another service; gives Figure 2's "client
//!   A" a notifier URL so its responses are repairable.
//! * [`policy`] — shared repair access-control policies (§4): the
//!   same-principal rule of §7.2 plus an administrator override.
//! * [`apis`] — the Table 3 catalogue of commercial API shapes and the
//!   mapping onto the interface classes this crate implements.
//! * [`noded`] — the `aire-noded` daemon: one service per OS process
//!   behind real TCP listeners, dialling its peers over
//!   `aire-transport` (the paper's per-service Django deployments).

#![deny(unsafe_code)]

pub mod apis;
pub mod askbot;
pub mod company;
pub mod dpaste;
pub mod noded;
pub mod oauth;
pub mod objstore;
pub mod observer;
pub mod policy;
pub mod spreadsheet;
pub mod vkv;

pub use askbot::Askbot;
pub use company::{AccessCtl, Crm, Hrm};
pub use dpaste::Dpaste;
pub use oauth::OAuthProvider;
pub use objstore::ObjStore;
pub use observer::Observer;
pub use spreadsheet::Spreadsheet;
pub use vkv::VersionedKv;
