//! `aire-workload` — workload generators, attack scenarios, and the
//! harnesses that regenerate the paper's tables and figures.
//!
//! * [`client`] — a scripted browser: cookie jars, no Aire headers
//!   (browser responses are not repairable, §2.3).
//! * [`scenarios`] — the four intrusion-recovery scenarios of §7.1
//!   (Figure 4's Askbot/OAuth/Dpaste attack and Figure 5's three
//!   spreadsheet attacks), the partial-repair experiments of §7.2, and
//!   the Figure 2 / Figure 3 API-contract scenarios.
//! * [`overhead`] — the Table 4 harness: Askbot read-heavy and
//!   write-heavy workloads with and without Aire, throughput and
//!   per-request storage.
//! * [`report`] — renders every table and figure in the paper's format.

#![deny(unsafe_code)]

pub mod client;
pub mod overhead;
pub mod report;
pub mod scenarios;

pub use client::Browser;
