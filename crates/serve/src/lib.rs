//! # hotnoc-serve — the long-running submission daemon
//!
//! Batch invocations (`hotnoc scenario run`, `hotnoc campaign run`) pay
//! process start-up, chip calibration and thread-pool spin-up on every
//! call. `hotnoc serve` keeps one resident process warm instead: it
//! listens on a unix-domain socket (or TCP), accepts newline-JSON
//! scenario/campaign submissions, schedules them on a shared `minipool`,
//! and streams outcome records back as newline-JSON responses tagged with
//! the client's request id.
//!
//! * [`protocol`] — the wire protocol: request parsing (ping / shutdown /
//!   submit), response rendering, and the [`protocol::Endpoint`] address
//!   model shared by daemon and client.
//! * [`server`] — [`server::serve`]: the blocking accept loop, the fixed
//!   connection handler threads behind a bounded queue, the result cache
//!   keyed by `(FNV-1a spec fingerprint, seed)`, the
//!   `hotnoc-serve-journal-v1` persistence journal, and graceful drain.
//! * [`client`] — [`client::request`] and friends: what `hotnoc submit`
//!   and `hotnoc serve --shutdown` are built on.
//!
//! ## Determinism contract
//!
//! A repeat submission of a byte-identical spec returns byte-identical
//! response lines without recomputation. Responses deliberately carry no
//! "served from cache" marker — the evidence lives on the observability
//! plane instead ([`hotnoc_obs::TraceEvent::CacheHit`] events in the
//! daemon's shutdown trace, plus a stderr log line), so cached and
//! computed responses can be compared with `cmp`. The normative protocol
//! reference is `docs/SERVING.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{ping, request, response_status, shutdown, submit_line};
pub use protocol::{Endpoint, Request, Submission, JOURNAL_SCHEMA};
pub use server::{serve, ServeError, ServeOptions, ServeSummary};
