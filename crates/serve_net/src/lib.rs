//! Network serving front end: a std-only TCP server for the ranking
//! engine.
//!
//! The serving engine in `datatrans-core` answers batches of
//! [`RankRequest`](datatrans_core::serve::RankRequest)s in process. This
//! crate puts it behind a socket without changing any of its semantics:
//!
//! - [`protocol`] — the line-oriented wire grammar (`rank ...` in, one
//!   `ok`/`err` line out) with typed parse errors. A malformed line gets
//!   an error line back; it never kills the connection or a batch.
//! - [`server`] — the threaded TCP server: each connection's reader
//!   answers cache hits itself from a result cache it shares with a
//!   single batcher, and the batcher evaluates whatever misses are
//!   queued, from every connection, in one
//!   [`serve_batch`](datatrans_core::serve::serve_batch) pool pass the
//!   moment it is free, with no timer. Per-connection in-flight budgets
//!   provide backpressure, and shutdown drains in-flight work before
//!   closing.
//!
//! Determinism carries over the wire: responses are rendered with
//! bitwise round-trip float formatting, so the bytes a client reads are a
//! faithful serialization of the in-process
//! [`RankResponse`](datatrans_core::serve::RankResponse) — identical at
//! any thread count, any backing, any batching schedule, hit or miss.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod protocol;
pub mod server;

pub use protocol::{
    parse_line, render_result, write_request, write_response, write_serve_error, Command,
    ProtocolError, MAX_LINE_BYTES,
};
pub use server::{NetServer, NetServerConfig, ServerStats};
