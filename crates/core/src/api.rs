//! Wire-stable request/response API for serving an index over a byte stream.
//!
//! This module is the single typed surface that the CLI, `setsim-server`,
//! and the `setsim-bench loadgen` driver all speak. Everything here is
//! **wire-stable**: every enum variant carries an explicit numeric
//! discriminant, integers travel as LEB128 varints (the same codec the
//! snapshot container and paged posting storage use, see
//! `setsim_collections::codec`), floats travel as their IEEE-754 bit
//! pattern in fixed 8-byte little-endian form (lossless, including NaN
//! payloads), and strings as varint-length-prefixed UTF-8.
//!
//! ## Framing
//!
//! A connection carries a sequence of *frames*:
//!
//! ```text
//! [u32 little-endian payload length][payload bytes]
//! ```
//!
//! The payload of every frame is `[u8 tag][tag-specific body]`. Request
//! tags live in `0x01..=0x7F`, response tags in `0x80..=0xFF`. The first
//! frame on a connection must be [`WireRequest::Hello`], which carries the
//! protocol magic and the client's proposed version; the server answers
//! with [`WireResponse::Hello`] carrying the agreed version, or a typed
//! [`WireError`] if it cannot serve that version. See DESIGN.md §14 for
//! the full byte layout and the versioning policy.
//!
//! ## Stability policy
//!
//! Within [`PROTOCOL_VERSION`] the encoding of every existing variant is
//! frozen. New request/response variants may be added (old servers answer
//! unknown tags with a typed [`ErrorCode::MalformedFrame`] error, never a
//! disconnect); removing or re-encoding a variant requires a version bump
//! negotiated in the handshake.
//!
//! Decoding is strict: unknown tags, truncated bodies, and trailing bytes
//! all yield a typed [`WireDecodeError`] — never a panic — so a malformed
//! or adversarial frame cannot take a serving thread down.

use crate::engine::{Budget, SearchError};
use crate::result::SearchStatus;
use crate::segment::MutableOutcome;
use crate::stats::SearchStats;
use crate::AlgorithmKind;
use crate::MetricsSnapshot;
use setsim_collections::codec::{read_str, read_varint, write_str, write_varint};
use setsim_storage::SnapshotError;
use std::fmt;
use std::io::{self, Read, Write};
use std::time::Duration;

/// Magic bytes opening every `Hello` request ("Set Similarity Wire
/// Protocol"). Lets a server reject a non-setsim client with a typed
/// error instead of misparsing garbage.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"SSWP";

/// Current protocol version, negotiated in the handshake.
pub const PROTOCOL_VERSION: u32 = 1;

/// Default upper bound on a frame payload (16 MiB). Guards the server
/// against a hostile length prefix allocating unbounded memory.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------------

/// Stable numeric error discriminants shared by [`WireError`],
/// [`SearchError`], and [`SnapshotError`].
///
/// Codes are frozen once released: `1..=9` map engine-side search errors,
/// `10..=19` snapshot/persistence errors, `20..` protocol and serving
/// errors. New codes may be appended; existing values never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
#[repr(u16)]
pub enum ErrorCode {
    /// τ outside `(0, 1]` ([`SearchError::InvalidTau`]).
    InvalidTau = 1,
    /// Query exceeds the compile-time list fan-out
    /// ([`SearchError::QueryTooWide`]).
    QueryTooWide = 2,
    /// Underlying I/O failure.
    Io = 10,
    /// Not a setsim artifact: bad magic.
    BadMagic = 11,
    /// Artifact version this build cannot read.
    UnsupportedVersion = 12,
    /// Artifact ends before its layout describes.
    Truncated = 13,
    /// Region checksum mismatch.
    ChecksumMismatch = 14,
    /// Bytes verify but do not decode to a valid structure.
    Corrupt = 15,
    /// Operation unsupported by this build, or an algorithm the served
    /// index lacks a structure for ([`SearchError::Unsupported`]).
    Unsupported = 16,
    /// Frame payload failed to decode (unknown tag, truncated body,
    /// trailing bytes, invalid value).
    MalformedFrame = 20,
    /// Frame length prefix exceeds the negotiated maximum.
    FrameTooLarge = 21,
    /// Handshake failed: wrong magic or no mutually supported version.
    ProtocolMismatch = 22,
    /// Admission control shed this request; retry after the hinted
    /// backoff. Never silent: the client always sees this response.
    Overloaded = 23,
    /// Server is draining and no longer accepts new work.
    ShuttingDown = 24,
    /// The connection's cumulative work quota is exhausted.
    QuotaExhausted = 25,
    /// Any other server-side failure.
    Internal = 26,
}

impl ErrorCode {
    /// Wire value of this code.
    #[must_use]
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Decode a wire value. Unknown values map to [`ErrorCode::Internal`]
    /// so a newer peer's codes degrade gracefully instead of failing the
    /// whole frame.
    #[must_use]
    pub fn from_u16(value: u16) -> ErrorCode {
        match value {
            1 => ErrorCode::InvalidTau,
            2 => ErrorCode::QueryTooWide,
            10 => ErrorCode::Io,
            11 => ErrorCode::BadMagic,
            12 => ErrorCode::UnsupportedVersion,
            13 => ErrorCode::Truncated,
            14 => ErrorCode::ChecksumMismatch,
            15 => ErrorCode::Corrupt,
            16 => ErrorCode::Unsupported,
            20 => ErrorCode::MalformedFrame,
            21 => ErrorCode::FrameTooLarge,
            22 => ErrorCode::ProtocolMismatch,
            23 => ErrorCode::Overloaded,
            24 => ErrorCode::ShuttingDown,
            25 => ErrorCode::QuotaExhausted,
            _ => ErrorCode::Internal,
        }
    }

    /// Stable lower-case name, for logs and CLI output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::InvalidTau => "invalid-tau",
            ErrorCode::QueryTooWide => "query-too-wide",
            ErrorCode::Io => "io",
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::Truncated => "truncated",
            ErrorCode::ChecksumMismatch => "checksum-mismatch",
            ErrorCode::Corrupt => "corrupt",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::ProtocolMismatch => "protocol-mismatch",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::QuotaExhausted => "quota-exhausted",
            ErrorCode::Internal => "internal",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&SearchError> for ErrorCode {
    fn from(err: &SearchError) -> ErrorCode {
        match err {
            SearchError::InvalidTau(_) | SearchError::BelowTauMin { .. } => ErrorCode::InvalidTau,
            SearchError::QueryTooWide { .. } => ErrorCode::QueryTooWide,
            SearchError::Unsupported { .. } => ErrorCode::Unsupported,
            // The server prepares every query against the index it serves,
            // so a foreign query there is a server fault.
            SearchError::ForeignQuery { .. } => ErrorCode::Internal,
        }
    }
}

impl From<&SnapshotError> for ErrorCode {
    fn from(err: &SnapshotError) -> ErrorCode {
        match err {
            SnapshotError::Io(_) => ErrorCode::Io,
            SnapshotError::BadMagic { .. } => ErrorCode::BadMagic,
            SnapshotError::UnsupportedVersion { .. } => ErrorCode::UnsupportedVersion,
            SnapshotError::Truncated { .. } => ErrorCode::Truncated,
            SnapshotError::ChecksumMismatch { .. } => ErrorCode::ChecksumMismatch,
            SnapshotError::Corrupt { .. } => ErrorCode::Corrupt,
            SnapshotError::Unsupported { .. } => ErrorCode::Unsupported,
        }
    }
}

// ---------------------------------------------------------------------------
// WireError
// ---------------------------------------------------------------------------

/// A typed error travelling over the wire as [`WireResponse::Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Stable discriminant — the only field clients should branch on.
    pub code: ErrorCode,
    /// Human-readable detail. Informational only; not wire-stable.
    pub message: String,
    /// For [`ErrorCode::Overloaded`]: suggested client backoff before
    /// retrying, in milliseconds.
    pub retry_after_ms: Option<u64>,
}

impl WireError {
    /// A typed error with the given code and message.
    #[must_use]
    pub fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Load-shed response: the server's admission queue is full.
    #[must_use]
    pub fn overloaded(retry_after_ms: u64) -> WireError {
        WireError {
            code: ErrorCode::Overloaded,
            message: "server overloaded; retry after backoff".to_owned(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// Drain response: the server is shutting down.
    #[must_use]
    pub fn shutting_down() -> WireError {
        WireError::new(ErrorCode::ShuttingDown, "server is draining")
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms} ms)")?;
        }
        Ok(())
    }
}

impl std::error::Error for WireError {}

impl From<&SearchError> for WireError {
    fn from(err: &SearchError) -> WireError {
        WireError::new(ErrorCode::from(err), err.to_string())
    }
}

impl From<SearchError> for WireError {
    fn from(err: SearchError) -> WireError {
        WireError::from(&err)
    }
}

impl From<&SnapshotError> for WireError {
    fn from(err: &SnapshotError) -> WireError {
        WireError::new(ErrorCode::from(err), err.to_string())
    }
}

impl From<WireDecodeError> for WireError {
    fn from(err: WireDecodeError) -> WireError {
        WireError::new(ErrorCode::MalformedFrame, err.to_string())
    }
}

// ---------------------------------------------------------------------------
// Decode errors
// ---------------------------------------------------------------------------

/// Why a frame payload failed to decode. Every malformed input maps here;
/// decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireDecodeError {
    /// The payload ended before the layout its tag describes.
    Truncated,
    /// The payload decoded but left unconsumed bytes.
    TrailingBytes {
        /// Number of bytes left over.
        extra: usize,
    },
    /// The leading tag byte is not a known request/response tag.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// A field decoded but holds an out-of-domain value.
    BadValue {
        /// Which field was invalid.
        what: &'static str,
    },
}

impl fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireDecodeError::Truncated => f.write_str("frame payload truncated"),
            WireDecodeError::TrailingBytes { extra } => {
                write!(f, "frame payload has {extra} trailing byte(s)")
            }
            WireDecodeError::UnknownTag { tag } => write!(f, "unknown frame tag 0x{tag:02x}"),
            WireDecodeError::BadValue { what } => write!(f, "invalid value for {what}"),
        }
    }
}

impl std::error::Error for WireDecodeError {}

// ---------------------------------------------------------------------------
// Algorithm / status wire codes
// ---------------------------------------------------------------------------

impl AlgorithmKind {
    /// Stable wire discriminant (frozen; order-independent of `ALL`).
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            AlgorithmKind::Scan => 0,
            AlgorithmKind::Merge => 1,
            AlgorithmKind::Ta => 2,
            AlgorithmKind::Nra => 3,
            AlgorithmKind::ITa => 4,
            AlgorithmKind::INra => 5,
            AlgorithmKind::Sf => 6,
            AlgorithmKind::Hybrid => 7,
        }
    }

    /// Decode a wire discriminant.
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<AlgorithmKind> {
        match code {
            0 => Some(AlgorithmKind::Scan),
            1 => Some(AlgorithmKind::Merge),
            2 => Some(AlgorithmKind::Ta),
            3 => Some(AlgorithmKind::Nra),
            4 => Some(AlgorithmKind::ITa),
            5 => Some(AlgorithmKind::INra),
            6 => Some(AlgorithmKind::Sf),
            7 => Some(AlgorithmKind::Hybrid),
            _ => None,
        }
    }
}

/// Wire code for a [`SearchStatus`].
#[must_use]
pub fn status_wire_code(status: SearchStatus) -> u8 {
    match status {
        SearchStatus::BudgetExceeded => 1,
        // `SearchStatus` is non_exhaustive-ready; anything else serves as
        // complete, the conservative default.
        _ => 0,
    }
}

/// Decode a [`SearchStatus`] wire code.
#[must_use]
pub fn status_from_wire_code(code: u8) -> Option<SearchStatus> {
    match code {
        0 => Some(SearchStatus::Complete),
        1 => Some(SearchStatus::BudgetExceeded),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

const REQ_HELLO: u8 = 0x01;
const REQ_SEARCH: u8 = 0x02;
const REQ_INSERT: u8 = 0x03;
const REQ_DELETE: u8 = 0x04;
const REQ_UPSERT: u8 = 0x05;
const REQ_STATS: u8 = 0x06;
const REQ_COMPACT: u8 = 0x07;
const REQ_PING: u8 = 0x08;

const RESP_HELLO: u8 = 0x81;
const RESP_SEARCH: u8 = 0x82;
const RESP_INSERT: u8 = 0x83;
const RESP_DELETE: u8 = 0x84;
const RESP_UPSERT: u8 = 0x85;
const RESP_STATS: u8 = 0x86;
const RESP_COMPACT: u8 = 0x87;
const RESP_PONG: u8 = 0x88;
const RESP_ERROR: u8 = 0xEE;

/// The body of a [`WireRequest::Search`] — the wire twin of
/// [`crate::MutableSearchRequest`], carrying everything the server needs
/// to rebuild the typed request on its side.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCall {
    /// Raw query text; the server tokenizes with the index's tokenizer so
    /// client and server can never disagree on q-gram extraction.
    pub text: String,
    /// Similarity threshold τ ∈ (0, 1].
    pub tau: f64,
    /// Which Section III–VI algorithm answers the query.
    pub algorithm: AlgorithmKind,
    /// Enable Theorem 1 length bounding on the base segment.
    pub length_bounding: bool,
    /// Seek through each list's skip layer (fence keys).
    pub use_skip_lists: bool,
    /// Client-side cap on list elements + records read, folded into the
    /// engine [`Budget`] (the server may tighten it further).
    pub max_elements: Option<u64>,
    /// Client deadline in microseconds, folded into the engine
    /// [`Budget`]'s time limit.
    pub deadline_us: Option<u64>,
    /// Ask the server to attach record texts to each match (CLI
    /// convenience; costs bandwidth).
    pub want_texts: bool,
}

impl SearchCall {
    /// A search for `text` with the default τ = 0.7, SF algorithm, and
    /// both optimizations on — mirroring [`crate::MutableSearchRequest::new`].
    #[must_use]
    pub fn new(text: impl Into<String>) -> SearchCall {
        SearchCall {
            text: text.into(),
            tau: 0.7,
            algorithm: AlgorithmKind::Sf,
            length_bounding: true,
            use_skip_lists: true,
            max_elements: None,
            deadline_us: None,
            want_texts: false,
        }
    }

    /// Set the similarity threshold.
    #[must_use]
    pub fn tau(mut self, tau: f64) -> SearchCall {
        self.tau = tau;
        self
    }

    /// Choose the algorithm.
    #[must_use]
    pub fn algorithm(mut self, kind: AlgorithmKind) -> SearchCall {
        self.algorithm = kind;
        self
    }

    /// Attach a client-side [`Budget`]. Durations are carried at
    /// microsecond granularity on the wire.
    #[must_use]
    pub fn with_budget(mut self, budget: &Budget) -> SearchCall {
        self.max_elements = budget.max_elements_read;
        self.deadline_us = budget
            .time_limit
            .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        self
    }

    /// Request record texts in the reply.
    #[must_use]
    pub fn with_texts(mut self) -> SearchCall {
        self.want_texts = true;
        self
    }

    /// Reconstruct the [`crate::AlgoConfig`] carried by the flag bits.
    /// In-window forward jumps ride the skip-list flag: they go through
    /// the same skip layer, and the wire format (which predates them)
    /// stays byte-identical.
    #[must_use]
    pub fn algo_config(&self) -> crate::AlgoConfig {
        crate::AlgoConfig::default()
            .with_length_bounding(self.length_bounding)
            .with_skip_lists(self.use_skip_lists)
            .with_block_skip(self.use_skip_lists)
    }

    /// Reconstruct the engine [`Budget`] this call asks for.
    #[must_use]
    pub fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(max) = self.max_elements {
            b = b.with_max_elements_read(max);
        }
        if let Some(us) = self.deadline_us {
            b = b.with_time_limit(Duration::from_micros(us));
        }
        b
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        write_str(out, &self.text);
        out.extend_from_slice(&self.tau.to_bits().to_le_bytes());
        out.push(self.algorithm.wire_code());
        let mut flags: u8 = 0;
        if self.length_bounding {
            flags |= 0b0000_0001;
        }
        if self.use_skip_lists {
            flags |= 0b0000_0010;
        }
        if self.want_texts {
            flags |= 0b0000_0100;
        }
        out.push(flags);
        write_opt_varint(out, self.max_elements);
        write_opt_varint(out, self.deadline_us);
    }

    fn decode_body(buf: &[u8], pos: &mut usize) -> Result<SearchCall, WireDecodeError> {
        let text = read_str(buf, pos)
            .ok_or(WireDecodeError::Truncated)?
            .to_owned();
        let tau = f64::from_bits(read_f64_bits(buf, pos)?);
        let algo_code = read_u8(buf, pos)?;
        let algorithm = AlgorithmKind::from_wire_code(algo_code)
            .ok_or(WireDecodeError::BadValue { what: "algorithm" })?;
        let flags = read_u8(buf, pos)?;
        if flags & !0b0000_0111 != 0 {
            return Err(WireDecodeError::BadValue {
                what: "search flags",
            });
        }
        let max_elements = read_opt_varint(buf, pos)?;
        let deadline_us = read_opt_varint(buf, pos)?;
        Ok(SearchCall {
            text,
            tau,
            algorithm,
            length_bounding: flags & 0b0000_0001 != 0,
            use_skip_lists: flags & 0b0000_0010 != 0,
            max_elements,
            deadline_us,
            want_texts: flags & 0b0000_0100 != 0,
        })
    }
}

/// A request frame payload, client → server.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireRequest {
    /// Handshake opener: protocol magic + the client's proposed version.
    /// Must be the first frame on every connection.
    Hello {
        /// Version the client wants to speak.
        version: u32,
    },
    /// Execute a similarity selection query.
    Search(SearchCall),
    /// Insert a new record; the server assigns the id.
    Insert {
        /// Raw record text.
        text: String,
    },
    /// Delete a record by id.
    Delete {
        /// Record id (see [`crate::RecordId`]).
        id: u64,
    },
    /// Insert-or-replace a record at a caller-chosen id.
    Upsert {
        /// Record id.
        id: u64,
        /// New record text.
        text: String,
    },
    /// Fetch engine + server metrics ([`WireStats`]).
    Stats,
    /// Trigger a zero-downtime compaction (delta → base rebuild).
    Compact,
    /// Liveness probe.
    Ping,
}

impl WireRequest {
    /// Encode this request as a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode this request into `out` (appended).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WireRequest::Hello { version } => {
                out.push(REQ_HELLO);
                out.extend_from_slice(&PROTOCOL_MAGIC);
                write_varint(out, u64::from(*version));
            }
            WireRequest::Search(call) => {
                out.push(REQ_SEARCH);
                call.encode_body(out);
            }
            WireRequest::Insert { text } => {
                out.push(REQ_INSERT);
                write_str(out, text);
            }
            WireRequest::Delete { id } => {
                out.push(REQ_DELETE);
                write_varint(out, *id);
            }
            WireRequest::Upsert { id, text } => {
                out.push(REQ_UPSERT);
                write_varint(out, *id);
                write_str(out, text);
            }
            WireRequest::Stats => out.push(REQ_STATS),
            WireRequest::Compact => out.push(REQ_COMPACT),
            WireRequest::Ping => out.push(REQ_PING),
        }
    }

    /// Decode a frame payload. Strict: trailing bytes are an error.
    pub fn decode(buf: &[u8]) -> Result<WireRequest, WireDecodeError> {
        let mut pos = 0usize;
        let tag = read_u8(buf, &mut pos)?;
        let req = match tag {
            REQ_HELLO => {
                let magic = read_array::<4>(buf, &mut pos)?;
                if magic != PROTOCOL_MAGIC {
                    return Err(WireDecodeError::BadValue {
                        what: "protocol magic",
                    });
                }
                let version = read_varint_u32(buf, &mut pos)?;
                WireRequest::Hello { version }
            }
            REQ_SEARCH => WireRequest::Search(SearchCall::decode_body(buf, &mut pos)?),
            REQ_INSERT => WireRequest::Insert {
                text: read_str(buf, &mut pos)
                    .ok_or(WireDecodeError::Truncated)?
                    .to_owned(),
            },
            REQ_DELETE => WireRequest::Delete {
                id: read_varint(buf, &mut pos).ok_or(WireDecodeError::Truncated)?,
            },
            REQ_UPSERT => {
                let id = read_varint(buf, &mut pos).ok_or(WireDecodeError::Truncated)?;
                let text = read_str(buf, &mut pos)
                    .ok_or(WireDecodeError::Truncated)?
                    .to_owned();
                WireRequest::Upsert { id, text }
            }
            REQ_STATS => WireRequest::Stats,
            REQ_COMPACT => WireRequest::Compact,
            REQ_PING => WireRequest::Ping,
            other => return Err(WireDecodeError::UnknownTag { tag: other }),
        };
        expect_end(buf, pos)?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One result row in a [`SearchReply`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireMatch {
    /// Stable record id (see [`crate::RecordId`]).
    pub record: u64,
    /// Exact live similarity score.
    pub score: f64,
    /// Record text, present iff the call set [`SearchCall::want_texts`].
    pub text: Option<String>,
}

/// The body of a [`WireResponse::Search`] — the wire twin of
/// [`MutableOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReply {
    /// Completion status: complete, or an exact-but-partial prefix if a
    /// budget tripped ([`SearchStatus::BudgetExceeded`]).
    pub status: SearchStatus,
    /// Matching records with exact live scores.
    pub matches: Vec<WireMatch>,
    /// List elements + records the engine read answering this call (the
    /// unit the per-connection quota is charged in).
    pub work: u64,
}

impl SearchReply {
    /// Build a reply from an engine outcome (no texts attached).
    #[must_use]
    pub fn from_outcome(outcome: &MutableOutcome) -> SearchReply {
        SearchReply {
            status: outcome.status,
            matches: outcome
                .results
                .iter()
                .map(|m| WireMatch {
                    record: m.record.0,
                    score: m.score,
                    text: None,
                })
                .collect(),
            work: outcome.stats.elements_read + outcome.stats.records_scanned,
        }
    }
}

/// Engine + server metrics exposed by the `STATS` verb: the headline
/// fields of a [`MetricsSnapshot`] plus serving-side counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WireStats {
    /// Queries served since startup/reset.
    pub queries: u64,
    /// Queries that tripped a budget.
    pub budget_exceeded: u64,
    /// Total matches produced.
    pub matches: u64,
    /// Σ access counters across queries. The frame carries five of them
    /// (`wire_counters`: sorted reads, seeks skipped, random probes,
    /// records scanned, the pruning denominator); the rest are 0 here.
    pub totals: SearchStats,
    /// Mean pruning percentage across queries.
    pub mean_pruning_pct: f64,
    /// Query latency: 50th percentile, microseconds.
    pub p50_us: u64,
    /// Query latency: 95th percentile, microseconds.
    pub p95_us: u64,
    /// Query latency: 99th percentile, microseconds.
    pub p99_us: u64,
    /// Requests currently admitted and executing.
    pub queue_depth: u64,
    /// Requests shed by admission control (each received a typed
    /// `Overloaded` response — sheds are never silent).
    pub shed: u64,
    /// Connections accepted since startup.
    pub accepted_connections: u64,
    /// Connections currently open.
    pub open_connections: u64,
    /// Live records in the index.
    pub live_records: u64,
    /// True once the server has begun draining.
    pub draining: bool,
}

/// The [`SearchStats`] counters the `Stats` frame carries, in frame
/// order. Fixed by protocol version 1: the frame has no room for the
/// other eight, which stay server-side until the frame is next revised.
fn wire_counters(stats: &mut SearchStats) -> [&mut u64; 5] {
    [
        &mut stats.elements_read,
        &mut stats.elements_skipped,
        &mut stats.random_probes,
        &mut stats.records_scanned,
        &mut stats.total_list_elements,
    ]
}

impl WireStats {
    /// Seed the engine-side fields from a [`MetricsSnapshot`]; serving
    /// counters start at zero for the caller to fill. Only the counters
    /// the frame carries are kept, so a `WireStats` survives
    /// encode → decode unchanged.
    #[must_use]
    pub fn from_metrics(m: &MetricsSnapshot) -> WireStats {
        let (mut all, mut totals) = (m.totals, SearchStats::default());
        for (kept, v) in wire_counters(&mut totals)
            .into_iter()
            .zip(wire_counters(&mut all))
        {
            *kept = *v;
        }
        WireStats {
            queries: m.queries,
            budget_exceeded: m.budget_exceeded,
            matches: m.matches,
            totals,
            mean_pruning_pct: m.mean_pruning_pct,
            p50_us: m.p50_us,
            p95_us: m.p95_us,
            p99_us: m.p99_us,
            ..WireStats::default()
        }
    }

    fn encode_body(&self, out: &mut Vec<u8>) {
        for v in [self.queries, self.budget_exceeded, self.matches] {
            write_varint(out, v);
        }
        let mut totals = self.totals;
        for v in wire_counters(&mut totals) {
            write_varint(out, *v);
        }
        out.extend_from_slice(&self.mean_pruning_pct.to_bits().to_le_bytes());
        for v in [
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.queue_depth,
            self.shed,
            self.accepted_connections,
            self.open_connections,
            self.live_records,
        ] {
            write_varint(out, v);
        }
        out.push(u8::from(self.draining));
    }

    fn decode_body(buf: &[u8], pos: &mut usize) -> Result<WireStats, WireDecodeError> {
        let mut s = WireStats::default();
        let headline = [&mut s.queries, &mut s.budget_exceeded, &mut s.matches];
        for field in headline.into_iter().chain(wire_counters(&mut s.totals)) {
            *field = read_varint(buf, pos).ok_or(WireDecodeError::Truncated)?;
        }
        s.mean_pruning_pct = f64::from_bits(read_f64_bits(buf, pos)?);
        for field in [
            &mut s.p50_us,
            &mut s.p95_us,
            &mut s.p99_us,
            &mut s.queue_depth,
            &mut s.shed,
            &mut s.accepted_connections,
            &mut s.open_connections,
            &mut s.live_records,
        ] {
            *field = read_varint(buf, pos).ok_or(WireDecodeError::Truncated)?;
        }
        s.draining = match read_u8(buf, pos)? {
            0 => false,
            1 => true,
            _ => return Err(WireDecodeError::BadValue { what: "draining" }),
        };
        Ok(s)
    }
}

/// A response frame payload, server → client.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WireResponse {
    /// Handshake accepted; the server will speak `version`.
    Hello {
        /// Agreed protocol version.
        version: u32,
    },
    /// Search results.
    Search(SearchReply),
    /// Insert succeeded with the assigned id.
    Insert {
        /// Server-assigned record id.
        id: u64,
    },
    /// Delete finished; `existed` reports whether the record was live.
    Delete {
        /// Whether the record existed.
        existed: bool,
    },
    /// Upsert finished; `existed` reports whether it replaced a record.
    Upsert {
        /// Whether a record was replaced.
        existed: bool,
    },
    /// Metrics snapshot.
    Stats(WireStats),
    /// Compaction finished.
    Compact,
    /// Liveness reply.
    Pong,
    /// Typed failure. The connection stays usable unless the error is a
    /// handshake or framing failure.
    Error(WireError),
}

impl WireResponse {
    /// Encode this response as a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Encode this response into `out` (appended).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WireResponse::Hello { version } => {
                out.push(RESP_HELLO);
                write_varint(out, u64::from(*version));
            }
            WireResponse::Search(reply) => {
                out.push(RESP_SEARCH);
                out.push(status_wire_code(reply.status));
                write_varint(out, reply.work);
                write_varint(out, reply.matches.len() as u64);
                for m in &reply.matches {
                    write_varint(out, m.record);
                    out.extend_from_slice(&m.score.to_bits().to_le_bytes());
                    match &m.text {
                        Some(t) => {
                            out.push(1);
                            write_str(out, t);
                        }
                        None => out.push(0),
                    }
                }
            }
            WireResponse::Insert { id } => {
                out.push(RESP_INSERT);
                write_varint(out, *id);
            }
            WireResponse::Delete { existed } => {
                out.push(RESP_DELETE);
                out.push(u8::from(*existed));
            }
            WireResponse::Upsert { existed } => {
                out.push(RESP_UPSERT);
                out.push(u8::from(*existed));
            }
            WireResponse::Stats(stats) => {
                out.push(RESP_STATS);
                stats.encode_body(out);
            }
            WireResponse::Compact => out.push(RESP_COMPACT),
            WireResponse::Pong => out.push(RESP_PONG),
            WireResponse::Error(err) => {
                out.push(RESP_ERROR);
                write_varint(out, u64::from(err.code.as_u16()));
                write_str(out, &err.message);
                write_opt_varint(out, err.retry_after_ms);
            }
        }
    }

    /// Decode a frame payload. Strict: trailing bytes are an error.
    pub fn decode(buf: &[u8]) -> Result<WireResponse, WireDecodeError> {
        let mut pos = 0usize;
        let tag = read_u8(buf, &mut pos)?;
        let resp = match tag {
            RESP_HELLO => WireResponse::Hello {
                version: read_varint_u32(buf, &mut pos)?,
            },
            RESP_SEARCH => {
                let status_code = read_u8(buf, &mut pos)?;
                let status = status_from_wire_code(status_code)
                    .ok_or(WireDecodeError::BadValue { what: "status" })?;
                let work = read_varint(buf, &mut pos).ok_or(WireDecodeError::Truncated)?;
                let len = read_varint(buf, &mut pos).ok_or(WireDecodeError::Truncated)?;
                // Each match is ≥ 10 bytes on the wire; reject counts the
                // remaining payload cannot possibly hold before reserving.
                let remaining = buf.len().saturating_sub(pos) as u64;
                if len > remaining {
                    return Err(WireDecodeError::Truncated);
                }
                let count = usize::try_from(len).map_err(|_| WireDecodeError::BadValue {
                    what: "match count",
                })?;
                let mut matches = Vec::with_capacity(count);
                for _ in 0..count {
                    let record = read_varint(buf, &mut pos).ok_or(WireDecodeError::Truncated)?;
                    let score = f64::from_bits(read_f64_bits(buf, &mut pos)?);
                    let text = match read_u8(buf, &mut pos)? {
                        0 => None,
                        1 => Some(
                            read_str(buf, &mut pos)
                                .ok_or(WireDecodeError::Truncated)?
                                .to_owned(),
                        ),
                        _ => {
                            return Err(WireDecodeError::BadValue {
                                what: "text presence flag",
                            })
                        }
                    };
                    matches.push(WireMatch {
                        record,
                        score,
                        text,
                    });
                }
                WireResponse::Search(SearchReply {
                    status,
                    matches,
                    work,
                })
            }
            RESP_INSERT => WireResponse::Insert {
                id: read_varint(buf, &mut pos).ok_or(WireDecodeError::Truncated)?,
            },
            RESP_DELETE => WireResponse::Delete {
                existed: read_bool(buf, &mut pos)?,
            },
            RESP_UPSERT => WireResponse::Upsert {
                existed: read_bool(buf, &mut pos)?,
            },
            RESP_STATS => WireResponse::Stats(WireStats::decode_body(buf, &mut pos)?),
            RESP_COMPACT => WireResponse::Compact,
            RESP_PONG => WireResponse::Pong,
            RESP_ERROR => {
                let raw = read_varint(buf, &mut pos).ok_or(WireDecodeError::Truncated)?;
                let code16 = u16::try_from(raw)
                    .map_err(|_| WireDecodeError::BadValue { what: "error code" })?;
                let message = read_str(buf, &mut pos)
                    .ok_or(WireDecodeError::Truncated)?
                    .to_owned();
                let retry_after_ms = read_opt_varint(buf, &mut pos)?;
                WireResponse::Error(WireError {
                    code: ErrorCode::from_u16(code16),
                    message,
                    retry_after_ms,
                })
            }
            other => return Err(WireDecodeError::UnknownTag { tag: other }),
        };
        expect_end(buf, pos)?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Why reading a frame from a stream failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum FrameReadError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The stream failed (or timed out) mid-frame.
    Io(io::Error),
    /// The length prefix exceeds the negotiated maximum. The connection
    /// is unrecoverable (we cannot resync) and must be dropped.
    TooLarge {
        /// Declared payload length.
        len: u32,
        /// Maximum the reader accepts.
        max: u32,
    },
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Closed => f.write_str("connection closed"),
            FrameReadError::Io(e) => write!(f, "frame read failed: {e}"),
            FrameReadError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for FrameReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameReadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Write one frame: `[u32-le len][payload]`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME_LEN",
        ));
    }
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame payload, enforcing `max_len`. A clean EOF before any
/// header byte reports [`FrameReadError::Closed`]; EOF or a timeout
/// mid-frame reports [`FrameReadError::Io`].
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>, FrameReadError> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Err(FrameReadError::Closed);
                }
                return Err(FrameReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid frame header",
                )));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > max_len {
        return Err(FrameReadError::TooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    let mut filled = 0usize;
    while filled < payload.len() {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(FrameReadError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid frame payload",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Small decode helpers
// ---------------------------------------------------------------------------

fn write_opt_varint(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        Some(v) => {
            out.push(1);
            write_varint(out, v);
        }
        None => out.push(0),
    }
}

fn read_opt_varint(buf: &[u8], pos: &mut usize) -> Result<Option<u64>, WireDecodeError> {
    match read_u8(buf, pos)? {
        0 => Ok(None),
        1 => Ok(Some(
            read_varint(buf, pos).ok_or(WireDecodeError::Truncated)?,
        )),
        _ => Err(WireDecodeError::BadValue {
            what: "option flag",
        }),
    }
}

fn read_u8(buf: &[u8], pos: &mut usize) -> Result<u8, WireDecodeError> {
    let b = buf.get(*pos).copied().ok_or(WireDecodeError::Truncated)?;
    *pos += 1;
    Ok(b)
}

fn read_bool(buf: &[u8], pos: &mut usize) -> Result<bool, WireDecodeError> {
    match read_u8(buf, pos)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireDecodeError::BadValue { what: "bool" }),
    }
}

fn read_array<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N], WireDecodeError> {
    let end = pos.checked_add(N).ok_or(WireDecodeError::Truncated)?;
    let slice = buf.get(*pos..end).ok_or(WireDecodeError::Truncated)?;
    let mut out = [0u8; N];
    out.copy_from_slice(slice);
    *pos = end;
    Ok(out)
}

fn read_f64_bits(buf: &[u8], pos: &mut usize) -> Result<u64, WireDecodeError> {
    Ok(u64::from_le_bytes(read_array::<8>(buf, pos)?))
}

fn read_varint_u32(buf: &[u8], pos: &mut usize) -> Result<u32, WireDecodeError> {
    let raw = read_varint(buf, pos).ok_or(WireDecodeError::Truncated)?;
    u32::try_from(raw).map_err(|_| WireDecodeError::BadValue { what: "u32 field" })
}

fn expect_end(buf: &[u8], pos: usize) -> Result<(), WireDecodeError> {
    if pos == buf.len() {
        Ok(())
    } else {
        Err(WireDecodeError::TrailingBytes {
            extra: buf.len() - pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: &WireRequest) -> WireRequest {
        match WireRequest::decode(&req.encode()) {
            Ok(r) => r,
            Err(e) => panic!("request failed to round-trip: {e}"),
        }
    }

    fn roundtrip_resp(resp: &WireResponse) -> WireResponse {
        match WireResponse::decode(&resp.encode()) {
            Ok(r) => r,
            Err(e) => panic!("response failed to round-trip: {e}"),
        }
    }

    #[test]
    fn hello_roundtrip_and_magic() {
        let req = WireRequest::Hello {
            version: PROTOCOL_VERSION,
        };
        assert_eq!(roundtrip_req(&req), req);
        // Corrupting the magic yields a typed error, not a misparse.
        let mut bytes = req.encode();
        bytes[1] ^= 0xFF;
        assert_eq!(
            WireRequest::decode(&bytes),
            Err(WireDecodeError::BadValue {
                what: "protocol magic"
            })
        );
    }

    #[test]
    fn search_call_roundtrips_losslessly_including_nan_tau() {
        let call = SearchCall::new("main street")
            .tau(f64::from_bits(0x7FF8_0000_0000_1234)) // NaN with payload
            .algorithm(AlgorithmKind::Hybrid)
            .with_budget(
                &Budget::unlimited()
                    .with_max_elements_read(12_345)
                    .with_time_limit(Duration::from_micros(987_654)),
            )
            .with_texts();
        let req = WireRequest::Search(call.clone());
        let back = roundtrip_req(&req);
        match back {
            WireRequest::Search(b) => {
                assert_eq!(b.text, call.text);
                assert_eq!(b.tau.to_bits(), call.tau.to_bits());
                assert_eq!(b.algorithm, call.algorithm);
                assert_eq!(b.max_elements, Some(12_345));
                assert_eq!(b.deadline_us, Some(987_654));
                assert!(b.want_texts);
                let budget = b.budget();
                assert_eq!(budget.max_elements_read, Some(12_345));
                assert_eq!(budget.time_limit, Some(Duration::from_micros(987_654)));
            }
            other => panic!("decoded to wrong variant: {other:?}"),
        }
    }

    #[test]
    fn every_request_variant_roundtrips() {
        let reqs = [
            WireRequest::Hello { version: 7 },
            WireRequest::Search(SearchCall::new("q")),
            WireRequest::Insert {
                text: "park avenue".to_owned(),
            },
            WireRequest::Delete { id: u64::MAX },
            WireRequest::Upsert {
                id: 42,
                text: String::new(),
            },
            WireRequest::Stats,
            WireRequest::Compact,
            WireRequest::Ping,
        ];
        for req in &reqs {
            assert_eq!(&roundtrip_req(req), req);
        }
    }

    #[test]
    fn every_response_variant_roundtrips() {
        let resps = [
            WireResponse::Hello { version: 1 },
            WireResponse::Search(SearchReply {
                status: SearchStatus::BudgetExceeded,
                matches: vec![
                    WireMatch {
                        record: 3,
                        score: 0.75,
                        text: Some("main st".to_owned()),
                    },
                    WireMatch {
                        record: u64::MAX,
                        score: f64::NEG_INFINITY,
                        text: None,
                    },
                ],
                work: 10_101,
            }),
            WireResponse::Insert { id: 9 },
            WireResponse::Delete { existed: true },
            WireResponse::Upsert { existed: false },
            WireResponse::Stats(WireStats {
                queries: 5,
                mean_pruning_pct: 87.5,
                draining: true,
                ..WireStats::default()
            }),
            WireResponse::Compact,
            WireResponse::Pong,
            WireResponse::Error(WireError::overloaded(25)),
        ];
        for resp in &resps {
            assert_eq!(&roundtrip_resp(resp), resp);
        }
    }

    #[test]
    fn error_codes_are_stable_and_shared() {
        assert_eq!(
            ErrorCode::from(&SearchError::InvalidTau(1.5)),
            ErrorCode::InvalidTau
        );
        assert_eq!(
            ErrorCode::from(&SearchError::BelowTauMin {
                tau: 0.5,
                tau_min: 0.8
            }),
            ErrorCode::InvalidTau
        );
        assert_eq!(ErrorCode::InvalidTau.as_u16(), 1);
        assert_eq!(ErrorCode::Overloaded.as_u16(), 23);
        for code in [
            ErrorCode::InvalidTau,
            ErrorCode::QueryTooWide,
            ErrorCode::Io,
            ErrorCode::BadMagic,
            ErrorCode::UnsupportedVersion,
            ErrorCode::Truncated,
            ErrorCode::ChecksumMismatch,
            ErrorCode::Corrupt,
            ErrorCode::Unsupported,
            ErrorCode::MalformedFrame,
            ErrorCode::FrameTooLarge,
            ErrorCode::ProtocolMismatch,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::QuotaExhausted,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), code);
        }
    }

    #[test]
    fn truncation_yields_typed_errors() {
        let full = WireRequest::Search(
            SearchCall::new("main street")
                .with_budget(&Budget::unlimited().with_max_elements_read(10)),
        )
        .encode();
        for cut in 0..full.len() {
            let err = WireRequest::decode(&full[..cut]);
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = WireRequest::Ping.encode();
        bytes.push(0);
        assert_eq!(
            WireRequest::decode(&bytes),
            Err(WireDecodeError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn search_reply_match_count_cannot_overallocate() {
        // A reply claiming 2^50 matches in a tiny payload must fail fast.
        let mut bytes = vec![RESP_SEARCH, 0];
        write_varint(&mut bytes, 0); // work
        write_varint(&mut bytes, 1 << 50); // match count
        assert_eq!(
            WireResponse::decode(&bytes),
            Err(WireDecodeError::Truncated)
        );
    }

    #[test]
    fn frame_roundtrip_and_limits() {
        let payload = WireRequest::Ping.encode();
        let mut wire = Vec::new();
        match write_frame(&mut wire, &payload) {
            Ok(()) => {}
            Err(e) => panic!("write_frame failed: {e}"),
        }
        let mut cursor = io::Cursor::new(wire.clone());
        match read_frame(&mut cursor, MAX_FRAME_LEN) {
            Ok(back) => assert_eq!(back, payload),
            Err(e) => panic!("read_frame failed: {e}"),
        }
        // Oversized declared length is a typed failure.
        let mut cursor = io::Cursor::new(wire);
        match read_frame(&mut cursor, 0) {
            Err(FrameReadError::TooLarge { len, max: 0 }) => {
                assert_eq!(len as usize, payload.len());
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Clean EOF at a boundary is Closed, not an I/O error.
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame(&mut empty, MAX_FRAME_LEN),
            Err(FrameReadError::Closed)
        ));
    }
}
