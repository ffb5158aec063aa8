//! Protocol fuzz/property suite for `setsim_core::api`.
//!
//! Three families, mirroring the snapshot-corruption methodology the
//! storage layer uses for its on-disk container:
//!
//! 1. **Round-trip properties** — randomly generated values of *every*
//!    [`WireRequest`]/[`WireResponse`] variant encode → decode to an
//!    equal value (floats compared as bit patterns, so NaN payloads and
//!    signed zeros survive).
//! 2. **Truncation at every boundary** — every strict prefix of a valid
//!    payload fails with a typed [`WireDecodeError`], never a panic and
//!    never a bogus success.
//! 3. **Byte flips** — every single-bit corruption either still decodes
//!    (the flip landed in a value, e.g. a score bit — wire formats
//!    cannot checksum every field) or fails with a typed error; it never
//!    panics and never reads out of bounds.

use proptest::prelude::*;
use setsim_core::api::{
    status_from_wire_code, status_wire_code, SearchCall, SearchReply, WireDecodeError, WireError,
    WireMatch, WireRequest, WireResponse, WireStats,
};
use setsim_core::{AlgorithmKind, ErrorCode, SearchStats, SearchStatus};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_algorithm(pick: u8) -> AlgorithmKind {
    AlgorithmKind::ALL[(pick as usize) % AlgorithmKind::ALL.len()]
}

/// Interesting f64 bit patterns: ordinary values, infinities, NaNs with
/// payloads, signed zero — all must survive the wire bit-exactly.
fn arb_f64(bits: u64, selector: u8) -> f64 {
    match selector % 6 {
        0 => f64::from_bits(bits),
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => -0.0,
        _ => (bits as f64) / 1e6,
    }
}

fn arb_call(
    text: String,
    tau_bits: u64,
    sel: u8,
    algo: u8,
    flags: u8,
    max_elements: Option<u64>,
    deadline_us: Option<u64>,
) -> SearchCall {
    let mut call = SearchCall::new(text)
        .tau(arb_f64(tau_bits, sel))
        .algorithm(arb_algorithm(algo));
    call.length_bounding = flags & 1 != 0;
    call.use_skip_lists = flags & 2 != 0;
    call.want_texts = flags & 4 != 0;
    call.max_elements = max_elements;
    call.deadline_us = deadline_us;
    call
}

fn arb_request(tag: u8, text: String, id: u64, call: SearchCall) -> WireRequest {
    match tag % 8 {
        0 => WireRequest::Hello {
            version: (id % 1000) as u32,
        },
        1 => WireRequest::Search(call),
        2 => WireRequest::Insert { text },
        3 => WireRequest::Delete { id },
        4 => WireRequest::Upsert { id, text },
        5 => WireRequest::Stats,
        6 => WireRequest::Compact,
        _ => WireRequest::Ping,
    }
}

fn arb_matches(rows: &[(u64, u64, u8, String)]) -> Vec<WireMatch> {
    rows.iter()
        .map(|(record, bits, sel, text)| WireMatch {
            record: *record,
            score: arb_f64(*bits, *sel),
            text: if sel % 3 == 0 {
                Some(text.clone())
            } else {
                None
            },
        })
        .collect()
}

fn arb_response(
    tag: u8,
    id: u64,
    rows: &[(u64, u64, u8, String)],
    text: String,
    code: u16,
) -> WireResponse {
    match tag % 9 {
        0 => WireResponse::Hello {
            version: (id % 1000) as u32,
        },
        1 => WireResponse::Search(SearchReply {
            status: if id % 2 == 0 {
                SearchStatus::Complete
            } else {
                SearchStatus::BudgetExceeded
            },
            matches: arb_matches(rows),
            work: id,
        }),
        2 => WireResponse::Insert { id },
        3 => WireResponse::Delete {
            existed: id % 2 == 0,
        },
        4 => WireResponse::Upsert {
            existed: id % 2 == 1,
        },
        5 => WireResponse::Stats(WireStats {
            queries: id,
            budget_exceeded: id / 3,
            totals: SearchStats {
                elements_read: id.rotate_left(17),
                ..SearchStats::default()
            },
            mean_pruning_pct: arb_f64(id, (code % 251) as u8),
            p99_us: id % 100_000,
            shed: id % 7,
            draining: id % 2 == 0,
            ..WireStats::default()
        }),
        6 => WireResponse::Compact,
        7 => WireResponse::Pong,
        _ => WireResponse::Error(WireError {
            code: ErrorCode::from_u16(code),
            message: text,
            retry_after_ms: if code % 2 == 0 { Some(id) } else { None },
        }),
    }
}

/// Structural equality with floats compared bit-exactly. `PartialEq` on
/// the wire types already uses f64 `==`, which treats NaN ≠ NaN — so
/// compare through the encoded bytes instead: equal encodings are the
/// wire-level definition of "the same value".
fn wire_eq_req(a: &WireRequest, b: &WireRequest) -> bool {
    a.encode() == b.encode()
}

fn wire_eq_resp(a: &WireResponse, b: &WireResponse) -> bool {
    a.encode() == b.encode()
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn request_roundtrip(
        tag in 0u8..8,
        text in ".{0,40}",
        id in 0u64..u64::MAX,
        tau_bits in 0u64..u64::MAX,
        sel in 0u8..6,
        algo in 0u8..8,
        flags in 0u8..8,
        max_elements in 0u64..u64::MAX,
        deadline_us in 0u64..u64::MAX,
        opt in 0u8..4,
    ) {
        let call = arb_call(
            text.clone(),
            tau_bits,
            sel,
            algo,
            flags,
            (opt & 1 != 0).then_some(max_elements),
            (opt & 2 != 0).then_some(deadline_us),
        );
        let req = arb_request(tag, text, id, call);
        let bytes = req.encode();
        let back = WireRequest::decode(&bytes);
        match back {
            Ok(b) => prop_assert!(wire_eq_req(&req, &b), "decode changed the value"),
            Err(e) => prop_assert!(false, "valid encoding failed to decode: {e}"),
        }
    }

    #[test]
    fn response_roundtrip(
        tag in 0u8..9,
        id in 0u64..u64::MAX,
        rows in prop::collection::vec(
            (0u64..u64::MAX, 0u64..u64::MAX, 0u8..=255, "[a-z]{0,12}"), 0..6),
        text in ".{0,40}",
        code in 0u16..40,
    ) {
        let resp = arb_response(tag, id, &rows, text, code);
        let bytes = resp.encode();
        let back = WireResponse::decode(&bytes);
        match back {
            Ok(b) => prop_assert!(wire_eq_resp(&resp, &b), "decode changed the value"),
            Err(e) => prop_assert!(false, "valid encoding failed to decode: {e}"),
        }
    }

    #[test]
    fn request_truncation_always_typed(
        tag in 0u8..8,
        text in ".{0,24}",
        id in 0u64..u64::MAX,
    ) {
        let call = SearchCall::new(text.clone()).tau(0.4);
        let req = arb_request(tag, text, id, call);
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            // A strict prefix can never decode: every variant's layout
            // spends its final bytes on mandatory fields.
            prop_assert!(
                WireRequest::decode(&bytes[..cut]).is_err(),
                "prefix {cut}/{} decoded", bytes.len()
            );
        }
    }

    #[test]
    fn response_truncation_always_typed(
        tag in 0u8..9,
        id in 0u64..u64::MAX,
        rows in prop::collection::vec(
            (0u64..u64::MAX, 0u64..1u64 << 52, 0u8..=255, "[a-z]{0,8}"), 0..4),
        text in "[a-z]{0,16}",
        code in 0u16..40,
    ) {
        let resp = arb_response(tag, id, &rows, text, code);
        let bytes = resp.encode();
        for cut in 0..bytes.len() {
            prop_assert!(
                WireResponse::decode(&bytes[..cut]).is_err(),
                "prefix {cut}/{} decoded", bytes.len()
            );
        }
    }

    #[test]
    fn byte_flips_never_panic(
        tag in 0u8..8,
        text in "[a-z]{0,20}",
        id in 0u64..u64::MAX,
        bit in 0usize..8,
    ) {
        let call = SearchCall::new(text.clone()).tau(0.4).with_texts();
        let req = arb_request(tag, text, id, call);
        let bytes = req.encode();
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << bit;
            // Either outcome is legal; what is being tested is that the
            // decoder stays total: typed result, no panic, no OOB.
            let _ = WireRequest::decode(&mutated);
            let _ = WireResponse::decode(&mutated);
        }
    }

    #[test]
    fn random_garbage_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let _ = WireRequest::decode(&bytes);
        let _ = WireResponse::decode(&bytes);
    }
}

// ---------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------

#[test]
fn status_codes_are_total_and_stable() {
    assert_eq!(status_wire_code(SearchStatus::Complete), 0);
    assert_eq!(status_wire_code(SearchStatus::BudgetExceeded), 1);
    assert_eq!(status_from_wire_code(0), Some(SearchStatus::Complete));
    assert_eq!(status_from_wire_code(1), Some(SearchStatus::BudgetExceeded));
    assert_eq!(status_from_wire_code(2), None);
}

#[test]
fn empty_payload_is_truncated_not_panic() {
    assert_eq!(WireRequest::decode(&[]), Err(WireDecodeError::Truncated));
    assert_eq!(WireResponse::decode(&[]), Err(WireDecodeError::Truncated));
}

#[test]
fn error_roundtrip_preserves_code_message_and_hint() {
    let err = WireError::overloaded(42);
    let resp = WireResponse::Error(err.clone());
    match WireResponse::decode(&resp.encode()) {
        Ok(WireResponse::Error(back)) => {
            assert_eq!(back.code, ErrorCode::Overloaded);
            assert_eq!(back.message, err.message);
            assert_eq!(back.retry_after_ms, Some(42));
        }
        other => panic!("expected error response, got {other:?}"),
    }
}
