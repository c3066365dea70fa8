//! Property tests on the byte-level framing layer: every
//! `HttpRequest`/`HttpResponse` shape must survive
//! `decode(encode(x)) == x`, and truncated, oversized, and garbage
//! frames must be rejected with errors that name the problem.

use aire_http::{Headers, HttpRequest, HttpResponse, Method, Status, Url};
use aire_transport::frame::{self, FrameError, FrameKind, HEADER_LEN, MAX_PAYLOAD_LEN};
use aire_types::{jv, Jv};
use proptest::prelude::*;

//////// Generators. ////////

fn arb_jv() -> BoxedStrategy<Jv> {
    // Bounded-depth structured values covering every Jv shape.
    let leaf = prop_oneof![
        Just(Jv::Null),
        any::<bool>().prop_map(Jv::Bool),
        any::<i64>().prop_map(Jv::Int),
        "[ -~]{0,24}".prop_map(Jv::s),
        // Strings that stress the text codec's escaping.
        Just(Jv::s("quote \" backslash \\ newline \n tab \t")),
        Just(Jv::s("unicode: héllo — ⚙")),
    ];
    let inner = leaf.boxed();
    (
        prop::collection::vec(inner.clone(), 0..4),
        prop::collection::btree_map("[a-z_]{1,8}", inner, 0..4),
    )
        .prop_map(|(list, map)| {
            let mut m = Jv::map();
            m.set("list", Jv::List(list));
            m.set("map", Jv::Map(map));
            m
        })
        .boxed()
}

fn arb_method() -> BoxedStrategy<Method> {
    prop::sample::select(vec![Method::Get, Method::Post, Method::Put, Method::Delete]).boxed()
}

fn arb_headers() -> BoxedStrategy<Headers> {
    prop::collection::btree_map("[a-z-]{1,10}", "[ -~]{0,16}", 0..4)
        .prop_map(|m| m.into_iter().collect::<Headers>())
        .boxed()
}

fn arb_request() -> BoxedStrategy<HttpRequest> {
    (
        arb_method(),
        "[a-z]{1,8}",
        "/[a-z0-9/]{0,12}",
        arb_headers(),
        arb_jv(),
    )
        .prop_map(|(method, host, path, headers, body)| {
            let mut req = HttpRequest::new(method, Url::service(host, path));
            req.headers = headers;
            req.body = body;
            req
        })
        .boxed()
}

fn arb_response() -> BoxedStrategy<HttpResponse> {
    (
        prop::sample::select(vec![200u16, 201, 400, 401, 404, 408, 409, 410, 503]),
        arb_headers(),
        arb_jv(),
    )
        .prop_map(|(status, headers, body)| {
            let mut resp = HttpResponse::new(Status(status), body);
            resp.headers = headers;
            resp
        })
        .boxed()
}

//////// Round trips. ////////

proptest! {
    // `NetStats.bytes` is counted with `framed_*_len`; the wire carries
    // frames with a real id and trace set. One header size means
    // the two cannot disagree.
    #[test]
    fn every_request_shape_survives_framing(
        req in arb_request(),
        id in any::<u64>(),
        trace in (any::<u64>(), any::<u64>()),
    ) {
        let bytes = frame::encode_frame(FrameKind::Request, id, trace, &req.to_jv()).unwrap();
        prop_assert_eq!(bytes.len(), frame::framed_request_len(&req));
        prop_assert_eq!(frame::encode_request(&req).unwrap().len(), bytes.len());
        let (fr, used) = frame::decode_frame(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!((fr.request_id, fr.trace), (id, trace));
        prop_assert_eq!(frame::decode_request(&fr).unwrap(), req);
    }

    #[test]
    fn every_response_shape_survives_framing(resp in arb_response(), id in any::<u64>()) {
        let bytes =
            frame::encode_frame(FrameKind::Response, id, frame::NO_TRACE, &resp.to_jv()).unwrap();
        prop_assert_eq!(bytes.len(), frame::framed_response_len(&resp));
        prop_assert_eq!(frame::encode_response(&resp).unwrap().len(), bytes.len());
        let (fr, used) = frame::decode_frame(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(fr.request_id, id);
        prop_assert_eq!(frame::decode_response(&fr).unwrap(), resp);
    }

    #[test]
    fn frames_decode_from_the_front_of_longer_buffers(
        req in arb_request(),
        trailing in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        // A stream reader sees concatenated traffic; decoding must stop
        // at the frame boundary.
        let mut bytes = frame::encode_request(&req).unwrap();
        let framed = bytes.len();
        bytes.extend_from_slice(&trailing);
        let (fr, used) = frame::decode_frame(&bytes).unwrap();
        prop_assert_eq!(used, framed);
        prop_assert_eq!(frame::decode_request(&fr).unwrap(), req);
    }

    //////// Malformed input. ////////

    #[test]
    fn every_truncation_is_rejected_with_byte_counts(
        req in arb_request(),
        frac in 0u64..10_000,
    ) {
        let bytes = frame::encode_request(&req).unwrap();
        let cut = (frac as usize * (bytes.len().saturating_sub(1))) / 10_000;
        let err = frame::decode_frame(&bytes[..cut]).unwrap_err();
        match err {
            FrameError::Truncated { needed, got } => {
                prop_assert_eq!(got, cut);
                prop_assert!(needed > got);
                prop_assert!(needed <= bytes.len());
            }
            other => prop_assert!(false, "cut at {}: unexpected error {}", cut, other),
        }
    }

    #[test]
    fn corrupt_magic_is_rejected(req in arb_request(), pos in 0usize..4, byte in any::<u8>()) {
        let mut bytes = frame::encode_request(&req).unwrap();
        prop_assume!(bytes[pos] != byte);
        bytes[pos] = byte;
        let err = frame::decode_frame(&bytes).unwrap_err();
        prop_assert!(matches!(err, FrameError::BadMagic(_)), "{}", err);
        prop_assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn oversized_length_declarations_are_rejected(req in arb_request(), extra in 1u32..1_000) {
        let mut bytes = frame::encode_request(&req).unwrap();
        let huge = (MAX_PAYLOAD_LEN as u32).saturating_add(extra);
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&huge.to_be_bytes());
        let err = frame::decode_header(&bytes).unwrap_err();
        match err {
            FrameError::Oversized { len, max } => {
                prop_assert_eq!(len, huge as usize);
                prop_assert_eq!(max, MAX_PAYLOAD_LEN);
            }
            other => prop_assert!(false, "unexpected error {}", other),
        }
    }

    #[test]
    fn garbage_payloads_are_rejected_not_misparsed(payload in prop::collection::vec(any::<u8>(), 0..64)) {
        // A syntactically valid header followed by arbitrary bytes must
        // either decode to some Jv (harmless) or fail with a payload
        // error — never panic, never return a request.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame::MAGIC);
        bytes.push(frame::VERSION);
        bytes.push(FrameKind::Request.as_u8());
        bytes.extend_from_slice(&[0u8; HEADER_LEN - 10]);
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&payload);
        match frame::decode_frame(&bytes) {
            Ok((fr, _)) => {
                // Whatever parsed is at least not silently a request
                // unless it has the request shape.
                let _ = frame::decode_request(&fr);
            }
            Err(e) => {
                prop_assert!(matches!(e, FrameError::Payload(_)), "{}", e);
                prop_assert!(e.to_string().contains("payload"), "{}", e);
            }
        }
    }

    #[test]
    fn unknown_kind_bytes_are_rejected(req in arb_request(), kind in 6u8..255) {
        let mut bytes = frame::encode_request(&req).unwrap();
        bytes[5] = kind;
        prop_assert_eq!(
            frame::decode_frame(&bytes).unwrap_err(),
            FrameError::UnknownKind(kind)
        );
    }
}

//////// Deterministic edge cases. ////////

#[test]
fn header_len_is_the_documented_layout() {
    let bytes = frame::encode_frame(FrameKind::Hello, 0x0102, (4, 5), &Jv::Null).unwrap();
    assert_eq!(&bytes[..4], b"AIRE");
    assert_eq!(bytes[4], frame::VERSION);
    assert_eq!(bytes[5], FrameKind::Hello.as_u8());
    assert_eq!(bytes[6..14], 0x0102u64.to_be_bytes());
    assert_eq!(bytes[14..22], 4u64.to_be_bytes());
    assert_eq!(bytes[22..30], 5u64.to_be_bytes());
    assert_eq!(bytes[30..34], 4u32.to_be_bytes());
    assert_eq!(bytes.len(), HEADER_LEN + "null".len());
}

#[test]
fn empty_input_is_a_truncation_not_a_panic() {
    assert_eq!(
        frame::decode_frame(&[]).unwrap_err(),
        FrameError::Truncated {
            needed: HEADER_LEN,
            got: 0
        }
    );
}

#[test]
fn admin_carrier_requests_frame_like_any_other() {
    // The control plane rides the same framing as data traffic.
    let req = HttpRequest::post(
        Url::service("askbot", "/aire/v1/admin/stats"),
        jv!({"op": "stats"}),
    );
    let (fr, _) = frame::decode_frame(&frame::encode_request(&req).unwrap()).unwrap();
    assert_eq!(frame::decode_request(&fr).unwrap(), req);
}
