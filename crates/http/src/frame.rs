//! Byte-level framing for [`HttpRequest`]/[`HttpResponse`] messages.
//!
//! The simulated network hands structured messages between endpoints by
//! reference; a real deployment has to put bytes on a wire. This module
//! defines that wire format: a length-prefixed frame whose payload is
//! the existing [`Jv`] text encoding of the message (the same encoding
//! the repair log and the admin carriers already use, so there is one
//! serialization story across the whole system).
//!
//! ```text
//! +--------+------+------+------------+----------+-------------+-------------+---------+
//! | "AIRE" | 0x06 | kind | request id | trace id | parent span | payload len | payload |
//! | 4 B    | 1 B  | 1 B  | 8 B BE     | 8 B BE   | 8 B BE      | 4 B BE      | len B   |
//! +--------+------+------+------------+----------+-------------+-------------+---------+
//! ```
//!
//! There is one header, and every frame carries every field:
//!
//! * the **request id** is a sender-chosen tag echoed back on the
//!   matching `Response`/`Error` frame, which is what lets a dialer keep
//!   several requests in flight on one connection and match replies out
//!   of order (pipelining), and lets a single call refuse a reply that
//!   answers some other request;
//! * the **trace field** (trace id + parent span) mirrors the
//!   `Aire-Trace` header so the observability plane survives even
//!   senders that strip unknown headers; [`NO_TRACE`] (trace id 0) means
//!   "untraced".
//!
//! Frames that have nothing to say in a field (greetings, replies,
//! shutdown) carry its sentinel. A version byte other than [`VERSION`]
//! — including the five retired layouts 1–5 — is refused with
//! [`FrameError::BadVersion`].
//!
//! Malformed input is rejected with a [`FrameError`] that names the
//! problem (bad magic, unknown kind, truncation with the byte counts,
//! oversized payloads, undecodable payloads) rather than a generic
//! failure — transport bugs across process boundaries are debugged from
//! these messages alone.
//!
//! This module lives in `aire-http` (not `aire-transport`) so that
//! `aire-net` can account delivered traffic by **actual framed byte
//! length** with the same encoder the TCP transport uses, without a
//! dependency cycle; `aire-transport` re-exports it.

use aire_types::jv::{str_encoded_len, str_encoded_len_display};
use aire_types::Jv;
use std::fmt;

use crate::{Headers, HttpRequest, HttpResponse};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"AIRE";

/// The wire-format version byte of every frame. Bytes 1–4 named the
/// retired variable-length headers and 5 the header with a shard-hint
/// field; all are refused like any other unknown version.
pub const VERSION: u8 = 6;

/// The trace field `(trace id, parent span)` of an untraced frame.
pub const NO_TRACE: (u64, u64) = (0, 0);

/// Fixed header size: magic + version + kind + request id + trace id +
/// parent span + payload length.
pub const HEADER_LEN: usize = 34;

/// Maximum accepted payload size. Controller snapshots are the largest
/// legitimate payloads; 64 MiB leaves room while bounding what a
/// malicious peer can make a server buffer.
pub const MAX_PAYLOAD_LEN: usize = 64 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Server greeting: the toy certificate presented on connect.
    Hello,
    /// An [`HttpRequest`] (its [`HttpRequest::to_jv`] form).
    Request,
    /// An [`HttpResponse`] (its [`HttpResponse::to_jv`] form).
    Response,
    /// A transport-level failure (an encoded `AireError`), used when the
    /// server cannot produce a response at all (offline target,
    /// re-entrancy refusal, malformed request frame).
    Error,
    /// Graceful-shutdown control frame (operator listener only); the
    /// server acknowledges with a `Shutdown` frame and exits its loop.
    Shutdown,
}

impl FrameKind {
    /// The kind's wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Request => 2,
            FrameKind::Response => 3,
            FrameKind::Error => 4,
            FrameKind::Shutdown => 5,
        }
    }

    /// Parses the wire byte.
    pub fn parse(b: u8) -> Option<FrameKind> {
        match b {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Request),
            3 => Some(FrameKind::Response),
            4 => Some(FrameKind::Error),
            5 => Some(FrameKind::Shutdown),
            _ => None,
        }
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FrameKind::Hello => "hello",
            FrameKind::Request => "request",
            FrameKind::Response => "response",
            FrameKind::Error => "error",
            FrameKind::Shutdown => "shutdown",
        };
        f.write_str(s)
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// The pipelining tag: a server echoes a request's id on its reply.
    pub request_id: u64,
    /// The trace field `(trace_id, parent_span)`, or [`NO_TRACE`].
    pub trace: (u64, u64),
    /// The structured payload.
    pub payload: Jv,
}

/// Why a byte sequence failed to decode as a frame. Every variant names
/// the problem concretely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the format requires at this point.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it had.
        got: usize,
    },
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte was not [`VERSION`].
    BadVersion(u8),
    /// The kind byte named no known [`FrameKind`].
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD_LEN`].
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The accepted maximum.
        max: usize,
    },
    /// The payload bytes were not valid UTF-8 `Jv` text, or decoded to
    /// the wrong shape for the frame kind.
    Payload(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            FrameError::BadMagic(m) => {
                write!(f, "bad frame magic {m:?} (expected {MAGIC:?})")
            }
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported frame version {v} (this node speaks {VERSION})"
                )
            }
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind byte {k}"),
            FrameError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: payload of {len} bytes exceeds the {max}-byte cap"
                )
            }
            FrameError::Payload(why) => write!(f, "undecodable frame payload: {why}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame. The sender enforces the same [`MAX_PAYLOAD_LEN`]
/// cap the receiver does: an over-limit payload fails locally and
/// immediately instead of burning a full transfer only to be rejected
/// by the peer (and a payload beyond `u32` could never even declare its
/// length honestly).
///
/// `request_id` is the tag the peer echoes on its reply; `trace` takes
/// [`NO_TRACE`] when the sender has nothing to say.
pub fn encode_frame(
    kind: FrameKind,
    request_id: u64,
    trace: (u64, u64),
    payload: &Jv,
) -> Result<Vec<u8>, FrameError> {
    let body = payload.encode();
    if body.len() > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversized {
            len: body.len(),
            max: MAX_PAYLOAD_LEN,
        });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind.as_u8());
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&trace.0.to_be_bytes());
    out.extend_from_slice(&trace.1.to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    Ok(out)
}

/// A validated frame header: everything known before the payload bytes
/// arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the payload will be.
    pub kind: FrameKind,
    /// The pipelining tag.
    pub request_id: u64,
    /// The trace field, or [`NO_TRACE`].
    pub trace: (u64, u64),
    /// Declared payload byte count.
    pub payload_len: usize,
}

impl FrameHeader {
    /// Total size of the frame (header plus payload).
    pub fn frame_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }
}

/// Validates a frame header and returns its decoded fields, including
/// how many bytes the whole frame will occupy.
///
/// Stream readers call this as bytes arrive: fewer than [`HEADER_LEN`]
/// bytes is a [`FrameError::Truncated`] ("keep reading") — unless the
/// magic, version or kind byte already in hand is wrong, which is
/// refused at once, so a peer speaking something else entirely gets a
/// named error without first having to send a header's worth of it.
pub fn decode_header(buf: &[u8]) -> Result<FrameHeader, FrameError> {
    if let Some(magic) = buf.first_chunk::<4>() {
        if *magic != MAGIC {
            return Err(FrameError::BadMagic(*magic));
        }
    }
    if buf.len() > 4 && buf[4] != VERSION {
        return Err(FrameError::BadVersion(buf[4]));
    }
    if buf.len() > 5 && FrameKind::parse(buf[5]).is_none() {
        return Err(FrameError::UnknownKind(buf[5]));
    }
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated {
            needed: HEADER_LEN,
            got: buf.len(),
        });
    }
    let kind = FrameKind::parse(buf[5]).expect("kind byte checked above");
    let be64 = |at: usize| {
        let mut b = [0u8; 8];
        b.copy_from_slice(&buf[at..at + 8]);
        u64::from_be_bytes(b)
    };
    let len = u32::from_be_bytes([buf[30], buf[31], buf[32], buf[33]]) as usize;
    if len > MAX_PAYLOAD_LEN {
        return Err(FrameError::Oversized {
            len,
            max: MAX_PAYLOAD_LEN,
        });
    }
    Ok(FrameHeader {
        kind,
        request_id: be64(6),
        trace: (be64(14), be64(22)),
        payload_len: len,
    })
}

/// Decodes one frame from the front of `buf`, returning it and the
/// number of bytes consumed.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    let header = decode_header(buf)?;
    let total = header.frame_len();
    if buf.len() < total {
        return Err(FrameError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    let text = std::str::from_utf8(&buf[HEADER_LEN..total])
        .map_err(|e| FrameError::Payload(format!("payload is not UTF-8: {e}")))?;
    let payload = Jv::decode(text).map_err(|e| FrameError::Payload(e.to_string()))?;
    Ok((
        Frame {
            kind: header.kind,
            request_id: header.request_id,
            trace: header.trace,
            payload,
        },
        total,
    ))
}

/// Frames a request the way a lone caller would: request id 0, no
/// trace. (The TCP dialer tags its own frames.)
pub fn encode_request(req: &HttpRequest) -> Result<Vec<u8>, FrameError> {
    encode_frame(FrameKind::Request, 0, NO_TRACE, &req.to_jv())
}

/// Unpacks a [`FrameKind::Request`] frame.
pub fn decode_request(frame: &Frame) -> Result<HttpRequest, FrameError> {
    if frame.kind != FrameKind::Request {
        return Err(FrameError::Payload(format!(
            "expected a request frame, got a {} frame",
            frame.kind
        )));
    }
    HttpRequest::from_jv(&frame.payload).map_err(FrameError::Payload)
}

/// Frames a response with request id 0 (see [`encode_request`]).
pub fn encode_response(resp: &HttpResponse) -> Result<Vec<u8>, FrameError> {
    encode_frame(FrameKind::Response, 0, NO_TRACE, &resp.to_jv())
}

/// Unpacks a [`FrameKind::Response`] frame.
pub fn decode_response(frame: &Frame) -> Result<HttpResponse, FrameError> {
    if frame.kind != FrameKind::Response {
        return Err(FrameError::Payload(format!(
            "expected a response frame, got a {} frame",
            frame.kind
        )));
    }
    HttpResponse::from_jv(&frame.payload).map_err(FrameError::Payload)
}

/// Builds a hello payload advertising every identity a node hosts.
///
/// The greeting opened the wire format as a bare certificate map when a
/// node could host only one service; a multi-service node presents one
/// identity *per hosted service* on the same connection, so the payload
/// is now a map with a `certs` list. Each entry is an opaque identity
/// document (the transport layer's `Certificate::to_jv` form — this
/// module stays certificate-agnostic and only fixes the envelope).
pub fn hello_payload(identities: impl IntoIterator<Item = Jv>) -> Jv {
    let mut m = Jv::map();
    m.set("certs", Jv::list(identities));
    m
}

/// Extracts the identity list from a hello payload.
///
/// Accepts both the multi-service `{"certs": [..]}` envelope and the
/// bare single-identity map that single-service nodes greeted with
/// before multi-service hosting existed, so a new dialer can still
/// validate an old node. An empty identity list is rejected: a node
/// that asserts no identity at all cannot pass any §3.1 check, and a
/// loud error beats a silent "no match".
pub fn hello_identities(payload: &Jv) -> Result<Vec<Jv>, String> {
    if let Some(list) = payload.get("certs").as_list() {
        if list.is_empty() {
            return Err("hello advertises no identities".to_string());
        }
        return Ok(list.to_vec());
    }
    if payload.as_map().is_some_and(|m| m.contains_key("subject")) {
        return Ok(vec![payload.clone()]);
    }
    Err(format!(
        "hello payload is neither an identity list nor a single identity: {}",
        payload.encode()
    ))
}

/// Length of a `Jv` map encoding with the given `(key, value length)`
/// entries — braces, separators, and escaped keys included.
fn map_encoded_len(entries: &[(&str, usize)]) -> usize {
    2 + entries.len().saturating_sub(1)
        + entries
            .iter()
            .map(|(k, v)| str_encoded_len(k) + 1 + v)
            .sum::<usize>()
}

/// Length of the headers-map encoding inside `to_jv` forms.
fn headers_encoded_len(headers: &Headers) -> usize {
    2 + headers.len().saturating_sub(1)
        + headers
            .iter()
            .map(|(k, v)| str_encoded_len(k) + 1 + str_encoded_len(v))
            .sum::<usize>()
}

/// Exact framed size of a request — the byte count [`encode_request`]
/// would put on the wire. This (plus [`framed_response_len`]) is the one
/// source of truth for network byte accounting, whether delivery is
/// in-process or over TCP.
///
/// Counted structurally (mirroring [`HttpRequest::to_jv`]'s shape)
/// rather than by materializing the document: delivery accounting is a
/// hot path, and cloning the whole body into a throwaway tree per
/// message would tax every in-process scenario. The framing property
/// tests pin this to `encode_request(..).len()` across arbitrary
/// message shapes, so the mirror cannot drift silently.
pub fn framed_request_len(req: &HttpRequest) -> usize {
    HEADER_LEN
        + map_encoded_len(&[
            ("body", req.body.encoded_len()),
            ("headers", headers_encoded_len(&req.headers)),
            ("method", str_encoded_len(req.method.as_str())),
            ("url", str_encoded_len_display(&req.url)),
        ])
}

/// Exact framed size of a response (see [`framed_request_len`]).
pub fn framed_response_len(resp: &HttpResponse) -> usize {
    HEADER_LEN
        + map_encoded_len(&[
            ("body", resp.body.encoded_len()),
            ("headers", headers_encoded_len(&resp.headers)),
            ("status", Jv::i(resp.status.0 as i64).encoded_len()),
        ])
}

#[cfg(test)]
mod tests {
    use aire_types::jv;

    use super::*;
    use crate::{Method, Status, Url};

    fn sample_request() -> HttpRequest {
        HttpRequest::post(
            Url::service("askbot", "/questions/new"),
            jv!({"title": "How?", "body": "Like this."}),
        )
        .with_header("Cookie", "sessionid=abc")
    }

    #[test]
    fn request_frame_round_trip() {
        let req = sample_request();
        let bytes = encode_request(&req).unwrap();
        let (frame, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decode_request(&frame).unwrap(), req);
        assert_eq!(bytes.len(), framed_request_len(&req));
    }

    #[test]
    fn response_frame_round_trip() {
        let resp = HttpResponse::ok(jv!({"id": 7})).with_header("Aire-Request-Id", "askbot/Q9");
        let bytes = encode_response(&resp).unwrap();
        let (frame, _) = decode_frame(&bytes).unwrap();
        assert_eq!(decode_response(&frame).unwrap(), resp);
        assert_eq!(bytes.len(), framed_response_len(&resp));
    }

    #[test]
    fn truncation_names_the_byte_counts() {
        let bytes = encode_frame(FrameKind::Response, 7, (11, 12), &Jv::Null).unwrap();
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            let needed = if cut < HEADER_LEN {
                HEADER_LEN
            } else {
                bytes.len()
            };
            assert_eq!(err, FrameError::Truncated { needed, got: cut });
        }
    }

    #[test]
    fn bad_magic_version_and_kind_are_rejected() {
        let mut bytes = encode_request(&sample_request()).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            decode_frame(&bytes).unwrap_err(),
            FrameError::BadMagic(_)
        ));
        let mut bytes = encode_request(&sample_request()).unwrap();
        bytes[4] = 9;
        assert_eq!(decode_frame(&bytes).unwrap_err(), FrameError::BadVersion(9));
        let mut bytes = encode_request(&sample_request()).unwrap();
        bytes[5] = 77;
        assert_eq!(
            decode_frame(&bytes).unwrap_err(),
            FrameError::UnknownKind(77)
        );
        // Each is refused as soon as the offending byte is in hand, well
        // short of a full header.
        assert!(matches!(
            decode_header(b"POST").unwrap_err(),
            FrameError::BadMagic(_)
        ));
        assert_eq!(
            decode_header(b"AIRE\x01").unwrap_err(),
            FrameError::BadVersion(1)
        );
        assert_eq!(
            decode_header(&[b'A', b'I', b'R', b'E', VERSION, 77]).unwrap_err(),
            FrameError::UnknownKind(77)
        );
    }

    #[test]
    fn oversized_declared_length_is_rejected_before_buffering() {
        let mut bytes = encode_request(&sample_request()).unwrap();
        bytes[HEADER_LEN - 4..HEADER_LEN].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = decode_header(&bytes).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn garbage_payload_is_rejected_with_the_decode_error() {
        let mut bytes = encode_frame(FrameKind::Request, 0, NO_TRACE, &Jv::s("x")).unwrap();
        let n = bytes.len();
        bytes[n - 1] = 0xFF; // invalid UTF-8 inside the payload
        let err = decode_frame(&bytes).unwrap_err();
        assert!(err.to_string().contains("UTF-8"), "{err}");

        // Valid Jv, wrong shape for the kind.
        let frame = Frame {
            kind: FrameKind::Request,
            request_id: 0,
            trace: NO_TRACE,
            payload: Jv::Null,
        };
        assert!(decode_request(&frame).is_err());
    }

    #[test]
    fn wrong_kind_is_named_in_the_error() {
        let req = sample_request();
        let (frame, _) = decode_frame(&encode_request(&req).unwrap()).unwrap();
        let err = decode_response(&frame).unwrap_err();
        assert!(err.to_string().contains("request frame"), "{err}");
    }

    #[test]
    fn sender_rejects_oversized_payloads_locally() {
        let huge = HttpRequest::post(
            Url::service("s", "/"),
            Jv::s("x".repeat(MAX_PAYLOAD_LEN + 1)),
        );
        let err = encode_request(&huge).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
    }

    #[test]
    fn hello_payload_round_trips_every_identity() {
        let ids = vec![
            jv!({"subject": "askbot", "serial": 1}),
            jv!({"subject": "dpaste", "serial": 2}),
        ];
        let payload = hello_payload(ids.clone());
        assert_eq!(hello_identities(&payload).unwrap(), ids);
    }

    #[test]
    fn bare_single_identity_hellos_are_still_understood() {
        let legacy = jv!({"subject": "echo", "serial": 7});
        assert_eq!(hello_identities(&legacy).unwrap(), vec![legacy.clone()]);
    }

    #[test]
    fn identityless_hellos_are_rejected_with_the_reason() {
        let err = hello_identities(&hello_payload(Vec::new())).unwrap_err();
        assert!(err.contains("no identities"), "{err}");
        let err = hello_identities(&Jv::Null).unwrap_err();
        assert!(err.contains("neither"), "{err}");
        let err = hello_identities(&jv!({"who": "am i"})).unwrap_err();
        assert!(err.contains("neither"), "{err}");
    }

    #[test]
    fn every_sentinel_combination_round_trips() {
        let req = sample_request();
        for request_id in [0, 0xDEAD_BEEF_0042] {
            for trace in [NO_TRACE, (0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321)] {
                let bytes =
                    encode_frame(FrameKind::Request, request_id, trace, &req.to_jv()).unwrap();
                assert_eq!(bytes[4], VERSION);
                assert_eq!(bytes.len(), framed_request_len(&req));
                let header = decode_header(&bytes).unwrap();
                assert_eq!(header.frame_len(), bytes.len());
                let (frame, used) = decode_frame(&bytes).unwrap();
                assert_eq!(used, bytes.len());
                assert_eq!(frame.request_id, request_id);
                assert_eq!(frame.trace, trace);
                assert_eq!(decode_request(&frame).unwrap(), req);
            }
        }
    }

    #[test]
    fn retired_version_bytes_are_refused_by_name() {
        for retired in 1..=5u8 {
            let mut bytes = encode_request(&sample_request()).unwrap();
            bytes[4] = retired;
            let err = decode_frame(&bytes).unwrap_err();
            assert_eq!(err, FrameError::BadVersion(retired));
            assert!(err.to_string().contains(&retired.to_string()), "{err}");
        }
    }

    #[test]
    fn method_survives_framing() {
        for m in [Method::Get, Method::Post, Method::Put, Method::Delete] {
            let req = HttpRequest::new(m, Url::service("s", "/p"));
            let (frame, _) = decode_frame(&encode_request(&req).unwrap()).unwrap();
            assert_eq!(decode_request(&frame).unwrap().method, m);
        }
        let resp = HttpResponse::error(Status::NOT_FOUND, "nope");
        let (frame, _) = decode_frame(&encode_response(&resp).unwrap()).unwrap();
        assert_eq!(decode_response(&frame).unwrap().status, Status::NOT_FOUND);
    }
}
